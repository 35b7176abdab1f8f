//! Affine (linear) integer forms over named variables.
//!
//! Subscript analysis (§6 of the paper) applies when subscript
//! expressions are *linear in the loop indices*:
//! `f x1 ... xd = a0 + Σ ak·xk`. [`Affine`] is that normal form, and
//! [`Affine::from_expr`] is the extraction that decides whether an
//! expression is linear (folding compile-time constants on the way).

use std::collections::BTreeMap;
use std::fmt;

use crate::ast::{BinOp, Expr, UnOp};
use crate::env::ConstEnv;

/// Why [`Affine::try_from_expr`] found no affine form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotAffine {
    /// The expression is not linear in its variables.
    Nonlinear,
    /// A coefficient or the constant overflows `i64`.
    Overflow,
}

/// An affine integer form `c + Σ coeff(v) · v` over named variables.
///
/// Variables with a zero coefficient are never stored, so structural
/// equality coincides with mathematical equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Affine {
    constant: i64,
    /// Sorted by variable name; never contains zero coefficients.
    coeffs: BTreeMap<String, i64>,
}

impl Affine {
    /// The constant form `c`.
    pub fn constant(c: i64) -> Affine {
        Affine {
            constant: c,
            coeffs: BTreeMap::new(),
        }
    }

    /// The single-variable form `1·v`.
    pub fn var(v: impl Into<String>) -> Affine {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(v.into(), 1);
        Affine {
            constant: 0,
            coeffs,
        }
    }

    /// The form `k·v`.
    pub fn term(v: impl Into<String>, k: i64) -> Affine {
        let mut a = Affine::constant(0);
        a.add_term(&v.into(), k);
        a
    }

    /// The constant part `a0`.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: &str) -> i64 {
        self.coeffs.get(v).copied().unwrap_or(0)
    }

    /// Iterate over `(variable, coefficient)` pairs with nonzero
    /// coefficients, in variable-name order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.coeffs.iter().map(|(v, &k)| (v.as_str(), k))
    }

    /// The set of variables with nonzero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.coeffs.keys().map(|s| s.as_str())
    }

    /// `true` if the form is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    fn add_term(&mut self, v: &str, k: i64) {
        if k == 0 {
            return;
        }
        let entry = self.coeffs.entry(v.to_string()).or_insert(0);
        *entry += k;
        if *entry == 0 {
            self.coeffs.remove(v);
        }
    }

    /// Pointwise sum.
    pub fn add(&self, other: &Affine) -> Affine {
        let mut out = self.clone();
        out.constant += other.constant;
        for (v, k) in other.terms() {
            out.add_term(v, k);
        }
        out
    }

    /// Pointwise sum, or `None` when a coefficient or the constant
    /// overflows `i64`.
    pub fn checked_add(&self, other: &Affine) -> Option<Affine> {
        let mut out = self.clone();
        out.constant = out.constant.checked_add(other.constant)?;
        for (v, k) in other.terms() {
            let c = out.coeff(v).checked_add(k)?;
            out.coeffs.insert(v.to_string(), c);
            if c == 0 {
                out.coeffs.remove(v);
            }
        }
        Some(out)
    }

    /// Scalar multiple, or `None` when a coefficient or the constant
    /// overflows `i64`.
    pub fn checked_scale(&self, k: i64) -> Option<Affine> {
        if k == 0 {
            return Some(Affine::constant(0));
        }
        let mut coeffs = BTreeMap::new();
        for (v, c) in self.terms() {
            coeffs.insert(v.to_string(), c.checked_mul(k)?);
        }
        Some(Affine {
            constant: self.constant.checked_mul(k)?,
            coeffs,
        })
    }

    /// Pointwise difference.
    pub fn sub(&self, other: &Affine) -> Affine {
        self.add(&other.scale(-1))
    }

    /// Scalar multiple.
    pub fn scale(&self, k: i64) -> Affine {
        if k == 0 {
            return Affine::constant(0);
        }
        Affine {
            constant: self.constant * k,
            coeffs: self
                .coeffs
                .iter()
                .map(|(v, &c)| (v.clone(), c * k))
                .collect(),
        }
    }

    /// Substitute an affine form for a variable: `self[v := repl]`.
    pub fn subst(&self, v: &str, repl: &Affine) -> Affine {
        let k = self.coeff(v);
        if k == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.coeffs.remove(v);
        out.add(&repl.scale(k))
    }

    /// Evaluate under a total assignment of the form's variables.
    ///
    /// # Panics
    /// Panics if a variable is missing from `assignment`.
    pub fn eval(&self, assignment: &BTreeMap<String, i64>) -> i64 {
        let mut acc = self.constant;
        for (v, k) in self.terms() {
            let val = assignment
                .get(v)
                .unwrap_or_else(|| panic!("affine eval: unbound variable `{v}`"));
            acc += k * val;
        }
        acc
    }

    /// Extract an affine form from an expression. Returns `None` when
    /// [`Affine::try_from_expr`] finds no form.
    pub fn from_expr(e: &Expr, env: &ConstEnv) -> Option<Affine> {
        Affine::try_from_expr(e, env).ok()
    }

    /// Extract an affine form from an expression, or say why there is
    /// none: the expression is not linear (e.g. `i*j`, `a!k` as a
    /// subscript, division with a remainder, or a non-constant `mod`),
    /// or a coefficient or the constant overflows `i64`.
    ///
    /// Variables bound in `env` (program parameters with known values)
    /// fold to constants; all other variables stay symbolic — those are
    /// the loop indices as far as the analysis is concerned.
    ///
    /// # Errors
    /// [`NotAffine`] names the reason.
    pub fn try_from_expr(e: &Expr, env: &ConstEnv) -> Result<Affine, NotAffine> {
        let overflow = |a: Option<Affine>| a.ok_or(NotAffine::Overflow);
        match e {
            Expr::Int(v) => Ok(Affine::constant(*v)),
            // Accept integral float literals used in subscripts.
            Expr::Num(v) if v.fract() == 0.0 && v.abs() < i64::MAX as f64 => {
                Ok(Affine::constant(*v as i64))
            }
            Expr::Var(v) => Ok(match env.lookup(v) {
                Some(c) => Affine::constant(c),
                None => Affine::var(v.clone()),
            }),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => overflow(Affine::try_from_expr(expr, env)?.checked_scale(-1)),
            Expr::Binary { op, lhs, rhs } => {
                let l = Affine::try_from_expr(lhs, env)?;
                let r = Affine::try_from_expr(rhs, env)?;
                match op {
                    BinOp::Add => overflow(l.checked_add(&r)),
                    BinOp::Sub => overflow(r.checked_scale(-1).and_then(|r| l.checked_add(&r))),
                    BinOp::Mul if l.is_constant() => overflow(r.checked_scale(l.constant)),
                    BinOp::Mul if r.is_constant() => overflow(l.checked_scale(r.constant)),
                    // Linear only for exact constant division; `None`
                    // for b = 0 and for i64::MIN / -1.
                    BinOp::Div if l.is_constant() && r.is_constant() => {
                        let (a, b) = (l.constant, r.constant);
                        match a.checked_rem(b) {
                            Some(0) => Ok(Affine::constant(a / b)),
                            _ => Err(NotAffine::Nonlinear),
                        }
                    }
                    BinOp::Mod if l.is_constant() && r.is_constant() => l
                        .constant
                        .checked_rem_euclid(r.constant)
                        .map(Affine::constant)
                        .ok_or(NotAffine::Nonlinear),
                    _ => Err(NotAffine::Nonlinear),
                }
            }
            _ => Err(NotAffine::Nonlinear),
        }
    }

    /// Render the form back into an [`Expr`].
    pub fn to_expr(&self) -> Expr {
        let mut acc: Option<Expr> = None;
        for (v, k) in self.terms() {
            let term = if k == 1 {
                Expr::var(v)
            } else {
                Expr::mul(Expr::int(k), Expr::var(v))
            };
            acc = Some(match acc {
                None => term,
                Some(prev) => Expr::add(prev, term),
            });
        }
        match acc {
            None => Expr::int(self.constant),
            Some(e) if self.constant == 0 => e,
            Some(e) if self.constant > 0 => Expr::add(e, Expr::int(self.constant)),
            Some(e) => Expr::sub(e, Expr::int(-self.constant)),
        }
    }
}

impl fmt::Display for Affine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, k) in self.terms() {
            if first {
                match k {
                    1 => write!(f, "{v}")?,
                    -1 => write!(f, "-{v}")?,
                    _ => write!(f, "{k}{v}")?,
                }
                first = false;
            } else if k >= 0 {
                if k == 1 {
                    write!(f, " + {v}")?;
                } else {
                    write!(f, " + {k}{v}")?;
                }
            } else if k == -1 {
                write!(f, " - {v}")?;
            } else {
                write!(f, " - {}{v}", -k)?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, " + {}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, " - {}", -self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_n(n: i64) -> ConstEnv {
        let mut e = ConstEnv::new();
        e.bind("n", n);
        e
    }

    #[test]
    fn extract_linear_subscript() {
        // 3*i - 1 with n bound
        let e = Expr::sub(Expr::mul(Expr::int(3), Expr::var("i")), Expr::int(1));
        let a = Affine::from_expr(&e, &ConstEnv::new()).unwrap();
        assert_eq!(a.coeff("i"), 3);
        assert_eq!(a.constant_part(), -1);
    }

    #[test]
    fn params_fold_to_constants() {
        // n - i  with n = 10
        let e = Expr::sub(Expr::var("n"), Expr::var("i"));
        let a = Affine::from_expr(&e, &env_n(10)).unwrap();
        assert_eq!(a.constant_part(), 10);
        assert_eq!(a.coeff("i"), -1);
    }

    #[test]
    fn nonlinear_rejected() {
        let e = Expr::mul(Expr::var("i"), Expr::var("j"));
        assert!(Affine::from_expr(&e, &ConstEnv::new()).is_none());
        let idx = Expr::index1("k", Expr::var("i"));
        assert!(Affine::from_expr(&idx, &ConstEnv::new()).is_none());
    }

    #[test]
    fn constant_mul_is_linear() {
        // (n-1) * i  with n = 5  →  4i
        let e = Expr::mul(Expr::sub(Expr::var("n"), Expr::int(1)), Expr::var("i"));
        let a = Affine::from_expr(&e, &env_n(5)).unwrap();
        assert_eq!(a.coeff("i"), 4);
    }

    #[test]
    fn add_cancels_to_zero_coeff() {
        let a = Affine::term("i", 2).add(&Affine::term("i", -2));
        assert!(a.is_constant());
        assert_eq!(a, Affine::constant(0));
    }

    #[test]
    fn subst_inlines_normalization() {
        // i ↦ 2*i' - 1 inside 3i + 4:  3(2i'-1)+4 = 6i' + 1
        let a = Affine::term("i", 3).add(&Affine::constant(4));
        let repl = Affine::term("ip", 2).add(&Affine::constant(-1));
        let s = a.subst("i", &repl);
        assert_eq!(s.coeff("ip"), 6);
        assert_eq!(s.constant_part(), 1);
    }

    #[test]
    fn eval_matches_terms() {
        let a = Affine::term("i", 3)
            .add(&Affine::term("j", -2))
            .add(&Affine::constant(7));
        let mut asg = BTreeMap::new();
        asg.insert("i".to_string(), 4);
        asg.insert("j".to_string(), 5);
        assert_eq!(a.eval(&asg), 3 * 4 - 2 * 5 + 7);
    }

    #[test]
    fn display_readable() {
        let a = Affine::term("i", 3)
            .add(&Affine::term("j", -1))
            .add(&Affine::constant(-2));
        assert_eq!(a.to_string(), "3i - j - 2");
        assert_eq!(Affine::constant(0).to_string(), "0");
    }

    #[test]
    fn roundtrip_to_expr() {
        let a = Affine::term("i", 2).add(&Affine::constant(-3));
        let e = a.to_expr();
        let back = Affine::from_expr(&e, &ConstEnv::new()).unwrap();
        assert_eq!(a, back);
    }
}
