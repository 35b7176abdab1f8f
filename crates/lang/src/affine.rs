//! Affine (linear) integer forms over source names and normalized loop
//! indices.
//!
//! Subscript analysis (§6 of the paper) applies when subscript
//! expressions are *linear in the loop indices*:
//! `f x1 ... xd = a0 + Σ ak·xk`. [`Affine`] is that normal form, and
//! [`Affine::from_expr`] is the extraction that decides whether an
//! expression is linear (folding compile-time constants on the way).

use std::fmt;

use crate::ast::{BinOp, Expr, LoopId, UnOp};
use crate::env::ConstEnv;

/// Why [`Affine::try_from_expr`] found no affine form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotAffine {
    /// The expression is not linear in its variables.
    Nonlinear,
    /// A coefficient or the constant overflows `i64`.
    Overflow,
}

/// A variable of an affine form: a source-level name, or the
/// normalized index of a loop (§6; rendered `L<k>`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Var {
    Name(String),
    Loop(LoopId),
}

impl From<&str> for Var {
    fn from(v: &str) -> Var {
        Var::Name(v.to_string())
    }
}

impl From<String> for Var {
    fn from(v: String) -> Var {
        Var::Name(v)
    }
}

impl From<LoopId> for Var {
    fn from(id: LoopId) -> Var {
        Var::Loop(id)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Var::Name(v) => f.write_str(v),
            Var::Loop(id) => write!(f, "{id}"),
        }
    }
}

/// An affine integer form `c + Σ coeff(v) · v` over [`Var`]s.
///
/// Variables with a zero coefficient are never stored, so structural
/// equality coincides with mathematical equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Affine {
    constant: i64,
    /// Sorted by variable; never contains zero coefficients. Subscripts
    /// have a term or two, so a sorted vector beats a map.
    coeffs: Vec<(Var, i64)>,
}

impl Affine {
    /// The constant form `c`.
    pub fn constant(c: i64) -> Affine {
        Affine {
            constant: c,
            coeffs: Vec::new(),
        }
    }

    /// The single-variable form `1·v`.
    pub fn var(v: impl Into<Var>) -> Affine {
        Affine::term(v, 1)
    }

    /// The form `k·v`.
    pub fn term(v: impl Into<Var>, k: i64) -> Affine {
        let coeffs = if k == 0 {
            Vec::new()
        } else {
            vec![(v.into(), k)]
        };
        Affine {
            constant: 0,
            coeffs,
        }
    }

    /// The constant part `a0`.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    fn find(&self, v: &Var) -> Result<usize, usize> {
        self.coeffs.binary_search_by(|(w, _)| w.cmp(v))
    }

    /// The coefficient of the named variable `v` (zero if absent).
    pub fn coeff(&self, v: &str) -> i64 {
        self.coeffs
            .iter()
            .find(|(w, _)| matches!(w, Var::Name(n) if n == v))
            .map_or(0, |&(_, k)| k)
    }

    /// The coefficient of loop `id`'s normalized index (zero if
    /// absent).
    pub fn loop_coeff(&self, id: LoopId) -> i64 {
        self.coeffs
            .iter()
            .find(|(w, _)| *w == Var::Loop(id))
            .map_or(0, |&(_, k)| k)
    }

    /// Iterate over `(variable, coefficient)` pairs with nonzero
    /// coefficients, in variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&Var, i64)> {
        self.coeffs.iter().map(|(v, k)| (v, *k))
    }

    /// `true` if the form is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Pointwise sum, or `None` when a coefficient or the constant
    /// overflows `i64`.
    pub fn checked_add(&self, other: &Affine) -> Option<Affine> {
        let mut out = self.clone();
        out.constant = out.constant.checked_add(other.constant)?;
        for (v, k) in &other.coeffs {
            match out.find(v) {
                Ok(at) => {
                    let c = out.coeffs[at].1.checked_add(*k)?;
                    if c == 0 {
                        out.coeffs.remove(at);
                    } else {
                        out.coeffs[at].1 = c;
                    }
                }
                Err(at) => out.coeffs.insert(at, (v.clone(), *k)),
            }
        }
        Some(out)
    }

    /// Pointwise sum.
    ///
    /// # Panics
    /// Panics when a coefficient or the constant overflows `i64`.
    pub fn add(&self, other: &Affine) -> Affine {
        self.checked_add(other).expect("affine sum overflows i64")
    }

    /// Scalar multiple, or `None` when a coefficient or the constant
    /// overflows `i64`.
    pub fn checked_scale(mut self, k: i64) -> Option<Affine> {
        if k == 0 {
            return Some(Affine::constant(0));
        }
        self.constant = self.constant.checked_mul(k)?;
        for (_, c) in &mut self.coeffs {
            *c = c.checked_mul(k)?;
        }
        Some(self)
    }

    /// Substitute `repl` for the variable `v`: `self[v := repl]`, or
    /// `None` when the result overflows `i64`.
    pub fn checked_subst(&self, v: &Var, repl: &Affine) -> Option<Affine> {
        let Ok(at) = self.find(v) else {
            return Some(self.clone());
        };
        let mut out = self.clone();
        let (_, k) = out.coeffs.remove(at);
        out.checked_add(&repl.clone().checked_scale(k)?)
    }

    /// Evaluate under an assignment of the form's variables.
    ///
    /// # Panics
    /// Panics if `value` has no value for a variable of the form.
    pub fn eval(&self, value: impl Fn(&Var) -> Option<i64>) -> i64 {
        let mut acc = self.constant;
        for (v, k) in &self.coeffs {
            let val = value(v).unwrap_or_else(|| panic!("affine eval: unbound variable `{v}`"));
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
        Affine::try_from_expr_with(e, &|v| {
            Ok(env
                .lookup(v)
                .map_or_else(|| Affine::var(v), Affine::constant))
        })
    }

    /// [`Affine::try_from_expr`] with the form of each variable
    /// occurrence given by `leaf` — so a caller can map loop indices
    /// straight to their normalized forms.
    ///
    /// # Errors
    /// [`NotAffine`] names the reason; `leaf`'s errors pass through.
    pub fn try_from_expr_with(
        e: &Expr,
        leaf: &impl Fn(&str) -> Result<Affine, NotAffine>,
    ) -> Result<Affine, NotAffine> {
        let overflow = |a: Option<Affine>| a.ok_or(NotAffine::Overflow);
        match e {
            Expr::Int(v) => Ok(Affine::constant(*v)),
            // Accept integral float literals used in subscripts.
            Expr::Num(v) if v.fract() == 0.0 && v.abs() < i64::MAX as f64 => {
                Ok(Affine::constant(*v as i64))
            }
            Expr::Var(v) => leaf(v),
            Expr::Unary {
                op: UnOp::Neg,
                expr,
            } => overflow(Affine::try_from_expr_with(expr, leaf)?.checked_scale(-1)),
            Expr::Binary { op, lhs, rhs } => {
                let l = Affine::try_from_expr_with(lhs, leaf)?;
                let r = Affine::try_from_expr_with(rhs, leaf)?;
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
                Expr::var(v.to_string())
            } else {
                Expr::mul(Expr::int(k), Expr::var(v.to_string()))
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
        let s = a.checked_subst(&Var::from("i"), &repl).unwrap();
        assert_eq!(s.coeff("ip"), 6);
        assert_eq!(s.constant_part(), 1);
    }

    #[test]
    fn eval_matches_terms() {
        let a = Affine::term("i", 3)
            .add(&Affine::term(LoopId(2), -2))
            .add(&Affine::constant(7));
        let asg = |v: &Var| match v {
            Var::Name(n) if n == "i" => Some(4),
            Var::Loop(LoopId(2)) => Some(5),
            _ => None,
        };
        assert_eq!(a.eval(asg), 3 * 4 - 2 * 5 + 7);
        assert_eq!(a.loop_coeff(LoopId(2)), -2);
        assert_eq!(a.coeff("L2"), 0);
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
