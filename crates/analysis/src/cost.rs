//! Static cost certificates: symbolic worst-case fuel and peak-memory
//! bounds over the program parameters.
//!
//! The paper's §7 normalization makes every schedulable loop range an
//! affine function of the parameters, so trip counts — and with them
//! the fuel a run draws under the metering contract — are polynomials
//! in those parameters. This module holds the *vocabulary* of the cost
//! analysis: [`Poly`] (a multivariate integer polynomial), [`Bound`]
//! (a closed polynomial bound or an open verdict with a reason), and
//! [`CostCert`] (the fuel + memory pair attached to every compiled
//! program). The derivation itself lives next to the IRs it walks:
//! `hac_codegen::cost` computes the concrete figures from lowered Limp,
//! and `hac_core::cost` assembles per-unit contributions and calibrates
//! the symbolic form against the concrete walker.
//!
//! A certificate is **exact-or-over** by construction: for every
//! engine (tree walk, tape, parallel tape at any thread count, fused
//! or not) a successful run's metered usage is `<=` the evaluated
//! bound, and for an `exact` bound it is `==`.

use std::collections::BTreeMap;

use hac_lang::ast::{BinOp, Expr};

/// A monomial: variable name → power. The empty map is the constant
/// monomial `1`.
pub type Monomial = BTreeMap<String, u32>;

/// A multivariate polynomial with integer coefficients over the
/// program parameters, e.g. `12n^2+4n+7`. Coefficients are `i128`, so
/// a constant can hold any `u64` resource figure exactly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poly {
    /// Monomial → coefficient; zero coefficients are never stored.
    terms: BTreeMap<Monomial, i128>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Poly {
        Poly::default()
    }

    /// A constant polynomial.
    pub fn constant(c: impl Into<i128>) -> Poly {
        let c = c.into();
        let mut p = Poly::default();
        if c != 0 {
            p.terms.insert(Monomial::new(), c);
        }
        p
    }

    /// The polynomial `name`.
    pub fn var(name: &str) -> Poly {
        let mut m = Monomial::new();
        m.insert(name.to_string(), 1);
        let mut p = Poly::default();
        p.terms.insert(m, 1);
        p
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// `Some(c)` when the polynomial is the constant `c`.
    pub fn as_constant(&self) -> Option<i128> {
        match self.terms.len() {
            0 => Some(0),
            1 => self.terms.get(&Monomial::new()).copied(),
            _ => None,
        }
    }

    fn insert(&mut self, m: Monomial, c: i128) {
        use std::collections::btree_map::Entry;
        if c == 0 {
            return;
        }
        match self.terms.entry(m) {
            Entry::Vacant(slot) => {
                slot.insert(c);
            }
            Entry::Occupied(mut slot) => {
                let sum = slot.get().saturating_add(c);
                if sum == 0 {
                    slot.remove();
                } else {
                    *slot.get_mut() = sum;
                }
            }
        }
    }

    /// `self * other`.
    #[must_use]
    pub fn mul(&self, other: &Poly) -> Poly {
        let mut out = Poly::default();
        for (ma, &ca) in &self.terms {
            for (mb, &cb) in &other.terms {
                let mut m = ma.clone();
                for (v, &p) in mb {
                    *m.entry(v.clone()).or_insert(0) += p;
                }
                out.insert(m, ca.saturating_mul(cb));
            }
        }
        out
    }

    /// Translate an AST expression into a polynomial, when it is one:
    /// integer literals, variables, and `+`/`-`/`*` over those. Returns
    /// `None` for anything else (division, conditionals, array reads).
    pub fn from_expr(e: &Expr) -> Option<Poly> {
        match e {
            Expr::Int(v) => Some(Poly::constant(*v)),
            Expr::Num(v) if v.fract() == 0.0 && v.abs() < EXACT_F64_INT => {
                Some(Poly::constant(*v as i64))
            }
            Expr::Var(n) => Some(Poly::var(n)),
            Expr::Binary { op, lhs, rhs } => {
                let l = Poly::from_expr(lhs)?;
                let r = Poly::from_expr(rhs)?;
                match op {
                    BinOp::Add => Some(l + r),
                    BinOp::Sub => Some(l - r),
                    BinOp::Mul => Some(l.mul(&r)),
                    _ => None,
                }
            }
            Expr::Unary {
                op: hac_lang::ast::UnOp::Neg,
                expr,
            } => Some(Poly::zero() - Poly::from_expr(expr)?),
            _ => None,
        }
    }

    /// Evaluate at the parameter values supplied by `lookup`, clamped
    /// into `u64` (resource bounds are non-negative; saturates on
    /// overflow, which over-approximates and stays sound). `None` when
    /// a variable has no value.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<i64>) -> Option<u64> {
        let mut total: i128 = 0;
        for (m, &c) in &self.terms {
            let mut term = c;
            for (v, &p) in m {
                let val = i128::from(lookup(v)?);
                for _ in 0..p {
                    term = match term.checked_mul(val) {
                        Some(t) => t,
                        None => return Some(u64::MAX),
                    };
                }
            }
            total = match total.checked_add(term) {
                Some(t) => t,
                None => return Some(u64::MAX),
            };
        }
        Some(total.clamp(0, u64::MAX as i128) as u64)
    }

    /// Render in the report notation: `12n^2+4n+7`, multi-variable
    /// monomials joined with `*` (`4m*n`), the zero polynomial as `0`.
    pub fn render(&self) -> String {
        if self.terms.is_empty() {
            return "0".to_string();
        }
        let mut terms: Vec<(&Monomial, i128)> = self.terms.iter().map(|(m, &c)| (m, c)).collect();
        terms.sort_by(|a, b| {
            let da: u32 = a.0.values().sum();
            let db: u32 = b.0.values().sum();
            db.cmp(&da).then_with(|| a.0.cmp(b.0))
        });
        let mut out = String::new();
        for (m, c) in terms {
            let mono = m
                .iter()
                .map(|(v, &p)| {
                    if p == 1 {
                        v.clone()
                    } else {
                        format!("{v}^{p}")
                    }
                })
                .collect::<Vec<_>>()
                .join("*");
            let first = out.is_empty();
            if c < 0 {
                out.push('-');
            } else if !first {
                out.push('+');
            }
            let mag = c.unsigned_abs();
            if mono.is_empty() {
                out.push_str(&mag.to_string());
            } else if mag == 1 {
                out.push_str(&mono);
            } else {
                out.push_str(&format!("{mag}{mono}"));
            }
        }
        out
    }
}

impl std::ops::Add for Poly {
    type Output = Poly;

    fn add(mut self, other: Poly) -> Poly {
        for (m, c) in other.terms {
            self.insert(m, c);
        }
        self
    }
}

impl std::ops::Sub for Poly {
    type Output = Poly;

    fn sub(mut self, other: Poly) -> Poly {
        for (m, c) in other.terms {
            self.insert(m, c.saturating_neg());
        }
        self
    }
}

/// `2^53`: integers below this are exactly representable in `f64`.
const EXACT_F64_INT: f64 = 9_007_199_254_740_992.0;

/// One resource bound of a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bound {
    /// The bound closed: a successful run uses at most `value` units
    /// of the resource at the parameters the program was compiled
    /// with, and `poly` is the symbolic form over the parameters
    /// (calibrated so `poly(params) == value`).
    Closed {
        value: u64,
        poly: Poly,
        /// `true` when a successful run uses *exactly* `value` on
        /// every engine — the license for all-or-nothing admission.
        /// `false` keeps the bound sound but only as an upper bound
        /// (runtime checks or data-dependent branches may stop early
        /// or take a cheaper path).
        exact: bool,
    },
    /// The bound did not close (data-dependent shape); the run falls
    /// back to the metered path.
    Open { reason: String },
}

impl Bound {
    /// The evaluated bound, when closed.
    pub fn closed_value(&self) -> Option<u64> {
        match self {
            Bound::Closed { value, .. } => Some(*value),
            Bound::Open { .. } => None,
        }
    }

    /// Whether this bound is closed *and* exact.
    pub fn is_exact(&self) -> bool {
        matches!(self, Bound::Closed { exact: true, .. })
    }
}

/// The cost certificate attached to every compiled program: worst-case
/// fuel and peak memory as (calibrated) polynomials over the program
/// parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostCert {
    pub fuel: Bound,
    pub mem: Bound,
}

impl CostCert {
    /// A fully open certificate.
    pub fn open(reason: &str) -> CostCert {
        CostCert {
            fuel: Bound::Open {
                reason: reason.to_string(),
            },
            mem: Bound::Open {
                reason: reason.to_string(),
            },
        }
    }

    /// Whether both bounds closed.
    pub fn is_closed(&self) -> bool {
        matches!(self.fuel, Bound::Closed { .. }) && matches!(self.mem, Bound::Closed { .. })
    }

    /// Whether both bounds closed exactly.
    pub fn is_exact(&self) -> bool {
        self.fuel.is_exact() && self.mem.is_exact()
    }

    /// The evaluated fuel bound, when closed.
    pub fn fuel_value(&self) -> Option<u64> {
        self.fuel.closed_value()
    }

    /// The evaluated memory bound in bytes, when closed.
    pub fn mem_value(&self) -> Option<u64> {
        self.mem.closed_value()
    }

    /// The report line: `cost fuel: n-1 = 999, mem: 8n = 8000` for a
    /// closed certificate (suffixed ` (upper bound)` when not exact),
    /// `cost: open (<reason>)` otherwise.
    pub fn render(&self) -> String {
        match (&self.fuel, &self.mem) {
            (
                Bound::Closed {
                    value: fv,
                    poly: fp,
                    ..
                },
                Bound::Closed {
                    value: mv,
                    poly: mp,
                    ..
                },
            ) => {
                let tail = if self.is_exact() {
                    ""
                } else {
                    " (upper bound)"
                };
                format!(
                    "cost fuel: {} = {fv}, mem: {} = {mv}{tail}",
                    fp.render(),
                    mp.render()
                )
            }
            (Bound::Open { reason }, _) | (_, Bound::Open { reason }) => {
                format!("cost: open ({reason})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::ast::Expr;

    fn n(v: i64) -> Option<i64> {
        Some(v)
    }

    #[test]
    fn poly_arithmetic_and_eval() {
        let p = Poly::var("n").mul(&Poly::var("n")) + Poly::constant(7);
        assert_eq!(p.render(), "n^2+7");
        assert_eq!(p.eval(&|_| n(10)), Some(107));
        let q = p.mul(&Poly::constant(12)) + Poly::var("n").mul(&Poly::constant(4));
        assert_eq!(q.render(), "12n^2+4n+84");
    }

    #[test]
    fn render_orders_by_degree_and_handles_signs() {
        let p = Poly::constant(3) - Poly::var("n") + Poly::var("m").mul(&Poly::var("n"));
        assert_eq!(p.render(), "m*n-n+3");
        assert_eq!(Poly::zero().render(), "0");
    }

    #[test]
    fn from_expr_covers_affine_and_rejects_division() {
        let e = Expr::Binary {
            op: BinOp::Sub,
            lhs: Box::new(Expr::Var("n".to_string())),
            rhs: Box::new(Expr::Int(1)),
        };
        let p = Poly::from_expr(&e).unwrap();
        assert_eq!(p.render(), "n-1");
        assert_eq!(p.eval(&|_| n(1000)), Some(999));
        let d = Expr::Binary {
            op: BinOp::Div,
            lhs: Box::new(Expr::Var("n".to_string())),
            rhs: Box::new(Expr::Int(2)),
        };
        assert!(Poly::from_expr(&d).is_none());
    }

    #[test]
    fn eval_clamps_negative_to_zero() {
        let p = Poly::constant(-5);
        assert_eq!(p.eval(&|_| None), Some(0));
    }

    #[test]
    fn cert_render_forms() {
        let cert = CostCert {
            fuel: Bound::Closed {
                value: 999,
                poly: Poly::var("n") - Poly::constant(1),
                exact: true,
            },
            mem: Bound::Closed {
                value: 8000,
                poly: Poly::var("n").mul(&Poly::constant(8)),
                exact: true,
            },
        };
        assert_eq!(cert.render(), "cost fuel: n-1 = 999, mem: 8n = 8000");
        assert_eq!(
            CostCert::open("thunked evaluation is demand-driven").render(),
            "cost: open (thunked evaluation is demand-driven)"
        );
    }
}
