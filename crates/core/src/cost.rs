//! Certificate assembly: per-unit cost contributions, symbolic
//! polynomial candidates, and calibration.
//!
//! The pipeline builds one [`CostCert`] per compiled program by
//! summing unit contributions through a [`CertBuilder`]:
//!
//! * the **concrete** figures come from `hac_codegen::cost`'s walk of
//!   the lowered Limp (loop bounds are concrete after lowering — the
//!   program cache is keyed by `(source, params, ...)`, so each
//!   compiled program only ever runs at its own parameters);
//! * the **symbolic** polynomials come from the schedule plan (loop
//!   ranges are still parameter expressions there, §7 normalization)
//!   and the source-level array bounds, then are *calibrated*: a
//!   candidate polynomial is kept only when it evaluates, at the
//!   compiled parameters, to exactly the concrete figure; otherwise
//!   the contribution falls back to a constant polynomial of the
//!   concrete value. Calibration makes the symbolic form decorative
//!   -but-honest: `poly(params) == value` always holds, so admission
//!   arithmetic can use either.
//!
//! Units whose evaluation is demand-driven (thunked groups) have
//! data-dependent cost: the certificate goes **open** and the serving
//! layer falls back to the metered path. Units whose walk runs
//! unmetered contribute what the meter charges them — nothing for a
//! scalar reduction, the array's storage for an accumulation — but
//! clear `exact`, since their failures can stop a run before later
//! units spend their share.

use hac_analysis::cost::{Bound, CostCert, Poly};
use hac_codegen::cost::expr_calls;
use hac_lang::ast::{ClauseId, Comp, Expr, SvClause};
use hac_lang::env::ConstEnv;
use hac_schedule::plan::{Plan, Step};
use std::collections::HashMap;

/// Accumulates per-unit cost contributions into one [`CostCert`].
#[derive(Debug)]
pub(crate) struct CertBuilder {
    fuel: u64,
    mem: u64,
    fuel_poly: Poly,
    mem_poly: Poly,
    exact: bool,
    open: Option<String>,
}

impl CertBuilder {
    pub(crate) fn new() -> CertBuilder {
        CertBuilder {
            fuel: 0,
            mem: 0,
            fuel_poly: Poly::zero(),
            mem_poly: Poly::zero(),
            exact: true,
            open: None,
        }
    }

    /// Add one unit's contribution: concrete figures plus optional
    /// symbolic candidates, each calibrated against its concrete
    /// value at the compiled parameters.
    pub(crate) fn add(
        &mut self,
        env: &ConstEnv,
        fuel: u64,
        mem: u64,
        exact: bool,
        fuel_poly: Option<Poly>,
        mem_poly: Option<Poly>,
    ) {
        if self.open.is_some() {
            return;
        }
        self.fuel = self.fuel.saturating_add(fuel);
        self.mem = self.mem.saturating_add(mem);
        self.exact &= exact;
        self.fuel_poly = std::mem::take(&mut self.fuel_poly) + calibrate(fuel_poly, fuel, env);
        self.mem_poly = std::mem::take(&mut self.mem_poly) + calibrate(mem_poly, mem, env);
    }

    /// The bound does not close; the first reason wins.
    pub(crate) fn mark_open(&mut self, reason: &str) {
        if self.open.is_none() {
            self.open = Some(reason.to_string());
        }
    }

    pub(crate) fn finish(self) -> CostCert {
        match self.open {
            Some(reason) => CostCert::open(&reason),
            None => CostCert {
                fuel: Bound::Closed {
                    value: self.fuel,
                    poly: self.fuel_poly,
                    exact: self.exact,
                },
                mem: Bound::Closed {
                    value: self.mem,
                    poly: self.mem_poly,
                    exact: self.exact,
                },
            },
        }
    }
}

/// Keep a symbolic candidate only when it agrees with the concrete
/// figure at the compiled parameters; otherwise a constant polynomial
/// of the concrete value (always correct, since the program cache keys
/// compiled programs by their parameters).
fn calibrate(poly: Option<Poly>, concrete: u64, env: &ConstEnv) -> Poly {
    let lookup = |n: &str| env.lookup(n);
    match poly {
        Some(p) if p.eval(&lookup) == Some(concrete) => p,
        _ => Poly::constant(concrete),
    }
}

/// Symbolic fuel of a schedule plan, mirroring the Limp walker's
/// `trip * (1 + body)` form with loop trips as range polynomials.
/// `None` when a range is strided or non-polynomial (calibration then
/// falls back to the concrete constant).
pub(crate) fn plan_fuel_poly(plan: &Plan, comp: &Comp) -> Option<Poly> {
    let clauses: HashMap<ClauseId, &SvClause> =
        comp.clauses().into_iter().map(|c| (c.id, c)).collect();
    steps_fuel(&plan.steps, &clauses)
}

fn steps_fuel(steps: &[Step], clauses: &HashMap<ClauseId, &SvClause>) -> Option<Poly> {
    let mut total = Poly::zero();
    for s in steps {
        let p = match s {
            Step::Loop { range, body, .. } => {
                if range.step.abs() != 1 {
                    return None;
                }
                let lo = Poly::from_expr(&range.lo)?;
                let hi = Poly::from_expr(&range.hi)?;
                let trip = hi - lo + Poly::constant(1);
                let body = steps_fuel(body, clauses)?;
                trip.mul(&(body + Poly::constant(1)))
            }
            Step::Clause(id) => {
                let c = clauses.get(id)?;
                let calls: u64 = c
                    .subs
                    .iter()
                    .chain(std::iter::once(&c.value))
                    .map(|e| expr_calls(e).0)
                    .sum();
                Poly::constant(calls)
            }
            Step::Guard { cond, body } => {
                let calls = expr_calls(cond).0;
                Poly::constant(calls) + steps_fuel(body, clauses)?
            }
            Step::Let { binds, body } => {
                let calls: u64 = binds.iter().map(|(_, e)| expr_calls(e).0).sum();
                Poly::constant(calls) + steps_fuel(body, clauses)?
            }
        };
        total = total + p;
    }
    Some(total)
}

/// Symbolic memory footprint of an array with source-level bound
/// expressions: `8 * len` payload plus, when `checked`, one byte per
/// element for the definedness bitmap — the exact figure
/// `ArrayBuf::footprint_bytes` charges.
pub(crate) fn bounds_mem_poly(bounds: &[(Expr, Expr)], checked: bool) -> Option<Poly> {
    let mut len = Poly::constant(1);
    for (lo, hi) in bounds {
        let l = Poly::from_expr(lo)?;
        let h = Poly::from_expr(hi)?;
        len = len.mul(&(h - l + Poly::constant(1)));
    }
    let mut mem = len.mul(&Poly::constant(8));
    if checked {
        mem = mem + len;
    }
    Some(mem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{compile, CompileOptions};
    use hac_lang::parser::parse_program;

    fn cert_for(src: &str, pairs: &[(&str, i64)]) -> CostCert {
        let program = parse_program(src).unwrap();
        let env = ConstEnv::from_pairs(pairs.iter().copied());
        compile(&program, &env, &CompileOptions::default())
            .unwrap()
            .cert
            .clone()
    }

    #[test]
    fn recurrence_certificate_is_symbolic_and_exact() {
        let cert = cert_for(
            "param n;\nletrec* a = array (1,n) ([ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]);\n",
            &[("n", 1000)],
        );
        assert!(cert.is_exact(), "{cert:?}");
        assert_eq!(cert.fuel_value(), Some(999));
        assert_eq!(cert.mem_value(), Some(8000));
        assert_eq!(cert.render(), "cost fuel: n-1 = 999, mem: 8n = 8000");
    }

    #[test]
    fn wavefront_certificate_closes() {
        let cert = cert_for(
            "param n;\nletrec* a = array ((1,1),(n,n))\n\
             ([ (1,j) := 1 | j <- [1..n] ] ++\n\
              [ (i,1) := 1 | i <- [2..n] ] ++\n\
              [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..n], j <- [2..n] ]);\n",
            &[("n", 4)],
        );
        assert!(cert.is_exact(), "{cert:?}");
        // n + (n-1) + (n-1)(1 + (n-1)) = 4 + 3 + 3*4 = 19 at n=4.
        assert_eq!(cert.fuel_value(), Some(19));
        assert_eq!(cert.mem_value(), Some(16 * 8));
    }

    #[test]
    fn thunked_groups_get_open_certificates() {
        let cert = cert_for(
            "param n;\nletrec* a = array (1,n) ([ 1 := 1 ] ++ [ i := b!(i-1) + 1 | i <- [2..n] ])\n\
             and b = array (1,n) [ i := a!i * 2 | i <- [1..n] ];\n",
            &[("n", 4)],
        );
        assert!(!cert.is_closed(), "{cert:?}");
        assert!(
            cert.render().starts_with("cost: open ("),
            "{}",
            cert.render()
        );
    }

    #[test]
    fn runtime_checked_programs_stay_closed_but_inexact() {
        // The guard hides a possible collision, so monolithic checks
        // are compiled; the bound closes as an upper bound only.
        let cert = cert_for(
            "param n;\nlet a = array (1,n) ([ i := 0 | i <- [1..n], i < n ] ++ [ 3 := 1 ]);\n",
            &[("n", 5)],
        );
        assert!(cert.is_closed(), "{cert:?}");
        assert!(!cert.is_exact(), "{cert:?}");
        assert!(
            cert.render().ends_with("(upper bound)"),
            "{}",
            cert.render()
        );
    }

    #[test]
    fn calibration_falls_back_to_the_concrete_constant() {
        let p = calibrate(Some(Poly::var("n")), 7, &ConstEnv::from_pairs([("n", 3)]));
        assert_eq!(p.as_constant(), Some(7));
        let kept = calibrate(Some(Poly::var("n")), 3, &ConstEnv::from_pairs([("n", 3)]));
        assert_eq!(kept.render(), "n");
    }
}
