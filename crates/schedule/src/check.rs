//! Executable legality oracle for schedules.
//!
//! "The order is safe for thunkless compilation if for every edge in
//! the dependence graph, the source instance is always computed before
//! the sink instance" (§5). This module simulates a [`Plan`]'s
//! execution order instance-by-instance and verifies that property for
//! every dependence edge — the test suite's ground truth for the
//! scheduler. Guards are ignored (all instances assumed to execute),
//! which only makes the check stricter.

use std::collections::BTreeMap;
use std::fmt;

use hac_analysis::depgraph::DepEdge;
use hac_analysis::direction::Dir;
use hac_lang::ast::{ClauseId, Comp, LoopId};
use hac_lang::env::ConstEnv;
use hac_lang::normalize::{normalize_loop, NormalizeError};
use hac_lang::number::{clause_contexts, LoopFrame};

use crate::plan::{Dirn, Plan, Step};

/// Execution timestamps per clause: `(loop bindings, time)` per
/// instance.
type InstanceTimes = BTreeMap<ClauseId, Vec<(Vec<(LoopId, i64)>, u64)>>;

/// A legality violation: some sink instance ran before its source.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalityError {
    pub src: ClauseId,
    pub dst: ClauseId,
    pub dv: String,
    /// Shared-loop positions (normalized) of the offending pair.
    pub src_pos: Vec<i64>,
    pub snk_pos: Vec<i64>,
}

impl fmt::Display for LegalityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dependence {} → {} {} violated: source instance {:?} runs after sink {:?}",
            self.src, self.dst, self.dv, self.src_pos, self.snk_pos
        )
    }
}

impl std::error::Error for LegalityError {}

/// Check every edge against the plan's execution order.
///
/// # Errors
/// Returns the first violated edge instance, or panics on plans that
/// reference unknown loops (programmer error). Normalization failures
/// (unbound parameters) surface as `Err` via `expect` in tests — call
/// with the same `env` used for analysis.
pub fn check_plan(
    plan: &Plan,
    comp: &Comp,
    edges: &[DepEdge],
    env: &ConstEnv,
) -> Result<(), LegalityError> {
    // 1. Record a timestamp for every clause instance.
    let mut times: InstanceTimes = BTreeMap::new();
    let mut clock = 0u64;
    let mut binding: Vec<(LoopId, i64)> = Vec::new();
    for step in &plan.steps {
        simulate(step, env, &mut binding, &mut clock, &mut times)
            .expect("plan loops must normalize under env");
    }

    // 2. Shared-loop prefixes per clause pair come from the contexts.
    let ctxs = clause_contexts(comp);
    let ctx_of = |id: ClauseId| {
        ctxs.iter()
            .find(|c| c.clause.id == id)
            .unwrap_or_else(|| panic!("clause {id} not in comprehension"))
    };

    for e in edges {
        let sc = ctx_of(e.src);
        let dc = ctx_of(e.dst);
        let shared: Vec<LoopId> = sc
            .loops()
            .zip(dc.loops())
            .take_while(|(a, b)| a.id == b.id)
            .map(|(a, _)| a.id)
            .collect();
        assert_eq!(shared.len(), e.dv.len(), "edge arity mismatch");

        let project = |inst: &[(LoopId, i64)]| -> Vec<i64> {
            shared
                .iter()
                .map(|l| {
                    inst.iter()
                        .find(|(id, _)| id == l)
                        .map(|(_, v)| *v)
                        .expect("instance must bind its shared loops")
                })
                .collect()
        };

        // Group: max source time per shared prefix, min sink time.
        let empty = Vec::new();
        let src_times = times.get(&e.src).unwrap_or(&empty);
        let snk_times = times.get(&e.dst).unwrap_or(&empty);
        let mut src_max: BTreeMap<Vec<i64>, u64> = BTreeMap::new();
        for (inst, t) in src_times {
            let k = project(inst);
            let entry = src_max.entry(k).or_insert(0);
            *entry = (*entry).max(*t);
        }
        let mut snk_min: BTreeMap<Vec<i64>, u64> = BTreeMap::new();
        for (inst, t) in snk_times {
            let k = project(inst);
            let entry = snk_min.entry(k).or_insert(u64::MAX);
            *entry = (*entry).min(*t);
        }

        for (x, &tx) in &src_max {
            for (y, &ty) in &snk_min {
                let matches = e.dv.0.iter().enumerate().all(|(k, d)| match d {
                    Dir::Lt => x[k] < y[k],
                    Dir::Eq => x[k] == y[k],
                    Dir::Gt => x[k] > y[k],
                    Dir::Any => true,
                });
                // The vacuous self "pair" (same clause, identical
                // instance under an all-= vector) is the ⊥ case the
                // scheduler rejects before planning; for distinct
                // clauses an all-= pair is a real constraint.
                if matches && !(e.src == e.dst && x == y) && tx >= ty {
                    return Err(LegalityError {
                        src: e.src,
                        dst: e.dst,
                        dv: e.dv.to_string(),
                        src_pos: x.clone(),
                        snk_pos: y.clone(),
                    });
                }
            }
        }
    }
    Ok(())
}

fn simulate(
    step: &Step,
    env: &ConstEnv,
    binding: &mut Vec<(LoopId, i64)>,
    clock: &mut u64,
    times: &mut InstanceTimes,
) -> Result<(), NormalizeError> {
    match step {
        Step::Clause(id) => {
            *clock += 1;
            times
                .entry(*id)
                .or_default()
                .push((binding.clone(), *clock));
        }
        Step::Guard { body, .. } | Step::Let { body, .. } => {
            for s in body {
                simulate(s, env, binding, clock, times)?;
            }
        }
        Step::Loop {
            id,
            var,
            range,
            dirn,
            body,
        } => {
            let frame = LoopFrame {
                id: *id,
                var,
                range,
            };
            let nl = normalize_loop(&frame, env)?;
            let positions: Vec<i64> = match dirn {
                Dirn::Forward => (1..=nl.size).collect(),
                Dirn::Backward => (1..=nl.size).rev().collect(),
            };
            for x in positions {
                binding.push((*id, x));
                for s in body {
                    simulate(s, env, binding, clock, times)?;
                }
                binding.pop();
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_analysis::depgraph::{flow_dependences, DepKind};
    use hac_analysis::direction::DirVec;
    use hac_analysis::refs::collect_refs;
    use hac_analysis::search::{Confidence, TestPolicy};
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;

    use crate::plan::ScheduleOutcome;
    use crate::scheduler::schedule;

    fn full_check(src: &str, env: &ConstEnv) {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let refs = collect_refs(&c, "a", env).unwrap();
        let flow = flow_dependences(&refs, "a", &TestPolicy::default());
        match schedule(&c, &flow.edges) {
            ScheduleOutcome::Thunkless(plan) => {
                check_plan(&plan, &c, &flow.edges, env)
                    .unwrap_or_else(|e| panic!("illegal plan for `{src}`: {e}\n{}", plan.render()));
            }
            ScheduleOutcome::NeedsThunks(r) => panic!("unexpected thunk fallback: {r}"),
        }
    }

    #[test]
    fn checks_paper_kernels() {
        let env = ConstEnv::from_pairs([("n", 6), ("m", 4)]);
        for src in [
            // §5 example 1
            "[* [ 3*i := 1 ] ++ [ 3*i-1 := a!(3*(i-1)) ] ++ [ 3*i-2 := a!(3*i) ] \
             | i <- [1..6] *]",
            // wavefront
            "[ (1,j) := 1 | j <- [1..n] ] ++ [ (i,1) := 1 | i <- [2..n] ] ++ \
             [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..n], j <- [2..n] ]",
            // backward recurrence
            "[ n := 0 ] ++ [ i := a!(i+1) + 1 | i <- [1..n-1] ]",
            // backward inner loop
            "[* [ (i,j) := a!(i,j+1) ] | i <- [1..m], j <- [1..n-1] *] ++ \
             [ (i,n) := 1 | i <- [1..m] ]",
            // first-order recurrence
            "[ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]",
        ] {
            full_check(src, &env);
        }
    }

    #[test]
    fn detects_illegal_plan() {
        // Schedule the forward recurrence with a *backward* loop: the
        // checker must reject it.
        let env = ConstEnv::from_pairs([("n", 6)]);
        let mut c = parse_comp("[ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]").unwrap();
        number_clauses(&mut c);
        let refs = collect_refs(&c, "a", &env).unwrap();
        let flow = flow_dependences(&refs, "a", &TestPolicy::default());
        let plan = match schedule(&c, &flow.edges) {
            ScheduleOutcome::Thunkless(p) => p,
            other => panic!("{other:?}"),
        };
        // Flip every loop direction.
        fn flip(steps: &mut [Step]) {
            for s in steps {
                match s {
                    Step::Loop { dirn, body, .. } => {
                        *dirn = dirn.reverse();
                        flip(body);
                    }
                    Step::Guard { body, .. } | Step::Let { body, .. } => flip(body),
                    Step::Clause(_) => {}
                }
            }
        }
        let mut bad = plan.clone();
        flip(&mut bad.steps);
        assert!(check_plan(&plan, &c, &flow.edges, &env).is_ok());
        let err = check_plan(&bad, &c, &flow.edges, &env).unwrap_err();
        assert_eq!(err.dv, "(<)");
    }

    #[test]
    fn detects_wrong_clause_order() {
        // Two clauses with a same-loop (=) dependence scheduled in the
        // wrong body order.
        let env = ConstEnv::new();
        let mut c = parse_comp("[* [ 2*i := 1 ] ++ [ 2*i-1 := a!(2*i) ] | i <- [1..5] *]").unwrap();
        number_clauses(&mut c);
        let edges = vec![DepEdge {
            src: ClauseId(0),
            dst: ClauseId(1),
            kind: DepKind::Flow,
            array: "a".into(),
            dv: DirVec(vec![Dir::Eq]),
            confidence: Confidence::Possible,
            distance: Some(vec![0]),
            src_read: None,
            dst_read: None,
        }];
        let good = match schedule(&c, &edges) {
            ScheduleOutcome::Thunkless(p) => p,
            other => panic!("{other:?}"),
        };
        assert!(check_plan(&good, &c, &edges, &env).is_ok());
        // Swap the body order by hand.
        let mut bad = good.clone();
        if let Step::Loop { body, .. } = &mut bad.steps[0] {
            body.reverse();
        }
        assert!(check_plan(&bad, &c, &edges, &env).is_err());
    }
}
