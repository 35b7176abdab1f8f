//! Node splitting for single-threaded `bigupd` updates (§9).
//!
//! Anti-dependence edges are scheduled exactly like true dependences;
//! when that fails, "a cycle including at least one antidependence edge
//! can always be broken by node-splitting". Two splitting devices:
//!
//! * **Carry buffers** — for a violated *self* anti edge with constant
//!   distance carried at one loop level (Jacobi's `(=,>)` and `(>,=)`
//!   edges): keep the last `lag` iterations' overwritten values in a
//!   ring buffer sized by the loops below the carrying level ("the
//!   temporary must be a vector large enough to hold all the live
//!   values that may be overwritten by the inner loop").
//! * **Precopies** — for cross-clause anti cycles (LINPACK row swap):
//!   materialize one clause's read region into a temporary before the
//!   update runs, which deletes that clause's anti edges.
//!
//! If neither device applies (nonlinear read subscripts), fall back to
//! copying the whole base array — the naive strategy node splitting
//! exists to avoid.

use std::collections::BTreeSet;

use hac_analysis::analyze::UpdateAnalysis;
use hac_analysis::depgraph::{DepEdge, DepKind};
use hac_analysis::parallel::loop_parallelism;
use hac_lang::ast::{ClauseId, Comp, LoopId};

use crate::plan::{Dirn, Plan, ScheduleOutcome, Step, ThunkReason};
use crate::scheduler::schedule;

/// One node-splitting transformation applied to the update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitAction {
    /// Redirect read `read_index` of `clause` through a ring buffer of
    /// the values overwritten during the last `lag` iterations of the
    /// clause's loop at nest position `level`.
    CarryBuffer {
        clause: ClauseId,
        read_index: usize,
        /// Position in the clause's loop nest (0 = outermost).
        level: usize,
        lag: i64,
    },
    /// Copy the region read by read `read_index` of `clause` into a
    /// temporary before the update runs, and redirect the read to it.
    Precopy { clause: ClauseId, read_index: usize },
}

/// How the update will execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateStrategy {
    /// Loop directions alone satisfy every anti dependence: in place,
    /// zero copies (Gauss–Seidel/SOR, row scale, SAXPY).
    InPlace,
    /// In place after node splitting; copies are bounded by the split
    /// temporaries.
    Split(Vec<SplitAction>),
    /// Whole-array copy first (the naive fallback).
    CopyWhole,
}

/// A scheduled in-place update.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdatePlan {
    pub plan: Plan,
    pub strategy: UpdateStrategy,
}

/// Self anti edges labeled with the all-`=` vector are trivially
/// satisfied: within one instance the value expression is evaluated
/// before the element is stored.
fn trivially_satisfied(e: &DepEdge) -> bool {
    e.src == e.dst && e.dv.is_loop_independent()
}

/// Is this edge breakable by a carry buffer, and at which level/lag?
fn carry_candidate(e: &DepEdge) -> Option<(usize, i64)> {
    if e.src != e.dst {
        return None;
    }
    let d = e.distance.as_ref()?;
    let nonzero: Vec<(usize, i64)> = d
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, v)| *v != 0)
        .collect();
    match nonzero.as_slice() {
        [(level, v)] => Some((*level, v.abs())),
        _ => None,
    }
}

/// Decide whether a removed edge is *actually* violated by the final
/// plan, so satisfied candidates do not pay for temporaries.
fn violated_by_plan(e: &DepEdge, plan: &Plan) -> bool {
    if e.dv.is_empty() {
        // Loop-independent edge between clauses sharing no loop: it is
        // satisfied iff every source instance runs before every sink
        // instance, i.e. the source clause's step precedes the sink's
        // in the flattened order (they can never share a loop pass).
        let order = plan.clauses();
        let p = |c: ClauseId| order.iter().position(|x| *x == c);
        match (p(e.src), p(e.dst)) {
            (Some(a), Some(b)) => a >= b,
            _ => true,
        }
    } else if let Some((level, _)) = carry_candidate(e) {
        // Single-level carried self edge: violated iff the loop at that
        // level runs against the edge. d = y − x; with d_ℓ < 0 the
        // write (sink) sits at a smaller index, so a Forward run
        // executes it first — violation. Symmetrically for Backward.
        let d = e.distance.as_ref().expect("carry candidate has distance");
        let loops = loop_dirs_for_clause(plan, e.src);
        match loops.get(level) {
            Some(Dirn::Forward) => d[level] < 0,
            Some(Dirn::Backward) => d[level] > 0,
            None => true,
        }
    } else {
        // No cheap test: assume violated.
        true
    }
}

/// The directions of the loops enclosing a clause in the plan,
/// outermost first (first pass containing the clause). Also used by
/// code generation to orient carry-buffer ring indices.
pub fn loop_dirs_for_clause(plan: &Plan, clause: ClauseId) -> Vec<Dirn> {
    fn go(steps: &[Step], clause: ClauseId, stack: &mut Vec<Dirn>) -> Option<Vec<Dirn>> {
        for s in steps {
            match s {
                Step::Clause(id) if *id == clause => return Some(stack.clone()),
                Step::Clause(_) => {}
                Step::Loop { dirn, body, .. } => {
                    stack.push(*dirn);
                    if let Some(found) = go(body, clause, stack) {
                        return Some(found);
                    }
                    stack.pop();
                }
                Step::Guard { body, .. } | Step::Let { body, .. } => {
                    if let Some(found) = go(body, clause, stack) {
                        return Some(found);
                    }
                }
            }
        }
        None
    }
    go(&plan.steps, clause, &mut Vec::new()).unwrap_or_default()
}

/// Node-splitting knobs (ablation studies; defaults reproduce the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitOptions {
    /// Allow carry-buffer ring temporaries (§9's Jacobi device).
    pub allow_carry: bool,
    /// Allow precopying a read region (§9's row-swap device).
    pub allow_precopy: bool,
}

impl Default for SplitOptions {
    fn default() -> SplitOptions {
        SplitOptions {
            allow_carry: true,
            allow_precopy: true,
        }
    }
}

/// Plan a `bigupd` for in-place execution (§9).
///
/// Flow edges (reads of the result's new values, as in Gauss–Seidel)
/// are hard constraints. Anti edges are scheduled exactly like them;
/// when that fails the planner breaks cycles by node splitting — carry
/// buffers first, then precopies — and falls back to a whole-array
/// copy only when a violated read is conditional (precopying it could
/// evaluate a guarded-away subscript).
///
/// # Errors
/// Returns the scheduler's [`ThunkReason`] when the *flow* edges alone
/// are unschedulable — no amount of copying fixes a true-dependence
/// cycle.
pub fn plan_update(comp: &Comp, analysis: &UpdateAnalysis) -> Result<UpdatePlan, ThunkReason> {
    plan_update_with(comp, analysis, &SplitOptions::default())
}

/// [`plan_update`] with explicit node-splitting knobs.
pub fn plan_update_with(
    comp: &Comp,
    analysis: &UpdateAnalysis,
    split_opts: &SplitOptions,
) -> Result<UpdatePlan, ThunkReason> {
    if analysis.subs_read_result {
        // Subscripts reading the new array are outside the dependence
        // model: reject rather than miscompile.
        return Err(ThunkReason::SelfDependentInstance {
            clause: analysis.refs.first().map(|r| r.id()).unwrap_or(ClauseId(0)),
        });
    }
    let flow = &analysis.flow.edges;
    if analysis.subs_read_base {
        // Subscript reads of the old array must see the pristine copy.
        return finish_with_copy(comp, analysis, flow);
    }
    let anti: Vec<DepEdge> = analysis
        .anti
        .edges
        .iter()
        .filter(|e| !trivially_satisfied(e))
        .cloned()
        .collect();
    let conditional_read = |clause: ClauseId, read: usize| {
        analysis
            .refs
            .iter()
            .find(|r| r.id() == clause)
            .and_then(|r| r.reads.get(read))
            .map(|r| r.conditional)
            .unwrap_or(true)
    };
    let mut edges: Vec<DepEdge> = flow.iter().cloned().chain(anti.iter().cloned()).collect();

    // Edge groups removed from consideration, pending a split action.
    let mut pending: Vec<(ClauseId, usize)> = Vec::new();
    let mut removed: Vec<DepEdge> = Vec::new();

    let plan = loop {
        match schedule(comp, &edges) {
            ScheduleOutcome::Thunkless(plan) => break Some(plan),
            ScheduleOutcome::NeedsThunks(reason) => {
                let clauses: BTreeSet<ClauseId> = match &reason {
                    ThunkReason::MixedDirectionCycle { clauses }
                    | ThunkReason::LoopIndependentCycle { clauses } => {
                        clauses.iter().copied().collect()
                    }
                    ThunkReason::SelfDependentInstance { clause } => {
                        [*clause].into_iter().collect()
                    }
                };
                // Only anti edges (src is a read of the base) can be
                // split. Pick a victim inside the blamed cycle: prefer
                // carry-buffer candidates (cheapest temporaries), then
                // unconditional reads (precopyable).
                let is_anti = |e: &DepEdge| e.kind == DepKind::Anti && e.src_read.is_some();
                let unguarded = |c: ClauseId| {
                    analysis
                        .refs
                        .iter()
                        .find(|r| r.id() == c)
                        .map(|r| !r.guarded())
                        .unwrap_or(false)
                };
                let victim = edges
                    .iter()
                    .position(|e| {
                        split_opts.allow_carry
                            && clauses.contains(&e.src)
                            && clauses.contains(&e.dst)
                            && is_anti(e)
                            && unguarded(e.src)
                            && carry_candidate(e).is_some()
                    })
                    .or_else(|| {
                        if !split_opts.allow_precopy && !split_opts.allow_carry {
                            return None;
                        }
                        edges.iter().position(|e| {
                            clauses.contains(&e.src) && clauses.contains(&e.dst) && is_anti(e)
                        })
                    });
                match victim {
                    Some(i) => {
                        let key = (
                            edges[i].src,
                            edges[i].src_read.expect("anti edges originate at reads"),
                        );
                        if !pending.contains(&key) {
                            pending.push(key);
                        }
                        // Redirecting the read kills every anti edge it
                        // originates.
                        let mut kept = Vec::with_capacity(edges.len());
                        for e in edges.drain(..) {
                            if e.kind == DepKind::Anti
                                && e.src == key.0
                                && e.src_read == Some(key.1)
                            {
                                removed.push(e);
                            } else {
                                kept.push(e);
                            }
                        }
                        edges = kept;
                    }
                    None => break None, // a flow-only cycle remains
                }
            }
        }
    };

    match plan {
        Some(mut plan) => {
            let mut actions = Vec::new();
            for (clause, read_index) in pending {
                // Keep only the temporaries the final directions need.
                let group: Vec<&DepEdge> = removed
                    .iter()
                    .filter(|e| e.src == clause && e.src_read == Some(read_index))
                    .collect();
                let violated: Vec<&&DepEdge> = group
                    .iter()
                    .filter(|e| violated_by_plan(e, &plan))
                    .collect();
                if violated.is_empty() {
                    continue;
                }
                // All violated edges of the group carry-bufferable at a
                // single level? Then one buffer serves the read.
                let carries: Option<Vec<(usize, i64)>> =
                    violated.iter().map(|e| carry_candidate(e)).collect();
                let clause_unguarded = analysis
                    .refs
                    .iter()
                    .find(|r| r.id() == clause)
                    .map(|r| !r.guarded())
                    .unwrap_or(false);
                match carries {
                    Some(cs)
                        if split_opts.allow_carry
                            && clause_unguarded
                            && !cs.is_empty()
                            && cs.windows(2).all(|w| w[0] == w[1]) =>
                    {
                        let (level, lag) = cs[0];
                        actions.push(SplitAction::CarryBuffer {
                            clause,
                            read_index,
                            level,
                            lag,
                        });
                    }

                    _ if split_opts.allow_precopy && !conditional_read(clause, read_index) => {
                        actions.push(SplitAction::Precopy { clause, read_index })
                    }
                    // Precopying a conditional read could evaluate a
                    // subscript its guard would have skipped: copy the
                    // whole old array instead.
                    _ => {
                        return finish_with_copy(comp, analysis, flow);
                    }
                }
            }
            // The split scheduler converged on a *relaxed* edge set
            // (victim anti edges removed pending redirection), so the
            // plan's §10 verdicts are too optimistic for parallel
            // execution. Recompute them against the full flow + anti
            // set. Two further vetoes: carry-buffer ring temporaries
            // are shared across iterations of every enclosing loop
            // (concurrent chunks would race on the ring), and a
            // possible write collision is an output dependence the
            // direction vectors above never see.
            let has_carry = actions
                .iter()
                .any(|a| matches!(a, SplitAction::CarryBuffer { .. }));
            let full = analysis.flow.edges.iter().chain(&analysis.anti.edges);
            plan = Plan::new(plan.steps, loop_parallelism(comp, full));
            if has_carry || !analysis.collisions.checks_elidable() {
                plan.par_loops = Vec::new();
                plan.red_loops = Vec::new();
            }
            let strategy = if actions.is_empty() {
                UpdateStrategy::InPlace
            } else {
                UpdateStrategy::Split(actions)
            };
            Ok(UpdatePlan { plan, strategy })
        }
        None => finish_with_copy(comp, analysis, flow),
    }
}

/// Whole-array-copy fallback: every anti edge is satisfied by the copy,
/// so only the flow edges constrain the schedule — and the §10 parallel
/// verdicts likewise hold against flow alone (reads go to the pristine
/// copy), provided writes cannot collide.
fn finish_with_copy(
    comp: &Comp,
    analysis: &UpdateAnalysis,
    flow: &[DepEdge],
) -> Result<UpdatePlan, ThunkReason> {
    match schedule(comp, flow) {
        ScheduleOutcome::Thunkless(mut plan) => {
            if !analysis.collisions.checks_elidable() {
                plan.par_loops = Vec::new();
                plan.red_loops = Vec::new();
            }
            // The report shows the verdicts of the full edge set.
            let full = analysis.flow.edges.iter().chain(&analysis.anti.edges);
            plan.loops = loop_parallelism(comp, full);
            Ok(UpdatePlan {
                plan,
                strategy: UpdateStrategy::CopyWhole,
            })
        }
        ScheduleOutcome::NeedsThunks(reason) => Err(reason),
    }
}

/// The loop ids below `level` in a clause's nest (needed by codegen to
/// size carry buffers); re-exported here for convenience.
pub fn inner_loops_below(nest: &[LoopId], level: usize) -> &[LoopId] {
    &nest[level + 1..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_analysis::analyze::analyze_bigupd;
    use hac_analysis::search::TestPolicy;
    use hac_lang::env::ConstEnv;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;

    fn planned(src: &str, env: &ConstEnv) -> UpdatePlan {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let u = analyze_bigupd("a", "b", &c, env, &TestPolicy::default()).unwrap();
        plan_update(&c, &u).expect("update schedulable")
    }

    #[test]
    fn row_scale_in_place() {
        // §9: "scaling a matrix row ... no copying".
        let env = ConstEnv::from_pairs([("n", 8), ("k", 3)]);
        let p = planned("[ (k,j) := 2 * a!(k,j) | j <- [1..n] ]", &env);
        assert_eq!(p.strategy, UpdateStrategy::InPlace);
    }

    #[test]
    fn saxpy_in_place() {
        // y := y + alpha x expressed over rows k (y) and m (x) of a.
        let env = ConstEnv::from_pairs([("n", 8), ("k", 2), ("m", 5)]);
        let p = planned("[ (k,j) := a!(k,j) + 3 * a!(m,j) | j <- [1..n] ]", &env);
        assert_eq!(p.strategy, UpdateStrategy::InPlace);
    }

    #[test]
    fn sor_wavefront_in_place() {
        // §9 Gauss–Seidel/SOR: the new value mixes already-updated
        // neighbors (b!, flow edges δ(<,=), δ(=,<)) with old neighbors
        // (a!, anti edges δ̄(<,=), δ̄(=,<)). All four self edges agree
        // with forward/forward loops: in place, no thunks, no copies.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let p = planned(
            "[ (i,j) := b!(i-1,j) + b!(i,j-1) + a!(i+1,j) + a!(i,j+1) \
             | i <- [2..n-1], j <- [2..n-1] ]",
            &env,
        );
        assert_eq!(p.strategy, UpdateStrategy::InPlace, "{}", p.plan.render());
    }

    #[test]
    fn row_swap_needs_one_precopy() {
        // §9 LINPACK row swap: anti cycle between the clauses; one
        // precopied row breaks it.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let p = planned(
            "[ (1,j) := a!(2,j) | j <- [1..n] ] ++ [ (2,j) := a!(1,j) | j <- [1..n] ]",
            &env,
        );
        match &p.strategy {
            UpdateStrategy::Split(actions) => {
                assert_eq!(actions.len(), 1);
                assert!(matches!(actions[0], SplitAction::Precopy { .. }));
            }
            other => panic!("expected one precopy, got {other:?}"),
        }
    }

    #[test]
    fn jacobi_needs_carry_buffers() {
        // §9 Jacobi: conflicting (=,<)/(=,>) and (<,=)/(>,=) self anti
        // cycles; two carry buffers (scalar + row) break them.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let p = planned(
            "[ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i+1,j) + a!(i,j+1)) / 4 \
             | i <- [2..n-1], j <- [2..n-1] ]",
            &env,
        );
        match &p.strategy {
            UpdateStrategy::Split(actions) => {
                assert_eq!(actions.len(), 2, "{actions:?}");
                let mut levels: Vec<usize> = actions
                    .iter()
                    .map(|a| match a {
                        SplitAction::CarryBuffer { level, lag, .. } => {
                            assert_eq!(*lag, 1);
                            *level
                        }
                        other => panic!("expected carry buffer, got {other:?}"),
                    })
                    .collect();
                levels.sort();
                assert_eq!(levels, vec![0, 1], "one row buffer, one scalar carry");
            }
            other => panic!("expected two carry buffers, got {other:?}"),
        }
    }

    #[test]
    fn nonlinear_read_precopies() {
        // An indirect read defeats the dependence tests, but the read
        // region can still be materialized up front — a precopy, not a
        // whole-array copy.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let p = planned("[ i := a!(p!i) | i <- [1..n] ]", &env);
        match &p.strategy {
            UpdateStrategy::Split(actions) => {
                assert!(matches!(actions[0], SplitAction::Precopy { .. }));
            }
            other => panic!("expected precopy, got {other:?}"),
        }
    }

    #[test]
    fn conditional_violated_read_copies_whole() {
        // The violated read sits under `if`: precopying it could
        // evaluate a!(p!i) where the guard would have skipped it.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let p = planned("[ i := if i == 1 then 0 else a!(p!i) | i <- [1..n] ]", &env);
        assert_eq!(p.strategy, UpdateStrategy::CopyWhole);
    }

    #[test]
    fn flow_cycle_is_an_error() {
        // b!(i) needs b!(i+1) and b!(i-1): a mixed-direction flow
        // cycle; no copy strategy can help.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let mut c = parse_comp("[ i := b!(i+1) + b!(i-1) | i <- [2..n-1] ]").unwrap();
        number_clauses(&mut c);
        let u = analyze_bigupd("a", "b", &c, &env, &TestPolicy::default()).unwrap();
        assert!(plan_update(&c, &u).is_err());
    }

    #[test]
    fn backward_satisfiable_uses_direction_not_split() {
        // a!(i) := f(a!(i+1)): anti edge read (i+1) before write (i+1)…
        // distance d = y − x = +1 → satisfied by a forward loop? Read
        // at x reads element x+1, written at iteration x+1: forward
        // order reads first — in place with NO split, loop forward.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let p = planned("[ i := a!(i+1) * 2 | i <- [1..n-1] ]", &env);
        assert_eq!(p.strategy, UpdateStrategy::InPlace, "{}", p.plan.render());
    }
}
