//! The static scheduler (§8): loop directions, clause ordering,
//! multi-pass loop splitting, and the thunk fallback decision.
//!
//! The comprehension tree is scheduled level by level. At a generator,
//! its immediate children (clauses and inner loops, each carrying its
//! guard/`let` wrappers) become *entities* (§8.2: "We treat the outer
//! loop as a single-level loop containing a set of entities with no
//! internal structure"). Dependence edges whose direction vector starts
//! with `<` or `>` are loop-carried here and constrain the loop
//! direction; edges starting with `=` either order entities within one
//! instance (endpoints in different children) or are stripped and
//! passed down (endpoints inside the same inner loop, §8.2.3).
//!
//! Per §8.1, the entity graph is condensed into SCCs:
//! * an SCC whose cycles carry both `(<)` and `(>)` edges is
//!   unschedulable → thunks;
//! * an SCC with a cycle of only `(=)` edges is unschedulable → thunks
//!   (§8.1.4);
//! * otherwise the condensation DAG is emitted as a sequence of loop
//!   *passes* using the 'ready'/'not-ready' marking (§8.1.3), each pass
//!   running in a direction compatible with every carried edge it
//!   contains.

use std::collections::BTreeSet;

use hac_analysis::depgraph::DepEdge;
use hac_analysis::direction::{Dir, DirVec};
use hac_analysis::parallel::loop_parallelism;
use hac_graph::{mark_not_ready, tarjan_scc, topo_sort, DiGraph, NodeId, TopoResult};
use hac_lang::ast::{ClauseId, Comp, Expr, LoopId, Range, SvClause};

use crate::plan::{Dirn, Plan, ScheduleOutcome, Step, ThunkReason};

/// A guard or `let` wrapper between a level and one of its entities.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Wrapper<'a> {
    Guard(&'a Expr),
    Let(&'a [(String, Expr)]),
}

/// An entity at one scheduling level.
#[derive(Debug, Clone)]
struct Entity<'a> {
    wrappers: Vec<Wrapper<'a>>,
    node: EntityNode<'a>,
    /// All clause ids inside this entity, ascending (source order).
    clause_set: Vec<ClauseId>,
}

#[derive(Debug, Clone)]
enum EntityNode<'a> {
    Clause(&'a SvClause),
    Gen {
        id: LoopId,
        var: &'a str,
        range: &'a Range,
        body: &'a Comp,
    },
}

/// An edge whose direction vector is relative to the current level.
#[derive(Debug, Clone)]
struct LevelEdge {
    src: ClauseId,
    dst: ClauseId,
    dv: DirVec,
}

/// Collect the entities of a comprehension level, flattening appends
/// and accumulating guard/`let` wrappers.
fn entities(comp: &Comp) -> Vec<Entity<'_>> {
    let mut out = Vec::new();
    collect_entities(comp, &mut Vec::new(), &mut out);
    out
}

fn collect_entities<'a>(
    comp: &'a Comp,
    wrappers: &mut Vec<Wrapper<'a>>,
    out: &mut Vec<Entity<'a>>,
) {
    match comp {
        Comp::Append(cs) => {
            for c in cs {
                collect_entities(c, wrappers, out);
            }
        }
        Comp::Guard { cond, body } => {
            wrappers.push(Wrapper::Guard(cond));
            collect_entities(body, wrappers, out);
            wrappers.pop();
        }
        Comp::Let { binds, body } => {
            wrappers.push(Wrapper::Let(binds));
            collect_entities(body, wrappers, out);
            wrappers.pop();
        }
        Comp::Gen {
            id,
            var,
            range,
            body,
        } => {
            let mut clause_set = Vec::new();
            body.walk(&mut |c| {
                if let Comp::Clause(sv) = c {
                    clause_set.push(sv.id);
                }
            });
            clause_set.sort_unstable();
            out.push(Entity {
                wrappers: wrappers.clone(),
                node: EntityNode::Gen {
                    id: *id,
                    var,
                    range,
                    body,
                },
                clause_set,
            });
        }
        Comp::Clause(sv) => {
            out.push(Entity {
                wrappers: wrappers.clone(),
                node: EntityNode::Clause(sv),
                clause_set: vec![sv.id],
            });
        }
    }
}

/// Expand `*` components into the three concrete directions, so the
/// scheduler only ever sees `<`, `=`, `>` (a `*` must be satisfied as
/// all three simultaneously).
fn expand_any(edges: &[DepEdge]) -> Vec<LevelEdge> {
    let mut out = Vec::new();
    for e in edges {
        for dv in e.dv.concretizations() {
            out.push(LevelEdge {
                src: e.src,
                dst: e.dst,
                dv,
            });
        }
    }
    out
}

/// Scheduler knobs (ablation studies; defaults reproduce the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedOptions {
    /// Allow splitting a loop into multiple passes (§8.1.3). With this
    /// off, any level mixing `(<)` and `(>)` edges — even acyclically —
    /// falls back to thunks.
    pub allow_multipass: bool,
}

impl Default for SchedOptions {
    fn default() -> SchedOptions {
        SchedOptions {
            allow_multipass: true,
        }
    }
}

/// Schedule a whole comprehension against its dependence edges.
///
/// The edges are typically the flow dependences of a recursively
/// defined monolithic array (§8); for `bigupd` scheduling, pass anti
/// dependences — "antidependence edges can be treated exactly like true
/// dependence edges for the sake of static scheduling" (§9).
pub fn schedule(comp: &Comp, edges: &[DepEdge]) -> ScheduleOutcome {
    schedule_with(comp, edges, &SchedOptions::default())
}

/// [`schedule`] with explicit knobs.
pub fn schedule_with(comp: &Comp, edges: &[DepEdge], opts: &SchedOptions) -> ScheduleOutcome {
    let level = expand_any(edges);
    match schedule_top(comp, &level, opts) {
        Ok(steps) => ScheduleOutcome::Thunkless(Plan::new(steps, loop_parallelism(comp, edges))),
        Err(reason) => ScheduleOutcome::NeedsThunks(reason),
    }
}

/// Schedule the root level: no surrounding loop, so every cross-entity
/// edge is a pure ordering constraint (its direction vector is empty).
fn schedule_top(
    comp: &Comp,
    edges: &[LevelEdge],
    opts: &SchedOptions,
) -> Result<Vec<Step>, ThunkReason> {
    let ents = entities(comp);
    schedule_entity_seq(&ents, edges, None, opts)
}

/// Label of an entity-graph edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lbl {
    /// Loop-carried at this level; the payload is the direction the
    /// loop must run to satisfy it.
    Carried(Dirn),
    /// Loop-independent: source entity before sink entity within one
    /// instance.
    Ordering,
}

/// Shared machinery for a level: `gen` is `Some` when the entities sit
/// under a generator at this level (so carried edges exist), `None` at
/// the root.
fn schedule_entity_seq(
    ents: &[Entity<'_>],
    edges: &[LevelEdge],
    gen: Option<(&LoopId, &str, &Range)>,
    opts: &SchedOptions,
) -> Result<Vec<Step>, ThunkReason> {
    // Map clauses to entities.
    let entity_of =
        |c: ClauseId| -> Option<usize> { ents.iter().position(|e| e.clause_set.contains(&c)) };

    let mut g: DiGraph<Lbl> = DiGraph::with_nodes(ents.len());
    // Down-edges per entity (for recursion into inner generators).
    let mut down: Vec<Vec<LevelEdge>> = vec![Vec::new(); ents.len()];

    for e in edges {
        let (Some(se), Some(de)) = (entity_of(e.src), entity_of(e.dst)) else {
            // Edge endpoints outside this subtree: not our concern.
            continue;
        };
        if gen.is_some() {
            // Under a generator the first component refers to it.
            let first =
                e.dv.first()
                    .expect("edge inside a generator must have a component for it");
            match first {
                Dir::Lt => {
                    g.add_edge(NodeId(se), NodeId(de), Lbl::Carried(Dirn::Forward));
                }
                Dir::Gt => {
                    g.add_edge(NodeId(se), NodeId(de), Lbl::Carried(Dirn::Backward));
                }
                Dir::Eq => {
                    if se == de {
                        match &ents[se].node {
                            EntityNode::Gen { .. } => down[se].push(LevelEdge {
                                src: e.src,
                                dst: e.dst,
                                dv: e.dv.strip_first(),
                            }),
                            EntityNode::Clause(_) => {
                                // Same clause, same instance of every
                                // shared loop: the element needs itself.
                                return Err(ThunkReason::SelfDependentInstance { clause: e.src });
                            }
                        }
                    } else {
                        g.add_edge(NodeId(se), NodeId(de), Lbl::Ordering);
                    }
                }
                Dir::Any => unreachable!("expand_any removed `*` components"),
            }
        } else {
            // Root level: no shared loop here.
            debug_assert!(e.dv.is_empty() || se == de);
            if se == de {
                match &ents[se].node {
                    EntityNode::Gen { .. } => down[se].push(e.clone()),
                    EntityNode::Clause(_) => {
                        return Err(ThunkReason::SelfDependentInstance { clause: e.src })
                    }
                }
            } else {
                g.add_edge(NodeId(se), NodeId(de), Lbl::Ordering);
            }
        }
    }

    // Condense into SCCs and classify each (§8.1.2).
    let sccs = tarjan_scc(&g);
    let mut scc_dir: Vec<Option<Dirn>> = vec![None; sccs.len()];
    for (idx, dir_slot) in scc_dir.iter_mut().enumerate() {
        if !sccs.is_cyclic(idx, &g) {
            continue;
        }
        let members: BTreeSet<usize> = sccs.members[idx].iter().map(|n| n.0).collect();
        let mut has_fwd = false;
        let mut has_bwd = false;
        let mut eq_graph: DiGraph<()> = DiGraph::with_nodes(ents.len());
        for (_, e) in g.edges() {
            if members.contains(&e.src.0) && members.contains(&e.dst.0) {
                match e.label {
                    Lbl::Carried(Dirn::Forward) => has_fwd = true,
                    Lbl::Carried(Dirn::Backward) => has_bwd = true,
                    Lbl::Ordering => {
                        eq_graph.add_edge(e.src, e.dst, ());
                    }
                }
            }
        }
        let clause_list = |members: &BTreeSet<usize>| {
            members
                .iter()
                .flat_map(|&m| ents[m].clause_set.iter().copied())
                .collect::<Vec<_>>()
        };
        if has_fwd && has_bwd {
            return Err(ThunkReason::MixedDirectionCycle {
                clauses: clause_list(&members),
            });
        }
        // A cycle made only of (=) edges cannot be ordered within one
        // instance (§8.1.4).
        if topo_sort(&eq_graph).is_cyclic() {
            return Err(ThunkReason::LoopIndependentCycle {
                clauses: clause_list(&members),
            });
        }
        if gen.is_none() && (has_fwd || has_bwd) {
            unreachable!("carried edges cannot appear at the root level");
        }
        *dir_slot = if has_fwd {
            Some(Dirn::Forward)
        } else if has_bwd {
            Some(Dirn::Backward)
        } else {
            None
        };
    }

    let cond = sccs.condensation(&g);

    match gen {
        Some((id, var, range)) => {
            if !opts.allow_multipass {
                // Without multipass splitting, a mix of forward- and
                // backward-requiring edges is unschedulable even when
                // acyclic.
                let mut has_fwd = false;
                let mut has_bwd = false;
                for (_, e) in g.edges() {
                    match e.label {
                        Lbl::Carried(Dirn::Forward) => has_fwd = true,
                        Lbl::Carried(Dirn::Backward) => has_bwd = true,
                        Lbl::Ordering => {}
                    }
                }
                if has_fwd && has_bwd {
                    return Err(ThunkReason::MixedDirectionCycle {
                        clauses: ents
                            .iter()
                            .flat_map(|e| e.clause_set.iter().copied())
                            .collect(),
                    });
                }
            }
            schedule_passes(
                ents, &g, &sccs, &cond, &scc_dir, &down, id, var, range, opts,
            )
        }
        None => {
            // Root: pure ordering; a single "pass" in topological order.
            match topo_sort(&cond) {
                TopoResult::Sorted(order) => {
                    let mut steps = Vec::new();
                    for c in order {
                        for &m in sccs.members[c.0].iter() {
                            steps.extend(emit_entity(&ents[m.0], &down[m.0], opts)?);
                        }
                    }
                    Ok(steps)
                }
                TopoResult::Cycle(_) => unreachable!("condensation is a DAG by construction"),
            }
        }
    }
}

/// Multi-pass emission for a generator level (§8.1.3), on the SCC
/// condensation DAG.
#[allow(clippy::too_many_arguments)]
fn schedule_passes(
    ents: &[Entity<'_>],
    g: &DiGraph<Lbl>,
    sccs: &hac_graph::Sccs,
    cond: &DiGraph<Lbl>,
    scc_dir: &[Option<Dirn>],
    down: &[Vec<LevelEdge>],
    id: &LoopId,
    var: &str,
    range: &Range,
    opts: &SchedOptions,
) -> Result<Vec<Step>, ThunkReason> {
    let n = cond.node_count();
    let mut remaining: BTreeSet<usize> = (0..n).collect();
    let mut steps = Vec::new();

    while !remaining.is_empty() {
        // Work on the sub-DAG of remaining SCCs.
        let sub =
            cond.filter_edges(|e| remaining.contains(&e.src.0) && remaining.contains(&e.dst.0));
        let ready_for = |d: Dirn| -> Vec<usize> {
            // not-ready: reachable from a root via an against-direction
            // edge (§8.1.3) or from an SCC requiring the other
            // direction (including that SCC itself).
            let against = |l: &Lbl| matches!(l, Lbl::Carried(req) if *req != d);
            let mut not_ready = mark_not_ready(&sub, against);
            let bad_starts: Vec<NodeId> = remaining
                .iter()
                .filter(|&&c| scc_dir[c].map(|req| req != d).unwrap_or(false))
                .map(|&c| NodeId(c))
                .collect();
            for (i, reach) in sub.reachable_from(&bad_starts).into_iter().enumerate() {
                if reach {
                    not_ready[i] = true;
                }
            }
            remaining
                .iter()
                .filter(|&&c| !not_ready[c])
                .copied()
                .collect()
        };
        // Prefer the direction whose ready set is larger; ties go
        // forward. (The paper: "schedule the first pass in a direction
        // consistent with the dependence edges leaving the roots".)
        let fwd = ready_for(Dirn::Forward);
        let bwd = ready_for(Dirn::Backward);
        let (dirn, pass) = if bwd.len() > fwd.len() {
            (Dirn::Backward, bwd)
        } else {
            (Dirn::Forward, fwd)
        };
        assert!(
            !pass.is_empty(),
            "multipass scheduling must make progress on a DAG"
        );

        // Order pass members (and SCC members inside them) by (=)
        // ordering edges.
        let pass_set: BTreeSet<usize> = pass.iter().copied().collect();
        let mut order_graph: DiGraph<()> = DiGraph::with_nodes(ents.len());
        for (_, e) in g.edges() {
            if e.label == Lbl::Ordering
                && pass_set.contains(&sccs.component_of(e.src))
                && pass_set.contains(&sccs.component_of(e.dst))
            {
                order_graph.add_edge(e.src, e.dst, ());
            }
        }
        let member_set: BTreeSet<usize> = pass
            .iter()
            .flat_map(|&c| sccs.members[c].iter().map(|n| n.0))
            .collect();
        let order = match topo_sort(&order_graph) {
            TopoResult::Sorted(o) => o,
            TopoResult::Cycle(_) => unreachable!("(=)-cycles rejected per SCC"),
        };
        let mut body = Vec::new();
        for v in order {
            if member_set.contains(&v.0) {
                body.extend(emit_entity(&ents[v.0], &down[v.0], opts)?);
            }
        }
        steps.push(Step::Loop {
            id: *id,
            var: var.to_string(),
            range: range.clone(),
            dirn,
            body,
        });
        for c in pass {
            remaining.remove(&c);
        }
    }
    Ok(steps)
}

/// Emit one entity: its wrappers around either the clause or the
/// recursively scheduled inner loop.
fn emit_entity(
    ent: &Entity<'_>,
    down: &[LevelEdge],
    opts: &SchedOptions,
) -> Result<Vec<Step>, ThunkReason> {
    let inner = match &ent.node {
        EntityNode::Clause(sv) => vec![Step::Clause(sv.id)],
        EntityNode::Gen {
            id,
            var,
            range,
            body,
        } => {
            let ents = entities(body);
            schedule_entity_seq(&ents, down, Some((id, var, range)), opts)?
        }
    };
    Ok(wrap(inner, &ent.wrappers))
}

fn wrap(mut steps: Vec<Step>, wrappers: &[Wrapper<'_>]) -> Vec<Step> {
    for w in wrappers.iter().rev() {
        steps = vec![match *w {
            Wrapper::Guard(cond) => Step::Guard {
                cond: cond.clone(),
                body: steps,
            },
            Wrapper::Let(binds) => Step::Let {
                binds: binds.to_vec(),
                body: steps,
            },
        }];
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_analysis::depgraph::{flow_dependences, DepKind};
    use hac_analysis::refs::collect_refs;
    use hac_analysis::search::{Confidence, TestPolicy};
    use hac_lang::env::ConstEnv;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;

    fn schedule_src(src: &str, env: &ConstEnv) -> (Comp, ScheduleOutcome) {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let refs = collect_refs(&c, "a", env).unwrap();
        let flow = flow_dependences(&refs, "a", &TestPolicy::default());
        let outcome = schedule(&c, &flow.edges);
        (c, outcome)
    }

    fn edge(src: u32, dst: u32, dirs: &[Dir]) -> DepEdge {
        DepEdge {
            src: ClauseId(src),
            dst: ClauseId(dst),
            kind: DepKind::Flow,
            array: "a".into(),
            dv: DirVec(dirs.to_vec()),
            confidence: Confidence::Possible,
            distance: None,
            src_read: None,
            dst_read: None,
        }
    }

    #[test]
    fn section5_example1_single_forward_pass() {
        // Edges 1→2(<), 1→3(=) (0-based: 0→1(<), 0→2(=)): one forward
        // loop with clause 0 before clause 2; clause 1 anywhere.
        let env = ConstEnv::new();
        let (_, outcome) = schedule_src(
            "[* [ 3*i := 1 ] ++ [ 3*i-1 := a!(3*(i-1)) ] ++ [ 3*i-2 := a!(3*i) ] \
             | i <- [1..100] *]",
            &env,
        );
        let plan = outcome.plan().expect("thunkless");
        assert_eq!(plan.loop_count(), 1);
        match &plan.steps[0] {
            Step::Loop { dirn, .. } => assert_eq!(*dirn, Dirn::Forward),
            other => panic!("expected loop, got {other:?}"),
        }
        let order = plan.clauses();
        let pos = |c: u32| order.iter().position(|x| *x == ClauseId(c)).unwrap();
        assert!(pos(0) < pos(2), "(=) edge orders c0 before c2: {order:?}");
    }

    #[test]
    fn section5_example2_backward_inner_loop() {
        // §5 example 2: inner j loop must run backward; outer i forward.
        //   clause 0: (i,j) reads a!(i, j+1) (same i, later j → (=,>))
        //   and a!(i-1, j-1) etc. Reproduce the paper's edge set
        //   directly: 2→1(=,>), 1→2(<,>), 2→3(<).
        // Build a two-clause nest where the (=,>) edge forces backward.
        let env = ConstEnv::from_pairs([("m", 10), ("n", 20)]);
        let (_, outcome) = schedule_src(
            "[* [ (i,j) := a!(i,j+1) ] | i <- [1..m], j <- [1..n-1] *] ++ \
             [ (i,n) := 1 | i <- [1..m] ]",
            &env,
        );
        let plan = outcome.plan().expect("thunkless");
        // Find the inner loop and check its direction.
        fn find_inner(steps: &[Step]) -> Option<Dirn> {
            for s in steps {
                if let Step::Loop { body, .. } = s {
                    for b in body {
                        if let Step::Loop { dirn: d2, .. } = b {
                            return Some(*d2);
                        }
                    }
                    if let Some(d) = find_inner(body) {
                        return Some(d);
                    }
                }
            }
            None
        }
        assert_eq!(
            find_inner(&plan.steps),
            Some(Dirn::Backward),
            "{}",
            plan.render()
        );
    }

    #[test]
    fn section8_acyclic_passes() {
        // §8.1.2 example: A→B(<), B→C(>), A→C(=) — 3 separate loops
        // collapsible into 2 passes.
        let src = "[* [ 3*i := 0 ] ++ [ 3*i+1 := 0 ] ++ [ 3*i+2 := 0 ] | i <- [1..10] *]";
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let edges = vec![
            edge(0, 1, &[Dir::Lt]),
            edge(1, 2, &[Dir::Gt]),
            edge(0, 2, &[Dir::Eq]),
        ];
        let outcome = schedule(&c, &edges);
        let plan = outcome.plan().expect("thunkless");
        assert_eq!(plan.loop_count(), 2, "{}", plan.render());
        // First pass: {A, B} in some order; second pass: {C}.
        let first_pass = plan.steps[0].clauses();
        assert!(first_pass.contains(&ClauseId(0)) && first_pass.contains(&ClauseId(1)));
        assert_eq!(plan.steps[1].clauses(), vec![ClauseId(2)]);
    }

    #[test]
    fn section8_thunk_fallback_on_mixed_cycle() {
        // A→B(<), B→A(>): no direction or split works.
        let src = "[* [ 2*i := 0 ] ++ [ 2*i+1 := 0 ] | i <- [1..10] *]";
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let edges = vec![edge(0, 1, &[Dir::Lt]), edge(1, 0, &[Dir::Gt])];
        match schedule(&c, &edges) {
            ScheduleOutcome::NeedsThunks(ThunkReason::MixedDirectionCycle { clauses }) => {
                assert_eq!(clauses.len(), 2);
            }
            other => panic!("expected mixed-direction fallback, got {other:?}"),
        }
    }

    #[test]
    fn eq_cycle_needs_thunks() {
        let src = "[* [ 2*i := 0 ] ++ [ 2*i+1 := 0 ] | i <- [1..10] *]";
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let edges = vec![edge(0, 1, &[Dir::Eq]), edge(1, 0, &[Dir::Eq])];
        assert!(matches!(
            schedule(&c, &edges),
            ScheduleOutcome::NeedsThunks(ThunkReason::LoopIndependentCycle { .. })
        ));
    }

    #[test]
    fn self_bottom_detected() {
        let env = ConstEnv::new();
        let (_, outcome) = schedule_src("[ i := a!i + 1 | i <- [1..5] ]", &env);
        assert!(matches!(
            outcome,
            ScheduleOutcome::NeedsThunks(ThunkReason::SelfDependentInstance { .. })
        ));
    }

    #[test]
    fn wavefront_schedules_forward_forward() {
        let env = ConstEnv::from_pairs([("n", 6)]);
        let (_, outcome) = schedule_src(
            "[ (1,j) := 1 | j <- [1..n] ] ++ [ (i,1) := 1 | i <- [2..n] ] ++ \
             [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..n], j <- [2..n] ]",
            &env,
        );
        let plan = outcome.plan().expect("thunkless wavefront");
        // Border clauses must come before the interior (ordering edges
        // from border writes to interior reads are loop-independent
        // `()` edges at the root).
        let order = plan.clauses();
        let pos = |c: u32| order.iter().position(|x| *x == ClauseId(c)).unwrap();
        assert!(pos(0) < pos(2) && pos(1) < pos(2), "{order:?}");
        // Interior nest runs forward/forward.
        fn dirs(steps: &[Step], out: &mut Vec<Dirn>) {
            for s in steps {
                if let Step::Loop { dirn, body, .. } = s {
                    out.push(*dirn);
                    dirs(body, out);
                }
            }
        }
        let mut ds = Vec::new();
        dirs(&plan.steps, &mut ds);
        assert!(ds.iter().all(|d| *d == Dirn::Forward), "{ds:?}");
    }

    #[test]
    fn backward_recurrence_runs_backward() {
        // a!i = a!(i+1) + 1 with border at n: loop must run backward.
        let env = ConstEnv::from_pairs([("n", 10)]);
        let (_, outcome) = schedule_src("[ n := 0 ] ++ [ i := a!(i+1) + 1 | i <- [1..n-1] ]", &env);
        let plan = outcome.plan().expect("thunkless");
        fn first_loop_dir(steps: &[Step]) -> Option<Dirn> {
            for s in steps {
                match s {
                    Step::Loop { dirn, .. } => return Some(*dirn),
                    Step::Guard { body, .. } | Step::Let { body, .. } => {
                        if let Some(d) = first_loop_dir(body) {
                            return Some(d);
                        }
                    }
                    Step::Clause(_) => {}
                }
            }
            None
        }
        assert_eq!(first_loop_dir(&plan.steps), Some(Dirn::Backward));
    }

    #[test]
    fn guards_and_lets_preserved_in_plan() {
        let env = ConstEnv::new();
        let (_, outcome) = schedule_src(
            "[* ([ i := v ] where v = 2) ++ [* [ i+10 := 1 ] | i > 2 *] | i <- [1..5] *]",
            &env,
        );
        let plan = outcome.plan().expect("thunkless");
        let rendered = plan.render();
        assert!(rendered.contains("let v:"), "{rendered}");
        assert!(rendered.contains("if i > 2:"), "{rendered}");
    }

    #[test]
    fn star_edge_blocks_single_direction() {
        // A self `*` edge expands to <, =, >: the < and > conflict, and
        // the = self-edge on a bare clause is ⊥ — either way: thunks.
        let src = "[* [ i := 0 ] | i <- [1..10] *]";
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let edges = vec![edge(0, 0, &[Dir::Any])];
        assert!(matches!(
            schedule(&c, &edges),
            ScheduleOutcome::NeedsThunks(_)
        ));
    }

    #[test]
    fn multipass_can_be_disabled() {
        // The §8.1.2 acyclic example schedules in 2 passes by default;
        // with multipass off it must fall back to thunks.
        let src = "[* [ 3*i := 0 ] ++ [ 3*i+1 := 0 ] ++ [ 3*i+2 := 0 ] | i <- [1..10] *]";
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let edges = vec![
            edge(0, 1, &[Dir::Lt]),
            edge(1, 2, &[Dir::Gt]),
            edge(0, 2, &[Dir::Eq]),
        ];
        assert!(schedule(&c, &edges).plan().is_some());
        let no_split = SchedOptions {
            allow_multipass: false,
        };
        assert!(matches!(
            schedule_with(&c, &edges, &no_split),
            ScheduleOutcome::NeedsThunks(ThunkReason::MixedDirectionCycle { .. })
        ));
    }

    #[test]
    fn no_edges_single_forward_pass() {
        let env = ConstEnv::new();
        let (_, outcome) = schedule_src("[ i := 1 | i <- [1..10] ]", &env);
        let plan = outcome.plan().unwrap();
        assert_eq!(plan.loop_count(), 1);
    }
}
