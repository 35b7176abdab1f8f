//! §10 extension: vectorization/parallelization candidates.
//!
//! "As with imperative languages, such transformations on functional
//! language programs needs to focus on finding innermost loops with no
//! loop-carried dependences." This module classifies every generator of
//! a comprehension: a loop *carries* a dependence when some edge's
//! direction vector has its first non-`=` component at that loop's
//! level; innermost loops carrying nothing are vectorization
//! candidates, and any non-carrying loop can run its iterations
//! independently.
//!
//! Carried loops get one further verdict: when *every* dependence a
//! loop carries is a self flow edge at distance one whose clause folds
//! the carried cell through a reassociable operator (`a!(i-1) + e`,
//! `min`/`max`), the loop is a *reduction* — its iterations are still
//! ordered, but the carry is a strict left fold the backend may
//! execute as a fused accumulator kernel without changing a single FP
//! operation (see `hac_codegen::fuse`).

use std::collections::BTreeMap;

use hac_lang::ast::{BinOp, Comp, Expr, LoopId};
use hac_lang::number::clause_contexts;

use crate::depgraph::{DepEdge, DepKind};
use crate::direction::Dir;

/// Classification of one generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopParallelism {
    pub id: LoopId,
    pub var: String,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// No generator nested below this one.
    pub innermost: bool,
    /// Some dependence is carried at this loop's level.
    pub carries_dependence: bool,
    /// Every dependence carried at this level is a reassociable
    /// accumulator recurrence: a self flow edge at distance exactly one
    /// whose clause value folds the carried cell with `+`/`min`/`max`.
    /// Meaningless (false) when nothing is carried.
    pub reduction: bool,
}

impl LoopParallelism {
    /// Innermost and carries nothing → vectorizable (§10).
    pub fn vectorizable(&self) -> bool {
        self.innermost && !self.carries_dependence
    }

    /// Iterations are mutually independent → parallelizable.
    pub fn parallelizable(&self) -> bool {
        !self.carries_dependence
    }

    /// Carried, but only by reassociable accumulator recurrences: the
    /// loop is a strict left fold (`acc = acc ⊕ e`).
    pub fn reducible(&self) -> bool {
        self.carries_dependence && self.reduction
    }
}

/// Classify every generator of `comp` against a set of dependence
/// edges (flow for monolithic arrays; flow + anti for in-place
/// updates). `*` components are treated as possibly-carried.
pub fn loop_parallelism<'e>(
    comp: &Comp,
    edges: impl IntoIterator<Item = &'e DepEdge>,
) -> Vec<LoopParallelism> {
    // Collect loops with depth and innermost-ness, in source order.
    let mut loops: Vec<LoopParallelism> = Vec::new();
    collect(comp, 0, &mut loops);

    // Which loop ids carry a dependence? An edge's direction vector
    // indexes the shared prefix of its endpoints' nests. Alongside the
    // carried set, track whether *every* edge carried at a level is a
    // reduction-shaped recurrence (one non-reduction edge poisons the
    // level).
    let ctxs = clause_contexts(comp);
    let ctx_of = |id| ctxs.iter().find(|c| c.clause.id == id);
    let mut carried: BTreeMap<LoopId, bool> = BTreeMap::new();
    let mark = |carried: &mut BTreeMap<LoopId, bool>, l: LoopId, red: bool| {
        carried.entry(l).and_modify(|r| *r &= red).or_insert(red);
    };
    for e in edges {
        let (Some(sc), Some(dc)) = (ctx_of(e.src), ctx_of(e.dst)) else {
            continue;
        };
        let shared = sc
            .loops()
            .zip(dc.loops())
            .take_while(|(a, b)| a.id == b.id)
            .map(|(a, _)| a.id);
        // Every level whose component could be the first non-`=` one
        // is (possibly) carrying. For concrete vectors that is exactly
        // the carried level; leading `*`s make the prefix ambiguous.
        for (k, (d, l)) in e.dv.0.iter().zip(shared).enumerate() {
            match d {
                Dir::Eq => continue,
                // An ambiguous component is never a proven distance-one
                // recurrence; a `*` may be `=`: keep scanning.
                Dir::Any => mark(&mut carried, l, false),
                Dir::Lt | Dir::Gt => {
                    mark(&mut carried, l, reduction_edge(e, k, &dc.clause.value));
                    break; // definite carried level found
                }
            }
        }
    }

    for lp in &mut loops {
        lp.carries_dependence = carried.contains_key(&lp.id);
        lp.reduction = carried.get(&lp.id).copied().unwrap_or(false);
    }
    loops
}

/// Is `e`, carried at shared-loop level `k`, a reduction-shaped
/// recurrence? Requires a self flow edge with a constant distance
/// vector that is ±1 at `k` and 0 everywhere else (the clause reads
/// exactly the cell it wrote one iteration ago), and a sink value that
/// folds that cell through a reassociable operator. The tape-level
/// recognizer re-verifies the access pattern on the compiled streams
/// (`hac_codegen::fuse`); this verdict only licenses the attempt.
fn reduction_edge(e: &DepEdge, k: usize, sink_value: &Expr) -> bool {
    if e.src != e.dst || e.kind != DepKind::Flow {
        return false;
    }
    let Some(dist) = &e.distance else {
        return false;
    };
    let unit_at_k = dist
        .iter()
        .enumerate()
        .all(|(j, &d)| if j == k { d.abs() == 1 } else { d == 0 });
    unit_at_k && reassociable_fold(sink_value, &e.array)
}

/// Does `value` have the shape `a!(...) ⊕ e` (either operand order)
/// with `⊕ ∈ {+, min, max}` and `e` free of references to `array`?
/// Strictly *left-to-right* execution of such a fold is what the fused
/// kernels reproduce — reassociativity is never exploited, it merely
/// names the class of operators whose single carried read is the
/// running accumulator itself.
fn reassociable_fold(value: &Expr, array: &str) -> bool {
    match value {
        // `let` binders may precede the fold as long as none of them
        // touch the target array (they lower to loop-body temporaries).
        Expr::Let { binds, body } => {
            binds.iter().all(|(_, e)| !mentions(e, array)) && reassociable_fold(body, array)
        }
        Expr::Binary {
            op: BinOp::Add | BinOp::Min | BinOp::Max,
            lhs,
            rhs,
        } => {
            let is_acc = |e: &Expr| matches!(e, Expr::Index { array: a, subs } if a == array && subs.iter().all(|s| !mentions(s, array)));
            (is_acc(lhs) && !mentions(rhs, array)) || (is_acc(rhs) && !mentions(lhs, array))
        }
        _ => false,
    }
}

/// Does `e` reference `array` anywhere?
fn mentions(e: &Expr, array: &str) -> bool {
    match e {
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => false,
        Expr::Index { array: a, subs } => a == array || subs.iter().any(|s| mentions(s, array)),
        Expr::Binary { lhs, rhs, .. } => mentions(lhs, array) || mentions(rhs, array),
        Expr::Unary { expr, .. } => mentions(expr, array),
        Expr::If { cond, then, els } => {
            mentions(cond, array) || mentions(then, array) || mentions(els, array)
        }
        Expr::Let { binds, body } => {
            binds.iter().any(|(_, b)| mentions(b, array)) || mentions(body, array)
        }
        Expr::Call { args, .. } => args.iter().any(|a| mentions(a, array)),
    }
}

fn collect(comp: &Comp, depth: usize, out: &mut Vec<LoopParallelism>) {
    match comp {
        Comp::Append(cs) => {
            for c in cs {
                collect(c, depth, out);
            }
        }
        Comp::Guard { body, .. } | Comp::Let { body, .. } => collect(body, depth, out),
        Comp::Gen { id, var, body, .. } => {
            let mut has_inner = false;
            body.walk(&mut |c| {
                if matches!(c, Comp::Gen { .. }) {
                    has_inner = true;
                }
            });
            out.push(LoopParallelism {
                id: *id,
                var: var.clone(),
                depth,
                innermost: !has_inner,
                carries_dependence: false,
                reduction: false,
            });
            collect(body, depth + 1, out);
        }
        Comp::Clause(_) => {}
    }
}

/// A rendered summary grouped by verdict (for reports).
pub fn parallelism_summary(loops: &[LoopParallelism]) -> BTreeMap<&'static str, Vec<String>> {
    let mut out: BTreeMap<&'static str, Vec<String>> = BTreeMap::new();
    for l in loops {
        let label = format!("{} ({})", l.var, l.id);
        if l.vectorizable() {
            out.entry("vectorizable").or_default().push(label);
        } else if l.parallelizable() {
            out.entry("parallelizable").or_default().push(label);
        } else if l.reducible() {
            out.entry("reduction").or_default().push(label);
        } else {
            out.entry("sequential").or_default().push(label);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depgraph::flow_dependences;
    use crate::refs::collect_refs;
    use crate::search::TestPolicy;
    use hac_lang::env::ConstEnv;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;

    fn classify(src: &str, env: &ConstEnv) -> Vec<LoopParallelism> {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let refs = collect_refs(&c, "a", env).unwrap();
        let flow = flow_dependences(&refs, "a", &TestPolicy::default());
        loop_parallelism(&c, &flow.edges)
    }

    #[test]
    fn elementwise_loop_vectorizable() {
        let env = ConstEnv::from_pairs([("n", 100)]);
        let loops = classify("[ i := u!i * 2 | i <- [1..n] ]", &env);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].vectorizable());
        assert!(loops[0].parallelizable());
    }

    #[test]
    fn recurrence_loop_sequential() {
        let env = ConstEnv::from_pairs([("n", 100)]);
        let loops = classify("[ 1 := 1 ] ++ [ i := a!(i-1) | i <- [2..n] ]", &env);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].carries_dependence);
        assert!(!loops[0].vectorizable());
    }

    #[test]
    fn wavefront_both_loops_carry() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let loops = classify(
            "[ (1,j) := 1 | j <- [1..n] ] ++ [ (i,1) := 1 | i <- [2..n] ] ++ \
             [ (i,j) := a!(i-1,j) + a!(i,j-1) | i <- [2..n], j <- [2..n] ]",
            &env,
        );
        // Border loops carry nothing; interior i and j both carry.
        let by_var: Vec<(&str, bool, bool)> = loops
            .iter()
            .map(|l| (l.var.as_str(), l.carries_dependence, l.innermost))
            .collect();
        assert_eq!(by_var.len(), 4);
        assert!(!loops[0].carries_dependence, "border j loop");
        assert!(!loops[1].carries_dependence, "border i loop");
        assert!(
            loops[2].carries_dependence,
            "interior i: (<,=) carried at 0"
        );
        assert!(
            loops[3].carries_dependence,
            "interior j: (=,<) carried at 1"
        );
        assert!(loops[0].vectorizable());
    }

    #[test]
    fn row_recurrence_inner_loop_vectorizable() {
        // a(i,j) = a(i-1,j) + 1: carried only at the outer loop; the
        // inner loop is the §10 vectorization candidate.
        let env = ConstEnv::from_pairs([("n", 10)]);
        let loops = classify(
            "[ (1,j) := 1 | j <- [1..n] ] ++ \
             [ (i,j) := a!(i-1,j) + 1 | i <- [2..n], j <- [1..n] ]",
            &env,
        );
        let interior_i = &loops[1];
        let interior_j = &loops[2];
        assert!(interior_i.carries_dependence);
        assert!(!interior_i.innermost);
        assert!(interior_j.vectorizable(), "{loops:?}");
    }

    #[test]
    fn star_components_conservative() {
        use crate::depgraph::{DepEdge, DepKind};
        use crate::direction::DirVec;
        use crate::search::Confidence;
        use hac_lang::ast::ClauseId;

        let mut c = parse_comp("[ (i,j) := 0 | i <- [1..4], j <- [1..4] ]").unwrap();
        number_clauses(&mut c);
        let edge = DepEdge {
            src: ClauseId(0),
            dst: ClauseId(0),
            kind: DepKind::Flow,
            array: "a".into(),
            dv: DirVec(vec![Dir::Any, Dir::Any]),
            confidence: Confidence::Possible,
            distance: None,
            src_read: None,
            dst_read: None,
        };
        let loops = loop_parallelism(&c, &[edge]);
        assert!(loops.iter().all(|l| l.carries_dependence));
    }

    #[test]
    fn running_sum_is_a_reduction() {
        let env = ConstEnv::from_pairs([("n", 100)]);
        let loops = classify("[ 1 := 0 ] ++ [ k := a!(k-1) + u!k | k <- [2..n] ]", &env);
        assert_eq!(loops.len(), 1);
        assert!(loops[0].carries_dependence);
        assert!(loops[0].reducible(), "{loops:?}");
        assert!(!loops[0].parallelizable());
        assert!(!loops[0].vectorizable());
    }

    #[test]
    fn min_max_folds_are_reductions() {
        let env = ConstEnv::from_pairs([("n", 50)]);
        for fold in ["max(a!(k-1), u!k)", "min(u!k, a!(k-1))"] {
            let src = format!("[ 1 := 0 ] ++ [ k := {fold} | k <- [2..n] ]");
            let loops = classify(&src, &env);
            assert!(loops[0].reducible(), "{fold}: {loops:?}");
        }
    }

    #[test]
    fn non_reassociable_carries_are_not_reductions() {
        let env = ConstEnv::from_pairs([("n", 50)]);
        for value in [
            // The fold operator is not reassociable.
            "a!(k-1) - u!k",
            "u!k / a!(k-1)",
            // The accumulator appears on both sides.
            "a!(k-1) + a!(k-1)",
            // Not the previous iteration's cell.
            "a!(k-2) + u!k",
        ] {
            let src = format!("[ 1 := 1 ] ++ [ 2 := 1 ] ++ [ k := {value} | k <- [3..n] ]");
            let loops = classify(&src, &env);
            assert!(loops[0].carries_dependence, "{value}: {loops:?}");
            assert!(!loops[0].reducible(), "{value}: {loops:?}");
        }
    }

    #[test]
    fn matmul_shape_inner_k_is_a_reduction() {
        // The accumulation clause of the matmul recurrence: a flat
        // partial-sum array scanned along k. The i and j loops stay
        // parallelizable; only k carries — and reduces.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let loops = classify(
            "[ (i,j,1) := 0 | i <- [1..n], j <- [1..n] ] ++ \
             [ (i,j,k) := a!(i,j,k-1) + u!(i,k) * u!(k,j) \
               | i <- [1..n], j <- [1..n], k <- [2..n] ]",
            &env,
        );
        let k = loops.iter().find(|l| l.var == "k").unwrap();
        assert!(k.reducible(), "{loops:?}");
        for var in ["i", "j"] {
            assert!(
                loops
                    .iter()
                    .filter(|l| l.var == var)
                    .all(LoopParallelism::parallelizable),
                "{var} loops stay parallel: {loops:?}"
            );
        }
        let s = parallelism_summary(&loops);
        assert_eq!(s["reduction"], vec![format!("k ({})", k.id)]);
    }

    #[test]
    fn summary_groups() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let loops = classify(
            "[ (1,j) := 1 | j <- [1..n] ] ++ \
             [ (i,j) := a!(i-1,j) / 2 | i <- [2..n], j <- [1..n] ]",
            &env,
        );
        let s = parallelism_summary(&loops);
        assert!(s.contains_key("vectorizable"));
        assert!(s.contains_key("sequential"));
        assert!(!s.contains_key("reduction"));
    }
}
