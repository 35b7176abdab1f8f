//! Dependence-graph construction over s/v clauses (§5, §7, §9).
//!
//! Three kinds of edges, all oriented **source → sink** where the
//! source must be computed before the sink for the optimization that
//! consumes the edge:
//!
//! * **Flow** (true): a write supplies a value a read needs — the paper's
//!   thunkless-compilation edges (§5, §8).
//! * **Output**: two writes hit the same element — write collisions
//!   (§7); for monolithic arrays these are errors/checks, for
//!   accumulated arrays with non-commutative combining they become
//!   ordering constraints.
//! * **Anti**: a read of the old version precedes a write in `bigupd` —
//!   in-place update scheduling (§9).
//!
//! References with nonlinear subscripts produce a single pessimistic
//! edge labeled with the all-`*` vector ("overestimating dependences",
//! §1).

use hac_lang::affine::{Affine, Var};
use hac_lang::ast::ClauseId;

use crate::direction::{Dir, DirVec};
use crate::equation::{build_equations, shared_depth, DimEquation};
use crate::refs::{ClauseRefs, RefSite};
use crate::search::{refine_directions, Confidence, RefinementResult, TestPolicy, TestStats};

/// Dependence kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    Flow,
    Anti,
    Output,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepKind::Flow => write!(f, "flow"),
            DepKind::Anti => write!(f, "anti"),
            DepKind::Output => write!(f, "output"),
        }
    }
}

/// One labeled dependence edge between clauses.
#[derive(Debug, Clone, PartialEq)]
pub struct DepEdge {
    pub src: ClauseId,
    pub dst: ClauseId,
    pub kind: DepKind,
    pub array: String,
    /// Direction vector over the shared loops of `src`/`dst`.
    pub dv: DirVec,
    pub confidence: Confidence,
    /// Per-shared-loop constant distance `sink − source`, when the
    /// subscripts force one (drives node-splitting temporaries, §9).
    pub distance: Option<Vec<i64>>,
    /// When the source endpoint is a read, its index into the source
    /// clause's `reads` vector (node splitting redirects it, §9).
    pub src_read: Option<usize>,
    /// When the sink endpoint is a read, its index into the sink
    /// clause's `reads` vector.
    pub dst_read: Option<usize>,
}

/// A set of dependence edges over the clauses of one array expression.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DependenceGraph {
    pub edges: Vec<DepEdge>,
    pub stats: TestStats,
}

impl DependenceGraph {
    /// Merge another graph's edges and stats into this one.
    pub fn absorb(&mut self, other: DependenceGraph) {
        self.edges.extend(other.edges);
        self.stats.absorb(&other.stats);
    }
}

/// Test one (source ref, sink ref) pair and append surviving edges.
///
/// `exclude_all_eq` drops the all-`=` vector — used for self-pairs
/// (same reference twice) where the "dependence" of an instance on
/// itself is vacuous, and for write/write self-collisions where only
/// *distinct* instances collide.
#[allow(clippy::too_many_arguments)]
fn test_pair(
    src: &RefSite,
    snk: &RefSite,
    src_refs: &ClauseRefs,
    snk_refs: &ClauseRefs,
    kind: DepKind,
    exclude_all_eq: bool,
    reads: (Option<usize>, Option<usize>),
    policy: &TestPolicy,
    out: &mut DependenceGraph,
) {
    let (src_read, dst_read) = reads;
    let depth = src_refs.ctx.shared_prefix_len(&snk_refs.ctx);
    match (&src.norm, &snk.norm) {
        (Some(s), Some(k)) => {
            let Some(eqs) = build_equations(s, k) else {
                // Rank mismatch: distinct elements can never alias.
                return;
            };
            debug_assert_eq!(shared_depth(s, k), depth);
            let r = refine_directions(&eqs, depth, policy);
            out.stats.absorb(&r.stats);
            for dep in r.dependences {
                if exclude_all_eq && dep.dv.is_loop_independent() {
                    continue;
                }
                let distance = constant_distance(&eqs, &dep.dv);
                out.edges.push(DepEdge {
                    src: src.clause,
                    dst: snk.clause,
                    kind,
                    array: src.array.clone(),
                    dv: dep.dv,
                    confidence: dep.confidence,
                    distance,
                    src_read,
                    dst_read,
                });
            }
        }
        _ => {
            // Nonlinear subscript: assume everything (the pessimistic
            // strategy the paper's analysis exists to avoid).
            let dv = DirVec::any(depth);
            if exclude_all_eq && depth == 0 {
                return;
            }
            out.edges.push(DepEdge {
                src: src.clause,
                dst: snk.clause,
                kind,
                array: src.array.clone(),
                dv,
                confidence: Confidence::Possible,
                distance: None,
                src_read,
                dst_read,
            });
        }
    }
}

/// Flow (true) dependences of a recursively defined monolithic array:
/// every write clause × every read of `target` (§5).
pub fn flow_dependences(refs: &[ClauseRefs], target: &str, policy: &TestPolicy) -> DependenceGraph {
    let mut g = DependenceGraph::default();
    for w in refs {
        for r in refs {
            for (ri, read) in r.reads.iter().enumerate() {
                if read.array != target {
                    continue;
                }
                // Source: the write; sink: the read. A same-clause
                // same-instance "dependence" (write feeding the very
                // instance computing it) is a genuine ⊥ cycle and is
                // kept — the scheduler reports it as unschedulable.
                test_pair(
                    &w.write,
                    read,
                    w,
                    r,
                    DepKind::Flow,
                    false,
                    (None, Some(ri)),
                    policy,
                    &mut g,
                );
            }
        }
    }
    g
}

/// Output dependences / write collisions: every unordered pair of
/// writes, including a clause against its own other instances (§7).
pub fn output_dependences(refs: &[ClauseRefs], policy: &TestPolicy) -> DependenceGraph {
    let mut g = DependenceGraph::default();
    for (i, w1) in refs.iter().enumerate() {
        for w2 in refs.iter().skip(i) {
            let self_pair = w1.id() == w2.id();
            test_pair(
                &w1.write,
                &w2.write,
                w1,
                w2,
                DepKind::Output,
                self_pair, // distinct instances only
                (None, None),
                policy,
                &mut g,
            );
        }
    }
    g
}

/// Anti dependences for `bigupd` (§9): every read of the *base* array
/// (source — must happen first) × every write (sink — the in-place
/// overwrite that would kill the value).
pub fn anti_dependences(refs: &[ClauseRefs], base: &str, policy: &TestPolicy) -> DependenceGraph {
    let mut g = DependenceGraph::default();
    for r in refs {
        for (ri, read) in r.reads.iter().enumerate() {
            if read.array != base {
                continue;
            }
            for w in refs {
                test_pair(
                    read,
                    &w.write,
                    r,
                    w,
                    DepKind::Anti,
                    false,
                    (Some(ri), None),
                    policy,
                    &mut g,
                );
            }
        }
    }
    g
}

/// Derive a constant distance vector `d_k = y_k − x_k` per shared loop
/// when the equations force one. Requires `a_k = b_k` for every shared
/// loop in every dimension (otherwise the offset varies with position)
/// and no unshared loop with a nonzero coefficient. Distances are
/// resolved dimension-by-dimension (a dimension with exactly one
/// not-yet-resolved loop pins that loop) to a fixpoint, then every
/// dimension is verified. Unresolved loops under an `=` constraint
/// default to distance 0.
pub fn constant_distance(eqs: &[DimEquation], dv: &DirVec) -> Option<Vec<i64>> {
    let s = dv.len();
    if eqs.is_empty() {
        return Some(vec![0; s]);
    }
    for eq in eqs {
        if eq.shared.iter().any(|t| t.a != t.b) {
            return None;
        }
        if eq
            .src_only
            .iter()
            .chain(eq.snk_only.iter())
            .any(|t| t.coeff != 0)
        {
            return None;
        }
    }
    // With a_k = b_k: f(x) = g(y) gives a0 + Σ a_k x_k = b0 + Σ a_k y_k,
    // i.e. Σ_k a_k^dim · d_k = a0 − b0 with d_k = y_k − x_k.
    let mut d: Vec<Option<i64>> = vec![None; s];
    for (k, dir) in dv.0.iter().enumerate() {
        if *dir == Dir::Eq {
            d[k] = Some(0);
        }
    }
    loop {
        let mut progressed = false;
        for eq in eqs {
            let mut rem = -eq.rhs();
            let mut unresolved: Option<usize> = None;
            let mut multi = false;
            for (k, t) in eq.shared.iter().enumerate() {
                match d[k] {
                    Some(dk) => rem -= t.a * dk,
                    None if t.a != 0 => {
                        if unresolved.is_some() {
                            multi = true;
                        } else {
                            unresolved = Some(k);
                        }
                    }
                    None => {}
                }
            }
            if multi {
                continue;
            }
            match unresolved {
                Some(k) => {
                    let a = eq.shared[k].a;
                    if rem % a != 0 {
                        return None; // inconsistent: no integer distance
                    }
                    d[k] = Some(rem / a);
                    progressed = true;
                }
                None => {
                    if rem != 0 {
                        return None; // inconsistent dimension
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }
    let mut out = Vec::with_capacity(s);
    for (k, dk) in d.iter().enumerate() {
        match dk {
            Some(v) => {
                // Must agree with the direction label (d = y − x).
                let ok = match dv.0[k] {
                    Dir::Lt => *v > 0,
                    Dir::Eq => *v == 0,
                    Dir::Gt => *v < 0,
                    Dir::Any => true,
                };
                if !ok {
                    return None;
                }
                out.push(*v);
            }
            None => return None,
        }
    }
    // Final verification of every dimension.
    for eq in eqs {
        let sum: i64 = eq
            .shared
            .iter()
            .zip(out.iter())
            .map(|(t, dk)| t.a * dk)
            .sum();
        if sum != -eq.rhs() {
            return None;
        }
    }
    Some(out)
}

/// The dependences of `read` on `write`, two references in different
/// comprehensions that run one after the other: §6's test across
/// bindings, which §8 needs to merge two bindings' loops. With `fused`
/// the outermost loops of the two nests become one loop: they must
/// have the same normalized range (start, step and size), so that an
/// iteration of one is the same-numbered iteration of the other, and
/// the read's loop is renamed to the write's so the two share it.
/// Without `fused` no loop is shared, and the result says whether the
/// read can see the write at all.
///
/// `None` when the question cannot be posed exactly (a nonlinear
/// subscript, or fused loops whose ranges differ); callers assume a
/// dependence in every direction.
pub fn cross_dependences(
    write: &RefSite,
    read: &RefSite,
    fused: bool,
    policy: &TestPolicy,
) -> Option<RefinementResult> {
    let w = write.norm.as_ref()?;
    let mut r = read.norm.clone()?;
    if fused {
        let (a, b) = (w.nest.first()?, r.nest.first()?);
        if (a.lo, a.size, a.step) != (b.lo, b.size, b.step) {
            return None;
        }
        let (from, to) = (Var::Loop(b.id), Affine::var(a.id));
        r.dims = r
            .dims
            .iter()
            .map(|d| d.checked_subst(&from, &to))
            .collect::<Option<_>>()?;
        let mut nest = r.nest.to_vec();
        nest[0].id = a.id;
        r.nest = nest.into();
    }
    Some(match build_equations(w, &r) {
        Some(eqs) => refine_directions(&eqs, shared_depth(w, &r), policy),
        // Rank mismatch: distinct elements can never alias.
        None => RefinementResult::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::env::ConstEnv;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;

    use crate::refs::collect_refs;

    fn refs(src: &str, target: &str, env: &ConstEnv) -> Vec<ClauseRefs<'static>> {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        collect_refs(Box::leak(Box::new(c)), target, env).unwrap()
    }

    fn dirs(g: &DependenceGraph, src: u32, dst: u32) -> Vec<String> {
        g.edges
            .iter()
            .filter(|e| e.src == ClauseId(src) && e.dst == ClauseId(dst))
            .map(|e| e.dv.to_string())
            .collect()
    }

    #[test]
    fn section5_example1_graph() {
        // let a = array (1,300)
        //   [* [3*i := ...] ++ [3*i-1 := ... a!(3*(i-1)) ...] ++
        //      [3*i-2 := ... a!(3*i) ...] | i <- [1..100] *]
        let env = ConstEnv::new();
        let r = refs(
            "[* [ 3*i := 1 ] ++ [ 3*i-1 := a!(3*(i-1)) ] ++ [ 3*i-2 := a!(3*i) ] \
             | i <- [1..100] *]",
            "a",
            &env,
        );
        let g = flow_dependences(&r, "a", &TestPolicy::default());
        // The paper's edges: 1→2(<) and 1→3(=) (our ids are 0-based).
        assert_eq!(dirs(&g, 0, 1), vec!["(<)"]);
        assert_eq!(dirs(&g, 0, 2), vec!["(=)"]);
        // No other flow edges.
        assert_eq!(g.edges.len(), 2);
        // Both confirmed by the exact test, with distances.
        assert!(g
            .edges
            .iter()
            .all(|e| matches!(e.confidence, Confidence::Confirmed(_))));
        let e01 = &g.edges[0];
        assert_eq!(e01.distance, Some(vec![1]));
    }

    #[test]
    fn wavefront_self_edges() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let r = refs(
            "[ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..n], j <- [2..n] ]",
            "a",
            &env,
        );
        let g = flow_dependences(&r, "a", &TestPolicy::default());
        let mut dvs: Vec<String> = g.edges.iter().map(|e| e.dv.to_string()).collect();
        dvs.sort();
        assert_eq!(dvs, vec!["(<,<)", "(<,=)", "(=,<)"]);
        // All distances constant: (1,0), (0,1), (1,1).
        let mut dists: Vec<Vec<i64>> = g
            .edges
            .iter()
            .map(|e| e.distance.clone().unwrap())
            .collect();
        dists.sort();
        assert_eq!(dists, vec![vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn output_collision_detected_and_located() {
        // Two clauses both write element 5 (i = 5 from first, constant
        // 5 from second).
        let env = ConstEnv::new();
        let r = refs("[ i := 0 | i <- [1..9] ] ++ [ 5 := 1 ]", "a", &env);
        let g = output_dependences(&r, &TestPolicy::default());
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].kind, DepKind::Output);
        assert!(matches!(g.edges[0].confidence, Confidence::Confirmed(_)));
    }

    #[test]
    fn disjoint_writes_no_collision() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let r = refs(
            "[ 2*i := 0 | i <- [1..n] ] ++ [ 2*i-1 := 1 | i <- [1..n] ]",
            "a",
            &env,
        );
        let g = output_dependences(&r, &TestPolicy::default());
        assert!(g.edges.is_empty(), "even/odd writes cannot collide: {g:?}");
    }

    #[test]
    fn self_collision_excludes_same_instance() {
        // One clause writing i: distinct instances never collide.
        let env = ConstEnv::new();
        let r = refs("[ i := 0 | i <- [1..9] ]", "a", &env);
        let g = output_dependences(&r, &TestPolicy::default());
        assert!(g.edges.is_empty());
        // But writing i mod-free constant collides across instances:
        let r2 = refs("[ 3 := i | i <- [1..9] ]", "a", &env);
        let g2 = output_dependences(&r2, &TestPolicy::default());
        assert!(!g2.edges.is_empty());
    }

    #[test]
    fn anti_edges_for_row_swap() {
        // §9 LINPACK row swap: clauses read the row the other writes.
        let env = ConstEnv::from_pairs([("n", 8)]);
        let r = refs(
            "[ (1,j) := a!(2,j) | j <- [1..n] ] ++ [ (2,j) := a!(1,j) | j <- [1..n] ]",
            "a",
            &env,
        );
        let g = anti_dependences(&r, "a", &TestPolicy::default());
        // clause 0 reads (2,j) which clause 1 writes: anti 0→1 (=)...
        // wait: the loops of the two clauses are DIFFERENT generators
        // (unshared), so the direction vector is empty.
        assert_eq!(dirs(&g, 0, 1), vec!["()"]);
        assert_eq!(dirs(&g, 1, 0), vec!["()"]);
        assert_eq!(g.edges.len(), 2, "{g:?}");
    }

    #[test]
    fn nonlinear_gets_pessimistic_edge() {
        let env = ConstEnv::new();
        let r = refs("[ i := a!(i*i) | i <- [1..9] ]", "a", &env);
        let g = flow_dependences(&r, "a", &TestPolicy::default());
        assert_eq!(g.edges.len(), 1);
        assert_eq!(g.edges[0].dv, DirVec::any(1));
        assert_eq!(g.edges[0].distance, None);
    }

    #[test]
    fn distance_none_when_coeffs_differ() {
        let env = ConstEnv::new();
        let r = refs("[ 2*i := a!i | i <- [1..9] ]", "a", &env);
        let g = flow_dependences(&r, "a", &TestPolicy::default());
        for e in &g.edges {
            assert_eq!(e.distance, None, "varying offset has no constant distance");
        }
    }

    #[test]
    fn cross_binding_directions_see_the_fused_loop() {
        // `a`'s loop writes `a!i`; `b`'s reads `a` at `i+d` in a loop
        // over the same range. Numbered in one id space, as `compile`
        // numbers a program, so the two loops are L0 and L1.
        let env = ConstEnv::new();
        let (mut c, mut l) = (0, 0);
        let mut side = |src: &str, target: &str| {
            let mut comp = parse_comp(src).unwrap();
            hac_lang::number::number_comp(&mut comp, &mut c, &mut l);
            collect_refs(Box::leak(Box::new(comp)), target, &env).unwrap()
        };
        let a = side("[ i := a!(i-1) + 1 | i <- [2..9] ]", "a");
        let b = side(
            "[ 1 := a!9 + a!1 ] ++ \
             [ i := a!(i-1) + a!i + a!(i+1) + a!(i+9) | i <- [2..9] ]",
            "b",
        );
        let policy = TestPolicy::default();
        let fused = |read: &RefSite| {
            cross_dependences(&a[0].write, read, true, &policy)
                .expect("same range")
                .vectors()
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
        };
        let reads = &b[1].reads;
        assert_eq!(
            fused(&reads[0]),
            ["(<)"],
            "a!(i-1): written one iteration before"
        );
        assert_eq!(fused(&reads[1]), ["(=)"], "a!i: this iteration");
        assert_eq!(fused(&reads[2]), ["(>)"], "a!(i+1): one iteration later");
        assert!(fused(&reads[3]).is_empty(), "a!(i+9): never written");
        // Unfused, `b`'s prefix clause sees the loop's `a!9` and not
        // `a!1`, which the loop never writes.
        let unfused = |read: &RefSite| {
            cross_dependences(&a[0].write, read, false, &policy)
                .expect("affine")
                .independent()
        };
        assert!(!unfused(&b[0].reads[0]));
        assert!(unfused(&b[0].reads[1]));
        // Loops over different ranges have no fused form.
        let c = side("[ i := a!(i-1) | i <- [2..8] ]", "c");
        assert!(cross_dependences(&a[0].write, &c[0].reads[0], true, &policy).is_none());
    }

    #[test]
    fn rank_mismatch_skipped() {
        let env = ConstEnv::new();
        // Value reads a 1-D view name `b`, target is 2-D `a`; reads of
        // `a` with wrong rank would be skipped — construct directly:
        let r = refs("[ (i,i) := b!i | i <- [1..4] ]", "a", &env);
        let g = flow_dependences(&r, "a", &TestPolicy::default());
        assert!(g.edges.is_empty());
    }
}
