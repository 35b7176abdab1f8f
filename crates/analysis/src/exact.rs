//! The exact bounded-integer-solution test (§6, "linear diophantine
//! equation theory gives us an exact test ... but it is exponential in
//! the number of surrounding loops").
//!
//! A depth-first search assigns each shared loop's `(x_k, y_k)` pair
//! (honoring the direction constraint) and each unshared loop's index,
//! generating only values that keep every dimension's remaining terms
//! able to reach its right-hand side.
//! Unlike the per-dimension GCD/Banerjee tests, the search solves all
//! subscript dimensions *simultaneously*, so "dependent" comes with a
//! concrete witness. A node budget bounds the exponential blow-up; when
//! it is exhausted the result is [`ExactResult::Unknown`] and callers
//! fall back to the inexact verdicts.

use crate::direction::{Dir, DirVec};
use crate::equation::DimEquation;

/// A concrete solution of the dependence equation, in *normalized*
/// loop coordinates (1-based).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// `(x_k, y_k)` per shared loop, outermost first.
    pub shared: Vec<(i64, i64)>,
    /// Source-only loop indices.
    pub src_only: Vec<i64>,
    /// Sink-only loop indices.
    pub snk_only: Vec<i64>,
}

/// Outcome of the exact test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExactResult {
    /// An integer solution exists; the dependence is real.
    Dependent(Witness),
    /// No integer solution exists inside the region; independence is
    /// proven.
    Independent,
    /// The node budget was exhausted before the search completed.
    Unknown,
}

/// Default search budget (explored assignments).
pub const DEFAULT_BUDGET: u64 = 2_000_000;

/// Run the exact test for a set of simultaneous per-dimension
/// equations (all built from the same reference pair, hence sharing
/// loop structure) under a direction vector.
///
/// The search never visits an infeasible value. A loop's candidate
/// values are computed up front as the intersection, over dimensions,
/// of the values that keep that dimension's remaining right-hand side
/// inside the interval the later loops can still reach; a shared
/// loop's `(x, y)` pair first narrows `x` to values some `y` could
/// complete, then narrows `y` exactly for each `x`. Values are tried in
/// ascending order, so the witness is the lexicographically first
/// solution in the order shared pairs `(x, y)` outermost first, then
/// source-only, then sink-only indices.
///
/// Loops and dimensions form a bipartite graph (a loop belongs to a
/// dimension where its coefficient is nonzero); each connected
/// component is searched on its own. A loop in no component takes a
/// canonical value, and a dimension in none needs a zero right-hand
/// side. Because every coordinate belongs to exactly one component, the
/// combined witness is still the lexicographically first solution.
///
/// `budget` bounds the number of assignments explored (one for the
/// empty assignment, plus one per feasible partial assignment, summed
/// over components). When the range of a suffix sum of the terms does
/// not fit in i64 the result is [`ExactResult::Unknown`].
pub fn exact_test(eqs: &[DimEquation], dv: &DirVec, budget: u64) -> ExactResult {
    if eqs.is_empty() {
        // No dimensions: the references trivially coincide.
        return ExactResult::Dependent(Witness {
            shared: vec![],
            src_only: vec![],
            snk_only: vec![],
        });
    }
    debug_assert!(eqs.iter().all(|e| e.shared.len() == eqs[0].shared.len()
        && e.src_only.len() == eqs[0].src_only.len()
        && e.snk_only.len() == eqs[0].snk_only.len()));
    if eqs.iter().any(|e| e.has_empty_loop()) {
        return ExactResult::Independent;
    }
    let Some(sys) = System::new(eqs, dv) else {
        // Constrained region empty for some loop.
        return ExactResult::Independent;
    };
    let fits = |v: i128| i64::try_from(v).is_ok();
    if sys.suffix.iter().any(|&(lo, hi)| !fits(lo) || !fits(hi)) {
        return ExactResult::Unknown;
    }
    if budget == 0 {
        return ExactResult::Unknown;
    }
    let need: Vec<i128> = eqs.iter().map(|e| e.rhs() as i128).collect();
    // The empty assignment; a dimension no loop reaches needs rhs 0.
    if (0..sys.ndims).any(|dim| !sys.reachable(0, dim, need[dim])) {
        return ExactResult::Independent;
    }

    let mut search = Search {
        component: sys.components(),
        sys: &sys,
        current: 0,
        need,
        budget,
        nodes: 1,
        witness: Witness {
            shared: dv.0[..sys.s]
                .iter()
                .map(|d| match d {
                    Dir::Eq | Dir::Any => (1, 1),
                    Dir::Lt => (1, 2),
                    Dir::Gt => (2, 1),
                })
                .collect(),
            src_only: vec![1; sys.p],
            snk_only: vec![1; sys.loops.len() - sys.s - sys.p],
        },
    };
    // A component is named by its first group.
    for g in 0..sys.loops.len() {
        if search.component[g] == g {
            search.current = g;
            match search.go(g) {
                Found::Yes => {}
                Found::No => return ExactResult::Independent,
                Found::OutOfBudget => return ExactResult::Unknown,
            }
        }
    }
    ExactResult::Dependent(search.witness)
}

/// The equations as search groups: each shared loop is an `(x, y)` pair
/// under its direction, each unshared loop a single index `x`, in
/// search order (shared, source-only, sink-only).
struct System {
    ndims: usize,
    /// Shared and source-only group counts.
    s: usize,
    p: usize,
    /// Per group: the direction of a shared pair (`None` for a single
    /// index) and the loop size.
    loops: Vec<(Option<Dir>, i128)>,
    /// `coef[g * ndims + dim] = (a, b)`: group `g` adds `a·x − b·y` to
    /// `dim` (a single adds `a·x`, stored with `b = 0`).
    coef: Vec<(i128, i128)>,
    /// `suffix[g * ndims + dim]`: exact range of the sum of groups `g..`
    /// in `dim`; the row for `g = loops.len()` is all zero.
    suffix: Vec<(i128, i128)>,
}

impl System {
    /// `None` when some loop's constrained region is empty.
    fn new(eqs: &[DimEquation], dv: &DirVec) -> Option<System> {
        let first = &eqs[0];
        let (s, p) = (first.shared.len(), first.src_only.len());
        let groups = s + p + first.snk_only.len();
        let ndims = eqs.len();
        let mut sys = System {
            ndims,
            s,
            p,
            loops: Vec::with_capacity(groups),
            coef: Vec::with_capacity(groups * ndims),
            suffix: Vec::with_capacity((groups + 1) * ndims),
        };
        // Each group's own range first, then summed from the back.
        for (k, &dir) in dv.0[..s].iter().enumerate() {
            sys.loops.push((Some(dir), first.shared[k].size as i128));
            for e in eqs {
                let t = e.shared[k];
                sys.coef.push((t.a as i128, t.b as i128));
                sys.suffix.push(t.range(dir)?);
            }
        }
        for k in 0..groups - s {
            let term = |e: &DimEquation| match k.checked_sub(p) {
                None => e.src_only[k],
                Some(j) => e.snk_only[j],
            };
            sys.loops.push((None, term(first).size as i128));
            for e in eqs {
                let t = term(e);
                sys.coef.push((t.coeff as i128, 0));
                sys.suffix.push(t.range()?);
            }
        }
        sys.suffix.resize((groups + 1) * ndims, (0, 0));
        for i in (0..groups * ndims).rev() {
            let (nlo, nhi) = sys.suffix[i + ndims];
            let (lo, hi) = &mut sys.suffix[i];
            *lo += nlo;
            *hi += nhi;
        }
        Some(sys)
    }

    fn coef(&self, g: usize, dim: usize) -> (i128, i128) {
        self.coef[g * self.ndims + dim]
    }

    /// Whether groups `g..` can still sum to `need` in `dim`.
    fn reachable(&self, g: usize, dim: usize, need: i128) -> bool {
        let (lo, hi) = self.suffix[g * self.ndims + dim];
        lo <= need && need <= hi
    }

    /// Whether group `g`'s contribution to `dim` can be nonzero.
    fn active(&self, g: usize, dim: usize) -> bool {
        let (a, b) = self.coef(g, dim);
        match self.loops[g].0 {
            Some(Dir::Eq) => a != b,
            _ => a != 0 || b != 0,
        }
    }

    /// Connected components of the group/dimension graph: entry `g` for
    /// each group, then entry `groups + dim` for each dimension, holds
    /// the component's first group, or `usize::MAX` for a group active
    /// in no dimension or a dimension with no active group.
    fn components(&self) -> Vec<usize> {
        const NONE: usize = usize::MAX;
        let groups = self.loops.len();
        // Union-find over groups; the dimension slots hold each
        // dimension's first active group.
        let mut root: Vec<usize> = (0..groups).chain((0..self.ndims).map(|_| NONE)).collect();
        let find = |root: &mut Vec<usize>, mut g: usize| {
            while root[g] != g {
                root[g] = root[root[g]];
                g = root[g];
            }
            g
        };
        for dim in 0..self.ndims {
            for g in (0..groups).filter(|&g| self.active(g, dim)) {
                let first = root[groups + dim];
                if first == NONE {
                    root[groups + dim] = g;
                } else {
                    let (ra, rb) = (find(&mut root, first), find(&mut root, g));
                    root[ra.max(rb)] = ra.min(rb);
                }
            }
        }
        // Relabel in place: a component's smallest group is its root,
        // and a group in no dimension was never linked to another.
        for g in 0..groups {
            root[g] = if (0..self.ndims).any(|dim| self.active(g, dim)) {
                find(&mut root, g)
            } else {
                NONE
            };
        }
        for dim in 0..self.ndims {
            let first = root[groups + dim];
            if first != NONE {
                root[groups + dim] = root[first];
            }
        }
        root
    }
}

enum Found {
    Yes,
    No,
    OutOfBudget,
}

/// Depth-first search of one component at a time.
struct Search<'a> {
    sys: &'a System,
    /// [`System::components`].
    component: Vec<usize>,
    /// The component being searched.
    current: usize,
    /// Per dimension: the right-hand side minus the contributions of
    /// the groups assigned so far.
    need: Vec<i128>,
    budget: u64,
    nodes: u64,
    witness: Witness,
}

impl Search<'_> {
    /// The current component's dimensions.
    fn dims(&self) -> impl Iterator<Item = usize> + '_ {
        let groups = self.sys.loops.len();
        (0..self.sys.ndims).filter(move |&dim| self.component[groups + dim] == self.current)
    }

    /// Values group `g` may add to `dim` while the groups after it can
    /// still reach the rest of that dimension's right-hand side.
    fn window(&self, g: usize, dim: usize) -> (i128, i128) {
        let (lo, hi) = self.sys.suffix[(g + 1) * self.sys.ndims + dim];
        (self.need[dim] - hi, self.need[dim] - lo)
    }

    /// Intersect `range` with `{x : a·x ∈ window + [slo, shi]}` in each
    /// of the component's dimensions, where `slack(dim) = (a, slo, shi)`.
    fn narrow(
        &self,
        g: usize,
        range: (i128, i128),
        slack: impl Fn(usize) -> (i128, i128, i128),
    ) -> (i128, i128) {
        self.dims().fold(range, |(lo, hi), dim| {
            let (a, slo, shi) = slack(dim);
            let (wlo, whi) = self.window(g, dim);
            let (l, h) = solve(a, wlo + slo, whi + shi);
            (lo.max(l), hi.min(h))
        })
    }

    /// Try every feasible value of the current component's first group
    /// at or after `from`, in ascending order.
    fn go(&mut self, from: usize) -> Found {
        let sys = self.sys;
        let Some(g) = (from..sys.loops.len()).find(|&g| self.component[g] == self.current) else {
            // The last assignment left every `need` at exactly zero.
            return Found::Yes;
        };
        let (dir, m) = sys.loops[g];
        match dir {
            None => {
                let (lo, hi) = self.narrow(g, (1, m), |dim| (sys.coef(g, dim).0, 0, 0));
                for x in lo..=hi {
                    match self.visit(g, x, 0) {
                        Found::No => {}
                        r => return r,
                    }
                }
            }
            Some(Dir::Eq) => {
                let (lo, hi) = self.narrow(g, (1, m), |dim| {
                    let (a, b) = sys.coef(g, dim);
                    (a - b, 0, 0)
                });
                for x in lo..=hi {
                    match self.visit(g, x, x) {
                        Found::No => {}
                        r => return r,
                    }
                }
            }
            Some(dir) => {
                // `x`'s range, and `y`'s before it is tied to `x`.
                let (xs, ys) = match dir {
                    Dir::Lt => ((1, m - 1), (2, m)),
                    Dir::Gt => ((2, m), (1, m - 1)),
                    _ => ((1, m), (1, m)),
                };
                let (lo, hi) = self.narrow(g, xs, |dim| {
                    let (a, b) = sys.coef(g, dim);
                    let (p, q) = (b * ys.0, b * ys.1);
                    (a, p.min(q), p.max(q))
                });
                for x in lo..=hi {
                    let ys = match dir {
                        Dir::Lt => (x + 1, m),
                        Dir::Gt => (1, x - 1),
                        _ => (1, m),
                    };
                    // `b·y ∈ a·x − window`, written as `(−b)·y ∈ window − a·x`.
                    let (ylo, yhi) = self.narrow(g, ys, |dim| {
                        let (a, b) = sys.coef(g, dim);
                        (-b, -a * x, -a * x)
                    });
                    for y in ylo..=yhi {
                        match self.visit(g, x, y) {
                            Found::No => {}
                            r => return r,
                        }
                    }
                }
            }
        }
        Found::No
    }

    /// Assign `(x, y)` to group `g` and search the groups after it.
    fn visit(&mut self, g: usize, x: i128, y: i128) -> Found {
        self.nodes += 1;
        if self.nodes > self.budget {
            return Found::OutOfBudget;
        }
        let sys = self.sys;
        let shift = |search: &mut Self, sign: i128| {
            let groups = sys.loops.len();
            for dim in 0..sys.ndims {
                if search.component[groups + dim] == search.current {
                    let (a, b) = sys.coef(g, dim);
                    search.need[dim] -= sign * (a * x - b * y);
                }
            }
        };
        shift(self, 1);
        // Values lie in `1..=size` with `size` an i64.
        let (xv, yv) = (x as i64, y as i64);
        if g < sys.s {
            self.witness.shared[g] = (xv, yv);
        } else if g < sys.s + sys.p {
            self.witness.src_only[g - sys.s] = xv;
        } else {
            self.witness.snk_only[g - sys.s - sys.p] = xv;
        }
        let found = self.go(g + 1);
        shift(self, -1);
        found
    }
}

/// The integers `x` with `lo ≤ c·x ≤ hi`, as an inclusive range that is
/// empty when its start exceeds its end. With `c == 0` that is every
/// `x` or none.
fn solve(c: i128, lo: i128, hi: i128) -> (i128, i128) {
    match c {
        0 if lo <= 0 && 0 <= hi => (i128::MIN, i128::MAX),
        0 => (1, 0),
        1 => (lo, hi),
        -1 => (-hi, -lo),
        _ if c > 0 => (div_ceil(lo, c), div_floor(hi, c)),
        _ => (div_ceil(-hi, -c), div_floor(-lo, -c)),
    }
}

/// `⌊n / d⌋` for `d > 0`, in i64 when both fit (i128 division is a
/// slow library call).
fn div_floor(n: i128, d: i128) -> i128 {
    match (i64::try_from(n), i64::try_from(d)) {
        (Ok(n), Ok(d)) => n.div_euclid(d) as i128,
        _ => n.div_euclid(d),
    }
}

/// `⌈n / d⌉` for `d > 0`.
fn div_ceil(n: i128, d: i128) -> i128 {
    -div_floor(-n, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::{LoopTerm, UnsharedTerm};

    fn eq1(size: i64, a: i64, b: i64, a0: i64, b0: i64) -> DimEquation {
        DimEquation {
            shared: vec![LoopTerm { size, a, b }],
            src_only: vec![],
            snk_only: vec![],
            a0,
            b0,
        }
    }

    fn run(eqs: &[DimEquation], dv: &DirVec) -> ExactResult {
        exact_test(eqs, dv, DEFAULT_BUDGET)
    }

    #[test]
    fn finds_witness() {
        // 3x = 3y - 3 under (<): x = 1, y = 2.
        let eq = eq1(100, 3, 3, 0, -3);
        match run(&[eq], &DirVec(vec![Dir::Lt])) {
            ExactResult::Dependent(w) => {
                let (x, y) = w.shared[0];
                assert!(x < y);
                assert_eq!(3 * x - 3 * y, -3);
            }
            other => panic!("expected dependent, got {other:?}"),
        }
    }

    #[test]
    fn gcd_style_independence() {
        let eq = eq1(100, 2, 2, 0, 1);
        assert_eq!(run(&[eq], &DirVec::any(1)), ExactResult::Independent);
    }

    #[test]
    fn banerjee_blind_spot_caught() {
        // 2x - y = 0 with x,y ∈ [1..3]: solutions (1,2). Banerjee and
        // GCD both pass; exact confirms with a witness.
        let eq = eq1(3, 2, 1, 0, 0);
        assert!(matches!(
            run(&[eq], &DirVec::any(1)),
            ExactResult::Dependent(_)
        ));
        // But under (>) — x > y — 2x - y = 0 needs y = 2x > x > y:
        // impossible. GCD still passes; exact proves independence.
        assert_eq!(
            run(&[eq1(3, 2, 1, 0, 0)], &DirVec(vec![Dir::Gt])),
            ExactResult::Independent
        );
        assert!(crate::gcd::gcd_test_dim(
            &eq1(3, 2, 1, 0, 0),
            &DirVec(vec![Dir::Gt])
        ));
    }

    #[test]
    fn simultaneous_dimensions() {
        // dim0: x - y = 0 (needs x = y); dim1: x - y = 1 with the SAME
        // x, y — jointly unsatisfiable even though each dim alone is
        // satisfiable under (*).
        let d0 = eq1(10, 1, 1, 0, 0);
        let d1 = eq1(10, 1, 1, 0, 1);
        assert!(matches!(
            run(std::slice::from_ref(&d0), &DirVec::any(1)),
            ExactResult::Dependent(_)
        ));
        assert!(matches!(
            run(std::slice::from_ref(&d1), &DirVec::any(1)),
            ExactResult::Dependent(_)
        ));
        assert_eq!(run(&[d0, d1], &DirVec::any(1)), ExactResult::Independent);
    }

    #[test]
    fn unshared_loops_searched() {
        // f = 2x (shared M=4), g = y' (sink-only M=3): 2x - y' = 5 →
        // x=3, y'=1 works.
        let eq = DimEquation {
            shared: vec![LoopTerm {
                size: 4,
                a: 2,
                b: 0,
            }],
            src_only: vec![],
            snk_only: vec![UnsharedTerm { coeff: -1, size: 3 }],
            a0: 0,
            b0: 5,
        };
        assert!(matches!(
            run(&[eq], &DirVec::any(1)),
            ExactResult::Dependent(_)
        ));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        // x - y + 10x' - 10y' = 5 with M = 3 everywhere:
        // x - y ∈ [-2, 2], so 5 - (x - y) ∈ [3, 7] is never a multiple
        // of 10 — independent, but only after searching both loops.
        let eq = DimEquation {
            shared: vec![
                LoopTerm {
                    size: 3,
                    a: 1,
                    b: 1,
                },
                LoopTerm {
                    size: 3,
                    a: 10,
                    b: 10,
                },
            ],
            src_only: vec![],
            snk_only: vec![],
            a0: 0,
            b0: 5,
        };
        assert_eq!(
            run(std::slice::from_ref(&eq), &DirVec::any(2)),
            ExactResult::Independent
        );
        assert_eq!(exact_test(&[eq], &DirVec::any(2), 3), ExactResult::Unknown);
    }

    #[test]
    fn zero_coefficient_loops_skipped_cheaply() {
        // Ten shared loops with zero coefficients around a simple
        // equation: must finish in far fewer nodes than the budget.
        let mut shared = vec![
            LoopTerm {
                size: 1000,
                a: 0,
                b: 0
            };
            10
        ];
        shared.push(LoopTerm {
            size: 1000,
            a: 1,
            b: 1,
        });
        let eq = DimEquation {
            shared,
            src_only: vec![],
            snk_only: vec![],
            a0: 0,
            b0: 0,
        };
        assert!(matches!(
            exact_test(&[eq], &DirVec::any(11), 10_000),
            ExactResult::Dependent(_)
        ));
    }

    /// `matmul`'s init-vs-accumulate write pair: `p!(i, (j−1)·n+1)`
    /// against `p!(i', (j'−1)·n+k)` with `k ∈ 2..=n` (normalized to
    /// `1..=n−1`), i.e. `i − i' = 0` and `n·j − n·j' − k = 0`.
    fn matmul_pair(n: i64) -> Vec<DimEquation> {
        let single = |coeff, size| UnsharedTerm { coeff, size };
        let dim = |src: [i64; 2], snk: [i64; 3]| DimEquation {
            shared: vec![],
            src_only: vec![single(src[0], n), single(src[1], n)],
            snk_only: vec![single(snk[0], n), single(snk[1], n), single(snk[2], n - 1)],
            a0: 0,
            b0: 0,
        };
        vec![dim([1, 0], [-1, 0, 0]), dim([0, n], [0, -n, -1])]
    }

    #[test]
    fn matmul_pair_takes_linear_nodes() {
        // `{i, i'}` and `{j, j', k}` are searched apart: a witness
        // `i = i' = 1` for the first, and one node per feasible `j` for
        // the second, each with no feasible `j'`.
        for n in [48, 256, 1000] {
            let budget = 4 * n as u64 + 16;
            assert_eq!(
                exact_test(&matmul_pair(n), &DirVec(vec![]), budget),
                ExactResult::Independent,
                "n={n}"
            );
        }
        assert_eq!(
            exact_test(&matmul_pair(1000), &DirVec(vec![]), 10_000),
            ExactResult::Independent
        );
    }

    #[test]
    fn last_index_found_without_visiting_the_others() {
        // `−x = −2^20` over `x ∈ [1..2^20]`: the only solution is the
        // last index, reached as the first value tried.
        let m = 1 << 20;
        let eq = DimEquation {
            shared: vec![],
            src_only: vec![],
            snk_only: vec![UnsharedTerm { coeff: -1, size: m }],
            a0: m,
            b0: 0,
        };
        let want = Witness {
            shared: vec![],
            src_only: vec![],
            snk_only: vec![m],
        };
        assert_eq!(
            exact_test(&[eq], &DirVec(vec![]), 10),
            ExactResult::Dependent(want)
        );
    }

    #[test]
    fn zero_coefficient_groups_take_canonical_values() {
        // Loop 0 only appears with equal coefficients under (=), loop 1
        // not at all: both keep their canonical values around the
        // witness of loop 2, `x − y = 2` under (>).
        let eq = DimEquation {
            shared: vec![
                LoopTerm {
                    size: 9,
                    a: 4,
                    b: 4,
                },
                LoopTerm {
                    size: 9,
                    a: 0,
                    b: 0,
                },
                LoopTerm {
                    size: 9,
                    a: 1,
                    b: 1,
                },
            ],
            src_only: vec![UnsharedTerm { coeff: 0, size: 5 }],
            snk_only: vec![],
            a0: 0,
            b0: 2,
        };
        let dv = DirVec(vec![Dir::Eq, Dir::Lt, Dir::Gt]);
        let want = Witness {
            shared: vec![(1, 1), (1, 2), (3, 1)],
            src_only: vec![1],
            snk_only: vec![],
        };
        assert_eq!(exact_test(&[eq], &dv, 3), ExactResult::Dependent(want));
    }

    #[test]
    fn ranges_beyond_i64_are_unknown() {
        let eq = DimEquation {
            shared: vec![],
            src_only: vec![
                UnsharedTerm {
                    coeff: i64::MAX,
                    size: 4,
                },
                UnsharedTerm {
                    coeff: i64::MIN,
                    size: 4,
                },
            ],
            snk_only: vec![],
            a0: 0,
            b0: 1,
        };
        assert_eq!(
            exact_test(&[eq], &DirVec(vec![]), DEFAULT_BUDGET),
            ExactResult::Unknown
        );
    }

    #[test]
    fn exact_matches_brute_force() {
        // Exhaustive cross-check on small instances.
        for a in -2..=2i64 {
            for b in -2..=2i64 {
                for rhs in -3..=3i64 {
                    for m in 1..=4i64 {
                        for dir in [Dir::Any, Dir::Lt, Dir::Eq, Dir::Gt] {
                            let eq = eq1(m, a, b, 0, rhs);
                            let mut solvable = false;
                            for x in 1..=m {
                                for y in 1..=m {
                                    let ok = match dir {
                                        Dir::Any => true,
                                        Dir::Lt => x < y,
                                        Dir::Eq => x == y,
                                        Dir::Gt => x > y,
                                    };
                                    if ok && a * x - b * y == rhs {
                                        solvable = true;
                                    }
                                }
                            }
                            let got = run(&[eq], &DirVec(vec![dir]));
                            assert_eq!(
                                matches!(got, ExactResult::Dependent(_)),
                                solvable,
                                "a={a} b={b} rhs={rhs} m={m} dir={dir}"
                            );
                        }
                    }
                }
            }
        }
    }
}
