//! The dependence equation (§6).
//!
//! For two references `m!(f x1...xd)` and `m!(g y1...yd)` the question
//! "can they touch the same element?" becomes: does
//!
//! ```text
//! h(x, y) = f(x1..xd) - g(y1..yd) = 0
//! ```
//!
//! have an integer solution inside the region of interest `R` (the loop
//! bounds, possibly sharpened by direction constraints on each shared
//! loop)? [`DimEquation`] is the per-dimension normal form consumed by
//! the GCD, Banerjee and exact tests; multi-dimensional subscripts AND
//! the per-dimension tests together (§6).

use hac_lang::affine::Affine;
use hac_lang::normalize::NormalizedLoop;

use crate::direction::{Dir, DirVec};

/// One shared loop's contribution `a·x_k - b·y_k`, with both instances
/// ranging over `[1..size]` (possibly constrained relative to each
/// other by a direction-vector component).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopTerm {
    /// Iteration count `M_k` of the normalized loop.
    pub size: i64,
    /// Coefficient of the source instance `x_k` in `f`.
    pub a: i64,
    /// Coefficient of the sink instance `y_k` in `g`.
    pub b: i64,
}

impl LoopTerm {
    /// Exact bounds of `a·x - b·y` over `x, y ∈ [1..size]` under the
    /// direction constraint, or `None` when the constrained region is
    /// empty (e.g. `x < y` inside a loop with fewer than 2 iterations).
    ///
    /// The exact range (`LoopTerm::range`) saturated back to i64, which
    /// keeps the interval an over-approximation (sound for a necessary
    /// test) even for adversarially large coefficients/extents.
    pub fn bounds(&self, dir: Dir) -> Option<(i64, i64)> {
        let (lo, hi) = self.range(dir)?;
        Some((clamp_i64(lo), clamp_i64(hi)))
    }

    /// [`LoopTerm::bounds`] without the saturation: `|a·x|, |b·y| <
    /// 2^126`, so the difference always fits in i128.
    ///
    /// The term is linear and each constrained region is a (possibly
    /// degenerate) lattice polytope, so the extrema sit at vertices;
    /// enumerating them yields exactly the closed-form Banerjee bounds
    /// of the paper's §6 theorem.
    pub(crate) fn range(&self, dir: Dir) -> Option<(i128, i128)> {
        let m = self.size;
        if m < 1 {
            return None;
        }
        let val = |x: i64, y: i64| self.a as i128 * x as i128 - self.b as i128 * y as i128;
        let verts: &[(i64, i64)] = match dir {
            Dir::Any => &[(1, 1), (1, m), (m, 1), (m, m)],
            Dir::Eq => &[(1, 1), (m, m)],
            Dir::Lt => {
                if m < 2 {
                    return None;
                }
                &[(1, 2), (1, m), (m - 1, m)]
            }
            Dir::Gt => {
                if m < 2 {
                    return None;
                }
                &[(2, 1), (m, 1), (m, m - 1)]
            }
        };
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        for &(x, y) in verts {
            let v = val(x, y);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }
}

fn clamp_i64(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// A loop surrounding only one of the two references (§6, final lemma).
/// Contributes `coeff · x` with `x ∈ [1..size]` (the caller bakes the
/// sign into `coeff`: source-only terms carry `+a_k`, sink-only `-b_k`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsharedTerm {
    pub coeff: i64,
    pub size: i64,
}

impl UnsharedTerm {
    /// Bounds of `coeff·x` over `x ∈ [1..size]`, or `None` for an empty
    /// loop.
    pub fn bounds(&self) -> Option<(i64, i64)> {
        let (lo, hi) = self.range()?;
        Some((clamp_i64(lo), clamp_i64(hi)))
    }

    /// [`UnsharedTerm::bounds`] without the saturation.
    pub(crate) fn range(&self) -> Option<(i128, i128)> {
        if self.size < 1 {
            return None;
        }
        let p = self.coeff as i128;
        let q = self.coeff as i128 * self.size as i128;
        Some((p.min(q), p.max(q)))
    }
}

/// The dependence equation for one subscript dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimEquation {
    /// Shared loops, outermost first (direction constraints apply here).
    pub shared: Vec<LoopTerm>,
    /// Loops surrounding only the source reference (`+a_k` baked in).
    pub src_only: Vec<UnsharedTerm>,
    /// Loops surrounding only the sink reference (`-b_k` baked in).
    pub snk_only: Vec<UnsharedTerm>,
    /// Constant part of the source subscript `f`.
    pub a0: i64,
    /// Constant part of the sink subscript `g`.
    pub b0: i64,
}

impl DimEquation {
    /// The right-hand side the variable terms must sum to:
    /// `Σ terms = b0 - a0`.
    pub fn rhs(&self) -> i64 {
        self.b0 - self.a0
    }

    /// `true` when any surrounding loop has zero iterations (then no
    /// instance exists and no dependence is possible).
    pub fn has_empty_loop(&self) -> bool {
        self.shared.iter().any(|t| t.size < 1)
            || self.src_only.iter().any(|t| t.size < 1)
            || self.snk_only.iter().any(|t| t.size < 1)
    }
}

/// A normalized reference ready for dependence testing: one affine
/// subscript per dimension over the normalized loop variables of `nest`.
#[derive(Debug, Clone, PartialEq)]
pub struct NormRef {
    pub dims: Vec<Affine>,
    pub nest: Vec<NormalizedLoop>,
}

impl NormRef {
    /// Depth of the surrounding loop nest.
    pub fn depth(&self) -> usize {
        self.nest.len()
    }
}

/// Build the per-dimension dependence equations between a source and a
/// sink reference. The shared loops are the common *prefix* of the two
/// nests (nests come from one comprehension tree, so any common loops
/// form a prefix); the remainder of each nest contributes unshared
/// terms. Returns `None` if the references have different ranks.
pub fn build_equations(src: &NormRef, snk: &NormRef) -> Option<Vec<DimEquation>> {
    if src.dims.len() != snk.dims.len() {
        return None;
    }
    let shared_len = src
        .nest
        .iter()
        .zip(snk.nest.iter())
        .take_while(|(a, b)| a.id == b.id)
        .count();
    let mut out = Vec::with_capacity(src.dims.len());
    for (f, g) in src.dims.iter().zip(snk.dims.iter()) {
        let shared = (0..shared_len)
            .map(|k| LoopTerm {
                size: src.nest[k].size,
                a: f.coeff(&src.nest[k].norm_var()),
                b: g.coeff(&snk.nest[k].norm_var()),
            })
            .collect();
        let src_only = src.nest[shared_len..]
            .iter()
            .map(|nl| UnsharedTerm {
                coeff: f.coeff(&nl.norm_var()),
                size: nl.size,
            })
            .collect();
        let snk_only = snk.nest[shared_len..]
            .iter()
            .map(|nl| UnsharedTerm {
                coeff: -g.coeff(&nl.norm_var()),
                size: nl.size,
            })
            .collect();
        out.push(DimEquation {
            shared,
            src_only,
            snk_only,
            a0: f.constant_part(),
            b0: g.constant_part(),
        });
    }
    Some(out)
}

/// Number of shared loops between the two references (for building the
/// direction-vector universe).
pub fn shared_depth(src: &NormRef, snk: &NormRef) -> usize {
    src.nest
        .iter()
        .zip(snk.nest.iter())
        .take_while(|(a, b)| a.id == b.id)
        .count()
}

/// Exact min/max of an affine subscript over its nest's box (used for
/// out-of-bounds and empties analysis). Returns `None` for an empty
/// nest box.
pub fn affine_range(a: &Affine, nest: &[NormalizedLoop]) -> Option<(i64, i64)> {
    let mut lo = a.constant_part() as i128;
    let mut hi = a.constant_part() as i128;
    for nl in nest {
        if nl.size < 1 {
            return None;
        }
        let k = a.coeff(&nl.norm_var()) as i128;
        let (p, q) = (k, k * nl.size as i128);
        lo += p.min(q);
        hi += p.max(q);
    }
    Some((clamp_i64(lo), clamp_i64(hi)))
}

/// Check the direction constraints' joint feasibility and return the
/// per-loop bounds of the whole equation under a direction vector:
/// `Σ_k bounds(shared_k, dv_k) + Σ bounds(unshared)`. `None` when the
/// constrained region is empty.
pub fn equation_bounds(eq: &DimEquation, dv: &DirVec) -> Option<(i64, i64)> {
    debug_assert_eq!(dv.len(), eq.shared.len(), "direction vector arity");
    let mut lo = 0i128;
    let mut hi = 0i128;
    for (t, d) in eq.shared.iter().zip(dv.0.iter()) {
        let (l, h) = t.bounds(*d)?;
        lo += l as i128;
        hi += h as i128;
    }
    for t in eq.src_only.iter().chain(eq.snk_only.iter()) {
        let (l, h) = t.bounds()?;
        lo += l as i128;
        hi += h as i128;
    }
    Some((clamp_i64(lo), clamp_i64(hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::ast::LoopId;

    fn nl(id: u32, size: i64) -> NormalizedLoop {
        NormalizedLoop {
            id: LoopId(id),
            var: format!("v{id}"),
            size,
            lo: 1,
            step: 1,
        }
    }

    /// Brute-force bounds oracle for a shared term.
    fn brute(t: &LoopTerm, dir: Dir) -> Option<(i64, i64)> {
        let mut lo = i64::MAX;
        let mut hi = i64::MIN;
        for x in 1..=t.size {
            for y in 1..=t.size {
                let ok = match dir {
                    Dir::Any => true,
                    Dir::Lt => x < y,
                    Dir::Eq => x == y,
                    Dir::Gt => x > y,
                };
                if ok {
                    let v = t.a * x - t.b * y;
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
            }
        }
        if lo == i64::MAX {
            None
        } else {
            Some((lo, hi))
        }
    }

    #[test]
    fn term_bounds_match_brute_force() {
        for a in -3..=3 {
            for b in -3..=3 {
                for m in 0..=5 {
                    let t = LoopTerm { size: m, a, b };
                    for dir in [Dir::Any, Dir::Lt, Dir::Eq, Dir::Gt] {
                        assert_eq!(t.bounds(dir), brute(&t, dir), "a={a} b={b} m={m} dir={dir}");
                    }
                }
            }
        }
    }

    #[test]
    fn unshared_bounds() {
        assert_eq!(UnsharedTerm { coeff: 3, size: 4 }.bounds(), Some((3, 12)));
        assert_eq!(UnsharedTerm { coeff: -2, size: 4 }.bounds(), Some((-8, -2)));
        assert_eq!(UnsharedTerm { coeff: 5, size: 0 }.bounds(), None);
        assert_eq!(UnsharedTerm { coeff: 0, size: 3 }.bounds(), Some((0, 0)));
    }

    #[test]
    fn build_shared_prefix() {
        // src nest: L0(10), L1(20); snk nest: L0(10), L2(5)
        let src = NormRef {
            dims: vec![Affine::term("L0", 2).add(&Affine::term("L1", 1))],
            nest: vec![nl(0, 10), nl(1, 20)],
        };
        let snk = NormRef {
            dims: vec![Affine::term("L0", 1).add(&Affine::term("L2", 3))],
            nest: vec![nl(0, 10), nl(2, 5)],
        };
        let eqs = build_equations(&src, &snk).unwrap();
        assert_eq!(shared_depth(&src, &snk), 1);
        let eq = &eqs[0];
        assert_eq!(
            eq.shared,
            vec![LoopTerm {
                size: 10,
                a: 2,
                b: 1
            }]
        );
        assert_eq!(eq.src_only, vec![UnsharedTerm { coeff: 1, size: 20 }]);
        assert_eq!(eq.snk_only, vec![UnsharedTerm { coeff: -3, size: 5 }]);
    }

    #[test]
    fn rank_mismatch_rejected() {
        let src = NormRef {
            dims: vec![Affine::constant(1)],
            nest: vec![],
        };
        let snk = NormRef {
            dims: vec![Affine::constant(1), Affine::constant(2)],
            nest: vec![],
        };
        assert!(build_equations(&src, &snk).is_none());
    }

    #[test]
    fn affine_range_over_box() {
        // 3x - 2y + 1, x ∈ [1..4], y ∈ [1..5]
        let a = Affine::term("L0", 3)
            .add(&Affine::term("L1", -2))
            .add(&Affine::constant(1));
        let nest = vec![nl(0, 4), nl(1, 5)];
        assert_eq!(affine_range(&a, &nest), Some((3 - 10 + 1, 12 - 2 + 1)));
        assert_eq!(affine_range(&a, &[nl(0, 0)]), None);
    }

    #[test]
    fn equation_bounds_sum_terms() {
        let eq = DimEquation {
            shared: vec![LoopTerm {
                size: 10,
                a: 1,
                b: 1,
            }],
            src_only: vec![],
            snk_only: vec![],
            a0: 0,
            b0: 0,
        };
        // x - y under (<): x < y → term ∈ [-(M-1), -1]
        assert_eq!(equation_bounds(&eq, &DirVec(vec![Dir::Lt])), Some((-9, -1)));
        assert_eq!(equation_bounds(&eq, &DirVec(vec![Dir::Eq])), Some((0, 0)));
        assert_eq!(equation_bounds(&eq, &DirVec(vec![Dir::Gt])), Some((1, 9)));
    }
}
