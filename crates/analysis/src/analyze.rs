//! Whole-array analysis: dependence graphs plus the paper's §4/§7
//! compile-time verdicts — write collisions, "empties", and
//! out-of-bounds definitions.

use std::fmt;

use hac_lang::affine::{NotAffine, Var};
use hac_lang::ast::{ArrayDef, ArrayKind, ClauseId, Expr};
use hac_lang::env::ConstEnv;
use hac_lang::normalize::NormalizeError;
use hac_lang::Affine;
use hac_lang::Comp;

use crate::depgraph::{anti_dependences, flow_dependences, output_dependences, DependenceGraph};
use crate::equation::affine_range;
use crate::exact::Witness;
use crate::refs::{collect_refs, total_instances, ClauseRefs};
use crate::search::{Confidence, TestPolicy, TestStats};

/// An analysis failure.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    Normalize(NormalizeError),
    /// An array bound did not fold to a constant.
    NonConstantArrayBound {
        array: String,
        dim: usize,
    },
    /// A bound or the element count overflows a 64-bit integer.
    ArrayTooLarge {
        array: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Normalize(e) => write!(f, "{e}"),
            AnalysisError::NonConstantArrayBound { array, dim } => {
                write!(f, "array `{array}` dimension {dim} bound is not constant")
            }
            AnalysisError::ArrayTooLarge { array } => write!(
                f,
                "array `{array}` is too large: its bounds or element count overflow a 64-bit integer"
            ),
        }
    }
}

impl std::error::Error for AnalysisError {}

impl From<NormalizeError> for AnalysisError {
    fn from(e: NormalizeError) -> Self {
        AnalysisError::Normalize(e)
    }
}

/// Verdict on write collisions (§7).
#[derive(Debug, Clone, PartialEq)]
pub enum CollisionVerdict {
    /// Subscript analysis proved no two instances write one element:
    /// compile no collision checks.
    Impossible,
    /// Collisions cannot be ruled out: compile runtime checks and warn.
    Possible(Vec<(ClauseId, ClauseId)>),
    /// The exact test found an unconditional witness: flag a
    /// compile-time error.
    Certain {
        pair: (ClauseId, ClauseId),
        witness: Witness,
        /// The colliding element's index (original subscript space),
        /// when derivable from the witness.
        element: Option<Vec<i64>>,
    },
}

impl CollisionVerdict {
    /// `true` when runtime collision checks can be elided.
    pub fn checks_elidable(&self) -> bool {
        matches!(self, CollisionVerdict::Impossible)
    }
}

/// Verdict on undefined elements (§4).
#[derive(Debug, Clone, PartialEq)]
pub enum EmptiesVerdict {
    /// Every element provably receives exactly one definition: compile
    /// no definedness checks.
    Impossible,
    /// Could not prove totality; the reason names the failed condition.
    Possible(String),
}

impl EmptiesVerdict {
    /// `true` when runtime definedness checks can be elided.
    pub fn checks_elidable(&self) -> bool {
        matches!(self, EmptiesVerdict::Impossible)
    }
}

/// One potential out-of-bounds definition.
#[derive(Debug, Clone, PartialEq)]
pub struct OobSite {
    pub clause: ClauseId,
    pub dim: usize,
    /// Range the subscript can take.
    pub subscript_range: (i64, i64),
    /// Declared bounds for the dimension.
    pub bounds: (i64, i64),
}

/// Verdict on out-of-bounds definitions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundsVerdict {
    /// All writes provably in bounds: lift/elide bounds checks.
    InBounds,
    /// Some write may (or must) escape the declared bounds.
    MayExceed(Vec<OobSite>),
}

/// Complete analysis of one monolithic (or accumulated) array
/// definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayAnalysis<'a> {
    pub array: String,
    /// Folded per-dimension bounds.
    pub bounds: Vec<(i64, i64)>,
    pub refs: Vec<ClauseRefs<'a>>,
    /// Flow dependences on the array itself (drives thunkless
    /// scheduling).
    pub flow: DependenceGraph,
    /// Output dependences among writes.
    pub output: DependenceGraph,
    pub collisions: CollisionVerdict,
    pub empties: EmptiesVerdict,
    pub oob: BoundsVerdict,
    /// Combined test counters.
    pub stats: TestStats,
}

impl ArrayAnalysis<'_> {
    /// Number of elements in the array.
    pub fn element_count(&self) -> i64 {
        element_count(&self.bounds).expect("counted without overflow by `analyze_array`")
    }
}

/// The number of elements within `bounds`, or `None` when it overflows
/// `i64`.
fn element_count(bounds: &[(i64, i64)]) -> Option<i64> {
    bounds.iter().try_fold(1i64, |n, (lo, hi)| {
        n.checked_mul(hi.checked_sub(*lo)?.checked_add(1)?.max(0))
    })
}

/// Complete analysis of one `bigupd` (§9).
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateAnalysis<'a> {
    /// The old array being overwritten.
    pub base: String,
    /// The name bound to the updated array (its reads are *new*
    /// values, producing flow dependences — the paper's Gauss–Seidel).
    pub result: String,
    pub refs: Vec<ClauseRefs<'a>>,
    /// Flow dependences (reads of the result's new values).
    pub flow: DependenceGraph,
    /// Anti dependences (read-of-old before overwrite).
    pub anti: DependenceGraph,
    /// Output dependences among the update's writes.
    pub output: DependenceGraph,
    pub collisions: CollisionVerdict,
    /// `true` when some clause's *subscript* reads the old array — the
    /// update must copy (subscript reads are outside the dependence
    /// analysis, which only covers element values).
    pub subs_read_base: bool,
    /// `true` when some clause's subscript reads the *result* array:
    /// unsupported (no dependence edges constrain it).
    pub subs_read_result: bool,
    pub stats: TestStats,
}

/// Fold an array's declared `(lo, hi)` bounds to constants under the
/// parameters `env`.
///
/// # Errors
/// [`AnalysisError::ArrayTooLarge`] when a bound overflows a 64-bit
/// integer, [`AnalysisError::NonConstantArrayBound`] when one does not
/// fold to a constant.
pub fn fold_bounds(
    array: &str,
    bounds: &[(Expr, Expr)],
    env: &ConstEnv,
) -> Result<Vec<(i64, i64)>, AnalysisError> {
    bounds
        .iter()
        .enumerate()
        .map(|(dim, (lo, hi))| {
            let f = |e| match Affine::try_from_expr(e, env) {
                Ok(a) if a.is_constant() => Ok(a.constant_part()),
                Err(NotAffine::Overflow) => Err(AnalysisError::ArrayTooLarge {
                    array: array.to_string(),
                }),
                _ => Err(AnalysisError::NonConstantArrayBound {
                    array: array.to_string(),
                    dim,
                }),
            };
            Ok((f(lo)?, f(hi)?))
        })
        .collect()
}

fn collision_verdict(output: &DependenceGraph, refs: &[ClauseRefs]) -> CollisionVerdict {
    if output.edges.is_empty() {
        return CollisionVerdict::Impossible;
    }
    let guarded = |id: ClauseId| {
        refs.iter()
            .find(|r| r.id() == id)
            .map(|r| r.guarded())
            .unwrap_or(true)
    };
    for e in &output.edges {
        if let Confidence::Confirmed(w) = &e.confidence {
            // A witness is a real runtime collision only when neither
            // clause is guarded (a guard could filter the instance).
            if !guarded(e.src) && !guarded(e.dst) {
                let element = refs
                    .iter()
                    .find(|r| r.id() == e.src)
                    .and_then(|r| witness_element(r, w));
                return CollisionVerdict::Certain {
                    pair: (e.src, e.dst),
                    witness: w.clone(),
                    element,
                };
            }
        }
    }
    let mut pairs: Vec<(ClauseId, ClauseId)> =
        output.edges.iter().map(|e| (e.src, e.dst)).collect();
    pairs.sort();
    pairs.dedup();
    CollisionVerdict::Possible(pairs)
}

/// Evaluate the source clause's write subscripts at the witness's
/// source coordinates, recovering the concrete colliding element.
fn witness_element(src: &ClauseRefs, w: &Witness) -> Option<Vec<i64>> {
    let norm = src.write.norm.as_ref()?;
    // Source instance coordinates: shared-prefix x values, then the
    // source-only loop indices.
    let shared_len = w.shared.len();
    if norm.nest.len() != shared_len + w.src_only.len() {
        return None;
    }
    let value = |v: &Var| {
        let Var::Loop(id) = v else { return None };
        let k = norm.nest.iter().position(|nl| nl.id == *id)?;
        Some(if k < shared_len {
            w.shared[k].0
        } else {
            w.src_only[k - shared_len]
        })
    };
    Some(norm.dims.iter().map(|a| a.eval(value)).collect())
}

fn bounds_verdict(refs: &[ClauseRefs], bounds: &[(i64, i64)]) -> BoundsVerdict {
    let mut sites = Vec::new();
    for r in refs {
        match &r.write.norm {
            Some(norm) => {
                for (dim, a) in norm.dims.iter().enumerate() {
                    // `None` = empty nest: no instances, no writes.
                    if let Some((lo, hi)) = affine_range(a, &norm.nest) {
                        let (blo, bhi) = bounds[dim];
                        if lo < blo || hi > bhi {
                            sites.push(OobSite {
                                clause: r.id(),
                                dim,
                                subscript_range: (lo, hi),
                                bounds: (blo, bhi),
                            });
                        }
                    }
                }
            }
            None => {
                // Nonlinear subscript: cannot prove in-bounds.
                for (dim, b) in bounds.iter().enumerate() {
                    sites.push(OobSite {
                        clause: r.id(),
                        dim,
                        subscript_range: (i64::MIN, i64::MAX),
                        bounds: *b,
                    });
                }
            }
        }
    }
    if sites.is_empty() {
        BoundsVerdict::InBounds
    } else {
        BoundsVerdict::MayExceed(sites)
    }
}

fn empties_verdict(
    refs: &[ClauseRefs],
    collisions: &CollisionVerdict,
    oob: &BoundsVerdict,
    element_count: i64,
) -> EmptiesVerdict {
    // §4: no collisions + no out-of-bounds + pair count = element count
    // ⇒ the subscripts are a permutation of the index space.
    if !matches!(collisions, CollisionVerdict::Impossible) {
        return EmptiesVerdict::Possible("write collisions not ruled out".into());
    }
    if !matches!(oob, BoundsVerdict::InBounds) {
        return EmptiesVerdict::Possible("out-of-bounds definitions not ruled out".into());
    }
    if refs.iter().any(|r| r.guarded()) {
        return EmptiesVerdict::Possible(
            "guarded clauses make the pair count unknown at compile time".into(),
        );
    }
    let Some(pairs) = total_instances(refs) else {
        return EmptiesVerdict::Possible("the subscript/value pair count overflows".into());
    };
    if pairs == element_count {
        EmptiesVerdict::Impossible
    } else {
        EmptiesVerdict::Possible(format!(
            "{pairs} subscript/value pairs for {element_count} elements"
        ))
    }
}

/// Analyze a monolithic or accumulated array definition.
///
/// # Errors
/// Fails when loop or array bounds do not fold to constants under
/// `env`.
pub fn analyze_array<'a>(
    def: &'a ArrayDef,
    env: &ConstEnv,
    policy: &TestPolicy,
) -> Result<ArrayAnalysis<'a>, AnalysisError> {
    let bounds = fold_bounds(&def.name, &def.bounds, env)?;
    let refs = collect_refs(&def.comp, &def.name, env)?;
    let flow = flow_dependences(&refs, &def.name, policy);
    let output = output_dependences(&refs, policy);
    let mut stats = TestStats::default();
    stats.absorb(&flow.stats);
    stats.absorb(&output.stats);
    let collisions = match &def.kind {
        ArrayKind::Monolithic => collision_verdict(&output, &refs),
        // Accumulated arrays *combine* colliding writes instead of
        // erroring; collisions are ordering constraints, not errors.
        ArrayKind::Accumulated { .. } => CollisionVerdict::Impossible,
    };
    let oob = bounds_verdict(&refs, &bounds);
    let element_count = element_count(&bounds).ok_or_else(|| AnalysisError::ArrayTooLarge {
        array: def.name.clone(),
    })?;
    let empties = match &def.kind {
        ArrayKind::Monolithic => empties_verdict(&refs, &collisions, &oob, element_count),
        // Accumulated arrays have a default element: empties are fine.
        ArrayKind::Accumulated { .. } => EmptiesVerdict::Impossible,
    };
    Ok(ArrayAnalysis {
        array: def.name.clone(),
        bounds,
        refs,
        flow,
        output,
        collisions,
        empties,
        oob,
        stats,
    })
}

/// Analyze a `result = bigupd base comp` update (§9).
///
/// A `base!` selection reads the *old* version (anti dependences: the
/// read must precede the overwrite); a `result!` selection reads the
/// *new* version (flow dependences, exactly as in a recursive
/// monolithic array — this is how the paper's Gauss–Seidel/SOR step
/// mixes "already updated" and "not yet updated" neighbors).
///
/// # Errors
/// Fails when loop bounds do not fold to constants under `env`.
pub fn analyze_bigupd<'a>(
    base: &str,
    result: &str,
    comp: &'a Comp,
    env: &ConstEnv,
    policy: &TestPolicy,
) -> Result<UpdateAnalysis<'a>, AnalysisError> {
    let refs = collect_refs(comp, base, env)?;
    let flow = flow_dependences(&refs, result, policy);
    let anti = anti_dependences(&refs, base, policy);
    let output = output_dependences(&refs, policy);
    let mut stats = TestStats::default();
    stats.absorb(&flow.stats);
    stats.absorb(&anti.stats);
    stats.absorb(&output.stats);
    let collisions = collision_verdict(&output, &refs);
    let mut subs_read_base = false;
    let mut subs_read_result = false;
    for r in &refs {
        for sub in &r.ctx.clause.subs {
            let inlined = hac_lang::normalize::path_inlined(&r.ctx, sub);
            for a in inlined.referenced_arrays() {
                if a == base {
                    subs_read_base = true;
                }
                if a == result {
                    subs_read_result = true;
                }
            }
        }
    }
    Ok(UpdateAnalysis {
        base: base.to_string(),
        result: result.to_string(),
        refs,
        flow,
        anti,
        output,
        collisions,
        subs_read_base,
        subs_read_result,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_program;

    fn analyzed(src: &str, name: &str, env: &ConstEnv) -> ArrayAnalysis<'static> {
        let p = Box::leak(Box::new(parse_program(src).unwrap()));
        let def = p.array_def(name).unwrap();
        analyze_array(def, env, &TestPolicy::default()).unwrap()
    }

    #[test]
    fn wavefront_is_clean() {
        let env = ConstEnv::from_pairs([("n", 8)]);
        let a = analyzed(
            r#"
param n;
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1 | j <- [1..n] ] ++
    [ (i,1) := 1 | i <- [2..n] ] ++
    [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
       | i <- [2..n], j <- [2..n] ]);
"#,
            "a",
            &env,
        );
        assert!(a.collisions.checks_elidable(), "{:?}", a.collisions);
        assert!(a.empties.checks_elidable(), "{:?}", a.empties);
        assert_eq!(a.oob, BoundsVerdict::InBounds);
        assert_eq!(a.element_count(), 64);
        assert!(!a.flow.edges.is_empty());
    }

    #[test]
    fn missing_element_reported() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        // Covers [2..n] only: element 1 is empty.
        let a = analyzed(
            "param n;\nlet a = array (1,n) [ i := 0 | i <- [2..n] ];\n",
            "a",
            &env,
        );
        assert!(!a.empties.checks_elidable());
        assert_eq!(a.oob, BoundsVerdict::InBounds);
    }

    #[test]
    fn certain_collision_flagged_with_element() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let a = analyzed(
            "param n;\nlet a = array (1,n) ([ i := 0 | i <- [1..n] ] ++ [ 5 := 1 ]);\n",
            "a",
            &env,
        );
        match &a.collisions {
            CollisionVerdict::Certain { element, .. } => {
                assert_eq!(element.as_deref(), Some(&[5][..]), "names element 5");
            }
            other => panic!("expected certain collision, got {other:?}"),
        }
        assert!(!a.empties.checks_elidable());
    }

    #[test]
    fn guarded_collision_only_possible() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let a = analyzed(
            "param n;\nlet a = array (1,n) \
             ([ i := 0 | i <- [1..n], i < 5 ] ++ [ 3 := 1 ]);\n",
            "a",
            &env,
        );
        assert!(matches!(a.collisions, CollisionVerdict::Possible(_)));
    }

    #[test]
    fn out_of_bounds_detected() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let a = analyzed(
            "param n;\nlet a = array (1,n) [ i + 5 := 0 | i <- [1..n] ];\n",
            "a",
            &env,
        );
        match &a.oob {
            BoundsVerdict::MayExceed(sites) => {
                assert_eq!(sites[0].subscript_range, (6, 15));
                assert_eq!(sites[0].bounds, (1, 10));
            }
            other => panic!("expected MayExceed, got {other:?}"),
        }
    }

    #[test]
    fn accumulated_array_tolerates_collisions_and_empties() {
        let env = ConstEnv::from_pairs([("n", 100)]);
        let a = analyzed(
            "param n;\nlet h = accumArray (+) 0 (1,10) [ i mod 10 + 1 := 1.0 | i <- [1..n] ];\n",
            "h",
            &env,
        );
        assert!(a.collisions.checks_elidable());
        assert!(a.empties.checks_elidable());
    }

    #[test]
    fn bigupd_row_swap_analysis() {
        let env = ConstEnv::from_pairs([("n", 8)]);
        let p = parse_program(
            r#"
param n;
input a ((1,2),(1,n));
b = bigupd a ([ (1,j) := a!(2,j) | j <- [1..n] ] ++
              [ (2,j) := a!(1,j) | j <- [1..n] ]);
"#,
        )
        .unwrap();
        let (base, comp) = match &p.bindings[1] {
            hac_lang::ast::Binding::BigUpd { base, comp, .. } => (base.clone(), comp.clone()),
            _ => unreachable!(),
        };
        let u = analyze_bigupd(&base, "b", &comp, &env, &TestPolicy::default()).unwrap();
        // The paper: "The two s/v clauses are involved in an
        // antidependence cycle, each edge of which is labeled (=)" —
        // with unshared per-clause loops our label is the empty vector,
        // the loop-independent `()`; the cycle 0→1, 1→0 is what matters.
        assert_eq!(u.anti.edges.len(), 2);
        assert!(u.collisions.checks_elidable());
    }

    #[test]
    fn non_constant_array_bound_is_error() {
        let mut p = parse_program("param n;\nlet a = array (1,n) [ 1 := 0 ];\n").unwrap();
        let def = match &mut p.bindings[0] {
            hac_lang::ast::Binding::Let(d) => {
                number_clauses(&mut d.comp);
                d.clone()
            }
            _ => unreachable!(),
        };
        let err = analyze_array(&def, &ConstEnv::new(), &TestPolicy::default()).unwrap_err();
        assert!(matches!(err, AnalysisError::NonConstantArrayBound { .. }));
    }
}
