//! Loop normalization (§6: "the loops have been normalized: the low
//! value of the index is 1, and the index increment is 1").
//!
//! Every generator `i <- [lo, lo+step .. hi]` is rewritten to a
//! normalized index `x ∈ [1..M]` with `i = lo + (x-1)·step`. When the
//! subscript expressions are linear in the original indices they remain
//! linear after substitution, and the dependence tests operate on the
//! normalized coefficients. Normalized loop variables are keyed by
//! [`LoopId`] (rendered `L<k>`) so that same-named indices of different
//! generators can never be confused.

use std::borrow::Cow;
use std::fmt;

use crate::affine::{Affine, NotAffine, Var};
use crate::ast::{Expr, LoopId};
use crate::env::ConstEnv;
use crate::number::{ClauseContext, LoopFrame, PathStep};

/// A normalization failure.
#[derive(Debug, Clone, PartialEq)]
pub enum NormalizeError {
    /// A loop bound is not affine under the parameter environment
    /// (e.g. it reads an array).
    NonConstantBound { var: String, bound: String },
    /// A triangular loop — the bound depends on an outer loop index.
    /// Supported by neither the paper's §6 formulation nor this
    /// implementation.
    TriangularBound { var: String, bound: String },
    /// The bound depends on `name`, which is neither a bound parameter
    /// nor an enclosing loop index: a run-time scalar (a reduction
    /// result) or a parameter left unbound.
    RuntimeBound {
        var: String,
        bound: String,
        name: String,
    },
    /// The loop runs more than `i64::MAX` times.
    TripCountOverflow { var: String, count: i128 },
}

impl fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormalizeError::NonConstantBound { var, bound } => write!(
                f,
                "loop `{var}` has non-constant bound `{bound}` (bind all parameters)"
            ),
            NormalizeError::TriangularBound { var, bound } => write!(
                f,
                "loop `{var}` has triangular bound `{bound}` depending on an outer index"
            ),
            NormalizeError::RuntimeBound { var, bound, name } => write!(
                f,
                "loop `{var}` has bound `{bound}` depending on `{name}`, which is neither a \
                 bound parameter nor an outer loop index (a run-time scalar cannot bound a loop)"
            ),
            NormalizeError::TripCountOverflow { var, count } => write!(
                f,
                "loop `{var}` runs {count} times, more than a 64-bit count holds"
            ),
        }
    }
}

impl std::error::Error for NormalizeError {}

/// A generator rewritten to run over `x ∈ [1..size]` with
/// `original = lo + (x-1)·step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NormalizedLoop {
    pub id: LoopId,
    /// Iteration count `M_k` (zero for an empty loop).
    pub size: i64,
    /// Original low value.
    pub lo: i64,
    /// Original (nonzero) step.
    pub step: i64,
}

impl NormalizedLoop {
    /// The original index as an affine form of the normalized index
    /// `x` ([`Var::Loop`]): `lo + (x-1)·step = (lo - step) + step·x`,
    /// or `None` when `lo - step` overflows `i64`.
    pub fn original_as_affine(&self) -> Option<Affine> {
        Affine::term(self.id, self.step)
            .checked_add(&Affine::constant(self.lo.checked_sub(self.step)?))
    }

    /// Original index value at normalized position `x` (1-based).
    pub fn original_at(&self, x: i64) -> i64 {
        self.lo + (x - 1) * self.step
    }
}

/// Normalize a single generator under a parameter environment.
///
/// # Errors
/// Fails when a bound does not fold to a constant, or when the loop
/// runs more than `i64::MAX` times ([`NormalizeError`]).
pub fn normalize_loop(frame: &LoopFrame, env: &ConstEnv) -> Result<NormalizedLoop, NormalizeError> {
    normalize_under(frame, &[], env)
}

/// [`normalize_loop`] for a generator nested in loops over `outer`, so
/// that a bound depending on one of them is named triangular.
fn normalize_under(
    frame: &LoopFrame,
    outer: &[LoopFrame],
    env: &ConstEnv,
) -> Result<NormalizedLoop, NormalizeError> {
    let var = || frame.var.to_string();
    let fold = |e: &Expr| -> Result<i64, NormalizeError> {
        let Some(a) = Affine::from_expr(e, env) else {
            return Err(NormalizeError::NonConstantBound {
                var: var(),
                bound: crate::pretty::expr_str(e),
            });
        };
        if a.is_constant() {
            return Ok(a.constant_part());
        }
        let names: Vec<&str> = a
            .terms()
            .filter_map(|(v, _)| match v {
                Var::Name(n) => Some(n.as_str()),
                Var::Loop(_) => None,
            })
            .collect();
        let bound = a.to_string();
        Err(if names.iter().any(|n| outer.iter().any(|f| f.var == *n)) {
            NormalizeError::TriangularBound { var: var(), bound }
        } else {
            NormalizeError::RuntimeBound {
                var: var(),
                bound,
                name: names.first().map_or_else(String::new, |n| n.to_string()),
            }
        })
    };
    let lo = fold(&frame.range.lo)?;
    let hi = fold(&frame.range.hi)?;
    let step = frame.range.step;
    debug_assert!(step != 0, "parser guarantees nonzero step");
    // Exact in i128: `hi - lo` alone can overflow i64.
    let span = if step > 0 {
        hi as i128 - lo as i128
    } else {
        lo as i128 - hi as i128
    };
    let count = if span < 0 {
        0
    } else {
        span / (step as i128).abs() + 1
    };
    let size = i64::try_from(count)
        .map_err(|_| NormalizeError::TripCountOverflow { var: var(), count })?;
    Ok(NormalizedLoop {
        id: frame.id,
        size,
        lo,
        step,
    })
}

/// Normalize every loop on a clause's path, outermost first.
///
/// # Errors
/// Propagates the first [`NormalizeError`].
pub fn normalize_nest(
    ctx: &ClauseContext,
    env: &ConstEnv,
) -> Result<Vec<NormalizedLoop>, NormalizeError> {
    let frames: Vec<LoopFrame> = ctx.loops().copied().collect();
    frames
        .iter()
        .enumerate()
        .map(|(k, f)| normalize_under(f, &frames[..k], env))
        .collect()
}

/// `expr` with the `let` bindings of the clause's path (and inside
/// `expr` itself) inlined, as [`inline_path_lets`] builds it — borrowed
/// unchanged when there is nothing to inline.
pub fn path_inlined<'e>(ctx: &ClauseContext, expr: &'e Expr) -> Cow<'e, Expr> {
    let mut has_let = ctx.path.iter().any(|s| matches!(s, PathStep::Let(_)));
    expr.walk(&mut |e| has_let |= matches!(e, Expr::Let { .. }));
    if has_let {
        Cow::Owned(inline_path_lets(ctx, expr))
    } else {
        Cow::Borrowed(expr)
    }
}

/// Inline `let` bindings from a clause's path (and inside the
/// expression itself) into an expression, innermost binding last, so
/// that subscript extraction sees through common-subexpression naming.
pub fn inline_path_lets(ctx: &ClauseContext, expr: &Expr) -> Expr {
    // First inline lets *inside* the expression.
    let mut e = inline_expr_lets(expr);
    // Then substitute path bindings, innermost (rightmost) first so
    // shadowing resolves to the nearest binder. A path binding's RHS may
    // itself use outer bindings, so each substituted RHS is processed
    // against the remaining outer path.
    let lets = ctx.path.iter().rev().filter_map(|s| match s {
        PathStep::Let(b) => Some(b),
        _ => None,
    });
    for binds in lets {
        for (name, rhs) in binds.iter().rev() {
            let rhs = inline_expr_lets(rhs);
            e = e.subst(name, &rhs);
        }
    }
    e
}

/// Inline all `let` expressions within `e` (non-recursive bindings,
/// left-to-right).
pub fn inline_expr_lets(e: &Expr) -> Expr {
    match e {
        Expr::Let { binds, body } => {
            let mut out = inline_expr_lets(body);
            for (name, rhs) in binds.iter().rev() {
                let rhs = inline_expr_lets(rhs);
                out = out.subst(name, &rhs);
            }
            out
        }
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => e.clone(),
        Expr::Index { array, subs } => Expr::Index {
            array: array.clone(),
            subs: subs.iter().map(inline_expr_lets).collect(),
        },
        Expr::Binary { op, lhs, rhs } => {
            Expr::bin(*op, inline_expr_lets(lhs), inline_expr_lets(rhs))
        }
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(inline_expr_lets(expr)),
        },
        Expr::If { cond, then, els } => Expr::If {
            cond: Box::new(inline_expr_lets(cond)),
            then: Box::new(inline_expr_lets(then)),
            els: Box::new(inline_expr_lets(els)),
        },
        Expr::Call { func, args } => Expr::Call {
            func: func.clone(),
            args: args.iter().map(inline_expr_lets).collect(),
        },
    }
}

/// Extract a subscript expression as an affine form over *normalized*
/// loop variables ([`Var::Loop`]), folding parameters. Returns `None`
/// when the subscript is not linear in the loop indices, when its
/// coefficients overflow `i64`, or when it names anything else.
///
/// A name resolves to its parameter value first; otherwise to the
/// innermost loop of `nest` (which must be `ctx`'s normalized loops)
/// with that index. Any other name (a run-time scalar) is unknown at
/// compile time, so the subscript is not affine and the analysis
/// falls back to run-time checks, as for any dynamic subscript.
pub fn normalized_subscript(
    expr: &Expr,
    nest: &[NormalizedLoop],
    ctx: &ClauseContext,
    env: &ConstEnv,
) -> Option<Affine> {
    let e = path_inlined(ctx, expr);
    Affine::try_from_expr_with(&e, &|v| {
        if let Some(c) = env.lookup(v) {
            return Ok(Affine::constant(c));
        }
        let innermost = ctx.loops().zip(nest).filter(|(f, _)| f.var == v).last();
        match innermost {
            Some((_, nl)) => nl.original_as_affine().ok_or(NotAffine::Overflow),
            None => Err(NotAffine::Nonlinear),
        }
    })
    .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Comp, Range};
    use crate::number::{clause_contexts, number_clauses};
    use crate::parser::parse_comp;

    fn numbered(src: &str) -> Comp {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        c
    }

    fn nest_of(c: &Comp, env: &ConstEnv) -> Result<Vec<NormalizedLoop>, NormalizeError> {
        normalize_nest(&clause_contexts(c)[0], env)
    }

    fn subscript(c: &Comp, env: &ConstEnv) -> (Affine, Vec<NormalizedLoop>) {
        let ctx = &clause_contexts(c)[0];
        let nest = normalize_nest(ctx, env).unwrap();
        let a = normalized_subscript(&ctx.clause.subs[0], &nest, ctx, env).unwrap();
        (a, nest)
    }

    #[test]
    fn unit_range_is_identity() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let nest = nest_of(&numbered("[ i := 0 | i <- [1..n] ]"), &env).unwrap();
        assert_eq!(nest[0].size, 10);
        assert_eq!(nest[0].lo, 1);
        assert_eq!(nest[0].step, 1);
        // i = 0 + 1*x
        let a = nest[0].original_as_affine().unwrap();
        assert_eq!(a.loop_coeff(nest[0].id), 1);
        assert_eq!(a.constant_part(), 0);
    }

    #[test]
    fn offset_range_shifts() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let nest = nest_of(&numbered("[ i := 0 | i <- [2..n] ]"), &env).unwrap();
        assert_eq!(nest[0].size, 9);
        assert_eq!(nest[0].original_at(1), 2);
        assert_eq!(nest[0].original_at(9), 10);
    }

    #[test]
    fn backward_range_normalizes() {
        let nest = nest_of(&numbered("[ i := 0 | i <- [9,7..1] ]"), &ConstEnv::new()).unwrap();
        assert_eq!(nest[0].size, 5);
        assert_eq!(nest[0].original_at(1), 9);
        assert_eq!(nest[0].original_at(5), 1);
    }

    #[test]
    fn empty_range_size_zero() {
        let nest = nest_of(&numbered("[ i := 0 | i <- [5..4] ]"), &ConstEnv::new()).unwrap();
        assert_eq!(nest[0].size, 0);
    }

    #[test]
    fn trip_count_spanning_the_whole_i64_range_is_exact() {
        // `hi - lo` overflows i64; the count is 3.
        let c = numbered("[ 1 := i | i <- [-9223372036854775807, 0 .. 9223372036854775807] ]");
        let nest = nest_of(&c, &ConstEnv::new()).unwrap();
        assert_eq!(nest[0].size, 3);
        assert_eq!(nest[0].step, 9223372036854775807);
        // Its affine form's constant `lo - step` overflows: no form.
        assert_eq!(nest[0].original_as_affine(), None);
        let down = numbered("[ 1 := i | i <- [9223372036854775807, 0 .. -9223372036854775807] ]");
        assert_eq!(nest_of(&down, &ConstEnv::new()).unwrap()[0].size, 3);
    }

    #[test]
    fn trip_count_beyond_i64_is_an_error() {
        let c = numbered("[ 1 := i | i <- [-9223372036854775807-1..9223372036854775807] ]");
        let err = nest_of(&c, &ConstEnv::new()).unwrap_err();
        assert_eq!(
            err,
            NormalizeError::TripCountOverflow {
                var: "i".into(),
                count: 1i128 << 64,
            }
        );
        assert!(err.to_string().contains("18446744073709551616 times"));
    }

    #[test]
    fn subscript_normalizes_through_stride() {
        // lo=2, step=2: i = 2 + (x-1)*2 = 2x. 3i - 1 = 6x - 1.
        let (a, nest) = subscript(
            &numbered("[ 3*i - 1 := 0 | i <- [2,4..10] ]"),
            &ConstEnv::new(),
        );
        assert_eq!(a.loop_coeff(nest[0].id), 6);
        assert_eq!(a.constant_part(), -1);
    }

    #[test]
    fn unbound_parameter_is_not_an_outer_index() {
        let err = nest_of(&numbered("[ i := 0 | i <- [1..n] ]"), &ConstEnv::new()).unwrap_err();
        assert!(matches!(err, NormalizeError::RuntimeBound { ref name, .. } if name == "n"));
    }

    #[test]
    fn triangular_bound_names_the_outer_index() {
        let env = ConstEnv::from_pairs([("n", 10)]);
        let c = numbered("[ (i,j) := 0 | i <- [1..n], j <- [1..i] ]");
        let err = nest_of(&c, &env).unwrap_err();
        assert!(matches!(err, NormalizeError::TriangularBound { .. }));
        assert_eq!(
            err.to_string(),
            "loop `j` has triangular bound `i` depending on an outer index"
        );
    }

    #[test]
    fn scalar_bound_is_not_called_triangular() {
        // `s` is no loop index: a reduction result, say.
        let env = ConstEnv::from_pairs([("n", 10)]);
        let c = numbered("[ (i,j) := 0 | i <- [1..n], j <- [1..s] ]");
        let err = nest_of(&c, &env).unwrap_err();
        assert_eq!(
            err.to_string(),
            "loop `j` has bound `s` depending on `s`, which is neither a bound parameter \
             nor an outer loop index (a run-time scalar cannot bound a loop)"
        );
    }

    #[test]
    fn path_lets_inline_into_subscripts() {
        let c = numbered("[* ([ v := 0 ] where v = i + 1) | i <- [1..5] *]");
        let (a, nest) = subscript(&c, &ConstEnv::new());
        // v = i + 1, i = x  →  x + 1
        assert_eq!(a.loop_coeff(nest[0].id), 1);
        assert_eq!(a.constant_part(), 1);
    }

    #[test]
    fn expr_lets_inline() {
        let e = crate::parser::parse_expr("let v = i - 1 in v * 2").unwrap();
        let out = inline_expr_lets(&e);
        let expected = crate::parser::parse_expr("(i - 1) * 2").unwrap();
        assert_eq!(out, expected);
    }

    #[test]
    fn shadowed_loop_vars_resolve_innermost() {
        // Outer i and inner i: subscript `i` inside inner loop refers to
        // the inner generator.
        let c = numbered("[* [* [ i := 0 ] | i <- [5..8] *] | i <- [1..3] *]");
        let (a, nest) = subscript(&c, &ConstEnv::new());
        assert_eq!(nest.len(), 2);
        // Inner loop is nest[1]: i = 4 + x  (lo=5, step=1).
        assert_eq!(a.loop_coeff(nest[1].id), 1);
        assert_eq!(a.loop_coeff(nest[0].id), 0);
        assert_eq!(a.constant_part(), 4);
    }

    #[test]
    fn parameters_shadow_loop_indices_and_free_names_are_not_affine() {
        let env = ConstEnv::from_pairs([("n", 7)]);
        let c = numbered("[ n + i := 0 | n <- [1..3], i <- [2..4] ]");
        let (a, nest) = subscript(&c, &env);
        assert_eq!(a.loop_coeff(nest[0].id), 0);
        assert_eq!(a.loop_coeff(nest[1].id), 1);
        assert_eq!(a.constant_part(), 7 + 1);
        // A run-time scalar is unknown at compile time.
        let c = numbered("[ n + i + s := 0 | n <- [1..3], i <- [2..4] ]");
        let ctx = &clause_contexts(&c)[0];
        let nest = normalize_nest(ctx, &env).unwrap();
        assert_eq!(
            normalized_subscript(&ctx.clause.subs[0], &nest, ctx, &env),
            None
        );
    }

    #[test]
    fn frame_for_direct_use() {
        let env = ConstEnv::from_pairs([("n", 7)]);
        let range = Range::new(Expr::int(1), Expr::var("n"));
        let frame = LoopFrame {
            id: LoopId(3),
            var: "k",
            range: &range,
        };
        let nl = normalize_loop(&frame, &env).unwrap();
        assert_eq!(Var::Loop(nl.id).to_string(), "L3");
        assert_eq!(nl.size, 7);
    }
}
