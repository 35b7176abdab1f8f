//! Reference collection: find every array read and write in a
//! comprehension, with normalized affine subscripts.
//!
//! Each s/v clause *writes* the element named by its subscripts and
//! *reads* every `a!(...)` selection inside its value expression. `let`
//! bindings on the clause's path are inlined first so that subscript
//! analysis sees through common-subexpression naming (§3.1). A
//! reference whose subscript is not linear in the loop indices gets
//! `norm = None` and is treated pessimistically downstream.

use std::sync::Arc;

use hac_lang::ast::{ClauseId, Comp, Expr};
use hac_lang::env::ConstEnv;
use hac_lang::normalize::{
    normalize_nest, normalized_subscript, path_inlined, NormalizeError, NormalizedLoop,
};
use hac_lang::number::{clause_contexts, ClauseContext};

use crate::equation::NormRef;

/// Read or write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    Read,
    Write,
}

/// One array reference site.
#[derive(Debug, Clone, PartialEq)]
pub struct RefSite {
    pub clause: ClauseId,
    pub array: String,
    pub access: Access,
    /// Normalized subscripts over the clause's nest; `None` when any
    /// dimension is nonlinear in the loop indices.
    pub norm: Option<NormRef>,
    /// `true` when the reference executes only under a guard or inside
    /// an `if` branch — the dependence tests then overestimate, which
    /// is safe.
    pub conditional: bool,
}

/// All references made by one clause, borrowing its context from the
/// comprehension.
#[derive(Debug, Clone, PartialEq)]
pub struct ClauseRefs<'a> {
    pub ctx: ClauseContext<'a>,
    /// The normalized loop nest, shared by every reference's
    /// [`NormRef`].
    pub nest: Arc<[NormalizedLoop]>,
    /// The clause's write (to the array being defined/updated).
    pub write: RefSite,
    /// Every read in the value expression, in occurrence order.
    pub reads: Vec<RefSite>,
}

impl ClauseRefs<'_> {
    /// The clause id.
    pub fn id(&self) -> ClauseId {
        self.ctx.clause.id
    }

    /// Reads of a particular array.
    pub fn reads_of<'a>(&'a self, array: &'a str) -> impl Iterator<Item = &'a RefSite> {
        self.reads.iter().filter(move |r| r.array == array)
    }

    /// Product of the nest's loop sizes: the number of instances of
    /// this clause (ignoring guards). `None` when it overflows `i64`.
    pub fn instance_count(&self) -> Option<i64> {
        self.nest
            .iter()
            .try_fold(1i64, |count, l| count.checked_mul(l.size))
    }

    /// `true` when the clause sits under at least one guard.
    pub fn guarded(&self) -> bool {
        self.ctx.guarded()
    }
}

/// The instances of every clause in `refs`, summed; `None` when the
/// count overflows `i64`.
pub fn total_instances(refs: &[ClauseRefs<'_>]) -> Option<i64> {
    refs.iter()
        .try_fold(0i64, |total, r| total.checked_add(r.instance_count()?))
}

/// Collect references for every clause of a comprehension defining (or
/// updating) the array named `target`. `env` must bind every program
/// parameter used in loop bounds.
///
/// # Errors
/// Propagates [`NormalizeError`] from loop normalization (unbound
/// parameters, triangular bounds).
pub fn collect_refs<'a>(
    comp: &'a Comp,
    target: &str,
    env: &ConstEnv,
) -> Result<Vec<ClauseRefs<'a>>, NormalizeError> {
    let mut out = Vec::new();
    for ctx in clause_contexts(comp) {
        let nest: Arc<[NormalizedLoop]> = normalize_nest(&ctx, env)?.into();
        let clause = ctx.clause;
        let write_dims: Option<Vec<_>> = clause
            .subs
            .iter()
            .map(|s| normalized_subscript(s, &nest, &ctx, env))
            .collect();
        let guarded = ctx.guarded();
        let write = RefSite {
            clause: clause.id,
            array: target.to_string(),
            access: Access::Write,
            norm: write_dims.map(|dims| NormRef {
                dims,
                nest: nest.clone(),
            }),
            conditional: guarded,
        };
        let value = path_inlined(&ctx, &clause.value);
        let mut reads = Vec::new();
        collect_reads(&value, &ctx, &nest, env, guarded, &mut reads);
        out.push(ClauseRefs {
            ctx,
            nest,
            write,
            reads,
        });
    }
    Ok(out)
}

fn collect_reads(
    e: &Expr,
    ctx: &ClauseContext,
    nest: &Arc<[NormalizedLoop]>,
    env: &ConstEnv,
    conditional: bool,
    out: &mut Vec<RefSite>,
) {
    match e {
        Expr::Index { array, subs } => {
            let dims: Option<Vec<_>> = subs
                .iter()
                .map(|s| normalized_subscript(s, nest, ctx, env))
                .collect();
            out.push(RefSite {
                clause: ctx.clause.id,
                array: array.clone(),
                access: Access::Read,
                norm: dims.map(|dims| NormRef {
                    dims,
                    nest: nest.clone(),
                }),
                conditional,
            });
            // Subscripts may themselves read arrays (then nonlinear for
            // the outer read, but still real reads of the inner array).
            for s in subs {
                collect_reads(s, ctx, nest, env, conditional, out);
            }
        }
        Expr::Num(_) | Expr::Int(_) | Expr::Var(_) => {}
        Expr::Binary { lhs, rhs, .. } => {
            collect_reads(lhs, ctx, nest, env, conditional, out);
            collect_reads(rhs, ctx, nest, env, conditional, out);
        }
        Expr::Unary { expr, .. } => collect_reads(expr, ctx, nest, env, conditional, out),
        Expr::If { cond, then, els } => {
            collect_reads(cond, ctx, nest, env, conditional, out);
            // Branches execute conditionally.
            collect_reads(then, ctx, nest, env, true, out);
            collect_reads(els, ctx, nest, env, true, out);
        }
        Expr::Let { binds, body } => {
            // `inline_path_lets` already inlined expression lets on the
            // main path, but defensive recursion costs nothing.
            for (_, b) in binds {
                collect_reads(b, ctx, nest, env, conditional, out);
            }
            collect_reads(body, ctx, nest, env, conditional, out);
        }
        Expr::Call { args, .. } => {
            for a in args {
                collect_reads(a, ctx, nest, env, conditional, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;

    fn collect(src: &str, target: &str, env: &ConstEnv) -> Vec<ClauseRefs<'static>> {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        collect_refs(Box::leak(Box::new(c)), target, env).unwrap()
    }

    #[test]
    fn wavefront_refs() {
        let env = ConstEnv::from_pairs([("n", 8)]);
        let refs = collect(
            "[ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1) | i <- [2..n], j <- [2..n] ]",
            "a",
            &env,
        );
        assert_eq!(refs.len(), 1);
        let c = &refs[0];
        assert_eq!(c.reads.len(), 3);
        assert!(c.reads.iter().all(|r| r.array == "a" && r.norm.is_some()));
        let w = c.write.norm.as_ref().unwrap();
        assert_eq!(w.dims.len(), 2);
        assert_eq!(c.instance_count(), Some(49));
        assert!(!c.guarded());
    }

    #[test]
    fn nonlinear_read_flagged() {
        let env = ConstEnv::new();
        let refs = collect("[ i := a!(i*i) | i <- [1..9] ]", "a", &env);
        assert_eq!(refs[0].reads.len(), 1);
        assert!(refs[0].reads[0].norm.is_none());
        assert!(refs[0].write.norm.is_some());
    }

    #[test]
    fn indirect_subscript_reads_both_arrays() {
        // a!(p!i): nonlinear read of `a`, linear read of `p`.
        let env = ConstEnv::new();
        let refs = collect("[ i := a!(p!i) | i <- [1..9] ]", "a", &env);
        let reads = &refs[0].reads;
        assert_eq!(reads.len(), 2);
        assert_eq!(reads[0].array, "a");
        assert!(reads[0].norm.is_none());
        assert_eq!(reads[1].array, "p");
        assert!(reads[1].norm.is_some());
    }

    #[test]
    fn conditional_reads_marked() {
        let env = ConstEnv::new();
        let refs = collect(
            "[ i := if i == 1 then 1 else a!(i-1) | i <- [1..9] ]",
            "a",
            &env,
        );
        assert_eq!(refs[0].reads.len(), 1);
        assert!(refs[0].reads[0].conditional);
    }

    #[test]
    fn guard_marks_everything_conditional() {
        let env = ConstEnv::new();
        let refs = collect("[ i := a!(i-1) | i <- [1..9], i > 3 ]", "a", &env);
        assert!(refs[0].guarded());
        assert!(refs[0].write.conditional);
        assert!(refs[0].reads[0].conditional);
    }

    #[test]
    fn where_bindings_see_through() {
        let env = ConstEnv::new();
        let refs = collect("[ i := v + 1 where v = a!(i-1) | i <- [2..9] ]", "a", &env);
        assert_eq!(refs[0].reads.len(), 1);
        let norm = refs[0].reads[0].norm.as_ref().unwrap();
        // i ∈ [2..9] normalizes to i = x + 1; subscript i - 1 = x.
        assert_eq!(norm.dims[0].loop_coeff(refs[0].nest[0].id), 1);
        assert_eq!(norm.dims[0].constant_part(), 0);
    }

    #[test]
    fn multiple_clauses_collect_separately() {
        let env = ConstEnv::from_pairs([("n", 5)]);
        let refs = collect("[ 1 := 0 ] ++ [ i := a!(i-1) | i <- [2..n] ]", "a", &env);
        assert_eq!(refs.len(), 2);
        assert!(refs[0].nest.is_empty());
        assert_eq!(refs[0].instance_count(), Some(1));
        assert_eq!(refs[1].nest.len(), 1);
        assert_eq!(total_instances(&refs), Some(5));
    }
}
