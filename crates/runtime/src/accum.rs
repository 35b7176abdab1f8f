//! Accumulated arrays (`accumArray`, §3): a default value for elements
//! with no definition and a combining function for elements with many.
//!
//! Values are evaluated strictly in subscript/value-pair list order —
//! required when the combining function is not commutative (§7: "the
//! order of supairs must be preserved"). Accumulated arrays may not be
//! recursive (their cells have no single defining thunk), which this
//! evaluator reports as an unbound-array error.

use std::collections::HashMap;

use hac_lang::ast::{BinOp, Comp, Expr};
use hac_lang::env::ConstEnv;

use crate::error::RuntimeError;
use crate::value::{apply_bin, ArrayBuf, FuncTable};
use crate::walk::Scope;

/// Evaluate an accumulated array strictly: `default` everywhere, then
/// each instance's value combined into its element with `combine`.
/// `extra_scalars` are runtime bindings beyond `params` (e.g. earlier
/// reduction results).
///
/// # Errors
/// Out-of-bounds definitions and any evaluation failure.
#[allow(clippy::too_many_arguments)]
pub fn eval_accum(
    name: &str,
    bounds: &[(i64, i64)],
    comp: &Comp,
    combine: BinOp,
    default: &Expr,
    params: &ConstEnv,
    extra_scalars: &[(String, f64)],
    others: &HashMap<String, ArrayBuf>,
    funcs: &FuncTable,
) -> Result<ArrayBuf, RuntimeError> {
    let mut scope = Scope::new(params, extra_scalars, others, funcs);
    let mut buf = ArrayBuf::new(bounds, scope.eval(default)?);
    scope.for_each_instance(comp, &mut |clause, scope| {
        let idx = scope.subscript(name, &clause.subs)?;
        let v = scope.eval(&clause.value)?;
        let old = buf.get(name, &idx)?;
        buf.set(name, &idx, apply_bin(combine, old, v))
    })?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_comp;

    fn accum(src: &str, n: i64, bounds: &[(i64, i64)], op: BinOp, z: f64) -> ArrayBuf {
        let mut c = parse_comp(src).unwrap();
        number_clauses(&mut c);
        let env = ConstEnv::from_pairs([("n", n)]);
        let others = HashMap::new();
        let funcs = FuncTable::new();
        eval_accum(
            "h",
            bounds,
            &c,
            op,
            &Expr::num(z),
            &env,
            &[],
            &others,
            &funcs,
        )
        .unwrap()
    }

    #[test]
    fn histogram() {
        // Count i mod 3 for i in 1..9 into buckets 0..2.
        let h = accum(
            "[ i mod 3 := 1.0 | i <- [1..n] ]",
            9,
            &[(0, 2)],
            BinOp::Add,
            0.0,
        );
        assert_eq!(h.data(), &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn default_fills_empties() {
        let h = accum("[ 2 := 5.0 ]", 0, &[(1, 3)], BinOp::Add, 7.0);
        assert_eq!(h.data(), &[7.0, 12.0, 7.0]);
    }

    #[test]
    fn max_combining() {
        let h = accum("[ 1 := i | i <- [1..n] ]", 6, &[(1, 1)], BinOp::Max, 0.0);
        assert_eq!(h.data(), &[6.0]);
    }

    #[test]
    fn non_commutative_order_preserved() {
        // Subtraction: ((0 - 1) - 2) - 3 = -6 requires list order.
        let h = accum("[ 1 := i | i <- [1..3] ]", 0, &[(1, 1)], BinOp::Sub, 0.0);
        assert_eq!(h.data(), &[-6.0]);
    }

    #[test]
    fn collisions_are_not_errors() {
        let h = accum("[ 1 := 1.0 | i <- [1..n] ]", 5, &[(1, 2)], BinOp::Add, 0.0);
        assert_eq!(h.data(), &[5.0, 0.0]);
    }

    #[test]
    fn non_integer_generator_bounds_are_errors() {
        let mut c = parse_comp("[ 1 := 1.0 | j <- [1..s] ]").unwrap();
        number_clauses(&mut c);
        let (others, funcs) = (HashMap::new(), FuncTable::new());
        for s in [2.5, f64::NAN, f64::INFINITY] {
            let scalars = [("s".to_string(), s)];
            let err = eval_accum(
                "h",
                &[(1, 1)],
                &c,
                BinOp::Add,
                &Expr::num(0.0),
                &ConstEnv::new(),
                &scalars,
                &others,
                &funcs,
            )
            .unwrap_err();
            assert!(
                matches!(&err, RuntimeError::NonIntegerBound { var, .. } if var == "j"),
                "s = {s}: {err}"
            );
        }
    }
}
