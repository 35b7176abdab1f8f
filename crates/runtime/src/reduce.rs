//! Scalar reductions over comprehensions (§3.1).
//!
//! "The vast majority of scientific applications can be expressed as
//! foldl of some operator over a list ... we can always transform this
//! pattern into the application of a specialized first-order
//! tail-recursive function that creates no CONS cells — no intermediate
//! lists — whatsoever." [`eval_reduce`] is that DO-loop evaluation: the
//! comprehension's elements are folded into a scalar accumulator with
//! no intermediate list.

use std::collections::HashMap;

use hac_lang::ast::{BinOp, Comp, Expr};
use hac_lang::env::ConstEnv;

use crate::error::RuntimeError;
use crate::value::{apply_bin, ArrayBuf, FuncTable};
use crate::walk::Scope;

/// Fold a scalar comprehension (clauses with empty subscripts) with
/// `op`, starting from `init`, in list order (left fold — required for
/// non-commutative operators).
///
/// # Errors
/// Any evaluation failure.
pub fn eval_reduce(
    op: BinOp,
    init: &Expr,
    comp: &Comp,
    params: &ConstEnv,
    extra_scalars: &[(String, f64)],
    arrays: &HashMap<String, ArrayBuf>,
    funcs: &FuncTable,
) -> Result<f64, RuntimeError> {
    let mut scope = Scope::new(params, extra_scalars, arrays, funcs);
    let mut acc = scope.eval(init)?;
    scope.for_each_instance(comp, &mut |clause, scope| {
        debug_assert!(clause.subs.is_empty(), "scalar comprehension clause");
        acc = apply_bin(op, acc, scope.eval(&clause.value)?);
        Ok(())
    })?;
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::number::number_clauses;
    use hac_lang::parser::parse_program;

    fn reduce_of(src_prog: &str, n: i64, arrays: &HashMap<String, ArrayBuf>) -> f64 {
        let p = parse_program(src_prog).unwrap();
        let (op, init, mut comp) = match &p.bindings[p.bindings.len() - 1] {
            hac_lang::ast::Binding::Reduce { op, init, comp, .. } => {
                (*op, init.clone(), comp.clone())
            }
            other => panic!("{other:?}"),
        };
        number_clauses(&mut comp);
        let env = ConstEnv::from_pairs([("n", n)]);
        eval_reduce(op, &init, &comp, &env, &[], arrays, &FuncTable::new()).unwrap()
    }

    #[test]
    fn sum_of_squares() {
        let v = reduce_of(
            "param n;\nlet s = sum [ i * i | i <- [1..n] ];\n",
            4,
            &HashMap::new(),
        );
        assert_eq!(v, 30.0);
    }

    #[test]
    fn dot_product() {
        // The paper's §3.1 example: sum [ a!k * b!k | k <- [1..n] ].
        let mut arrays = HashMap::new();
        let mut a = ArrayBuf::new(&[(1, 3)], 0.0);
        let mut b = ArrayBuf::new(&[(1, 3)], 0.0);
        for k in 1..=3 {
            a.set("a", &[k], k as f64).unwrap();
            b.set("b", &[k], (k * 10) as f64).unwrap();
        }
        arrays.insert("a".to_string(), a);
        arrays.insert("b".to_string(), b);
        let v = reduce_of(
            "param n;\nlet s = sum [ a!k * b!k | k <- [1..n] ];\n",
            3,
            &arrays,
        );
        assert_eq!(v, 10.0 + 40.0 + 90.0);
    }

    #[test]
    fn product_and_guards() {
        let v = reduce_of(
            "param n;\nlet s = product [ i | i <- [1..n], i mod 2 == 0 ];\n",
            6,
            &HashMap::new(),
        );
        assert_eq!(v, 2.0 * 4.0 * 6.0);
    }

    #[test]
    fn non_commutative_fold_order() {
        let v = reduce_of(
            "param n;\nlet s = reduce (-) 0 [ i | i <- [1..n] ];\n",
            3,
            &HashMap::new(),
        );
        assert_eq!(v, ((0.0 - 1.0) - 2.0) - 3.0);
    }

    #[test]
    fn max_reduction_with_init_atom() {
        let v = reduce_of(
            "param n;\nlet s = reduce (max) 0 [ n - i | i <- [1..n] ] ++ [ 100 ];\n",
            5,
            &HashMap::new(),
        );
        assert_eq!(v, 100.0);
    }
}
