//! # hac-runtime
//!
//! Execution substrates for the `hac` reproduction of Anderson & Hudak
//! (PLDI 1990) — every run-time representation the paper's compile-time
//! analysis is designed to beat, faithfully implemented and
//! instrumented:
//!
//! * [`group`] — the non-strict reference evaluator: `letrec*` groups
//!   of arrays with one thunk per element, demand-driven with
//!   black-holing, plus `force_elements` (§2). Its results are the
//!   semantic ground truth for the compiled pipeline.
//! * [`list`] — the naive `TE` cons-list evaluation of nested
//!   comprehensions and `foldl` array construction (§3.1), the
//!   deforestation baseline.
//! * [`accum`] — Haskell-style accumulated arrays (§3).
//! * [`reduce`] — scalar `foldl` reductions with no intermediate list
//!   (§3.1).
//! * [`walk`] — the one walk over a comprehension's clause instances
//!   that the three evaluators above share.
//! * [`incremental`] — copy-on-write, trailer (version) arrays, and
//!   copy-vs-in-place `bigupd` (§9's related run-time schemes).
//! * [`value`] — flat `f64` buffers and the shared scalar-expression
//!   evaluator.
//!
//! # Example
//!
//! ```
//! use std::collections::HashMap;
//! use hac_lang::{parse_comp, number_clauses, ConstEnv};
//! use hac_runtime::group::ThunkedGroup;
//! use hac_runtime::value::FuncTable;
//!
//! let mut comp = parse_comp(
//!     "[ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]",
//! )?;
//! number_clauses(&mut comp);
//! let env = ConstEnv::from_pairs([("n", 5)]);
//! let others = HashMap::new();
//! let funcs = FuncTable::new();
//! let a = ThunkedGroup::build(&[("a", vec![(1, 5)], &comp)], &env, &[], &others, &funcs, None)
//!     .unwrap();
//! let bufs = a.into_strict().unwrap();
//! assert_eq!(bufs[0].1.data(), &[1.0, 2.0, 4.0, 8.0, 16.0]);
//! # Ok::<(), hac_lang::ParseError>(())
//! ```

pub mod accum;
pub mod error;
pub mod governor;
pub mod group;
pub mod incremental;
pub mod list;
pub mod reduce;
pub mod value;
pub mod walk;

pub use accum::eval_accum;
pub use error::RuntimeError;
pub use governor::{FaultKind, FaultPlan, FaultPoint, Limits, Meter};
pub use group::{ThunkedCounters, ThunkedGroup};
pub use incremental::{
    bigupd_copy, bigupd_inplace, CopyCounters, CowArray, TrailerArray, TrailerCounters,
};
pub use list::{array_from_list, eval_core_list, ConsList, ListCounters};
pub use reduce::eval_reduce;
pub use value::{
    eval_expr, eval_expr_metered, ArrayBuf, ArrayReader, FuncTable, MapReader, Scalars,
};
