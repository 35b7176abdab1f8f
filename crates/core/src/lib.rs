//! # hac-core
//!
//! The complete compiler pipeline of the `hac` reproduction of Anderson
//! & Hudak, *"Compilation of Haskell Array Comprehensions for
//! Scientific Computing"* (PLDI 1990):
//!
//! ```text
//! parse → number → subscript analysis → static scheduling → Limp codegen
//!                     (GCD/Banerjee/exact)   (§8 directions,     (thunkless
//!                      §§5–7 verdicts         passes; §9 node     loops, VM)
//!                                             splitting)
//! ```
//!
//! Arrays the scheduler can order run **thunkless** — raw `f64` stores
//! in statically chosen loop directions, with collision/empties checks
//! elided whenever §4/§7 analysis discharged them. Arrays it cannot
//! order (or that you force, for baselines) run on the **thunked**
//! reference evaluator. `bigupd` bindings run **in place** whenever §9
//! scheduling plus node splitting permits.
//!
//! # Quickstart
//!
//! ```
//! use std::collections::HashMap;
//! use hac_core::{compile_and_run};
//! use hac_lang::ConstEnv;
//!
//! let out = compile_and_run(
//!     "param n;\n\
//!      letrec* a = array (1,n)\n\
//!        ([ 1 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [2..n] ]);\n",
//!     &ConstEnv::from_pairs([("n", 5)]),
//!     &HashMap::new(),
//! ).unwrap();
//! assert_eq!(out.array("a").data(), &[1.0, 2.0, 4.0, 8.0, 16.0]);
//! assert_eq!(out.counters.thunked.thunks_allocated, 0); // thunkless!
//! ```

mod cost;
pub mod deadline;
pub mod pipeline;
pub mod report;

pub use deadline::DeadlineGovernor;
pub use pipeline::{
    compile, compile_and_run, run, CompileError, CompileOptions, Compiled, Engine, ExecCounters,
    ExecMode, ExecOutput, Unit,
};
pub use report::{ArrayOutcome, ArrayReport, EdgeFact, Report, UpdateReport};

// Re-export the component crates so downstream users need one
// dependency.
pub use hac_analysis as analysis;
pub use hac_codegen as codegen;
pub use hac_graph as graph;
pub use hac_lang as lang;
pub use hac_runtime as runtime;
pub use hac_schedule as schedule;
