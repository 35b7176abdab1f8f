//! # hac-codegen
//!
//! Thunkless code generation (§8) and in-place update code generation
//! (§9) for the `hac` reproduction of Anderson & Hudak (PLDI 1990).
//!
//! Schedules from [`hac_schedule`] are lowered ([`lower`]) into the
//! "Limp" loop-imperative IR ([`limp`]) — counted loops with chosen
//! directions, direct stores into flat buffers, runtime checks only
//! where the analysis could not discharge them, and synthesized
//! node-splitting temporaries (precopy loops, carry-buffer ring saves).
//! An instrumented VM executes Limp and reports exactly which runtime
//! work was avoided: stores, loads, checks, copies, temporaries.
//!
//! Limp executes on one of two engines: the recursive tree-walking
//! evaluator in [`limp`], or the register-slot bytecode tape compiled
//! by [`tape`] (compile once per binding, then non-recursive dispatch
//! with all names resolved to dense indices). An optional fusion pass
//! ([`fuse`]) overlays straight-line innermost affine loops with
//! superinstructions that run as loop-level kernels.

pub mod cost;
pub mod fuse;
pub mod limp;
pub mod lower;
pub mod partape;
pub mod tape;

pub use cost::{expr_calls, program_cost, ConcreteCost};
pub use fuse::{fuse_tape, FuseDecision};
pub use limp::{LProgram, LStmt, StoreCheck, Vm, VmCounters};
pub use lower::{lower_array, lower_update, CheckMode, LowerError, LoweredUpdate};
pub use partape::{
    ambient_fault_plan_active, exec_par, plan_tape, suppress_env_fault_plan, ParPlan,
};
pub use tape::{compile_tape, Op, TapeCtx, TapeProgram};
