//! Deadline-aware budgeting: convert a wall-clock deadline into a fuel
//! budget **before** execution starts, so the engines themselves never
//! read the clock.
//!
//! Clock-free engines are what keep the repo's determinism contract
//! intact: a run's outcome (answer, exhaustion point, counters) is a
//! pure function of the program, inputs, and budget — never of machine
//! load or scheduling jitter. A deadline therefore cannot be enforced
//! by polling `Instant::now()` inside the interpreter loop. Instead a
//! [`DeadlineGovernor`] is calibrated **once** (per server start) by
//! timing a fixed probe kernel on the tape engine, yielding an
//! ops-per-millisecond rate; each request's `--deadline-ms` is then
//! multiplied through into an ordinary fuel limit and enforced by the
//! same [`Meter`](hac_runtime::governor::Meter) as any other budget.
//!
//! The conversion is deliberately approximate — fuel is charged at
//! loop heads and call sites, not per wall-clock tick — but it is
//! *reproducible*: the same calibrated rate and the same deadline
//! always produce the same fuel budget, and two runs with the same
//! budget exhaust at the same operation.

use std::collections::HashMap;
use std::time::Instant;

use hac_lang::env::ConstEnv;
use hac_runtime::governor::Limits;
use hac_runtime::value::FuncTable;

use crate::pipeline::{compile, run_with_options, CompileOptions, Engine, RunOptions};

/// The calibration probe: a first-order recurrence long enough to
/// dominate compile time but small enough to finish in well under a
/// second. One fuel unit is charged per taken loop iteration, so the
/// probe's fuel spend scales with `n`.
const PROBE_SRC: &str = "param n;\n\
     letrec* a = array (1,n)\n\
       ([ 1 := 1 ] ++ [ i := a!(i-1) * 0.5 + 1 | i <- [2..n] ]);\n";
const PROBE_N: i64 = 200_000;

/// Converts wall-clock deadlines into fuel budgets at a fixed,
/// calibrated rate. Construct once with [`DeadlineGovernor::calibrate`]
/// (times the probe kernel) or [`DeadlineGovernor::with_rate`] (tests
/// and reproducible CLI runs inject the rate, e.g. via `hacc
/// --ops-per-ms`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineGovernor {
    /// Fuel units the tape engine retires per millisecond.
    ops_per_ms: u64,
}

impl DeadlineGovernor {
    /// A governor with an injected rate — no clock is ever read.
    /// Rates are clamped to at least 1 op/ms so a deadline always buys
    /// a nonzero budget.
    #[must_use]
    pub fn with_rate(ops_per_ms: u64) -> Self {
        DeadlineGovernor {
            ops_per_ms: ops_per_ms.max(1),
        }
    }

    /// Measure this process's tape-engine throughput on the fixed
    /// probe kernel. This is the **only** place in the codebase where
    /// wall-clock time feeds resource governance; everything
    /// downstream sees a plain fuel number.
    ///
    /// # Panics
    /// Panics when the built-in probe kernel fails to compile or run —
    /// a build defect, not an input condition.
    #[must_use]
    pub fn calibrate() -> Self {
        let env = ConstEnv::from_pairs([("n", PROBE_N)]);
        let program = hac_lang::parser::parse_program(PROBE_SRC).expect("probe parses");
        let options = CompileOptions {
            engine: Engine::Tape,
            ..CompileOptions::default()
        };
        let compiled = compile(&program, &env, &options).expect("probe compiles");
        let inputs = HashMap::new();
        let funcs = FuncTable::new();
        // An effectively-infinite but still *finite* fuel cap (the
        // `u64::MAX` cap would collide with the meter's unlimited
        // sentinel): the spend falls out as `cap - fuel_left`, no
        // second bookkeeping path needed for calibration.
        const PROBE_CAP: u64 = u64::MAX - 1;
        let run_opts = RunOptions {
            threads: Some(1),
            limits: Limits {
                fuel: Some(PROBE_CAP),
                mem_bytes: None,
            },
            faults: None,
            ceiling: None,
        };
        let start = Instant::now();
        let out = run_with_options(&compiled, &inputs, &funcs, &run_opts).expect("probe runs");
        let elapsed = start.elapsed();
        let spent = PROBE_CAP - out.fuel_left.expect("probe meter is fuel-limited");
        let micros = elapsed.as_micros().max(1) as u64;
        // ops/ms = spent / (micros / 1000), rounded down, floor 1.
        DeadlineGovernor::with_rate(spent.saturating_mul(1000) / micros)
    }

    /// The calibrated rate, in fuel units per millisecond.
    #[must_use]
    pub fn ops_per_ms(&self) -> u64 {
        self.ops_per_ms
    }

    /// The fuel budget a `deadline_ms` millisecond deadline buys at
    /// the calibrated rate. Saturates instead of overflowing, so huge
    /// deadlines degrade to "effectively unlimited".
    #[must_use]
    pub fn fuel_for_deadline(&self, deadline_ms: u64) -> u64 {
        self.ops_per_ms.saturating_mul(deadline_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injected_rate_is_clock_free_and_deterministic() {
        let g = DeadlineGovernor::with_rate(250);
        assert_eq!(g.ops_per_ms(), 250);
        assert_eq!(g.fuel_for_deadline(0), 0);
        assert_eq!(g.fuel_for_deadline(4), 1000);
        // Same governor, same deadline, same budget — always.
        assert_eq!(g.fuel_for_deadline(4), g.fuel_for_deadline(4));
    }

    #[test]
    fn rate_is_clamped_to_at_least_one() {
        assert_eq!(DeadlineGovernor::with_rate(0).ops_per_ms(), 1);
    }

    #[test]
    fn huge_deadlines_saturate() {
        let g = DeadlineGovernor::with_rate(u64::MAX);
        assert_eq!(g.fuel_for_deadline(u64::MAX), u64::MAX);
    }

    #[test]
    fn calibration_produces_a_usable_rate() {
        let g = DeadlineGovernor::calibrate();
        assert!(g.ops_per_ms() >= 1);
        // A 10-second deadline must buy a budget that covers the probe
        // itself at the measured rate (sanity: spend ≈ rate × runtime,
        // and the probe runs in well under 10 s).
        assert!(g.fuel_for_deadline(10_000) > PROBE_N as u64 / 2);
    }
}
