//! Differential tests for resource governance: a fuel or memory cap
//! must produce *identical* behaviour on every engine — tree-walker
//! and the tape engine at 1/2/4/8 threads. Either every
//! engine completes with bit-identical output, or every engine fails
//! with the same `RuntimeError` (Debug-rendered, for payload parity).
//!
//! The same property is checked at the `Vm` level on randomly
//! generated programs (fuel splits mid-loop, mid-expression, at call
//! sites), and fault injection is exercised end-to-end through the
//! pipeline: an injected worker panic must leave the final answer
//! bit-identical to a fault-free run, with the recovery visible only
//! in the `engine_faults` counter.

use std::collections::HashMap;

use hac_codegen::limp::{LProgram, LStmt, StoreCheck, Vm, VmCounters};
use hac_codegen::tape::{compile_tape, TapeCtx};
use hac_core::pipeline::{
    compile, run_with_options, CompileOptions, Compiled, Engine, ExecOutput, RunOptions,
};
use hac_lang::ast::{BinOp, Expr, UnOp};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::governor::{FaultPlan, Limits, Meter, SharedCeiling};
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads as wl;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The engine × threads matrix: the tree-walk oracle on one worker,
/// then the tape engine at every thread count.
const MATRIX: [(Engine, usize); 5] = [
    (Engine::TreeWalk, 1),
    (Engine::Tape, 1),
    (Engine::Tape, 2),
    (Engine::Tape, 4),
    (Engine::Tape, 8),
];

fn buf_bits(b: &ArrayBuf) -> (Vec<(i64, i64)>, Vec<u64>) {
    (b.bounds(), b.data().iter().map(|v| v.to_bits()).collect())
}

/// Zero the tape-only counter so tree-walk runs compare exactly.
fn sans_tape_ops(mut c: VmCounters) -> VmCounters {
    c.tape_ops = 0;
    c
}

/// A run collapsed to a comparable value: sorted array bits + sorted
/// scalar bits on success, the Debug-rendered error on failure.
type OkOutcome = (
    Vec<(String, (Vec<(i64, i64)>, Vec<u64>))>,
    Vec<(String, u64)>,
);
type Outcome = Result<OkOutcome, String>;

fn ok_outcome(out: &ExecOutput) -> OkOutcome {
    let mut arrays: Vec<_> = out
        .arrays
        .iter()
        .map(|(n, b)| (n.clone(), buf_bits(b)))
        .collect();
    arrays.sort();
    let mut scalars: Vec<_> = out
        .scalars
        .iter()
        .map(|(n, v)| (n.clone(), v.to_bits()))
        .collect();
    scalars.sort();
    (arrays, scalars)
}

fn outcome(r: &Result<ExecOutput, hac_runtime::RuntimeError>) -> Outcome {
    match r {
        Ok(out) => Ok(ok_outcome(out)),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// Compile `src` once per engine; run each build under `limits` and
/// demand identical outcomes across all engines and thread counts.
/// Returns the one-worker tape outcome for extra assertions.
fn diff_limits(
    label: &str,
    src: &str,
    env: &ConstEnv,
    inputs: &HashMap<String, ArrayBuf>,
    limits: Limits,
) -> Outcome {
    let program = parse_program(src).unwrap();
    let funcs = FuncTable::new();
    let build = |engine| -> Compiled {
        compile(
            &program,
            env,
            &CompileOptions {
                engine,
                ..CompileOptions::default()
            },
        )
        .unwrap_or_else(|e| panic!("{label}: compile: {e}"))
    };
    let tree = build(Engine::TreeWalk);
    let tape = build(Engine::Tape);

    let opts = RunOptions {
        threads: Some(1),
        limits,
        faults: None,
        ceiling: None,
    };
    let want = outcome(&run_with_options(&tape, inputs, &funcs, &opts));
    let tree_got = outcome(&run_with_options(&tree, inputs, &funcs, &opts));
    assert_eq!(
        tree_got, want,
        "{label} {limits:?}: tree-walk vs tape outcome"
    );
    for threads in &THREADS[1..] {
        let opts = RunOptions {
            threads: Some(*threads),
            limits,
            faults: None,
            ceiling: None,
        };
        let got = outcome(&run_with_options(&tape, inputs, &funcs, &opts));
        assert_eq!(got, want, "{label} {limits:?}: tape @{threads}t vs @1t");
    }
    want
}

fn fuel(n: u64) -> Limits {
    Limits {
        fuel: Some(n),
        mem_bytes: None,
    }
}

fn mem(bytes: u64) -> Limits {
    Limits {
        fuel: None,
        mem_bytes: Some(bytes),
    }
}

/// Every workload kernel, a ladder of fuel budgets from "trips at the
/// first loop head" to "comfortably completes", plus tight and roomy
/// memory caps. The zero-fuel rung must actually exhaust, and the
/// unlimited rung must actually complete, so both sides of the
/// differential property are exercised on every kernel.
#[test]
fn kernels_hit_limits_identically_on_every_engine() {
    let kernels: Vec<(&str, &str, ConstEnv, HashMap<String, ArrayBuf>)> = vec![
        (
            "wavefront",
            wl::wavefront_source(),
            ConstEnv::from_pairs([("n", 10)]),
            HashMap::new(),
        ),
        (
            "section5_example1",
            wl::section5_example1_source(),
            ConstEnv::from_pairs([("n", 30)]),
            HashMap::new(),
        ),
        (
            "recurrence",
            wl::recurrence_source(),
            ConstEnv::from_pairs([("n", 100)]),
            HashMap::new(),
        ),
        (
            "pascal",
            wl::pascal_source(),
            ConstEnv::from_pairs([("n", 12)]),
            HashMap::new(),
        ),
        (
            "deforest",
            wl::deforest_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 23))]),
        ),
        (
            "permutation",
            wl::permutation_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 29))]),
        ),
        (
            "prefix_sum",
            wl::prefix_sum_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 31))]),
        ),
        (
            "convolution",
            wl::convolution_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 37))]),
        ),
        (
            "relaxation",
            wl::relaxation_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 41))]),
        ),
        (
            "thomas",
            wl::thomas_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("d".to_string(), wl::random_vector(24, 7))]),
        ),
        (
            "jacobi",
            wl::jacobi_source(),
            ConstEnv::from_pairs([("n", 8)]),
            HashMap::from([("a".to_string(), wl::random_matrix(8, 8, 11))]),
        ),
        (
            "jacobi_step",
            wl::jacobi_step_source(),
            ConstEnv::from_pairs([("n", 8)]),
            HashMap::from([("a".to_string(), wl::random_matrix(8, 8, 13))]),
        ),
        (
            "sor",
            wl::sor_source(),
            ConstEnv::from_pairs([("n", 8)]),
            HashMap::from([("a".to_string(), wl::random_matrix(8, 8, 17))]),
        ),
        (
            "matmul",
            wl::matmul_source(),
            ConstEnv::from_pairs([("n", 6)]),
            HashMap::from([
                ("x".to_string(), wl::random_matrix(6, 6, 31)),
                ("y".to_string(), wl::random_matrix(6, 6, 37)),
            ]),
        ),
    ];
    // Kernels that schedule VM-executed (thunkless/update) units burn
    // fuel and must exhaust at a zero budget; a kernel that compiles
    // entirely to demand-driven thunked groups (jacobi's carried
    // reductions) consumes none — the differential property still
    // holds, there is just nothing to trip.
    let mut exhausted = 0usize;
    for (label, src, env, inputs) in &kernels {
        for f in [0, 1, 7, 23, 101, 1009, 20011] {
            let got = diff_limits(label, src, env, inputs, fuel(f));
            if f == 0 && matches!(&got, Err(e) if e.contains("FuelExhausted")) {
                exhausted += 1;
            }
        }
        let full = diff_limits(label, src, env, inputs, Limits::unlimited());
        assert!(full.is_ok(), "{label}: unlimited run completes: {full:?}");
        for m in [0, 64, 1 << 30] {
            let got = diff_limits(label, src, env, inputs, mem(m));
            if m == 0 {
                assert!(
                    matches!(&got, Err(e) if e.contains("MemLimitExceeded")),
                    "{label}: zero-byte cap must trip, got {got:?}"
                );
            }
        }
    }
    assert!(
        exhausted >= 10,
        "most kernels run through a metered VM: {exhausted} exhausted at zero fuel"
    );
}

/// An injected worker panic (and an injected allocation failure) at
/// pipeline level: the run must still succeed with output and meter
/// state bit-identical to the fault-free run; only `engine_faults`
/// may differ, and it must record the recovery.
#[test]
fn injected_faults_are_invisible_in_the_answer() {
    let env = ConstEnv::from_pairs([("n", 16)]);
    let inputs = HashMap::from([("a".to_string(), wl::random_matrix(16, 16, 61))]);
    let program = parse_program(wl::jacobi_step_source()).unwrap();
    let funcs = FuncTable::new();
    let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();

    let clean = run_with_options(
        &compiled,
        &inputs,
        &funcs,
        &RunOptions {
            threads: Some(4),
            limits: Limits::unlimited(),
            faults: None,
            ceiling: None,
        },
    )
    .unwrap();
    assert_eq!(clean.counters.vm.engine_faults, 0, "fault-free baseline");

    for spec in [
        "r0c0:panic",
        "r0c1:allocfail",
        "seed:7",
        "r0c0:panic,r1c1:allocfail,seed:1009",
    ] {
        let faulted = run_with_options(
            &compiled,
            &inputs,
            &funcs,
            &RunOptions {
                threads: Some(4),
                limits: Limits::unlimited(),
                faults: Some(FaultPlan::parse(spec).unwrap()),
                ceiling: None,
            },
        )
        .unwrap_or_else(|e| panic!("fault plan `{spec}` must be absorbed: {e}"));
        assert_eq!(
            ok_outcome(&clean),
            ok_outcome(&faulted),
            "plan `{spec}`: answer bit-identical despite faults"
        );
        assert_eq!(
            sans_faults(faulted.counters.vm),
            sans_faults(clean.counters.vm),
            "plan `{spec}`: work counters identical"
        );
        if spec.starts_with('r') {
            assert!(
                faulted.counters.vm.engine_faults >= 1,
                "plan `{spec}`: recovery recorded in counters"
            );
        }
    }
}

fn sans_faults(mut c: VmCounters) -> VmCounters {
    c.engine_faults = 0;
    c
}

// ---------------------------------------------------------------------
// Property: on randomly generated programs — loops whose bodies mix
// arithmetic, short-circuit operators, conditionals, calls, and array
// reads — a fuel budget trips at exactly the same charge on the
// tree-walker, the tape, and the parallel tape at every thread count,
// leaving identical remaining fuel and identical counter prefixes.
// ---------------------------------------------------------------------

struct Gen(wl::XorShift);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(8) {
            0..=2 => self.leaf(),
            3..=4 => {
                let op = [
                    BinOp::Add,
                    BinOp::Mul,
                    BinOp::Sub,
                    BinOp::Div,
                    BinOp::Lt,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Max,
                ][self.below(8) as usize];
                Expr::bin(op, self.expr(depth - 1), self.expr(depth - 1))
            }
            5 => Expr::Unary {
                op: [UnOp::Neg, UnOp::Abs, UnOp::Sqrt][self.below(3) as usize],
                expr: Box::new(self.expr(depth - 1)),
            },
            6 => Expr::If {
                cond: Box::new(self.expr(depth - 1)),
                then: Box::new(self.expr(depth - 1)),
                els: Box::new(self.expr(depth - 1)),
            },
            // Calls are the other fuel charge point: make them common.
            _ => match self.below(2) {
                0 => Expr::Call {
                    func: "sqrt".to_string(),
                    args: vec![self.expr(depth - 1)],
                },
                _ => Expr::Call {
                    func: "hypot".to_string(),
                    args: vec![self.expr(depth - 1), self.expr(depth - 1)],
                },
            },
        }
    }

    fn leaf(&mut self) -> Expr {
        match self.below(8) {
            0..=2 => Expr::int(self.below(9) as i64 - 2),
            3..=5 => Expr::var("i"),
            6 => Expr::var("g"),
            _ => Expr::index1(
                "u",
                Expr::add(Expr::var("i"), Expr::int(self.below(3) as i64)),
            ),
        }
    }
}

/// A 1..=8 loop storing the generated value into `out` — the same
/// harness shape `partape_equivalence` uses, always injective, so the
/// loop is a genuine parallel region on more than one worker.
fn harness_program(value: Expr) -> LProgram {
    LProgram {
        stmts: vec![
            LStmt::Alloc {
                array: "out".to_string(),
                bounds: vec![(1, 8)],
                fill: 0.0,
                temp: false,
                checked: false,
            },
            LStmt::For {
                var: "i".to_string(),
                start: 1,
                end: 8,
                step: 1,
                par: true,
                red: false,
                body: vec![LStmt::Store {
                    array: "out".to_string(),
                    subs: vec![Expr::var("i")],
                    value,
                    check: StoreCheck::None,
                }],
            },
        ],
        result: "out".to_string(),
    }
}

fn fresh_vm(fuel: u64) -> Vm {
    let mut vm = Vm::new();
    let mut u = ArrayBuf::new(&[(1, 12)], 0.0);
    for i in 1..=12 {
        u.set("u", &[i], (i * i) as f64 * 0.25 - 3.0).unwrap();
    }
    vm.bind("u", u);
    vm.set_global("n", 8.0);
    vm.set_global("g", 2.5);
    vm.with_meter(Meter::new(Limits {
        fuel: Some(fuel),
        mem_bytes: None,
    }));
    vm
}

/// One generated program, one fuel budget: the tree-walker, the tape,
/// and the parallel tape at every thread count must agree on
/// success/error, the error payload, the surviving array bits, the
/// counter prefix, and the *remaining fuel*.
fn diff_random_fuel(prog: &LProgram, fuel: u64) {
    let ctx = TapeCtx {
        shapes: HashMap::from([("u".to_string(), vec![(1i64, 12i64)])]),
        consts: HashMap::from([("n".to_string(), 8i64)]),
        globals: vec!["g".to_string()],
        ..TapeCtx::default()
    };
    let tape = compile_tape(prog, &ctx);

    let mut wvm = fresh_vm(fuel);
    let wr = wvm.run(prog).map_err(|e| format!("{e:?}"));
    let wleft = wvm.take_meter().fuel_left();

    let mut svm = fresh_vm(fuel);
    let sr = svm.run_tape(&tape, 1).map_err(|e| format!("{e:?}"));
    let sleft = svm.take_meter().fuel_left();

    let label = |eng: &str| format!("fuel={fuel} {eng}\nprog:\n{}", prog.render());
    assert_eq!(sr, wr, "{}", label("tape vs tree: same outcome"));
    assert_eq!(sleft, wleft, "{}", label("tape vs tree: same fuel left"));
    if sr.is_ok() {
        assert_eq!(
            buf_bits(svm.array("out").unwrap()),
            buf_bits(wvm.array("out").unwrap()),
            "{}",
            label("tape vs tree: bits")
        );
    }
    assert_eq!(
        sans_tape_ops(svm.counters),
        sans_tape_ops(wvm.counters),
        "{}",
        label("tape vs tree: counters")
    );

    for threads in THREADS {
        let mut pvm = fresh_vm(fuel);
        let pr = pvm.run_tape(&tape, threads).map_err(|e| format!("{e:?}"));
        let pleft = pvm.take_meter().fuel_left();
        assert_eq!(pr, sr, "{}", label(&format!("partape@{threads} outcome")));
        assert_eq!(
            pleft,
            sleft,
            "{}",
            label(&format!("partape@{threads} fuel left"))
        );
        if pr.is_ok() {
            assert_eq!(
                buf_bits(pvm.array("out").unwrap()),
                buf_bits(svm.array("out").unwrap()),
                "{}",
                label(&format!("partape@{threads} bits"))
            );
        }
        assert_eq!(
            sans_faults(pvm.counters),
            sans_faults(svm.counters),
            "{}",
            label(&format!("partape@{threads} counters"))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn random_programs_exhaust_fuel_identically(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 1));
        let depth = 2 + (seed % 3) as u32;
        let prog = harness_program(g.expr(depth));
        // Budgets straddling the interesting boundaries: immediate
        // exhaustion, mid-loop, mid-call, and comfortable completion.
        for fuel in [0, 1, 2, 3, 5, 9, (seed % 40), 10_000] {
            diff_random_fuel(&prog, fuel);
        }
    }
}

// ---------------------------------------------------------------------
// Fusion × governance: a fuel or memory cap must trip at *exactly* the
// same charge whether the innermost loops run as scalar tape ops or as
// fused `Op::VecLoop` kernels. The fused path bulk-charges a block of
// fuel up front and settles the shortfall through the same meter call
// the scalar loop would have made, so mid-kernel exhaustion leaves
// identical remaining fuel, identical counters, and the identical
// error payload — at every thread count.
// ---------------------------------------------------------------------

/// Fusion-rich kernels under a fuel ladder dense around the exhaustion
/// points of their innermost loops, plus memory caps. Each rung runs
/// `fuse: true` and `fuse: false` builds on the tape engine at
/// 1/2/4/8 threads and demands the same outcome (values, errors,
/// counters, fuel left — `ExecOutput::fuel_left` is part of the
/// compared surface via `diff_limits`'s per-engine assertions below).
#[test]
fn fused_and_unfused_builds_hit_limits_identically() {
    let kernels: Vec<(&str, &str, ConstEnv, HashMap<String, ArrayBuf>)> = vec![
        (
            "jacobi_step",
            wl::jacobi_step_source(),
            ConstEnv::from_pairs([("n", 10)]),
            HashMap::from([("a".to_string(), wl::random_matrix(10, 10, 13))]),
        ),
        (
            "relaxation",
            wl::relaxation_source(),
            ConstEnv::from_pairs([("n", 32)]),
            HashMap::from([("u".to_string(), wl::random_vector(32, 41))]),
        ),
        (
            "matmul",
            wl::matmul_source(),
            ConstEnv::from_pairs([("n", 6)]),
            HashMap::from([
                ("x".to_string(), wl::random_matrix(6, 6, 31)),
                ("y".to_string(), wl::random_matrix(6, 6, 37)),
            ]),
        ),
    ];
    let funcs = FuncTable::new();
    for (label, src, env, inputs) in &kernels {
        let program = parse_program(src).unwrap();
        let builds: Vec<(bool, Compiled)> = [false, true]
            .into_iter()
            .map(|fuse| {
                let options = CompileOptions {
                    fuse,
                    ..CompileOptions::default()
                };
                (fuse, compile(&program, env, &options).unwrap())
            })
            .collect();
        // A ladder dense around small budgets (mid-kernel exhaustion on
        // every rung below completion) plus memory caps.
        let rungs: Vec<Limits> = [0u64, 1, 2, 3, 5, 8, 13, 37, 99, 100, 257, 1000, 100_000]
            .iter()
            .map(|&f| fuel(f))
            .chain([mem(0), mem(64), mem(1 << 30), Limits::unlimited()])
            .collect();
        for limits in rungs {
            let mut want: Option<(Outcome, Option<u64>)> = None;
            for (fuse, compiled) in &builds {
                for t in THREADS {
                    let opts = RunOptions {
                        threads: Some(t),
                        limits,
                        faults: None,
                        ceiling: None,
                    };
                    let r = run_with_options(compiled, inputs, &funcs, &opts);
                    let fuel_left = r.as_ref().ok().and_then(|o| o.fuel_left);
                    let got = (outcome(&r), fuel_left);
                    match &want {
                        None => want = Some(got),
                        Some(w) => assert_eq!(
                            &got, w,
                            "{label} {limits:?}: fuse={fuse} @{t}t \
                             diverged from the scalar-tape baseline"
                        ),
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// SharedCeiling: a per-request budget admitted against the global pool
// must behave *bit-identically* to the same budget with no pool behind
// it — on every engine, at every thread count.
// That is the settlement rule made testable: admission reserves the
// whole budget up front, so execution only ever sees local counters.
// ---------------------------------------------------------------------

/// Roomy pool: admission always succeeds, so any divergence would come
/// from the settlement machinery itself.
fn big_pool() -> Limits {
    Limits {
        fuel: Some(1 << 40),
        mem_bytes: Some(1 << 40),
    }
}

/// Run `src` under `limits` admitted against a fresh ceiling, for every
/// engine × thread count, and demand the exact outcome
/// of the unpooled baseline (which `diff_limits` has already proven
/// engine-invariant).
fn diff_ceiling(
    label: &str,
    src: &str,
    env: &ConstEnv,
    inputs: &HashMap<String, ArrayBuf>,
    limits: Limits,
) {
    let want = diff_limits(label, src, env, inputs, limits);
    let program = parse_program(src).unwrap();
    let funcs = FuncTable::new();
    for (engine, t) in MATRIX {
        let compiled = compile(
            &program,
            env,
            &CompileOptions {
                engine,
                ..CompileOptions::default()
            },
        )
        .unwrap();
        let opts = RunOptions {
            threads: Some(t),
            limits,
            faults: None,
            ceiling: Some(SharedCeiling::new(big_pool())),
        };
        let got = outcome(&run_with_options(&compiled, inputs, &funcs, &opts));
        assert_eq!(
            got, want,
            "{label} {limits:?}: {engine:?}@{t}t under ceiling vs unpooled baseline"
        );
    }
}

#[test]
fn ceiling_admitted_budgets_exhaust_identically_everywhere() {
    let kernels: Vec<(&str, &str, ConstEnv, HashMap<String, ArrayBuf>)> = vec![
        (
            "wavefront",
            wl::wavefront_source(),
            ConstEnv::from_pairs([("n", 10)]),
            HashMap::new(),
        ),
        (
            "deforest",
            wl::deforest_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 23))]),
        ),
        (
            "thomas",
            wl::thomas_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("d".to_string(), wl::random_vector(24, 7))]),
        ),
        (
            "sor",
            wl::sor_source(),
            ConstEnv::from_pairs([("n", 8)]),
            HashMap::from([("a".to_string(), wl::random_matrix(8, 8, 17))]),
        ),
    ];
    for (label, src, env, inputs) in &kernels {
        for f in [0, 7, 1009] {
            diff_ceiling(label, src, env, inputs, fuel(f));
        }
        for m in [64, 1 << 30] {
            diff_ceiling(label, src, env, inputs, mem(m));
        }
        diff_ceiling(label, src, env, inputs, Limits::unlimited());
    }
}

/// A request with *no* local fuel cap under a capped pool draws blocks
/// lazily. Alone on a fresh pool its exhaustion point is still
/// deterministic — the pool is drained after exactly `pool` charges —
/// and must not depend on engine or thread count. (The tape engine
/// runs such meters on the sequential path; the outcome, not the path,
/// is what's asserted.)
#[test]
fn lazy_ceiling_draws_exhaust_identically_everywhere() {
    let env = ConstEnv::from_pairs([("n", 10)]);
    let inputs = HashMap::new();
    let program = parse_program(wl::wavefront_source()).unwrap();
    let funcs = FuncTable::new();
    for pool_fuel in [0u64, 23, 1009, 1 << 30] {
        let mut outcomes: Vec<(String, Outcome)> = Vec::new();
        for (engine, t) in MATRIX {
            let compiled = compile(
                &program,
                &env,
                &CompileOptions {
                    engine,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            // Fresh pool per run: spent fuel never returns, so a shared
            // pool would conflate runs.
            let pool = SharedCeiling::new(Limits {
                fuel: Some(pool_fuel),
                mem_bytes: None,
            });
            let opts = RunOptions {
                threads: Some(t),
                limits: Limits::unlimited(),
                faults: None,
                ceiling: Some(pool),
            };
            let got = outcome(&run_with_options(&compiled, &inputs, &funcs, &opts));
            outcomes.push((format!("{engine:?}@{t}t"), got));
        }
        let (first_label, want) = outcomes[0].clone();
        for (label, got) in &outcomes {
            assert_eq!(
                got, &want,
                "pool_fuel={pool_fuel}: `{label}` diverged from `{first_label}`"
            );
        }
        // The n=10 wavefront retires ~100 metered ops, so pools below
        // that must trip and the roomy ones must complete.
        if pool_fuel < 100 {
            assert!(
                matches!(&want, Err(e) if e.contains("CeilingExhausted")),
                "pool_fuel={pool_fuel}: tight pool must trip, got {want:?}"
            );
        } else {
            assert!(want.is_ok(), "roomy pool completes: {want:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Property: per-request meters racing on one SharedCeiling never
// over-commit the pool, and every request's outcome — success/error,
// remaining fuel, output bits — equals its *solo* run with the same
// budget and no pool at all. Sibling scheduling is invisible.
// ---------------------------------------------------------------------

/// The comparable observables of one harness run: result, remaining
/// fuel, and (on success) the output array's bounds and value bits.
type HarnessOutcome = (Result<(), String>, u64, Option<(Vec<(i64, i64)>, Vec<u64>)>);

/// Run the harness program once on the sequential tape engine under
/// `meter`; returns the comparable outcome and the surviving meter.
fn run_harness_once(prog: &LProgram, meter: Meter) -> (HarnessOutcome, Meter) {
    let ctx = TapeCtx {
        shapes: HashMap::from([("u".to_string(), vec![(1i64, 12i64)])]),
        consts: HashMap::from([("n".to_string(), 8i64)]),
        globals: vec!["g".to_string()],
        ..TapeCtx::default()
    };
    let tape = compile_tape(prog, &ctx);
    let mut vm = Vm::new();
    let mut u = ArrayBuf::new(&[(1, 12)], 0.0);
    for i in 1..=12 {
        u.set("u", &[i], (i * i) as f64 * 0.25 - 3.0).unwrap();
    }
    vm.bind("u", u);
    vm.set_global("n", 8.0);
    vm.set_global("g", 2.5);
    vm.with_meter(meter);
    let r = vm.run_tape(&tape, 1).map_err(|e| format!("{e:?}"));
    let meter = vm.take_meter();
    let bits = r.is_ok().then(|| buf_bits(vm.array("out").unwrap()));
    ((r, meter.fuel_left(), bits), meter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn racing_request_meters_stay_isolated_and_account_exactly(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 1));
        let prog = harness_program(g.expr(2));

        // Six tenants with assorted finite fuel budgets (some starved,
        // some comfortable) and a mix of tight/roomy/absent memory
        // caps. The harness allocates one 8-element unchecked array:
        // 64 footprint bytes, so 63 trips and 64 fits.
        let mut rng = wl::XorShift::new(seed ^ 0x5eed);
        let budgets: Vec<Limits> = (0..6)
            .map(|i| Limits {
                fuel: Some(rng.next_u64() % 60),
                mem_bytes: match i % 3 {
                    0 => Some(64),
                    1 => Some(63),
                    _ => None,
                },
            })
            .collect();

        // Solo baselines: same budgets, no pool.
        let solo: Vec<_> = budgets
            .iter()
            .map(|l| run_harness_once(&prog, Meter::new(*l)).0)
            .collect();

        // One pool covering every reservation.
        let pool_fuel: u64 = budgets.iter().map(|l| l.fuel.unwrap()).sum();
        let pool_mem: u64 = budgets.iter().map(|l| l.mem_bytes.unwrap_or(0)).sum();
        let ceiling = SharedCeiling::new(Limits {
            fuel: Some(pool_fuel),
            mem_bytes: Some(pool_mem),
        });

        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = budgets
                .iter()
                .map(|l| {
                    let ceiling = &ceiling;
                    let prog = &prog;
                    scope.spawn(move || {
                        let meter = Meter::admit(*l, ceiling).expect("pool covers all budgets");
                        let (got, mut meter) = run_harness_once(prog, meter);
                        let spent = l.fuel.unwrap() - meter.fuel_left();
                        meter.settle();
                        (got, spent)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let mut total_spent = 0u64;
        for (i, ((got, spent), want)) in results.iter().zip(&solo).enumerate() {
            prop_assert_eq!(
                got, want,
                "tenant {} under racing pool vs solo (budget {:?})", i, budgets[i]
            );
            total_spent += spent;
        }

        // Exact settlement accounting: fuel spent is gone for good,
        // memory came back in full.
        prop_assert_eq!(ceiling.fuel_available(), pool_fuel - total_spent);
        prop_assert_eq!(ceiling.mem_available(), pool_mem);
    }
}
