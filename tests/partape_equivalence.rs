//! Differential tests for the tape engine's §10 parallel regions: on
//! every workload kernel, and on randomly generated well-formed
//! programs, the tape at 2, 4, and 8 threads must be *bit-identical*
//! to the one-worker tape — same arrays to the last mantissa bit, same
//! scalars, the same runtime errors (deterministic lowest-iteration
//! selection), and *exactly* the same instrumentation counters,
//! including `tape_ops`.
//!
//! Kernels with loop-carried dependences (SOR, the linear recurrence)
//! compile to zero parallel regions — the fallback path — and still
//! pass the same bitwise comparison.

use std::collections::HashMap;

use hac_codegen::limp::{LProgram, LStmt, StoreCheck, Vm, VmCounters};
use hac_codegen::partape::plan_tape;
use hac_codegen::tape::{compile_tape, TapeCtx};
use hac_core::pipeline::{
    compile, run, run_with_threads, CompileOptions, Compiled, ExecOutput, Unit,
};
use hac_lang::ast::{BinOp, Expr, UnOp};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads as wl;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn buf_bits(b: &ArrayBuf) -> (Vec<(i64, i64)>, Vec<u64>) {
    (b.bounds(), b.data().iter().map(|v| v.to_bits()).collect())
}

/// Zero the fault-recovery counter before comparing. This only matters
/// for tests that inject faults — everything other than the recovery
/// count must still merge exactly.
fn sans_faults(mut c: VmCounters) -> VmCounters {
    c.engine_faults = 0;
    c
}

/// Both runs execute a tape, so *every* counter — `tape_ops` included —
/// must merge to exactly the sequential value.
fn assert_outputs_identical(par: &ExecOutput, seq: &ExecOutput, label: &str) {
    let mut pn: Vec<&String> = par.arrays.keys().collect();
    let mut sn: Vec<&String> = seq.arrays.keys().collect();
    pn.sort();
    sn.sort();
    assert_eq!(pn, sn, "{label}: same arrays bound");
    for name in pn {
        assert_eq!(
            buf_bits(&par.arrays[name]),
            buf_bits(&seq.arrays[name]),
            "{label}: array `{name}` bit-identical"
        );
    }
    let mut ps: Vec<(&String, u64)> = par.scalars.iter().map(|(n, v)| (n, v.to_bits())).collect();
    let mut ss: Vec<(&String, u64)> = seq.scalars.iter().map(|(n, v)| (n, v.to_bits())).collect();
    ps.sort();
    ss.sort();
    assert_eq!(ps, ss, "{label}: scalars bit-identical");
    assert_eq!(
        sans_faults(par.counters.vm),
        sans_faults(seq.counters.vm),
        "{label}: VM counters (incl. tape_ops) agree"
    );
    assert_eq!(
        par.counters.thunked, seq.counters.thunked,
        "{label}: thunk counters agree"
    );
}

/// Total parallel regions across a compilation's units.
fn par_regions(compiled: &Compiled) -> usize {
    compiled
        .units
        .iter()
        .map(|u| match u {
            Unit::Thunkless { tape, .. } | Unit::Update { tape, .. } => {
                tape.as_ref().map_or(0, |t| plan_tape(t).region_count())
            }
            _ => 0,
        })
        .sum()
}

/// Compile `src`, run it at every thread count against the one-worker
/// baseline, and return the compilation for region assertions.
fn diff_kernel(
    label: &str,
    src: &str,
    env: &ConstEnv,
    inputs: &HashMap<String, ArrayBuf>,
) -> Compiled {
    let program = parse_program(src).unwrap();
    let funcs = FuncTable::new();
    let compiled = compile(&program, env, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{label}: compile: {e}"));
    let want = run(&compiled, inputs, &funcs).unwrap_or_else(|e| panic!("{label}: run: {e}"));
    for threads in &THREADS[1..] {
        let got = run_with_threads(&compiled, inputs, &funcs, *threads)
            .unwrap_or_else(|e| panic!("{label}: run @{threads}t: {e}"));
        assert_outputs_identical(&got, &want, &format!("{label} @{threads}t"));
    }
    compiled
}

#[test]
fn closed_form_kernels_agree() {
    for (label, src, n) in [
        ("wavefront", wl::wavefront_source(), 12),
        ("section5_example1", wl::section5_example1_source(), 50),
        ("recurrence", wl::recurrence_source(), 200),
        ("pascal", wl::pascal_source(), 16),
    ] {
        let env = ConstEnv::from_pairs([("n", n)]);
        diff_kernel(label, src, &env, &HashMap::new());
    }
}

#[test]
fn section5_example2_agrees() {
    let env = ConstEnv::from_pairs([("m", 7), ("n", 9)]);
    diff_kernel(
        "section5_example2",
        wl::section5_example2_source(),
        &env,
        &HashMap::new(),
    );
}

#[test]
fn vector_input_kernels_agree() {
    let n = 32;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("u".to_string(), wl::random_vector(n, 23));
    for (label, src) in [
        ("deforest", wl::deforest_source()),
        ("permutation", wl::permutation_source()),
        ("histogram", wl::histogram_source()),
        ("prefix_sum", wl::prefix_sum_source()),
        ("running_max", wl::running_max_source()),
        ("convolution", wl::convolution_source()),
        ("relaxation", wl::relaxation_source()),
    ] {
        diff_kernel(label, src, &env, &inputs);
    }
}

#[test]
fn thomas_agrees() {
    let n = 40;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("d".to_string(), wl::random_vector(n, 7));
    diff_kernel("thomas", wl::thomas_source(), &env, &inputs);
}

#[test]
fn update_kernels_agree() {
    let n = 10;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), wl::random_matrix(n, n, 11));
    diff_kernel("jacobi", wl::jacobi_source(), &env, &inputs);
    diff_kernel("jacobi_step", wl::jacobi_step_source(), &env, &inputs);
    diff_kernel("sor", wl::sor_source(), &env, &inputs);

    let (m, n) = (6, 9);
    let env = ConstEnv::from_pairs([("m", m), ("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), wl::random_matrix(m, n, 17));
    diff_kernel("row_swap", wl::row_swap_source(), &env, &inputs);
    diff_kernel("row_scale", wl::row_scale_source(), &env, &inputs);
    diff_kernel("saxpy", wl::saxpy_source(), &env, &inputs);
}

#[test]
fn matrix_input_kernels_agree() {
    let n = 8;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("x".to_string(), wl::random_matrix(n, n, 31));
    inputs.insert("y".to_string(), wl::random_matrix(n, n, 37));
    diff_kernel("matmul", wl::matmul_source(), &env, &inputs);

    let mut inputs = HashMap::new();
    inputs.insert("za".to_string(), wl::random_matrix(n, n, 41));
    inputs.insert("zr".to_string(), wl::random_matrix(n, n, 43));
    inputs.insert("zb".to_string(), wl::random_matrix(n, n, 47));
    diff_kernel("lk23", wl::lk23_source(), &env, &inputs);

    let env = ConstEnv::from_pairs([("n", 24), ("m", 10)]);
    let mut inputs = HashMap::new();
    inputs.insert("u0".to_string(), wl::random_vector(24, 53));
    diff_kernel("heat1d", wl::heat1d_source(), &env, &inputs);
}

#[test]
fn dependence_free_kernels_get_parallel_regions() {
    let n = 16;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), wl::random_matrix(n, n, 61));
    let c = diff_kernel("jacobi_step", wl::jacobi_step_source(), &env, &inputs);
    assert!(par_regions(&c) > 0, "out-of-place jacobi parallelizes");

    let mut inputs = HashMap::new();
    inputs.insert("u".to_string(), wl::random_vector(n, 67));
    let c = diff_kernel("relaxation", wl::relaxation_source(), &env, &inputs);
    assert!(par_regions(&c) > 0, "relaxation parallelizes");
    let c = diff_kernel("permutation", wl::permutation_source(), &env, &inputs);
    assert!(par_regions(&c) > 0, "permutation parallelizes");
    let c = diff_kernel("deforest", wl::deforest_source(), &env, &inputs);
    assert!(par_regions(&c) > 0, "deforest parallelizes");
}

#[test]
fn carried_dependence_kernels_fall_back_sequential() {
    // SOR's wavefront flow dependence and the first-order recurrence
    // both carry on every loop: §10 refuses, so the tape plans zero
    // regions and runs the plain sequential dispatch path.
    let n = 12;
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), wl::random_matrix(n, n, 71));
    let c = diff_kernel("sor", wl::sor_source(), &env, &inputs);
    assert_eq!(par_regions(&c), 0, "sor must stay sequential");

    let c = diff_kernel("recurrence", wl::recurrence_source(), &env, &HashMap::new());
    assert_eq!(par_regions(&c), 0, "recurrence must stay sequential");
}

#[test]
fn sequential_inner_loop_fuses_inside_parallel_region() {
    // Independent rows, carried columns: the outer `i` loop is a
    // parallel region and every chunk runs the fused in-order `j` loop
    // on its sequential dispatch.
    let n = 12;
    let env = ConstEnv::from_pairs([("n", n)]);
    let u = wl::random_matrix(n, n, 79);
    let inputs = HashMap::from([("u".to_string(), u.clone())]);
    let c = diff_kernel("row_scan", wl::row_scan_source(), &env, &inputs);
    assert!(par_regions(&c) > 0, "independent rows parallelize");
    assert!(
        c.report
            .render()
            .contains("fusion for j in [2..12]: fused (generic micro-kernel)"),
        "the carried column loop fuses:\n{}",
        c.report.render()
    );
    let got = run(&c, &inputs, &FuncTable::new()).unwrap();
    assert_eq!(
        buf_bits(&got.arrays["a"]),
        buf_bits(&wl::row_scan_oracle(&u, n)),
        "row_scan matches the hand-coded oracle bit for bit"
    );
}

// ---------------------------------------------------------------------
// Property: random well-formed expression trees evaluate identically
// on the parallel tape at every thread count — NaN propagation, lazy errors
// (deterministic lowest-ordinal selection), and exact counters.
// ---------------------------------------------------------------------

/// Deterministic expression generator (mirrors `tape_equivalence.rs`).
struct Gen(wl::XorShift);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn expr(&mut self, depth: u32) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(10) {
            0..=2 => self.leaf(),
            3..=5 => {
                let op = self.binop();
                let lhs = self.expr(depth - 1);
                let rhs = if op == BinOp::Mod {
                    Expr::int([1, 2, 3, 5, -3][self.below(5) as usize])
                } else {
                    self.expr(depth - 1)
                };
                Expr::bin(op, lhs, rhs)
            }
            6 => Expr::Unary {
                op: [
                    UnOp::Neg,
                    UnOp::Not,
                    UnOp::Abs,
                    UnOp::Sqrt,
                    UnOp::Exp,
                    UnOp::Log,
                    UnOp::Sin,
                    UnOp::Cos,
                ][self.below(8) as usize],
                expr: Box::new(self.expr(depth - 1)),
            },
            7 => Expr::If {
                cond: Box::new(self.expr(depth - 1)),
                then: Box::new(self.expr(depth - 1)),
                els: Box::new(self.expr(depth - 1)),
            },
            8 => Expr::Let {
                binds: vec![("t".to_string(), self.expr(depth - 1))],
                body: Box::new(self.expr(depth - 1)),
            },
            _ => match self.below(4) {
                0 => Expr::Call {
                    func: "sqrt".to_string(),
                    args: vec![self.expr(depth - 1)],
                },
                1 => Expr::Call {
                    func: "hypot".to_string(),
                    args: vec![self.expr(depth - 1), self.expr(depth - 1)],
                },
                2 => Expr::Call {
                    func: "mystery".to_string(),
                    args: vec![self.expr(depth - 1)],
                },
                _ => Expr::index1("u", self.expr(depth - 1)),
            },
        }
    }

    fn leaf(&mut self) -> Expr {
        match self.below(12) {
            0..=2 => Expr::int(self.below(12) as i64 - 3),
            3 => Expr::num([0.0, 1.5, -2.5, 0.5, f64::NAN, f64::INFINITY][self.below(6) as usize]),
            4..=6 => Expr::var("i"),
            7 => Expr::var("g"),
            8 => Expr::var("n"),
            9 => Expr::var("nope"),
            10 => Expr::index1(
                "u",
                Expr::add(Expr::var("i"), Expr::int(self.below(4) as i64)),
            ),
            _ => Expr::index1("w", Expr::var("i")),
        }
    }

    fn binop(&mut self) -> BinOp {
        [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Mod,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
            BinOp::And,
            BinOp::Or,
            BinOp::Min,
            BinOp::Max,
        ][self.below(15) as usize]
    }
}

/// Wrap a generated value expression in an `1..=8` loop storing into
/// `out`. The loop is marked `par` only for the injective store
/// subscripts — exactly the invariant the real compiler's §10 verdict
/// guarantees (colliding variants would be a genuine data race, which
/// is why `lower` never marks such a loop).
fn harness_program(value: Expr, variant: u64) -> LProgram {
    let sub = match variant % 5 {
        0 | 1 => Expr::var("i"),
        // OOB at i = 8 (out has bounds (1,8)) — error at the last
        // ordinal, exercising the chunk merge's success prefix.
        2 => Expr::add(Expr::var("i"), Expr::int(1)),
        // OOB immediately at i = 1 — error at ordinal 0.
        3 => Expr::sub(Expr::var("i"), Expr::int(1)),
        // Collides at i = 3: NOT injective, so never `par`.
        _ => Expr::add(
            Expr::bin(BinOp::Mod, Expr::var("i"), Expr::int(2)),
            Expr::int(1),
        ),
    };
    let injective = variant % 5 != 4;
    let checked = variant.is_multiple_of(2);
    LProgram {
        stmts: vec![
            LStmt::Alloc {
                array: "out".to_string(),
                bounds: vec![(1, 8)],
                fill: 0.0,
                temp: false,
                checked,
            },
            LStmt::For {
                var: "i".to_string(),
                start: 1,
                end: 8,
                step: 1,
                par: injective,
                red: false,
                body: vec![LStmt::Store {
                    array: "out".to_string(),
                    subs: vec![sub],
                    value,
                    check: if checked {
                        StoreCheck::Monolithic
                    } else {
                        StoreCheck::None
                    },
                }],
            },
        ],
        result: "out".to_string(),
    }
}

fn fresh_vm() -> Vm {
    let mut vm = Vm::new();
    let mut u = ArrayBuf::new(&[(1, 12)], 0.0);
    for i in 1..=12 {
        u.set("u", &[i], (i * i) as f64 * 0.25 - 3.0).unwrap();
    }
    vm.bind("u", u);
    vm.set_global("n", 8.0);
    vm.set_global("g", 2.5);
    vm
}

/// Run the sequential tape vs the parallel tape at every thread count, demanding
/// identical outcomes: bit-identical arrays on success, identical
/// errors (Debug-rendered, for NaN payload parity) on failure, and
/// exactly equal counters either way.
fn diff_random(prog: &LProgram) {
    let ctx = TapeCtx {
        shapes: HashMap::from([("u".to_string(), vec![(1i64, 12i64)])]),
        consts: HashMap::from([("n".to_string(), 8i64)]),
        globals: vec!["g".to_string()],
        ..TapeCtx::default()
    };
    let tape = compile_tape(prog, &ctx);

    let mut svm = fresh_vm();
    let sr = svm.run_tape(&tape, 1);
    for threads in THREADS {
        let mut pvm = fresh_vm();
        let pr = pvm.run_tape(&tape, threads);
        match (&sr, &pr) {
            (Ok(()), Ok(())) => {
                assert_eq!(
                    buf_bits(svm.array("out").unwrap()),
                    buf_bits(pvm.array("out").unwrap()),
                    "threads={threads}: arrays bit-identical\nprog:\n{}",
                    prog.render()
                );
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "threads={threads}: identical errors\nprog:\n{}",
                    prog.render()
                );
            }
            _ => panic!(
                "threads={threads}: engines disagree: tape={sr:?} partape={pr:?}\nprog:\n{}",
                prog.render()
            ),
        }
        assert_eq!(
            sans_faults(svm.counters),
            sans_faults(pvm.counters),
            "threads={threads}: counters agree\nprog:\n{}",
            prog.render()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_programs_agree(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 1));
        let depth = 2 + (seed % 3) as u32;
        let value = g.expr(depth);
        let prog = harness_program(value, seed / 7);
        diff_random(&prog);
    }
}

#[test]
fn error_ordinal_selection_is_deterministic() {
    // Both OOB shapes — fault at the last ordinal (variant 7 ≡ 2 mod 5)
    // and at ordinal 0 (variant 3) — odd, so the stores are unchecked
    // and the loop is a genuine parallel region.
    for variant in [7u64, 3] {
        diff_random(&harness_program(Expr::var("i"), variant));
    }
    // And explicitly: NaN values flowing through the parallel store.
    let nan = Expr::bin(BinOp::Div, Expr::num(0.0), Expr::num(0.0));
    diff_random(&harness_program(nan, 1));
}
