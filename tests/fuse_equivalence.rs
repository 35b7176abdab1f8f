//! Differential tests for the fused vector-kernel lowering: the
//! fusion pass must be *unobservable* except in wall-clock time. With
//! and without `Op::VecLoop` superinstructions, every run must produce
//! bit-identical array values, the same error payloads, the same work
//! counters (including `tape_ops`, which fused loops bulk-charge by
//! the closed-form contract in `hac_codegen::tape`), and the same
//! remaining fuel — on the tape engine at 1/2/4/8 threads, under
//! tight fuel and memory budgets, and with injected worker faults. The
//! scalar tape is the oracle; fusion is pure mechanism.

use std::collections::HashMap;

use hac_codegen::fuse::{fuse_tape, FuseDecision};
use hac_codegen::limp::{LProgram, LStmt, StoreCheck, Vm, VmCounters};
use hac_codegen::partape::plan_tape;
use hac_codegen::tape::{compile_tape, RegOp, Src, TapeCtx};
use hac_core::pipeline::{
    compile, run_with_options, CompileOptions, Compiled, ExecOutput, RunOptions,
};
use hac_lang::ast::{BinOp, Expr, UnOp};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::governor::{FaultPlan, Limits, Meter};
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads as wl;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn buf_bits(b: &ArrayBuf) -> (Vec<(i64, i64)>, Vec<u64>) {
    (b.bounds(), b.data().iter().map(|v| v.to_bits()).collect())
}

fn sans_faults(mut c: VmCounters) -> VmCounters {
    c.engine_faults = 0;
    c
}

/// Everything a run can show the outside world, collapsed to an
/// equatable value. On success: sorted array bits, sorted scalar bits,
/// the full VM counter block (engine faults zeroed — recovery count is
/// scheduling-dependent), and fuel left. On failure: the
/// Debug-rendered error, for payload parity.
type Snapshot = Result<
    (
        Vec<(String, (Vec<(i64, i64)>, Vec<u64>))>,
        Vec<(String, u64)>,
        VmCounters,
        Option<u64>,
    ),
    String,
>;

fn snapshot(r: &Result<ExecOutput, hac_runtime::RuntimeError>) -> Snapshot {
    match r {
        Ok(out) => {
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
            Ok((arrays, scalars, sans_faults(out.counters.vm), out.fuel_left))
        }
        Err(e) => Err(format!("{e:?}")),
    }
}

fn build(program: &hac_lang::ast::Program, env: &ConstEnv, fuse: bool) -> Compiled {
    compile(
        program,
        env,
        &CompileOptions {
            fuse,
            ..CompileOptions::default()
        },
    )
    .unwrap()
}

/// Compile `src` with and without fusion, run both builds under
/// `limits` at every thread count, and demand that every run matches
/// the unfused one-worker oracle exactly.
/// Returns true when the fused build actually contains a fused loop
/// (so callers can assert the suite is not vacuously passing).
fn diff_fusion(
    label: &str,
    src: &str,
    env: &ConstEnv,
    inputs: &HashMap<String, ArrayBuf>,
    limits: Limits,
) -> bool {
    let program = parse_program(src).unwrap();
    let funcs = FuncTable::new();
    let tape_plain = build(&program, env, false);
    let tape_fused = build(&program, env, true);

    let opts = |threads| RunOptions {
        threads: Some(threads),
        limits,
        faults: None,
        ceiling: None,
    };
    let want = snapshot(&run_with_options(&tape_plain, inputs, &funcs, &opts(1)));
    for threads in THREADS {
        let plain = snapshot(&run_with_options(
            &tape_plain,
            inputs,
            &funcs,
            &opts(threads),
        ));
        let fused = snapshot(&run_with_options(
            &tape_fused,
            inputs,
            &funcs,
            &opts(threads),
        ));
        assert_eq!(
            plain, want,
            "{label} {limits:?}: scalar tape @{threads}t vs @1t"
        );
        assert_eq!(
            fused, want,
            "{label} {limits:?}: fused tape @{threads}t vs scalar @1t"
        );
    }

    let fused_somewhere = |c: &Compiled| {
        c.report
            .arrays
            .iter()
            .flat_map(|a| a.fusion.iter())
            .chain(c.report.updates.iter().flat_map(|u| u.fusion.iter()))
            .any(|f| f.kernel.is_some())
    };
    assert!(
        !fused_somewhere(&tape_plain),
        "{label}: fuse:false must not run the pass"
    );
    fused_somewhere(&tape_fused)
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

/// Every workload kernel under a fuel ladder straddling "trips before
/// the loop", "exhausts mid-kernel", and "completes", plus tight and
/// roomy memory caps. At least half the kernels must genuinely fuse a
/// loop, or the differential property is vacuous.
#[test]
fn kernels_agree_fused_vs_unfused_under_budgets() {
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
            "jacobi",
            wl::jacobi_source(),
            ConstEnv::from_pairs([("n", 8)]),
            HashMap::from([("a".to_string(), wl::random_matrix(8, 8, 11))]),
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
        (
            "saxpy",
            wl::saxpy_source(),
            ConstEnv::from_pairs([("m", 4), ("n", 40)]),
            HashMap::from([("a".to_string(), wl::random_matrix(4, 40, 3))]),
        ),
        (
            "convolution",
            wl::convolution_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 37))]),
        ),
        (
            "deforest",
            wl::deforest_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 23))]),
        ),
        (
            "prefix_sum",
            wl::prefix_sum_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 31))]),
        ),
        (
            "permutation",
            wl::permutation_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 29))]),
        ),
        (
            "wavefront",
            wl::wavefront_source(),
            ConstEnv::from_pairs([("n", 10)]),
            HashMap::new(),
        ),
        (
            "thomas",
            wl::thomas_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("d".to_string(), wl::random_vector(24, 7))]),
        ),
        (
            "dot",
            wl::dot_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([
                ("a".to_string(), wl::random_vector(24, 43)),
                ("b".to_string(), wl::random_vector(24, 47)),
            ]),
        ),
        (
            "matvec",
            wl::matvec_source(),
            ConstEnv::from_pairs([("n", 12)]),
            HashMap::from([
                ("m".to_string(), wl::random_matrix(12, 12, 53)),
                ("x".to_string(), wl::random_vector(12, 59)),
            ]),
        ),
        (
            "running_max",
            wl::running_max_source(),
            ConstEnv::from_pairs([("n", 24)]),
            HashMap::from([("u".to_string(), wl::random_vector(24, 67))]),
        ),
        (
            // A carried column loop inside a parallel row loop.
            "row_scan",
            wl::row_scan_source(),
            ConstEnv::from_pairs([("n", 10)]),
            HashMap::from([("u".to_string(), wl::random_matrix(10, 10, 79))]),
        ),
        (
            // Stride-2 reads against a unit-stride destination.
            "downsample",
            DOWNSAMPLE_SOURCE,
            ConstEnv::from_pairs([("n", 16)]),
            HashMap::from([("u".to_string(), wl::random_vector(32, 71))]),
        ),
        (
            // Stride-2 destinations (two interleaved clauses).
            "interleave",
            INTERLEAVE_SOURCE,
            ConstEnv::from_pairs([("n", 16)]),
            HashMap::from([("u".to_string(), wl::random_vector(16, 73))]),
        ),
    ];
    let total = kernels.len();
    let mut fused = Vec::new();
    for (label, src, env, inputs) in &kernels {
        let mut any = false;
        for f in [0, 1, 7, 23, 101, 1009, 20011] {
            any |= diff_fusion(label, src, env, inputs, fuel(f));
        }
        any |= diff_fusion(label, src, env, inputs, Limits::unlimited());
        for m in [0, 64, 1 << 30] {
            any |= diff_fusion(label, src, env, inputs, mem(m));
        }
        if any {
            fused.push(*label);
        }
    }
    assert!(
        fused.len() >= 9,
        "fusion must actually engage on the affine kernels: {} of {total} fused",
        fused.len()
    );
    // The paper's sequential recurrences fuse on the in-order
    // micro-kernel. (The in-place `jacobi` does not: node splitting
    // indexes its carry buffers with `mod 2`, a dynamic subscript.)
    for carried in ["sor", "wavefront", "thomas", "row_scan"] {
        assert!(
            fused.contains(&carried),
            "carried kernel `{carried}` must fuse a loop; fused: {fused:?}"
        );
    }
}

/// `d!i := u!(2i) - u!(2i-1)`: stride-2 source streams feeding a
/// unit-stride destination — the strided `ReadLin` contract.
const DOWNSAMPLE_SOURCE: &str = r#"
param n;
input u (1,2*n);
let d = array (1,n) [ i := u!(2*i) - u!(2*i-1) | i <- [1..n] ];
result d;
"#;

/// Two interleaved clauses with stride-2 destination windows.
const INTERLEAVE_SOURCE: &str = r#"
param n;
input u (1,n);
let d = array (1,2*n)
   ([ 2*i-1 := u!i | i <- [1..n] ] ++
    [ 2*i := u!i + 1.0 | i <- [1..n] ]);
result d;
"#;

/// Injected worker panics and allocation failures with fusion on: the
/// answer, counters, and meter state must match the unfused fault-free
/// run bit-for-bit; only the recovery counter may move.
#[test]
fn fused_runs_absorb_injected_faults_identically() {
    let env = ConstEnv::from_pairs([("n", 16)]);
    let inputs = HashMap::from([("a".to_string(), wl::random_matrix(16, 16, 61))]);
    let program = parse_program(wl::jacobi_step_source()).unwrap();
    let funcs = FuncTable::new();
    let plain = build(&program, &env, false);
    let fused = build(&program, &env, true);

    let baseline = snapshot(&run_with_options(
        &plain,
        &inputs,
        &funcs,
        &RunOptions {
            threads: Some(4),
            limits: Limits::unlimited(),
            faults: None,
            ceiling: None,
        },
    ));
    for spec in ["", "r0c0:panic", "r0c1:allocfail", "seed:1009"] {
        for threads in THREADS {
            let got = snapshot(&run_with_options(
                &fused,
                &inputs,
                &funcs,
                &RunOptions {
                    threads: Some(threads),
                    limits: Limits::unlimited(),
                    faults: Some(FaultPlan::parse(spec).unwrap()),
                    ceiling: None,
                },
            ));
            assert_eq!(
                got, baseline,
                "fused @{threads}t under fault plan `{spec}` vs unfused fault-free run"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Property: on randomly generated parallel affine loops — the shapes
// the fusion pass targets — fusing the compiled tape changes nothing
// observable at any fuel budget or thread count. The generator mixes
// fusable bodies (straight-line arithmetic over stride-1 reads) with
// shapes the pass must decline (conditionals, calls), so both the
// fused path and the decline path are exercised against the oracle.
// ---------------------------------------------------------------------

/// Expression generator; the flag lets leaves read the loop's own
/// output array at a carried offset (see [`Gen::carried_read`]).
struct Gen(wl::XorShift, bool);

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.0.next_u64() % n
    }

    fn expr(&mut self, depth: u32, fusable: bool) -> Expr {
        if depth == 0 {
            return self.leaf();
        }
        match self.below(10) {
            0..=1 => self.leaf(),
            2..=4 => {
                let op = self.op();
                Expr::bin(
                    op,
                    self.expr(depth - 1, fusable),
                    self.expr(depth - 1, fusable),
                )
            }
            5 => Expr::Unary {
                op: [UnOp::Neg, UnOp::Abs, UnOp::Sqrt][self.below(3) as usize],
                expr: Box::new(self.expr(depth - 1, fusable)),
            },
            6 if !fusable => Expr::If {
                cond: Box::new(self.expr(depth - 1, fusable)),
                then: Box::new(self.expr(depth - 1, fusable)),
                els: Box::new(self.expr(depth - 1, fusable)),
            },
            7 if !fusable => Expr::Call {
                func: "sqrt".to_string(),
                args: vec![self.expr(depth - 1, fusable)],
            },
            8 => {
                // `let t = a in t ⊕ b`: a body-local temporary.
                let a = self.expr(depth - 1, fusable);
                let op = self.op();
                let b = self.expr(depth - 1, fusable);
                let_t(a, Expr::bin(op, Expr::var("t"), b))
            }
            9 => {
                // `(let t = a in t) ⊕ (let t = b in t ⊕ c)`: the second
                // binding takes the first one's frame slot while the
                // first read of it is still on the operand stack.
                let first = let_t(self.expr(depth - 1, fusable), Expr::var("t"));
                let b = self.expr(depth - 1, fusable);
                let inner = self.op();
                let c = self.expr(depth - 1, fusable);
                let second = let_t(b, Expr::bin(inner, Expr::var("t"), c));
                Expr::bin(self.op(), first, second)
            }
            _ => self.leaf(),
        }
    }

    /// Any binary operator but the short-circuiting `&&`/`||`.
    fn op(&mut self) -> BinOp {
        [
            BinOp::Add,
            BinOp::Mul,
            BinOp::Sub,
            BinOp::Div,
            BinOp::Min,
            BinOp::Max,
            BinOp::Mod,
            BinOp::Lt,
            BinOp::Le,
            BinOp::Gt,
            BinOp::Ge,
            BinOp::Eq,
            BinOp::Ne,
        ][self.below(13) as usize]
    }

    fn leaf(&mut self) -> Expr {
        match self.below(8) {
            0..=1 => Expr::int(self.below(9) as i64 - 2),
            2..=3 => Expr::var("i"),
            4 => Expr::var("g"),
            _ => {
                if self.1 && self.below(2) == 0 {
                    return self.carried_read();
                }
                Expr::index1(
                    "u",
                    Expr::add(Expr::var("i"), Expr::int(self.below(3) as i64)),
                )
            }
        }
    }

    /// `out!(i-1)`, `out!(i-2)` or `out!(i+1)`: a flow carry on a
    /// forward loop and an anti carry on a backward one, or the reverse.
    fn carried_read(&mut self) -> Expr {
        let lag = [-1, -2, 1][self.below(3) as usize];
        Expr::index1("out", Expr::add(Expr::var("i"), Expr::int(lag)))
    }
}

/// `let t = rhs in body`.
fn let_t(rhs: Expr, body: Expr) -> Expr {
    Expr::Let {
        binds: vec![("t".to_string(), rhs)],
        body: Box::new(body),
    }
}

/// A proven-parallel 1..=8 loop storing the generated value — exactly
/// the shape `fuse_tape` targets when the body is straight-line.
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

/// The arrays a harness program may write: `out`, and `w` in the
/// two-array carried harness.
const OUTPUTS: [&str; 2] = ["out", "w"];

/// The compile context every harness program runs under: input `u` on
/// `(1,12)`, parameter `n = 8`, global `g`.
fn harness_ctx() -> TapeCtx {
    TapeCtx {
        shapes: HashMap::from([("u".to_string(), vec![(1i64, 12i64)])]),
        consts: HashMap::from([("n".to_string(), 8i64)]),
        globals: vec!["g".to_string()],
        ..TapeCtx::default()
    }
}

/// One generated loop, one fuel budget: the fused tape must match the
/// scalar tape on outcome, error payload, remaining fuel, output bits,
/// and the *complete* counter block — `tape_ops` included, because the
/// bulk-charge contract says a fused loop reports the same dispatch
/// count the scalar loop would have.
fn diff_random_fusion(prog: &LProgram, fuel: u64) -> FuseDecision {
    let scalar = compile_tape(prog, &harness_ctx());
    let mut fused = scalar.clone();
    let mut decisions = fuse_tape(&mut fused);
    assert_eq!(decisions.len(), 1, "one loop, one verdict");

    let mut svm = fresh_vm(fuel);
    let sr = svm.run_tape(&scalar, 1).map_err(|e| format!("{e:?}"));
    let sleft = svm.take_meter().fuel_left();

    let label = |eng: &str| format!("fuel={fuel} {eng}\nprog:\n{}", prog.render());

    let mut fvm = fresh_vm(fuel);
    let fr = fvm.run_tape(&fused, 1).map_err(|e| format!("{e:?}"));
    let fleft = fvm.take_meter().fuel_left();
    assert_eq!(fr, sr, "{}", label("fused vs scalar tape: outcome"));
    assert_eq!(fleft, sleft, "{}", label("fused vs scalar tape: fuel left"));
    if fr.is_ok() {
        for a in OUTPUTS.iter().filter(|a| svm.array(a).is_some()) {
            assert_eq!(
                buf_bits(fvm.array(a).unwrap()),
                buf_bits(svm.array(a).unwrap()),
                "{}",
                label(&format!("fused vs scalar tape: `{a}` bits"))
            );
        }
    }
    assert_eq!(
        fvm.counters,
        svm.counters,
        "{}",
        label("fused vs scalar tape: counters (tape_ops included)")
    );

    for threads in THREADS {
        let mut pvm = fresh_vm(fuel);
        let pr = pvm.run_tape(&fused, threads).map_err(|e| format!("{e:?}"));
        let pleft = pvm.take_meter().fuel_left();
        assert_eq!(
            pr,
            sr,
            "{}",
            label(&format!("fused partape@{threads} outcome"))
        );
        assert_eq!(
            pleft,
            sleft,
            "{}",
            label(&format!("fused partape@{threads} fuel left"))
        );
        if pr.is_ok() {
            for a in OUTPUTS.iter().filter(|a| svm.array(a).is_some()) {
                assert_eq!(
                    buf_bits(pvm.array(a).unwrap()),
                    buf_bits(svm.array(a).unwrap()),
                    "{}",
                    label(&format!("fused partape@{threads} `{a}` bits"))
                );
            }
        }
        assert_eq!(
            sans_faults(pvm.counters),
            sans_faults(svm.counters),
            "{}",
            label(&format!("fused partape@{threads} counters"))
        );
    }
    decisions.remove(0)
}

/// A sequential 1..=8 loop carrying `out!(i-1)` — the reduction shape.
/// `acc_left` picks the side of the fold the carried cell sits on:
/// only acc-left folds over `+`/`min`/`max` classify as reduction
/// kernels; everything else (acc-right, `-`, `/`, `*`) must run on the
/// order-faithful generic micro-kernel — bit-identically either way.
/// The `red` mark is an enabling annotation, so setting it on a
/// non-reassociable fold must never change observable behaviour.
fn harness_reduction_program(op: BinOp, acc_left: bool, e: Expr) -> LProgram {
    let acc = Expr::index1("out", Expr::sub(Expr::var("i"), Expr::int(1)));
    let value = if acc_left {
        Expr::bin(op, acc, e)
    } else {
        Expr::bin(op, e, acc)
    };
    LProgram {
        stmts: vec![
            LStmt::Alloc {
                array: "out".to_string(),
                bounds: vec![(0, 8)],
                fill: 1.0,
                temp: false,
                checked: false,
            },
            LStmt::For {
                var: "i".to_string(),
                start: 1,
                end: 8,
                step: 1,
                par: false,
                red: true,
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

/// A sequential loop over `out` that neither the `par` nor the `red`
/// verdict covers: `value` reads `out` at carried offsets, and
/// `backward` runs it from 8 down to 1. `out` spans `(-1, 10)` so every
/// carried read is in bounds and its check is discharged.
fn harness_carried_program(value: Expr, backward: bool) -> LProgram {
    let (start, end, step) = if backward { (8, 1, -1) } else { (1, 8, 1) };
    LProgram {
        stmts: vec![
            LStmt::Alloc {
                array: "out".to_string(),
                bounds: vec![(-1, 10)],
                fill: 1.0,
                temp: false,
                checked: false,
            },
            LStmt::For {
                var: "i".to_string(),
                start,
                end,
                step,
                par: false,
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

/// A sequential loop over `out` and `w` (both on `(-1, 10)`, filled
/// with 1) whose body is `body`, forward over 1..=8 or backward.
fn harness_two_array_program(body: Vec<LStmt>, backward: bool) -> LProgram {
    let (start, end, step) = if backward { (8, 1, -1) } else { (1, 8, 1) };
    let alloc = |array: &str| LStmt::Alloc {
        array: array.to_string(),
        bounds: vec![(-1, 10)],
        fill: 1.0,
        temp: false,
        checked: false,
    };
    LProgram {
        stmts: vec![
            alloc("out"),
            alloc("w"),
            LStmt::For {
                var: "i".to_string(),
                start,
                end,
                step,
                par: false,
                red: false,
                body,
            },
        ],
        result: "out".to_string(),
    }
}

/// `array!(i + off) := value`.
fn store_at(array: &str, off: i64, value: Expr) -> LStmt {
    LStmt::Store {
        array: array.to_string(),
        subs: vec![Expr::add(Expr::var("i"), Expr::int(off))],
        value,
        check: StoreCheck::None,
    }
}

/// `out!(i + off)`.
fn out_at(off: i64) -> Expr {
    Expr::index1("out", Expr::add(Expr::var("i"), Expr::int(off)))
}

/// `u!(i + off)`.
fn u_at(off: i64) -> Expr {
    Expr::index1("u", Expr::add(Expr::var("i"), Expr::int(off)))
}

/// Run `prog` against the scalar tape over a fuel ladder that trips
/// before, inside and after the loop; return the fused loop's entry.
fn fused_on_ladder(prog: &LProgram) -> hac_codegen::tape::FusedEntry {
    for fuel in [0, 1, 2, 3, 5, 9, 17, 10_000] {
        let d = diff_random_fusion(prog, fuel);
        assert!(d.kernel.is_some(), "{d:?}\n{}", prog.render());
    }
    let mut tape = compile_tape(prog, &harness_ctx());
    fuse_tape(&mut tape);
    assert_eq!(tape.fused.len(), 1, "{}", prog.render());
    tape.fused.remove(0)
}

/// Carried-cell forwarding fires only where a register can stand in
/// for memory; everywhere else the generic kernel reads memory. Each
/// case matches the scalar tape bit for bit on a fuel ladder.
#[test]
fn forwarding_hazards_match_the_scalar_tape() {
    let mul = |a, k: f64| Expr::mul(a, Expr::Num(k));
    // Two stores to the carried array: the second rewrites the cell
    // the first stored, so the first store's value is not the cell's.
    let e = fused_on_ladder(&harness_two_array_program(
        vec![
            store_at("out", 0, Expr::add(out_at(-1), u_at(0))),
            store_at("out", 0, mul(out_at(0), 0.5)),
        ],
        false,
    ));
    assert!(e.prog.forwards.is_empty(), "{:?}", e.prog);

    // The carried cell read before the store forwards; read again
    // after it, it comes from memory (the register then holds the
    // cell just stored).
    let e = fused_on_ladder(&harness_two_array_program(
        vec![
            store_at("out", 0, Expr::add(mul(out_at(-1), 0.5), u_at(0))),
            store_at("w", 0, Expr::sub(out_at(-1), out_at(1))),
        ],
        false,
    ));
    assert_eq!(e.prog.forwards.len(), 1, "{:?}", e.prog);
    let carried = e.prog.forwards[0].1;
    assert!(
        e.prog.ops.iter().any(|op| matches!(
            op,
            RegOp::Bin { op: BinOp::Sub, a: Src::Mem(s), .. }
                | RegOp::BinStore { op: BinOp::Sub, a: Src::Mem(s), .. } if *s == carried
        )),
        "the read after the store must come from memory: {:?}",
        e.prog
    );

    // The cell stored two ordinals back: no forward.
    let e = fused_on_ladder(&harness_two_array_program(
        vec![store_at("out", 0, Expr::add(out_at(-2), u_at(0)))],
        false,
    ));
    assert!(e.prog.forwards.is_empty(), "{:?}", e.prog);

    // `out!(i+1)` on a backward loop is the cell stored one ordinal
    // earlier; on a forward loop it is not yet written.
    for (backward, forwards) in [(true, 1), (false, 0)] {
        let e = fused_on_ladder(&harness_two_array_program(
            vec![store_at("out", 0, Expr::sub(u_at(0), mul(out_at(1), 0.25)))],
            backward,
        ));
        assert_eq!(e.prog.forwards.len(), forwards, "{:?}", e.prog);
    }
}

/// A body with nine `let` bindings fuses: each binding is a temp
/// register keyed by its frame slot, bounded only by the register file.
#[test]
fn nine_body_local_bindings_fuse() {
    let binds = (0..9)
        .map(|k| {
            let rhs = match k {
                0 => u_at(0),
                _ => Expr::add(
                    Expr::mul(Expr::var(format!("t{}", k - 1)), Expr::Num(0.5)),
                    Expr::int(k),
                ),
            };
            (format!("t{k}"), rhs)
        })
        .collect();
    let value = Expr::Let {
        binds,
        body: Box::new(Expr::add(Expr::var("t8"), Expr::var("g"))),
    };
    let e = fused_on_ladder(&harness_program(value));
    let temps = e
        .prog
        .ops
        .iter()
        .filter(|op| matches!(op, RegOp::Mov { .. }));
    assert_eq!(temps.count(), 9, "{:?}", e.prog);
}

/// A `par` loop whose body no specialized kernel matches runs the
/// generic kernel in ParTape chunks, each starting at its own ordinal
/// (`lo > 0` for every chunk but the first).
#[test]
fn parallel_generic_fallback_runs_in_chunks() {
    let value = Expr::add(
        Expr::mul(
            Expr::Unary {
                op: UnOp::Sqrt,
                expr: Box::new(Expr::Unary {
                    op: UnOp::Abs,
                    expr: Box::new(u_at(0)),
                }),
            },
            Expr::var("i"),
        ),
        u_at(1),
    );
    let prog = harness_program(value);
    let e = fused_on_ladder(&prog);
    assert_eq!(e.kernel, hac_codegen::tape::Kernel::Generic);
    let mut tape = compile_tape(&prog, &harness_ctx());
    fuse_tape(&mut tape);
    assert!(
        plan_tape(&tape).region_count() > 0,
        "the par loop must be a region"
    );
}

/// The deterministic anchor for the sweep below: the classifying
/// shapes land on their named kernels, and the carried fold keeps its
/// kernel overlay out of parallel regions (red ⟹ not a region).
#[test]
fn reduction_harness_classifies_as_expected() {
    let u_at = |off: i64| Expr::index1("u", Expr::add(Expr::var("i"), Expr::int(off)));
    let kernel = |op, acc_left, e| {
        let prog = harness_reduction_program(op, acc_left, e);
        let ctx = TapeCtx {
            shapes: HashMap::from([("u".to_string(), vec![(1i64, 12i64)])]),
            ..TapeCtx::default()
        };
        let mut tape = compile_tape(&prog, &ctx);
        let decisions = fuse_tape(&mut tape);
        assert!(
            plan_tape(&tape).region_count() == 0,
            "a carried fold must never become a parallel region"
        );
        decisions[0].kernel.clone().unwrap()
    };
    assert_eq!(kernel(BinOp::Add, true, u_at(0)), "running sum");
    assert_eq!(kernel(BinOp::Min, true, u_at(0)), "running min");
    assert_eq!(kernel(BinOp::Add, true, Expr::mul(u_at(0), u_at(1))), "dot");
    // Acc-on-right and non-reassociable ops fall back to the
    // order-faithful generic micro-kernel.
    assert_eq!(kernel(BinOp::Add, false, u_at(0)), "generic micro-kernel");
    assert_eq!(kernel(BinOp::Sub, true, u_at(0)), "generic micro-kernel");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn random_affine_loops_fuse_without_observable_change(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 1), false);
        let depth = 2 + (seed % 3) as u32;
        // Odd seeds generate strictly fusable bodies; even seeds mix in
        // conditionals and calls so the decline path is covered too.
        let prog = harness_program(g.expr(depth, seed % 2 == 1));
        for fuel in [0, 1, 2, 3, 5, 9, (seed % 40), 10_000] {
            diff_random_fusion(&prog, fuel);
        }
    }

    /// Random carried folds: every generated reduction loop — whether
    /// it lands on a named reduction kernel, the generic micro-kernel,
    /// or a decline — must pin exact `tape_ops` and fuel parity with
    /// the scalar tape at every budget, including ones that exhaust
    /// mid-kernel (fuel 2..9 lands inside the 8-trip loop).
    #[test]
    fn random_reduction_loops_fuse_without_observable_change(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 3), false);
        let op = [
            BinOp::Add,
            BinOp::Min,
            BinOp::Max,
            BinOp::Sub,
            BinOp::Div,
            BinOp::Mul,
        ][g.below(6) as usize];
        // Mostly acc-left (the classifying shape); sometimes acc-right.
        let acc_left = g.below(4) > 0;
        let depth = 1 + (seed % 2) as u32;
        let e = g.expr(depth, seed % 2 == 1);
        let prog = harness_reduction_program(op, acc_left, e);
        for fuel in [0, 1, 2, 3, 5, 9, (seed % 40), 10_000] {
            diff_random_fusion(&prog, fuel);
        }
    }

    /// Random carried loops: a sequential body that reads `out` one or
    /// two cells behind or one ahead, mixed with `u` reads and
    /// constants, forward and backward, must fuse on the in-order
    /// generic micro-kernel and match the scalar tape at every budget,
    /// including ones that exhaust mid-kernel.
    #[test]
    fn random_carried_loops_fuse_without_observable_change(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 5), true);
        let op = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Div,
            BinOp::Min,
            BinOp::Max,
        ][g.below(6) as usize];
        let carry = g.carried_read();
        let e = g.expr(1 + (seed % 3) as u32, true);
        let value = if g.below(2) == 0 {
            Expr::bin(op, carry, e)
        } else {
            Expr::bin(op, e, carry)
        };
        let prog = harness_carried_program(value, seed % 2 == 1);
        for fuel in [0, 1, 2, 3, 5, 9, (seed % 40), 10_000] {
            let d = diff_random_fusion(&prog, fuel);
            prop_assert_eq!(d.kernel.as_deref(), Some("generic micro-kernel"), "{:?}", d);
        }
    }

    /// Random two-statement carried bodies: one statement stores `w!i`,
    /// the other stores `out!i` from a carried read of `out` and `w!i`,
    /// in either order, so reads of either array land before or after
    /// the store to it.
    #[test]
    fn random_two_statement_carried_loops_fuse_without_observable_change(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 7), true);
        let depth = 1 + (seed % 3) as u32;
        let to_w = store_at("w", 0, g.expr(depth, true));
        let carry = g.carried_read();
        let e = g.expr(depth, true);
        let value = Expr::bin(g.op(), Expr::bin(g.op(), carry, e), Expr::index1("w", Expr::var("i")));
        let to_out = store_at("out", 0, value);
        let body = if g.below(2) == 0 { vec![to_w, to_out] } else { vec![to_out, to_w] };
        let prog = harness_two_array_program(body, seed % 2 == 1);
        for fuel in [0, 1, 2, 3, 5, 9, (seed % 40), 10_000] {
            let d = diff_random_fusion(&prog, fuel);
            prop_assert_eq!(d.kernel.as_deref(), Some("generic micro-kernel"), "{:?}", d);
        }
    }

    /// Random bodies that forward two cells: each statement reads its
    /// own array one ordinal back (`out!(i∓1)`, `w!(i∓1)`), so one
    /// cell travels as the compiled body's argument and the other
    /// through the register file.
    #[test]
    fn random_two_forward_carried_loops_fuse_without_observable_change(seed in any::<u64>()) {
        let mut g = Gen(wl::XorShift::new(seed | 9), true);
        let backward = seed % 2 == 1;
        let lag = if backward { 1 } else { -1 };
        let carried = |array: &str| Expr::index1(array, Expr::add(Expr::var("i"), Expr::int(lag)));
        let depth = 1 + (seed % 3) as u32;
        let mut stmt = |array: &str| {
            let e = g.expr(depth, true);
            let value = if g.below(2) == 0 {
                Expr::bin(g.op(), carried(array), e)
            } else {
                Expr::bin(g.op(), e, carried(array))
            };
            store_at(array, 0, value)
        };
        let (to_w, to_out) = (stmt("w"), stmt("out"));
        let body = if g.below(2) == 0 { vec![to_w, to_out] } else { vec![to_out, to_w] };
        let prog = harness_two_array_program(body, backward);
        let mut tape = compile_tape(&prog, &harness_ctx());
        fuse_tape(&mut tape);
        prop_assert_eq!(tape.fused[0].prog.forwards.len(), 2, "{:?}", tape.fused[0].prog);
        for fuel in [0, 1, 2, 3, 5, 9, (seed % 40), 10_000] {
            let d = diff_random_fusion(&prog, fuel);
            prop_assert_eq!(d.kernel.as_deref(), Some("generic micro-kernel"), "{:?}", d);
        }
    }
}

/// Which reads of a generic kernel's register program are forwarded,
/// per fused carried loop in tape order: `array@k` names a forwarded
/// read `k` elements from the cell the loop stores, and `memory: n`
/// counts the streams still read from memory. Forwarding is invisible
/// except as speed, so it is pinned by structure.
fn forwarded_reads(src: &str, n: i64) -> Vec<String> {
    use hac_codegen::tape::Kernel;
    use hac_core::pipeline::Unit;
    let program = parse_program(src).unwrap();
    let compiled = build(&program, &ConstEnv::from_pairs([("n", n)]), true);
    let mut out = Vec::new();
    for unit in &compiled.units {
        let (Unit::Thunkless { tape: Some(t), .. } | Unit::Update { tape: Some(t), .. }) = unit
        else {
            continue;
        };
        for e in t.fused.iter().filter(|e| e.kernel == Kernel::Generic) {
            let mut reads: Vec<String> = e
                .prog
                .forwards
                .iter()
                .map(|&(r, c)| {
                    let d = e
                        .prog
                        .ops
                        .iter()
                        .find_map(|op| match *op {
                            RegOp::Store { s, fwd, .. } | RegOp::BinStore { s, fwd, .. }
                                if fwd == r =>
                            {
                                Some(s)
                            }
                            _ => None,
                        })
                        .expect("a forward is written by its store");
                    let (sc, sd) = (&e.streams[c as usize], &e.streams[d as usize]);
                    format!("{}@{:+}", t.arrays[sc.array as usize], sc.base - sd.base)
                })
                .collect();
            let mut memory: Vec<u8> = e.prog.ops.iter().flat_map(RegOp::mem_reads).collect();
            memory.sort_unstable();
            memory.dedup();
            reads.push(format!("memory: {}", memory.len()));
            out.push(reads.join(" "));
        }
    }
    out
}

#[test]
fn shipped_recurrences_forward_exactly_their_carried_cells() {
    // `b!(i,j-1)` is the cell the previous `j` stored; `b!(i-1,j)`,
    // `a!(i+1,j)` and `a!(i,j+1)` (the same array, in place) are not.
    assert_eq!(
        forwarded_reads(include_str!("../programs/sor.hac"), 16),
        ["a@-1 memory: 3"]
    );
    // `a!(i,j-1)` forwards; `a!(i-1,j)` and `a!(i-1,j-1)` do not.
    assert_eq!(
        forwarded_reads(include_str!("../programs/wavefront.hac"), 16),
        ["a@-1 memory: 2"]
    );
    // The three Thomas sweeps: `cp!(i-1)`; `dp!(i-1)` but not the
    // `cp!(i-1)` the sweep never stores; and, backward, `x!(i+1)`.
    assert_eq!(
        forwarded_reads(include_str!("../programs/tridiag.hac"), 16),
        ["cp@-1 memory: 0", "dp@-1 memory: 2", "x@+1 memory: 2"]
    );
}

/// The compiled steps of every generic kernel in `src` at `n`, one
/// rendering per fused carried loop in tape order.
fn compiled_steps(src: &str, n: i64) -> Vec<String> {
    use hac_codegen::tape::Kernel;
    use hac_core::pipeline::Unit;
    let program = parse_program(src).unwrap();
    let compiled = build(&program, &ConstEnv::from_pairs([("n", n)]), true);
    let mut out = Vec::new();
    for unit in &compiled.units {
        let (Unit::Thunkless { tape: Some(t), .. } | Unit::Update { tape: Some(t), .. }) = unit
        else {
            continue;
        };
        for e in t.fused.iter().filter(|e| e.kernel == Kernel::Generic) {
            out.push(format!("{:?}", e.body.as_ref().expect("a generic body")));
        }
    }
    out
}

/// The compiled form is invisible except as speed, so it is pinned by
/// structure: `sN, k := …` stores into stream N and the carried
/// argument `k`, `rN := …` writes register N of the file.
#[test]
fn generic_bodies_compile_to_their_pinned_shape() {
    // Each shipped recurrence is one store step whose carried cell is
    // the argument: `b!(i,j-1)`, `a!(i,j-1)`, `cp!(i-1)`, `dp!(i-1)`
    // and, backward, `x!(i+1)`.
    assert_eq!(
        compiled_steps(include_str!("../programs/sor.hac"), 16),
        ["[s4, k := ((((s0 + k) + s2) + s3) / r18)]"]
    );
    assert_eq!(
        compiled_steps(include_str!("../programs/wavefront.hac"), 16),
        ["[s3, k := ((s0 + k) + s2)]"]
    );
    assert_eq!(
        compiled_steps(include_str!("../programs/tridiag.hac"), 16),
        [
            "[s1, k := (r17 / (r18 - k))]",
            "[s3, k := ((s0 - k) / (r18 - s2))]",
            "[s3, k := (s0 - (s1 * k))]",
        ]
    );
    // Merged, the `cp` and `dp` sweeps are one loop: `dp`'s step first
    // reads `cp!(i-1)` as the carried `k1` before `cp`'s step
    // overwrites it, and each sweep's own carry stays an argument.
    let program = parse_program(include_str!("../programs/tridiag.hac")).unwrap();
    let merged = build(&program, &ConstEnv::from_pairs([("n", 16)]), true).merges;
    assert_eq!(merged.len(), 1, "cp and dp merge");
    assert_eq!(merged[0].units, 1..3);
    assert_eq!(
        format!(
            "{:?}",
            merged[0]
                .merged
                .entry()
                .body
                .as_ref()
                .expect("a generic body")
        ),
        "[s3, k := ((s0 - k) / (r18 - k1)), s4, k1 := (r20 / (r18 - k1))]"
    );
    // A `let` temp read twice is written to its register once.
    let e = fused_on_ladder(&harness_carried_program(
        let_t(
            Expr::add(u_at(0), out_at(-1)),
            Expr::mul(Expr::var("t"), Expr::var("t")),
        ),
        false,
    ));
    assert_eq!(
        format!("{:?}", e.body.expect("a generic body")),
        "[r18 := (s0 + k), s2, k := (r18 * r18)]"
    );
}

// ---------------------------------------------------------------------
// Loop merges across bindings: chains of `letrec*` recurrences whose
// last loops may run as one. Every merge must be invisible: each chain
// runs fused (merged where legal) and unfused at several thread counts
// over a full fuel ladder and a memory ladder, and every fallback path
// (an active fault plan, a budget too short for the chain, a run range
// that splits it) must be taken and match too.
// ---------------------------------------------------------------------

/// How a chain unit reads an earlier unit's array `a`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CrossRead {
    /// `a!(i+o)` in the loop, `o ∈ {-1, 0, 1}`.
    At(i64),
    /// `a!(n+2-i)` in the loop: earlier and later iterations alike.
    Reverse,
    /// `a!1` before the loop: a cell `a`'s own prefix wrote.
    PrefixFirst,
    /// `a!n` before the loop: a cell `a`'s loop writes.
    PrefixLast,
}

/// One generated unit: `a<k> = array (1,n+1)` with a prefix covering
/// every cell outside its loop `[lo..n]` and a recurrence reading its
/// own previous cell (`i-1` forward, `i+1` backward) plus `reads`.
#[derive(Debug, Clone)]
struct ChainUnit {
    backward: bool,
    lo: i64,
    reads: Vec<(usize, CrossRead)>,
    /// A `bigupd` binding sits between this unit and the one before.
    update_before: bool,
}

const CHAIN_N: i64 = 7;

fn chain_source(units: &[ChainUnit]) -> String {
    let mut src = String::from("param n;\ninput u (1,n+1);\ninput w (1,2);\n");
    for (k, unit) in units.iter().enumerate() {
        if unit.update_before {
            src.push_str("v = bigupd w [ 1 := 3.0 ];\n");
        }
        // Prefix cells, the one the loop's first iteration reads last:
        // the schedule then keeps every one of them before the loop.
        let mut cells: Vec<String> = (1..unit.lo).map(|c| c.to_string()).collect();
        cells.push("n+1".to_string());
        if !unit.backward {
            cells.rotate_right(1);
        }
        let prefix_value = |cell: usize| -> String {
            let mut v = format!("{}.5", k + cell);
            for &(j, read) in &unit.reads {
                match read {
                    CrossRead::PrefixFirst if cell == 0 => v.push_str(&format!(" + a{j}!1")),
                    CrossRead::PrefixLast if cell == 0 => v.push_str(&format!(" - a{j}!n")),
                    _ => {}
                }
            }
            v
        };
        let clauses: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(c, cell)| format!("[ {cell} := {} ]", prefix_value(c)))
            .collect();
        let own = if unit.backward { "i+1" } else { "i-1" };
        let mut value = format!("a{k}!({own}) * 0.5 + u!i");
        for (r, &(j, read)) in unit.reads.iter().enumerate() {
            let op = ["+", "-"][r % 2];
            match read {
                CrossRead::At(o) => value = format!("({value}) {op} a{j}!(i + {o}) / {}", r + 2),
                CrossRead::Reverse => value = format!("({value}) {op} a{j}!(n + 2 - i) * 0.25"),
                CrossRead::PrefixFirst | CrossRead::PrefixLast => {}
            }
        }
        src.push_str(&format!(
            "letrec* a{k} = array (1,n+1)\n   ({} ++\n    [ i := {value} | i <- [{}..n] ]);\n",
            clauses.join(" ++ "),
            unit.lo
        ));
    }
    src.push_str(&format!("result a{};\n", units.len() - 1));
    src
}

/// The merges the paper's rule allows, as the planner forms them:
/// greedy maximal chains of consecutive units with one range and one
/// direction, where every read of a chain member's array sees only
/// cells written at the same or an earlier iteration.
fn expected_merges(units: &[ChainUnit]) -> Vec<Vec<String>> {
    let legal = |a: &ChainUnit, read: CrossRead| match read {
        CrossRead::At(o) => {
            if a.backward {
                o >= 0
            } else {
                o <= 0
            }
        }
        CrossRead::Reverse | CrossRead::PrefixLast => false,
        CrossRead::PrefixFirst => true,
    };
    let joins = |chain: &[usize], b: usize| {
        let (first, unit) = (&units[chain[0]], &units[b]);
        !unit.update_before
            && unit.lo == first.lo
            && unit.backward == first.backward
            && unit
                .reads
                .iter()
                .all(|&(j, read)| !chain.contains(&j) || legal(&units[j], read))
    };
    let mut out = Vec::new();
    let mut start = 0;
    while start < units.len() {
        let mut chain = vec![start];
        while chain.len() + start < units.len() && joins(&chain, start + chain.len()) {
            chain.push(start + chain.len());
        }
        if chain.len() >= 2 {
            out.push(chain.iter().map(|k| format!("a{k}")).collect());
        }
        start += chain.len();
    }
    out
}

fn random_chain(rng: &mut wl::XorShift) -> Vec<ChainUnit> {
    let mut below = |n: u64| rng.next_u64() % n;
    let len = 2 + below(2) as usize;
    // Mostly one shape, so most chains have something to merge.
    let (backward, lo) = (below(4) == 0, 2 + (below(4) == 0) as i64);
    let mut units: Vec<ChainUnit> = Vec::new();
    for k in 0..len {
        let mut reads = Vec::new();
        for j in 0..k {
            let read = match below(12) {
                0..=3 => CrossRead::At(if backward { 1 } else { -1 }),
                4..=5 => CrossRead::At(0),
                6 => CrossRead::At(if backward { -1 } else { 1 }),
                7 => CrossRead::Reverse,
                8 => CrossRead::PrefixFirst,
                9 => CrossRead::PrefixLast,
                _ => continue,
            };
            reads.push((j, read));
        }
        units.push(ChainUnit {
            backward: if below(8) == 0 { !backward } else { backward },
            lo: if below(8) == 0 { 5 - lo } else { lo },
            reads,
            update_before: k > 0 && !units.iter().any(|u| u.update_before) && below(8) == 0,
        });
    }
    units
}

/// The chains `compiled` merges, by unit name.
fn merged_names(compiled: &Compiled) -> Vec<Vec<String>> {
    use hac_core::pipeline::Unit;
    compiled
        .merges
        .iter()
        .map(|m| {
            compiled.units[m.units.clone()]
                .iter()
                .map(|u| match u {
                    Unit::Thunkless { name, .. } => name.clone(),
                    other => panic!("a merge holds only thunkless units: {other:?}"),
                })
                .collect()
        })
        .collect()
}

fn chain_inputs() -> HashMap<String, ArrayBuf> {
    HashMap::from([
        ("u".to_string(), wl::random_vector(CHAIN_N + 1, 83)),
        ("w".to_string(), wl::random_vector(2, 89)),
    ])
}

/// Run `src`'s chain fused and unfused at 1, 2 and 4 threads on a full
/// fuel ladder, a memory ladder and unlimited, demanding bit-identical
/// outcomes; then the fallbacks. Returns how many merges compiled.
fn diff_merges(label: &str, src: &str, want: Option<&[Vec<String>]>) -> usize {
    use hac_core::pipeline::{run_units, ExecState};
    let program = parse_program(src).unwrap_or_else(|e| panic!("{label}: {e}\n{src}"));
    let env = ConstEnv::from_pairs([("n", CHAIN_N)]);
    let plain = build(&program, &env, false);
    let fused = build(&program, &env, true);
    assert!(plain.merges.is_empty(), "{label}: --no-fuse never merges");
    if let Some(want) = want {
        assert_eq!(merged_names(&fused), want, "{label}\n{src}");
    }
    let merges = fused.merges.len() as u64;
    let inputs = chain_inputs();
    let funcs = FuncTable::new();
    let run = |c: &Compiled, threads: usize, limits: Limits, faults: Option<FaultPlan>| {
        let options = RunOptions {
            threads: Some(threads),
            limits,
            faults,
            ceiling: None,
        };
        run_with_options(c, &inputs, &funcs, &options)
    };
    // The fused build through `run_units`, which leaves the count of
    // merges taken in its state even when the run fails.
    let run_fused = |threads: usize, limits: Limits| {
        let options = RunOptions {
            threads: Some(threads),
            limits,
            faults: None,
            ceiling: None,
        };
        let mut state = ExecState::default();
        let mut meter = Meter::new(limits);
        let all = 0..fused.units.len();
        let r = run_units(
            &fused, all, &mut state, &inputs, &funcs, &options, &mut meter,
        );
        let merged = state.merged_loops;
        (r.map(|()| state.into_output(&meter)), merged)
    };
    let oracle = run(&plain, 1, Limits::unlimited(), None).unwrap();
    let total_fuel = oracle.counters.vm.loop_iterations;
    let mut ladder: Vec<Limits> = (0..=total_fuel + 1).map(fuel).collect();
    ladder.extend((0..=80).map(|k| mem(k * 8)));
    ladder.push(Limits::unlimited());
    // Rungs that took every merge, and rungs too short for some chain,
    // which must have run its units one by one.
    let (mut merged_runs, mut short_runs) = (0, 0);
    for limits in ladder {
        let want = snapshot(&run(&plain, 1, limits, None));
        for threads in [1, 2, 4] {
            let p = run(&plain, threads, limits, None);
            let (f, merged) = run_fused(threads, limits);
            let ctx = format!("{label} {limits:?} @{threads}t\n{src}");
            assert_eq!(snapshot(&p), want, "unfused: {ctx}");
            assert_eq!(snapshot(&f), want, "fused: {ctx}");
            if merged == merges {
                merged_runs += 1;
            } else {
                short_runs += 1;
            }
        }
    }
    if merges > 0 {
        assert!(merged_runs > 0, "{label}: no rung ran the merge");
        assert!(short_runs > 0, "{label}: no rung was too short for a chain");
    }
    let want = snapshot(&Ok(oracle));
    // An active fault plan runs every unit on its own; the empty plan
    // is no plan at all.
    for threads in [1, 2, 4] {
        let faulted = run(
            &fused,
            threads,
            Limits::unlimited(),
            Some(FaultPlan::parse("r0c0:panic,r1c1:allocfail").unwrap()),
        );
        assert_eq!(snapshot(&faulted), want, "{label} faulted @{threads}t");
        assert_eq!(faulted.unwrap().merged_loops, 0, "{label}: fault plan");
        let empty = run(
            &fused,
            threads,
            Limits::unlimited(),
            Some(FaultPlan::default()),
        );
        assert_eq!(empty.unwrap().merged_loops, merges, "{label}: empty plan");
    }
    // Every split of the unit range: a merge runs only when one of the
    // two ranges holds its whole chain.
    let len = fused.units.len();
    for split in 0..=len {
        let mut state = ExecState::default();
        let mut meter = Meter::new(Limits::unlimited());
        let options = RunOptions::default();
        let out = run_units(
            &fused,
            0..split,
            &mut state,
            &inputs,
            &funcs,
            &options,
            &mut meter,
        )
        .and_then(|()| {
            run_units(
                &fused,
                split..len,
                &mut state,
                &inputs,
                &funcs,
                &options,
                &mut meter,
            )
        })
        .map(|()| state.into_output(&meter));
        let whole = fused
            .merges
            .iter()
            .filter(|m| m.units.end <= split || m.units.start >= split)
            .count() as u64;
        assert_eq!(snapshot(&out), want, "{label} split at {split}");
        assert_eq!(out.unwrap().merged_loops, whole, "{label} split at {split}");
    }
    fused.merges.len()
}

fn unit(backward: bool, lo: i64, reads: &[(usize, CrossRead)]) -> ChainUnit {
    ChainUnit {
        backward,
        lo,
        reads: reads.to_vec(),
        update_before: false,
    }
}

/// Each legality rule on its own: what merges, what does not, and the
/// same bits either way.
#[test]
fn chains_merge_exactly_where_every_read_is_forward() {
    use CrossRead::{At, PrefixFirst, PrefixLast, Reverse};
    let merged = |names: &[&[&str]]| -> Vec<Vec<String>> {
        names
            .iter()
            .map(|c| c.iter().map(ToString::to_string).collect())
            .collect()
    };
    let cases = vec![
        (
            "distance 1, as tridiag",
            vec![unit(false, 2, &[]), unit(false, 2, &[(0, At(-1))])],
            merged(&[&["a0", "a1"]]),
        ),
        (
            "distance 0 keeps chain order",
            vec![
                unit(false, 2, &[]),
                unit(false, 2, &[(0, At(0)), (0, At(-1))]),
            ],
            merged(&[&["a0", "a1"]]),
        ),
        (
            "three units, backward",
            vec![
                unit(true, 2, &[]),
                unit(true, 2, &[(0, At(1))]),
                unit(true, 2, &[(0, At(0)), (1, At(1))]),
            ],
            merged(&[&["a0", "a1", "a2"]]),
        ),
        (
            "prefix reads a prefix cell",
            vec![unit(false, 3, &[]), unit(false, 3, &[(0, PrefixFirst)])],
            merged(&[&["a0", "a1"]]),
        ),
        (
            "negative distance",
            vec![unit(false, 2, &[]), unit(false, 2, &[(0, At(1))])],
            merged(&[]),
        ),
        (
            "negative distance, backward",
            vec![unit(true, 2, &[]), unit(true, 2, &[(0, At(-1))])],
            merged(&[]),
        ),
        (
            "earlier and later iterations",
            vec![unit(false, 2, &[]), unit(false, 2, &[(0, Reverse)])],
            merged(&[]),
        ),
        (
            "prefix reads a loop cell",
            vec![unit(false, 2, &[]), unit(false, 2, &[(0, PrefixLast)])],
            merged(&[]),
        ),
        (
            "opposite directions",
            vec![unit(false, 2, &[]), unit(true, 2, &[])],
            merged(&[]),
        ),
        (
            "unequal ranges",
            vec![unit(false, 2, &[]), unit(false, 3, &[(0, At(-1))])],
            merged(&[]),
        ),
        (
            "a bigupd in between",
            vec![
                unit(false, 2, &[]),
                ChainUnit {
                    update_before: true,
                    ..unit(false, 2, &[(0, At(-1))])
                },
            ],
            merged(&[]),
        ),
        (
            "an illegal third unit starts afresh",
            vec![
                unit(false, 2, &[]),
                unit(false, 2, &[(0, At(-1))]),
                unit(false, 2, &[(1, At(1))]),
            ],
            merged(&[&["a0", "a1"]]),
        ),
    ];
    for (label, units, want) in cases {
        assert_eq!(expected_merges(&units), want, "{label}: the oracle");
        diff_merges(label, &chain_source(&units), Some(&want));
    }
}

/// The shipped Thomas solve: its `cp` and `dp` sweeps merge, and every
/// fallback matches the unfused bits.
#[test]
fn thomas_sweeps_merge_without_observable_change() {
    // The chain harness's inputs stand in for `d`.
    let src = include_str!("../programs/tridiag.hac")
        .replace("input d (1,n);", "input u (1,n+1);\ninput w (1,2);")
        .replace("d!", "u!");
    let want = [vec!["cp".to_string(), "dp".to_string()]];
    assert_eq!(diff_merges("tridiag", &src, Some(&want)), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random chains of two or three recurrences, legal and illegal
    /// merges alike: the planner merges exactly what the rule allows,
    /// and nothing observable changes.
    #[test]
    fn random_chains_merge_without_observable_change(seed in any::<u64>()) {
        let units = random_chain(&mut wl::XorShift::new(seed | 1));
        let want = expected_merges(&units);
        diff_merges(&format!("seed {seed}"), &chain_source(&units), Some(&want));
    }
}
