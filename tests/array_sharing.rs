//! Copy-on-write array storage, seen from the caller: a run binds its
//! inputs without copying them, yet an in-place `bigupd` over an input
//! never changes the caller's array — on the tree-walker, on the tape
//! fused and unfused, and at one and four workers, including a parallel
//! region that writes a buffer shared at bind time.

use std::collections::HashMap;

use hac_codegen::partape::plan_tape;
use hac_core::pipeline::{
    compile, run_with_options, CompileOptions, Compiled, Engine, ExecOutput, RunOptions, Unit,
};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::governor::{FaultPlan, Limits};
use hac_runtime::value::{ArrayBuf, FuncTable};

/// `(engine, workers, fuse)` configurations every test runs; the first
/// is the sequential reference.
const CONFIGS: [(Engine, usize, bool); 5] = [
    (Engine::Tape, 1, true),
    (Engine::Tape, 4, true),
    (Engine::Tape, 1, false),
    (Engine::Tape, 4, false),
    (Engine::TreeWalk, 1, true),
];

fn compile_at(src: &str, n: i64, engine: Engine, fuse: bool) -> Compiled {
    let program = parse_program(src).unwrap();
    let env = ConstEnv::from_pairs([("n", n)]);
    let options = CompileOptions {
        engine,
        fuse,
        ..CompileOptions::default()
    };
    compile(&program, &env, &options).unwrap()
}

fn run_at(
    compiled: &Compiled,
    inputs: &HashMap<String, ArrayBuf>,
    threads: usize,
    faults: Option<FaultPlan>,
) -> ExecOutput {
    let options = RunOptions {
        threads: Some(threads),
        limits: Limits::unlimited(),
        faults,
        ceiling: None,
    };
    run_with_options(compiled, inputs, &FuncTable::new(), &options).unwrap()
}

fn bits(buf: &ArrayBuf) -> Vec<u64> {
    buf.data().iter().map(|x| x.to_bits()).collect()
}

/// `sor` updates its input mesh in place. The run's `b` is a new array
/// (the one copy an in-place update over an input pays), and the
/// caller's `a` keeps every bit it had, whatever the engine.
#[test]
fn sor_leaves_the_callers_input_unchanged() {
    let src = include_str!("../programs/sor.hac");
    let n = 48;
    let inputs = HashMap::from([("a".to_string(), hac_workloads::random_matrix(n, n, 11))]);
    let before = bits(&inputs["a"]);
    let mut reference: Option<Vec<u64>> = None;
    for (engine, threads, fuse) in CONFIGS {
        let ctx = format!("{engine:?} t{threads} fuse={fuse}");
        let compiled = compile_at(src, n, engine, fuse);
        let out = run_at(&compiled, &inputs, threads, None);
        assert_eq!(bits(&inputs["a"]), before, "{ctx}: caller's input changed");
        let b = out.array("b");
        assert!(!b.shares_storage(&inputs["a"]), "{ctx}");
        assert_ne!(bits(b), before, "{ctx}: the update wrote nothing");
        match &reference {
            None => reference = Some(bits(b)),
            Some(r) => assert_eq!(&bits(b), r, "{ctx}: result differs"),
        }
    }
}

/// A dependence-free in-place update of an input is a parallel region
/// whose write set is a buffer the caller still holds. The region
/// copies it once before the workers start, so four workers produce the
/// sequential bits and counters — also when an injected worker panic
/// makes the region snapshot and restore its write set — and the
/// caller's array is untouched. Workers that copied the shared buffer
/// themselves would race, so the parallel runs repeat.
#[test]
fn a_parallel_region_over_a_shared_input_matches_the_sequential_bits() {
    let src = "param n;\ninput u (1,n);\n\
               w = bigupd u [ i := u!i * 2 + 1 | i <- [1..n] ];\nresult w;\n";
    let n = 4096;
    let inputs = HashMap::from([("u".to_string(), hac_workloads::random_vector(n, 5))]);
    let before = bits(&inputs["u"]);
    let mut reference: Option<(Vec<u64>, String)> = None;
    for (engine, threads, fuse) in CONFIGS {
        let compiled = compile_at(src, n, engine, fuse);
        if engine == Engine::Tape {
            let regions: usize = compiled
                .units
                .iter()
                .filter_map(|u| match u {
                    Unit::Update { tape: Some(t), .. } => Some(plan_tape(t).region_count()),
                    _ => None,
                })
                .sum();
            assert_eq!(regions, 1, "fuse={fuse}: the update is one parallel region");
        }
        let plans = [None, Some(FaultPlan::parse("r0c0:panic").unwrap())];
        let reps = if threads > 1 { 20 } else { 1 };
        for faults in plans.iter().flat_map(|f| std::iter::repeat_n(f, reps)) {
            let ctx = format!("{engine:?} t{threads} fuse={fuse} faults={faults:?}");
            let out = run_at(&compiled, &inputs, threads, faults.clone());
            assert_eq!(bits(&inputs["u"]), before, "{ctx}: caller's input changed");
            let w = out.array("w");
            assert!(!w.shares_storage(&inputs["u"]), "{ctx}");
            let faulted = u64::from(faults.is_some() && threads > 1);
            assert_eq!(
                out.counters.vm.engine_faults, faulted,
                "{ctx}: faults absorbed"
            );
            let mut counters = out.counters.vm;
            counters.engine_faults = 0;
            let got = (bits(w), format!("{counters:?}"));
            match &reference {
                None => reference = Some(got),
                Some(r) if engine == Engine::Tape => assert_eq!(&got, r, "{ctx}"),
                Some(r) => assert_eq!(got.0, r.0, "{ctx}: values"),
            }
        }
    }
    let (w, _) = reference.unwrap();
    let expect: Vec<u64> = inputs["u"]
        .data()
        .iter()
        .map(|x| (x * 2.0 + 1.0).to_bits())
        .collect();
    assert_eq!(w, expect);
}

/// Programs that only read their inputs never copy them: every input
/// in the output is the caller's own storage. Fused kernels read an
/// input stream in place; only arrays a kernel stores to are made
/// writable.
#[test]
fn read_only_inputs_are_never_copied() {
    let programs = [
        (include_str!("../programs/dot.hac"), &["a", "b"][..]),
        (include_str!("../programs/jacobi.hac"), &["a"][..]),
        (include_str!("../programs/matmul.hac"), &["x", "y"][..]),
        (include_str!("../programs/matvec.hac"), &["m", "x"][..]),
        (include_str!("../programs/tridiag.hac"), &["d"][..]),
    ];
    let n = 24;
    for (src, names) in programs {
        let inputs: HashMap<String, ArrayBuf> = compile_at(src, n, Engine::Tape, true)
            .units
            .iter()
            .filter_map(|u| match u {
                Unit::Input { name, bounds } => Some((name.clone(), ArrayBuf::new(bounds, 0.5))),
                _ => None,
            })
            .collect();
        assert_eq!(inputs.len(), names.len());
        for (engine, threads, fuse) in CONFIGS {
            let compiled = compile_at(src, n, engine, fuse);
            let out = run_at(&compiled, &inputs, threads, None);
            for &name in names {
                assert!(
                    out.array(name).shares_storage(&inputs[name]),
                    "`{name}` copied on {engine:?} t{threads} fuse={fuse}"
                );
            }
        }
    }
}
