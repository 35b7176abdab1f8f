//! E19 — parallel tape scaling: the tape engine at 1, 2, 4, and 8
//! worker threads against its one-worker baseline, on the three
//! dependence-free kernels §10 proves parallelizable:
//!
//! * `jacobi_step` — out-of-place 2-D five-point stencil (the parallel
//!   counterpart of the in-place Jacobi `bigupd`, which carries anti
//!   dependences and is *not* a parallel region);
//! * `matmul` — the comprehension matmul, whose outer `i` pass is
//!   dependence-free (the inner partial-sum recurrence carries);
//! * `relaxation` — 1-D three-point smoother into a fresh vector.
//!
//! Run with `CRITERION_JSON=BENCH_partape.json cargo bench --bench
//! par_scaling` to get the machine-readable report. Speedup is
//! `tape/<n>` vs `partape<k>/<n>` (the tape at `k` workers; the ids
//! predate the merge of the two engines and stay comparable with
//! `BENCH_partape.json`); on a single-core host the parallel runs can
//! only tie (plus pool overhead), so judge scaling claims against the
//! core count recorded in EXPERIMENTS.md E19.

use std::collections::HashMap;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hac_bench::harness::inputs;
use hac_core::pipeline::{compile, run_with_threads, CompileOptions, Compiled};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads as wl;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn compile_tape(src: &str, params: &[(&str, i64)]) -> Compiled {
    let program = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let env = ConstEnv::from_pairs(params.iter().copied());
    compile(&program, &env, &CompileOptions::default()).unwrap_or_else(|e| panic!("compile: {e}"))
}

fn bench_scaling(
    c: &mut Criterion,
    group_name: &str,
    src: &str,
    params: &[(&str, i64)],
    ins: &HashMap<String, ArrayBuf>,
    n: i64,
) {
    let funcs = FuncTable::new();
    let tape = compile_tape(src, params);
    let mut group = c.benchmark_group(group_name);
    group.bench_with_input(BenchmarkId::new("tape", n), &n, |b, _| {
        b.iter(|| run_with_threads(&tape, ins, &funcs, 1).unwrap())
    });
    for t in THREADS {
        group.bench_with_input(BenchmarkId::new(format!("partape{t}"), n), &n, |b, _| {
            b.iter(|| run_with_threads(&tape, ins, &funcs, t).unwrap())
        });
    }
    group.finish();
}

fn bench_par_scaling(c: &mut Criterion) {
    let n = 192i64;
    let a = wl::random_matrix(n, n, 5);
    bench_scaling(
        c,
        "par_scaling/jacobi_step",
        wl::jacobi_step_source(),
        &[("n", n)],
        &inputs(&[("a", a)]),
        n,
    );

    let n = 40i64;
    let x = wl::random_matrix(n, n, 7);
    let y = wl::random_matrix(n, n, 11);
    bench_scaling(
        c,
        "par_scaling/matmul",
        wl::matmul_source(),
        &[("n", n)],
        &inputs(&[("x", x), ("y", y)]),
        n,
    );

    let n = 65_536i64;
    let u = wl::random_vector(n, 13);
    bench_scaling(
        c,
        "par_scaling/relaxation",
        wl::relaxation_source(),
        &[("n", n)],
        &inputs(&[("u", u)]),
        n,
    );
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
        .sample_size(10);
    targets = bench_par_scaling
);
criterion_main!(benches);
