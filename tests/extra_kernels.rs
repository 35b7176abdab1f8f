//! Equivalence tests for the extra scientific kernels: pipeline ==
//! thunked == oracle, plus the §10 parallelism verdicts they
//! illustrate.

use std::collections::HashMap;

use hac_analysis::parallel::parallelism_summary;
use hac_core::pipeline::{compile, run, CompileOptions, ExecMode};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_schedule::split::UpdateStrategy;
use hac_workloads as wl;

fn both_modes(
    src: &str,
    env: &ConstEnv,
    inputs: &HashMap<String, ArrayBuf>,
) -> (
    hac_core::pipeline::ExecOutput,
    hac_core::pipeline::ExecOutput,
) {
    let program = parse_program(src).unwrap();
    let funcs = FuncTable::new();
    let auto = compile(&program, env, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("compile: {e}"));
    let thunked = compile(
        &program,
        env,
        &CompileOptions {
            mode: ExecMode::ForceThunked,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    (
        run(&auto, inputs, &funcs).unwrap_or_else(|e| panic!("run auto: {e}")),
        run(&thunked, inputs, &funcs).unwrap_or_else(|e| panic!("run thunked: {e}")),
    )
}

#[test]
fn prefix_sum_and_running_max() {
    let n = 64;
    let env = ConstEnv::from_pairs([("n", n)]);
    let u = wl::random_vector(n, 51);
    let mut inputs = HashMap::new();
    inputs.insert("u".to_string(), u.clone());
    let (a, t) = both_modes(wl::prefix_sum_source(), &env, &inputs);
    wl::assert_close(a.array("s"), &wl::prefix_sum_oracle(&u, n), 1e-9);
    wl::assert_close(t.array("s"), &wl::prefix_sum_oracle(&u, n), 1e-9);
    assert_eq!(a.counters.thunked.thunks_allocated, 0);

    let (a2, t2) = both_modes(wl::running_max_source(), &env, &inputs);
    wl::assert_close(a2.array("s"), &wl::running_max_oracle(&u, n), 1e-12);
    wl::assert_close(t2.array("s"), &wl::running_max_oracle(&u, n), 1e-12);
}

#[test]
fn heat1d_time_wavefront() {
    let (n, m) = (16, 10);
    let env = ConstEnv::from_pairs([("n", n), ("m", m)]);
    let u0 = wl::vector(n, |i| if i == n / 2 { 10.0 } else { 0.0 });
    let mut inputs = HashMap::new();
    inputs.insert("u0".to_string(), u0.clone());
    let (a, t) = both_modes(wl::heat1d_source(), &env, &inputs);
    let oracle = wl::heat1d_oracle(&u0, n, m);
    wl::assert_close(a.array("u"), &oracle, 1e-12);
    wl::assert_close(t.array("u"), &oracle, 1e-12);
    // The time loop carries; the space loop is the §10 vectorization
    // candidate.
    let program = parse_program(wl::heat1d_source()).unwrap();
    let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
    let par = parallelism_summary(&compiled.report.arrays[0].loops);
    assert!(
        par.get("vectorizable")
            .is_some_and(|v| v.iter().any(|l| l.starts_with("j "))),
        "space loop should be vectorizable: {par:?}"
    );
}

#[test]
fn lk23_in_place_wavefront() {
    let n = 12;
    let env = ConstEnv::from_pairs([("n", n)]);
    let za = wl::random_matrix(n, n, 61);
    let zr = wl::random_matrix(n, n, 67);
    let zb = wl::random_matrix(n, n, 71);
    let mut inputs = HashMap::new();
    inputs.insert("za".to_string(), za.clone());
    inputs.insert("zr".to_string(), zr.clone());
    inputs.insert("zb".to_string(), zb.clone());
    let program = parse_program(wl::lk23_source()).unwrap();
    let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
    let strategy = &compiled.report.updates[0].strategy;
    assert!(
        matches!(strategy, UpdateStrategy::InPlace | UpdateStrategy::Split(_)),
        "{strategy}"
    );
    let out = run(&compiled, &inputs, &FuncTable::new()).unwrap();
    wl::assert_close(out.array("qa"), &wl::lk23_oracle(&za, &zr, &zb, n), 1e-12);
    assert_eq!(out.counters.vm.elements_copied, 0);
    assert_eq!(out.counters.vm.temp_elements, 0);
}

#[test]
fn convolution_vectorizable() {
    let n = 40;
    let env = ConstEnv::from_pairs([("n", n)]);
    let u = wl::random_vector(n, 77);
    let mut inputs = HashMap::new();
    inputs.insert("u".to_string(), u.clone());
    let (a, t) = both_modes(wl::convolution_source(), &env, &inputs);
    let oracle = wl::convolution_oracle(&u, n);
    wl::assert_close(a.array("c"), &oracle, 1e-12);
    wl::assert_close(t.array("c"), &oracle, 1e-12);
    let program = parse_program(wl::convolution_source()).unwrap();
    let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
    let par = parallelism_summary(&compiled.report.arrays[0].loops);
    assert!(
        par.contains_key("vectorizable"),
        "no recursion → vectorizable: {par:?}"
    );
}

#[test]
fn pascal_with_guards() {
    let n = 10;
    let env = ConstEnv::from_pairs([("n", n)]);
    let (a, t) = both_modes(wl::pascal_source(), &env, &HashMap::new());
    let oracle = wl::pascal_oracle(n);
    wl::assert_close(a.array("p"), &oracle, 1e-12);
    wl::assert_close(t.array("p"), &oracle, 1e-12);
    // Guards prevent the empties proof → runtime checks compiled; they
    // all pass.
    assert!(a.counters.vm.check_ops > 0, "{:?}", a.counters.vm);
}

#[test]
fn dot_and_matvec_match_oracles_bit_exactly() {
    // The fused reduction kernels fold strictly left-to-right — the
    // same FP op order as the oracles — so the comparison is exact
    // (tolerance 0.0), not merely close.
    let n = 48;
    let env = ConstEnv::from_pairs([("n", n)]);
    let a = wl::random_vector(n, 91);
    let b = wl::random_vector(n, 92);
    let inputs = HashMap::from([("a".to_string(), a.clone()), ("b".to_string(), b.clone())]);
    let (auto, thunked) = both_modes(wl::dot_source(), &env, &inputs);
    let oracle = wl::dot_oracle(&a, &b, n);
    wl::assert_close(auto.array("r"), &oracle, 0.0);
    wl::assert_close(thunked.array("r"), &oracle, 0.0);

    let m = wl::random_matrix(n, n, 93);
    let x = wl::random_vector(n, 94);
    let inputs = HashMap::from([("m".to_string(), m.clone()), ("x".to_string(), x.clone())]);
    let (auto, thunked) = both_modes(wl::matvec_source(), &env, &inputs);
    let oracle = wl::matvec_oracle(&m, &x, n);
    wl::assert_close(auto.array("y"), &oracle, 0.0);
    wl::assert_close(thunked.array("y"), &oracle, 0.0);

    // The reduction verdict surfaces in the report: matvec's inner k
    // loop reduces while its outer i loop stays parallel.
    let program = parse_program(wl::matvec_source()).unwrap();
    let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
    let par = parallelism_summary(&compiled.report.arrays[0].loops);
    assert!(
        par.contains_key("reduction"),
        "matvec inner loop must carry the reduction verdict: {par:?}"
    );
    assert!(
        par.contains_key("parallelizable"),
        "matvec outer loop must stay parallel: {par:?}"
    );
}
