//! End-to-end loop splitting (§8.1.3): a real program whose flow edges
//! mix `(<)` and `(>)` acyclically, forcing the scheduler to split the
//! loop into passes — and compile-error paths of the pipeline.

use std::collections::HashMap;

use hac_core::pipeline::{compile, compile_and_run, CompileError, CompileOptions};
use hac_core::report::ArrayOutcome;
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;

/// Three interleaved clause families over one index:
/// * A writes `3i−2`;
/// * B reads A at an *earlier* instance (edge A→B `(<)`);
/// * C reads B at a *later* instance (edge B→C `(>)`).
///
/// No single direction satisfies both, but the graph is acyclic, so the
/// §8.1.3 multipass algorithm splits the loop instead of thunking.
const SRC: &str = r#"
param n;
letrec* a = array (1,3*n)
   ([ 3*i-2 := i | i <- [1..n] ] ++
    [ 3*i-1 := if i == 1 then 100 else a!(3*(i-1)-2) + 1 | i <- [1..n] ] ++
    [ 3*i := a!(3*(i+1)-1) * 10 | i <- [1..n-1] ] ++
    [ 3*n := 0 ]);
"#;

#[test]
fn mixed_direction_program_splits_into_passes() {
    let n = 6;
    let env = ConstEnv::from_pairs([("n", n)]);
    let program = parse_program(SRC).unwrap();
    let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
    let outcome = &compiled.report.arrays[0].outcome;
    let ArrayOutcome::Thunkless { plan, .. } = outcome else {
        panic!("multipass, not thunks: {outcome}");
    };
    // The loop must appear more than once (split into passes).
    let plan = plan.render();
    let loop_headers = plan.matches("for i").count();
    assert!(loop_headers >= 2, "expected ≥2 passes:\n{plan}");

    // Semantics: equals the thunked baseline.
    let out = compile_and_run(SRC, &env, &HashMap::new()).unwrap();
    assert_eq!(out.counters.thunked.thunks_allocated, 0);
    let a = out.array("a");
    // Spot-check against the recurrences: A(i) = i,
    // B(i) = i==1 ? 100 : A(i−1)+1 = i, C(i) = B(i+1)·10.
    for i in 1..=n {
        assert_eq!(a.get("a", &[3 * i - 2]).unwrap(), i as f64);
        let b = if i == 1 { 100.0 } else { i as f64 };
        assert_eq!(a.get("a", &[3 * i - 1]).unwrap(), b);
    }
    for i in 1..n {
        let b_next = (i + 1) as f64;
        assert_eq!(a.get("a", &[3 * i]).unwrap(), b_next * 10.0);
    }
    assert_eq!(a.get("a", &[3 * n]).unwrap(), 0.0);
}

#[test]
fn duplicate_name_rejected() {
    let src = "param n;\nlet a = array (1,n) [ i := 0 | i <- [1..n] ];\n\
               let a = array (1,n) [ i := 1 | i <- [1..n] ];\n";
    let env = ConstEnv::from_pairs([("n", 3)]);
    let err = compile(
        &parse_program(src).unwrap(),
        &env,
        &CompileOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, CompileError::DuplicateName(n) if n == "a"));
}

#[test]
fn unknown_base_rejected() {
    let src = "param n;\nb = bigupd nope [ i := 0 | i <- [1..n] ];\n";
    let env = ConstEnv::from_pairs([("n", 3)]);
    let err = compile(
        &parse_program(src).unwrap(),
        &env,
        &CompileOptions::default(),
    )
    .unwrap_err();
    assert!(matches!(err, CompileError::UnknownBase(n) if n == "nope"));
}

#[test]
fn unbound_parameter_rejected() {
    let src = "param n;\nlet a = array (1,n) [ i := 0 | i <- [1..n] ];\n";
    let err = compile(
        &parse_program(src).unwrap(),
        &ConstEnv::new(),
        &CompileOptions::default(),
    )
    .unwrap_err();
    // Surfaces as the analysis's non-constant-bound error.
    assert!(matches!(err, CompileError::Analysis(_)), "{err}");
}

#[test]
fn unschedulable_update_rejected() {
    // A flow cycle inside a bigupd: b needs both neighbors' new values.
    let src = "param n;\ninput a (1,n);\n\
               b = bigupd a [ i := b!(i-1) + b!(i+1) | i <- [2..n-1] ];\n";
    let env = ConstEnv::from_pairs([("n", 8)]);
    let err = compile(
        &parse_program(src).unwrap(),
        &env,
        &CompileOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, CompileError::UnschedulableUpdate { .. }),
        "{err}"
    );
}

#[test]
fn use_after_inplace_update_rejected() {
    // `c` reads `a` after `b = bigupd a` consumed its storage in
    // place: the compiler must reject (single-threadedness, §9).
    let src = "param n;\ninput a (1,n);\n\
               b = bigupd a [ i := a!i * 2 | i <- [1..n] ];\n\
               let c = array (1,n) [ i := a!i + 1 | i <- [1..n] ];\n";
    let env = ConstEnv::from_pairs([("n", 4)]);
    let err = compile(
        &parse_program(src).unwrap(),
        &env,
        &CompileOptions::default(),
    )
    .unwrap_err();
    assert!(
        matches!(err, CompileError::UseAfterUpdate { ref array, .. } if array == "a"),
        "{err}"
    );

    // Reading the update's *result* is the blessed pattern.
    let ok = "param n;\ninput a (1,n);\n\
              b = bigupd a [ i := a!i * 2 | i <- [1..n] ];\n\
              let c = array (1,n) [ i := b!i + 1 | i <- [1..n] ];\n";
    assert!(compile(
        &parse_program(ok).unwrap(),
        &env,
        &CompileOptions::default()
    )
    .is_ok());
}
