//! End-to-end scalar reductions (§3.1): `sum`/`product`/`reduce`
//! bindings compiled as DO loops, with results flowing into later
//! array definitions.

use std::collections::HashMap;

use hac_core::pipeline::compile_and_run;
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_lang::pretty::program_to_string;
use hac_runtime::error::RuntimeError;
use hac_workloads as wl;

#[test]
fn dot_product_end_to_end() {
    // The paper's §3.1 example verbatim: sum [ a!k * b!k | k <- [1..n] ].
    let src = r#"
param n;
input a (1,n);
input b (1,n);
let s = sum [ a!k * b!k | k <- [1..n] ];
let scaled = array (1,n) [ i := a!i / s | i <- [1..n] ];
result scaled;
"#;
    let n = 8;
    let env = ConstEnv::from_pairs([("n", n)]);
    let a = wl::vector(n, |i| i as f64);
    let b = wl::vector(n, |_| 2.0);
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), a.clone());
    inputs.insert("b".to_string(), b.clone());
    let out = compile_and_run(src, &env, &inputs).unwrap();
    let dot: f64 = (1..=n).map(|i| (i as f64) * 2.0).sum();
    assert_eq!(out.scalar("s"), dot);
    for i in 1..=n {
        assert!((out.array("scaled").get("scaled", &[i]).unwrap() - i as f64 / dot).abs() < 1e-12);
    }
}

#[test]
fn norm_of_computed_array() {
    // Reduce over a letrec*-defined array, then normalize in a bigupd.
    let src = r#"
param n;
letrec* v = array (1,n) ([ 1 := 1 ] ++ [ i := v!(i-1) + 1 | i <- [2..n] ]);
let nrm = sum [ v!k * v!k | k <- [1..n] ];
w = bigupd v [ i := v!i / sqrt(nrm) | i <- [1..n] ];
result w;
"#;
    let n = 5;
    let env = ConstEnv::from_pairs([("n", n)]);
    let out = compile_and_run(src, &env, &HashMap::new()).unwrap();
    let sq: f64 = (1..=n).map(|i| (i * i) as f64).sum();
    assert_eq!(out.scalar("nrm"), sq);
    let w = out.array("w");
    let norm: f64 = (1..=n).map(|i| w.get("w", &[i]).unwrap().powi(2)).sum();
    assert!((norm - 1.0).abs() < 1e-12, "unit norm, got {norm}");
    assert_eq!(out.counters.vm.elements_copied, 0, "in-place normalize");
}

#[test]
fn product_and_custom_reduce() {
    let src = r#"
param n;
let f = product [ i | i <- [1..n] ];
let m = reduce (max) 0 [ i * (n - i) | i <- [1..n] ];
let a = array (1,2) ([ 1 := f ] ++ [ 2 := m ]);
result a;
"#;
    let env = ConstEnv::from_pairs([("n", 6)]);
    let out = compile_and_run(src, &env, &HashMap::new()).unwrap();
    assert_eq!(out.scalar("f"), 720.0);
    assert_eq!(out.scalar("m"), 9.0); // max i(6−i) = 3·3
    assert_eq!(out.array("a").data(), &[720.0, 9.0]);
}

#[test]
fn reduction_feeds_thunked_fallback() {
    // The scalar must also reach arrays evaluated with thunks
    // (indirect subscripts force the fallback).
    let src = r#"
param n;
input p (1,n);
let s = sum [ k | k <- [1..n] ];
letrec* a = array (1,n) [ i := if i == 1 then s else a!(p!i) + 1 | i <- [1..n] ];
result a;
"#;
    let n = 4;
    let env = ConstEnv::from_pairs([("n", n)]);
    let p = wl::vector(n, |i| (i - 1).max(1) as f64);
    let mut inputs = HashMap::new();
    inputs.insert("p".to_string(), p);
    let out = compile_and_run(src, &env, &inputs).unwrap();
    assert!(out.counters.thunked.thunks_allocated > 0);
    assert_eq!(out.array("a").data(), &[10.0, 11.0, 12.0, 13.0]);
}

#[test]
fn reduction_pretty_roundtrip() {
    let src = "param n;\nlet s = reduce (+) 0.0 [ i * i | i <- [1..n], i > 2 ];\n";
    let p = parse_program(src).unwrap();
    let printed = program_to_string(&p);
    let back = parse_program(&printed).unwrap();
    assert_eq!(p, back, "{printed}");
}

#[test]
fn guards_lets_and_appends_in_reductions() {
    let src = r#"
param n;
let s = sum [ v | i <- [1..n], i mod 2 == 0, let v = i * 10 ] ++ [ 5 ];
let a = array (1,1) [ 1 := s ];
"#;
    let env = ConstEnv::from_pairs([("n", 5)]);
    let out = compile_and_run(src, &env, &HashMap::new()).unwrap();
    assert_eq!(out.scalar("s"), 20.0 + 40.0 + 5.0);
}

/// Reductions convert generator bounds as the thunked evaluator does:
/// a bound that is not a finite integer is `NonIntegerBound`, never
/// truncated (`2.5` to 2, NaN to 0, `+inf` to a loop that does not
/// end). Accumulated arrays share the walk; their bounds must be
/// constant at compile time, so `hac-runtime`'s accum tests cover them.
#[test]
fn non_integer_generator_bounds_are_errors() {
    for (bound, value) in [("5 / 2", "2.5"), ("0 / 0", "NaN"), ("1 / 0", "inf")] {
        let src = format!(
            "param n;\nlet s = sum [ {bound} | i <- [1..n] ];\nlet t = sum [ 1 | j <- [1..s] ];\n"
        );
        let env = ConstEnv::from_pairs([("n", 1)]);
        let err = compile_and_run(&src, &env, &HashMap::new()).unwrap_err();
        assert!(
            matches!(
                err.downcast_ref::<RuntimeError>(),
                Some(RuntimeError::NonIntegerBound { var, .. }) if var == "j"
            ),
            "s = {value}: {err}"
        );
        assert!(err.to_string().contains(value), "{err}");
    }
}
