//! Semantic tests for the paper's §2 strictness story and deeper
//! scheduling shapes: `force-elements` strictification, partial-⊥
//! arrays, non-commutative accumulation, and 3-level nests.

use std::collections::HashMap;

use hac_core::pipeline::{compile, compile_and_run, run, CompileOptions, ExecMode};
use hac_lang::env::ConstEnv;
use hac_lang::number::number_clauses;
use hac_lang::parser::{parse_comp, parse_program};
use hac_runtime::error::RuntimeError;
use hac_runtime::group::ThunkedGroup;
use hac_runtime::value::FuncTable;
use hac_workloads as wl;

/// §2: `(force-elements a)!i = ⊥ if ∃j: a!j = ⊥` — a single cyclic
/// element poisons the strictified array even though other elements
/// are individually fine.
#[test]
fn force_elements_is_strict_in_every_element() {
    let mut c = parse_comp("[ 1 := 42 ] ++ [ 2 := a!3 ] ++ [ 3 := a!2 ]").unwrap();
    number_clauses(&mut c);
    let env = ConstEnv::new();
    let others = HashMap::new();
    let funcs = FuncTable::new();
    let a =
        ThunkedGroup::build(&[("a", vec![(1, 3)], &c)], &env, &[], &others, &funcs, None).unwrap();
    // Non-strict semantics: element 1 is perfectly demandable...
    assert_eq!(a.demand("a", &[1]).unwrap(), 42.0);
    // ...but the strict context demands everything, and 2↔3 is ⊥.
    assert!(matches!(
        a.force_elements(),
        Err(RuntimeError::Bottom { .. })
    ));
}

/// §2's hidden-recursion example: `letrec a = g (f a)` makes an
/// apparently non-self-dependent definition recursive. Encoded with
/// two arrays: `v` is defined from `u`, and the caller ties the knot
/// `u = v`. `letrec*`'s strict context turns the hidden cycle into an
/// immediate ⊥ instead of a lurking thunk.
#[test]
fn hidden_recursion_through_the_knot_is_bottom() {
    let src = r#"
param n;
letrec* v = array (1,n) [ i := u!i + 1 | i <- [1..n] ]
      and u = array (1,n) [ i := v!i | i <- [1..n] ];
"#;
    let env = ConstEnv::from_pairs([("n", 3)]);
    let program = parse_program(src).unwrap();
    let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
    let err = run(&compiled, &HashMap::new(), &FuncTable::new()).unwrap_err();
    assert!(matches!(err, RuntimeError::Bottom { .. }), "{err}");
}

/// A mutually recursive group that *is* well founded evaluates under
/// the same mechanism.
#[test]
fn grounded_mutual_recursion_succeeds() {
    let src = r#"
param n;
letrec* even = array (0,n) ([ 0 := 1 ] ++ [ i := odd!(i-1) | i <- [1..n] ])
      and odd  = array (0,n) ([ 0 := 0 ] ++ [ i := even!(i-1) | i <- [1..n] ]);
result even, odd;
"#;
    let env = ConstEnv::from_pairs([("n", 6)]);
    let out = compile_and_run(src, &env, &HashMap::new()).unwrap();
    assert_eq!(
        out.array("even").data(),
        &[1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    );
    assert_eq!(
        out.array("odd").data(),
        &[0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    );
}

/// Accumulated arrays preserve subscript/value list order for
/// non-commutative combining functions end to end (§3/§7).
#[test]
fn accumulated_subtraction_preserves_order() {
    let src = "param n;\nlet h = accumArray (-) 0 (1,1) [ 1 := i | i <- [1..n] ];\n";
    let env = ConstEnv::from_pairs([("n", 4)]);
    let out = compile_and_run(src, &env, &HashMap::new()).unwrap();
    // (((0-1)-2)-3)-4 = -10.
    assert_eq!(out.array("h").data(), &[-10.0]);
}

/// A 3-level wavefront: all three loops forward, thunkless, matching
/// the thunked baseline.
#[test]
fn three_level_wavefront() {
    let src = r#"
param n;
letrec* a = array ((1,1,1),(n,n,n))
   ([ (1,j,k) := 1 | j <- [1..n], k <- [1..n] ] ++
    [ (i,1,k) := 1 | i <- [2..n], k <- [1..n] ] ++
    [ (i,j,1) := 1 | i <- [2..n], j <- [2..n] ] ++
    [ (i,j,k) := a!(i-1,j,k) + a!(i,j-1,k) + a!(i,j,k-1)
       | i <- [2..n], j <- [2..n], k <- [2..n] ]);
"#;
    let env = ConstEnv::from_pairs([("n", 5)]);
    let program = parse_program(src).unwrap();
    let auto = compile(&program, &env, &CompileOptions::default()).unwrap();
    let thunked = compile(
        &program,
        &env,
        &CompileOptions {
            mode: ExecMode::ForceThunked,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let funcs = FuncTable::new();
    let a = run(&auto, &HashMap::new(), &funcs).unwrap();
    let t = run(&thunked, &HashMap::new(), &funcs).unwrap();
    assert_eq!(a.array("a").data(), t.array("a").data());
    assert_eq!(a.counters.thunked.thunks_allocated, 0, "thunkless 3-D");
    // 3-D trinomial lattice value at the far corner.
    assert_eq!(a.array("a").get("a", &[2, 2, 2]).unwrap(), 3.0);
}

/// Mixed directions across levels: outer forward, middle backward,
/// inner forward — from a single read `a!(i-1, j+1, k-1)`.
#[test]
fn zigzag_three_level_directions() {
    let src = r#"
param n;
letrec* a = array ((1,1,1),(n,n,n))
   ([ (1,j,k) := j + k | j <- [1..n], k <- [1..n] ] ++
    [ (i,n,k) := i + k | i <- [2..n], k <- [1..n] ] ++
    [ (i,j,1) := i + j | i <- [2..n], j <- [1..n-1] ] ++
    [ (i,j,k) := a!(i-1,j+1,k-1) + 1
       | i <- [2..n], j <- [1..n-1], k <- [2..n] ]);
"#;
    let env = ConstEnv::from_pairs([("n", 4)]);
    let program = parse_program(src).unwrap();
    let auto = compile(&program, &env, &CompileOptions::default()).unwrap();
    let thunked = compile(
        &program,
        &env,
        &CompileOptions {
            mode: ExecMode::ForceThunked,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let funcs = FuncTable::new();
    let a = run(&auto, &HashMap::new(), &funcs).unwrap();
    let t = run(&thunked, &HashMap::new(), &funcs).unwrap();
    assert_eq!(a.array("a").data(), t.array("a").data());
    assert_eq!(a.counters.thunked.thunks_allocated, 0);
    // The report should show the interior nest carried at all levels.
    assert!(!auto.report.arrays.is_empty());
}

/// Chained updates stay single-threaded: two consecutive in-place
/// `bigupd`s over one buffer.
#[test]
fn chained_updates_single_threaded() {
    let src = r#"
param n;
input a (1,n);
b = bigupd a [ i := a!i * 2 | i <- [1..n] ];
c = bigupd b [ i := b!i + 1 | i <- [1..n] ];
result c;
"#;
    let n = 6;
    let env = ConstEnv::from_pairs([("n", n)]);
    let u = wl::vector(n, |i| i as f64);
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), u);
    let out = compile_and_run(src, &env, &inputs).unwrap();
    let c = out.array("c");
    for i in 1..=n {
        assert_eq!(c.get("c", &[i]).unwrap(), (2 * i + 1) as f64);
    }
    assert_eq!(out.counters.vm.elements_copied, 0, "both updates in place");
}

/// The §2 `letrec*` scoping promise: every element is evaluated before
/// the binding is visible, so later bindings can rely on totality.
#[test]
fn letrec_star_strict_context_orders_bindings() {
    let src = r#"
param n;
letrec* a = array (1,n) ([ 1 := 1 ] ++ [ i := a!(i-1) + 1 | i <- [2..n] ]);
let s = array (1,1) [ 1 := a!n * 10 ];
result s;
"#;
    let env = ConstEnv::from_pairs([("n", 5)]);
    let out = compile_and_run(src, &env, &HashMap::new()).unwrap();
    assert_eq!(out.array("s").data(), &[50.0]);
}
