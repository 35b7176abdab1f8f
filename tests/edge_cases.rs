//! Edge cases across the pipeline: unusual bounds, empty ranges,
//! strided generators, zero-size arrays, and parameterized borders.

use std::collections::HashMap;

use hac_analysis::analyze::{CollisionVerdict, EmptiesVerdict};
use hac_analysis::cost::Bound;
use hac_core::pipeline::{
    compile, compile_and_run, run, run_with_options, CompileOptions, Engine, ExecMode, ExecOutput,
    RunOptions,
};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::error::RuntimeError;
use hac_runtime::governor::Limits;
use hac_runtime::value::{ArrayBuf, FuncTable};

fn run_src(src: &str, pairs: &[(&str, i64)]) -> hac_core::pipeline::ExecOutput {
    let env = ConstEnv::from_pairs(pairs.iter().copied());
    compile_and_run(src, &env, &HashMap::new()).unwrap()
}

#[test]
fn zero_based_and_negative_bounds() {
    let out = run_src(
        "param n;\nlet a = array (-2,n) [ i := i * i | i <- [-2..n] ];\n",
        &[("n", 3)],
    );
    let a = out.array("a");
    assert_eq!(a.get("a", &[-2]).unwrap(), 4.0);
    assert_eq!(a.get("a", &[0]).unwrap(), 0.0);
    assert_eq!(a.get("a", &[3]).unwrap(), 9.0);
}

#[test]
fn recurrence_over_negative_range() {
    let out = run_src(
        "param n;\nletrec* a = array (-3,n) \
         ([ -3 := 1 ] ++ [ i := a!(i-1) * 2 | i <- [-2..n] ]);\n",
        &[("n", 2)],
    );
    assert_eq!(out.array("a").data(), &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
}

#[test]
fn strided_generators_forward_and_backward() {
    // Write evens forward, odds backward — no collisions, no empties
    // in a guarded sense... written totally:
    let out = run_src(
        "param n;\nlet a = array (1,2*n) \
         ([ i := 1 | i <- [2,4..2*n] ] ++ [ i := 2 | i <- [2*n-1,2*n-3..1] ]);\n",
        &[("n", 4)],
    );
    assert_eq!(
        out.array("a").data(),
        &[2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0]
    );
    // The analysis proves evens and odds disjoint → no checks.
    assert_eq!(out.counters.vm.check_ops, 0);
}

#[test]
fn strided_recurrence_normalizes() {
    // a!(2i) depends on a!(2i-2): a stride-2 chain seeded at 2,
    // odd slots filled constant.
    let out = run_src(
        "param n;\nletrec* a = array (1,2*n) \
         ([ 2 := 1 ] ++ [ i := a!(i-2) + 1 | i <- [4,6..2*n] ] ++ \
          [ i := 0 | i <- [1,3..2*n-1] ]);\n",
        &[("n", 4)],
    );
    assert_eq!(
        out.array("a").data(),
        &[0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 4.0]
    );
    assert_eq!(out.counters.thunked.thunks_allocated, 0, "thunkless");
}

#[test]
fn empty_generator_and_tiny_sizes() {
    // n = 1 degenerates every recurrence range to empty.
    let out = run_src(
        "param n;\nletrec* a = array (1,n) \
         ([ 1 := 7 ] ++ [ i := a!(i-1) | i <- [2..n] ]);\n",
        &[("n", 1)],
    );
    assert_eq!(out.array("a").data(), &[7.0]);
}

#[test]
fn zero_size_array() {
    let out = run_src(
        "param n;\nlet a = array (1,n) [ i := 0 | i <- [1..n] ];\n",
        &[("n", 0)],
    );
    assert!(out.array("a").is_empty());
}

#[test]
fn single_element_backward_loop() {
    let out = run_src(
        "param n;\nletrec* a = array (1,n) \
         ([ n := 1 ] ++ [ i := a!(i+1) + 1 | i <- [1..n-1] ]);\n",
        &[("n", 2)],
    );
    assert_eq!(out.array("a").data(), &[2.0, 1.0]);
}

#[test]
fn parameters_inside_values_and_guards() {
    let out = run_src(
        "param n, k;\nlet a = array (1,n) \
         ([ i := n * 100 + k | i <- [1..n], i == k ] ++ \
          [ i := i | i <- [1..n], i /= k ]);\n",
        &[("n", 4), ("k", 3)],
    );
    assert_eq!(out.array("a").data(), &[1.0, 2.0, 403.0, 4.0]);
}

#[test]
fn where_bindings_between_loops() {
    let out = run_src(
        "param n;\nlet a = array ((1,1),(n,n)) \
         [* ([ (i,j) := v + j | j <- [1..n] ] where v = i * 10) | i <- [1..n] *];\n",
        &[("n", 3)],
    );
    let a = out.array("a");
    assert_eq!(a.get("a", &[2, 3]).unwrap(), 23.0);
    assert_eq!(a.get("a", &[3, 1]).unwrap(), 31.0);
}

#[test]
fn shadowed_generator_names() {
    // The same index name reused in disjoint generators.
    let out = run_src(
        "param n;\nlet a = array (1,2*n) \
         ([ i := 1 | i <- [1..n] ] ++ [ i + n := 2 | i <- [1..n] ]);\n",
        &[("n", 2)],
    );
    assert_eq!(out.array("a").data(), &[1.0, 1.0, 2.0, 2.0]);
}

#[test]
fn forced_checked_mode_still_correct() {
    let src = "param n;\nletrec* a = array (1,n) \
               ([ 1 := 1 ] ++ [ i := a!(i-1) + 1 | i <- [2..n] ]);\n";
    let env = ConstEnv::from_pairs([("n", 5)]);
    let program = parse_program(src).unwrap();
    let checked = compile(
        &program,
        &env,
        &CompileOptions {
            mode: ExecMode::ForceChecked,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let out = run(&checked, &HashMap::new(), &FuncTable::new()).unwrap();
    assert_eq!(out.array("a").data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    assert!(out.counters.vm.check_ops >= 10, "{:?}", out.counters.vm);
}

#[test]
fn deep_where_chain() {
    let out = run_src(
        "param n;\nlet a = array (1,n) \
         [ i := let x = i * 2; y = x + 1; z = y * y in z - x | i <- [1..n] ];\n",
        &[("n", 3)],
    );
    // z - x = (2i+1)² - 2i
    assert_eq!(out.array("a").data(), &[7.0, 21.0, 43.0]);
}

#[test]
fn min_max_and_builtins_in_values() {
    let out = run_src(
        "param n;\nlet a = array (1,n) \
         [ i := max(min(i, 3), 2) + sqrt(4) | i <- [1..n] ];\n",
        &[("n", 5)],
    );
    assert_eq!(out.array("a").data(), &[4.0, 4.0, 5.0, 5.0, 5.0]);
}

/// `matmul`'s init and accumulate clauses write disjoint elements of
/// `p`. Proving it takes the exact test; its search must cost O(n), so
/// the proof, and with it checkless fused code, holds past n = 100.
#[test]
fn matmul_stays_checkless_and_fused_at_n128() {
    let n = 128;
    let program = parse_program(include_str!("../programs/matmul.hac")).unwrap();
    let env = ConstEnv::from_pairs([("n", n)]);
    let compile_in = |mode| {
        let options = CompileOptions {
            mode,
            ..CompileOptions::default()
        };
        compile(&program, &env, &options).unwrap()
    };
    let compiled = compile_in(ExecMode::Auto);
    let p = compiled
        .report
        .arrays
        .iter()
        .find(|a| a.name == "p")
        .unwrap();
    assert_eq!(p.collisions, CollisionVerdict::Impossible);
    assert_eq!(p.empties, EmptiesVerdict::Impossible);
    assert!(
        p.fusion
            .iter()
            .any(|f| f.var == "k" && f.kernel.as_deref() == Some("multiply-add accumulate")),
        "{:?}",
        p.fusion
    );

    let inputs = HashMap::from([
        ("x".to_string(), hac_workloads::random_matrix(n, n, 31)),
        ("y".to_string(), hac_workloads::random_matrix(n, n, 37)),
    ]);
    let out = run(&compiled, &inputs, &FuncTable::new()).unwrap();
    assert_eq!(out.counters.vm.check_ops, 0);
    let checked = run(
        &compile_in(ExecMode::ForceChecked),
        &inputs,
        &FuncTable::new(),
    )
    .unwrap();
    let bits = |o: &hac_core::pipeline::ExecOutput| {
        o.array("c")
            .data()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(&out), bits(&checked));
}

/// Run `src` on the tree-walker and on the tape at one and two workers;
/// all three must agree bit for bit. Returns the one-worker tape run.
fn run_every_engine(
    src: &str,
    pairs: &[(&str, i64)],
    inputs: &HashMap<String, ArrayBuf>,
) -> ExecOutput {
    let program = parse_program(src).unwrap();
    let env = ConstEnv::from_pairs(pairs.iter().copied());
    let bits = |o: &ExecOutput| {
        let mut v: Vec<_> = o
            .arrays
            .iter()
            .map(|(n, b)| {
                let data: Vec<u64> = b.data().iter().map(|x| x.to_bits()).collect();
                (n.clone(), b.bounds(), data)
            })
            .collect();
        v.sort();
        v
    };
    let mut runs = Vec::new();
    for (engine, threads) in [(Engine::TreeWalk, 1), (Engine::Tape, 1), (Engine::Tape, 2)] {
        let options = CompileOptions {
            engine,
            ..CompileOptions::default()
        };
        let compiled = compile(&program, &env, &options).unwrap();
        let opts = RunOptions {
            threads: Some(threads),
            limits: Limits::unlimited(),
            faults: None,
            ceiling: None,
        };
        let out = run_with_options(&compiled, inputs, &FuncTable::new(), &opts)
            .unwrap_or_else(|e| panic!("{engine:?}@{threads}: {e}"));
        runs.push(out);
    }
    for out in &runs[1..] {
        assert_eq!(bits(out), bits(&runs[0]), "engines disagree");
    }
    runs.swap_remove(1)
}

/// `mod` by zero has no integer result; neither has `i64::MIN mod -1`.
/// Every engine, and the tape's constant folding, yields NaN.
#[test]
fn mod_without_an_integer_result_is_nan_on_every_engine() {
    let src = "param n;\nlet a = array (1,n) \
         ([ i := i mod 0 | i <- [1..n-2] ] ++ [ n-1 := 7 mod 0 ] ++ \
          [ n := (0 - 9223372036854775807 - 1) mod (0 - 1) ]);\n";
    let out = run_every_engine(src, &[("n", 5)], &HashMap::new());
    assert!(out.array("a").data().iter().all(|v| v.is_nan()));
}

/// The out-of-place `jacobi` at n = 1 and 2 has an empty interior:
/// its result `((2,2),(n-1,n-1))` has `hi < lo`. Every engine builds
/// it empty, and its certificate closes at zero fuel.
#[test]
fn jacobi_with_an_empty_interior_returns_an_empty_array() {
    let src = include_str!("../programs/jacobi.hac");
    for n in [1, 2] {
        let inputs = HashMap::from([("a".to_string(), hac_workloads::random_matrix(n, n, 5))]);
        let out = run_every_engine(src, &[("n", n)], &inputs);
        let b = out.array("b");
        assert!(b.is_empty(), "n={n}");
        assert_eq!(b.bounds(), vec![(2, n - 1), (2, n - 1)]);

        let program = parse_program(src).unwrap();
        let env = ConstEnv::from_pairs([("n", n)]);
        let cert = compile(&program, &env, &CompileOptions::default())
            .unwrap()
            .cert;
        assert_eq!(cert.fuel_value(), Some(0), "n={n}: {}", cert.render());
        assert!(cert.mem_value().is_some(), "n={n}: {}", cert.render());
    }
}

/// Array sizes past `u64::MAX` bytes saturate instead of wrapping: a
/// memory-limited run stops on a structured limit error before it
/// allocates (as it does at a size that fits), and each certificate
/// prices the program at `u64::MAX` rather than a wrapped small value.
#[test]
fn oversized_arrays_saturate_their_memory_figures() {
    let compile_at = |src: &str, n: i64| {
        let program = parse_program(src).unwrap();
        compile(
            &program,
            &ConstEnv::from_pairs([("n", n)]),
            &CompileOptions::default(),
        )
        .unwrap()
    };
    let wavefront = include_str!("../programs/wavefront.hac");
    for (n, requested) in [(1_000_000, 8_000_000_000_000), (1_518_500_250, u64::MAX)] {
        let limits = Limits {
            fuel: None,
            mem_bytes: Some(1_000_000_000),
        };
        let err = run_with_options(
            &compile_at(wavefront, n),
            &HashMap::new(),
            &FuncTable::new(),
            &RunOptions {
                threads: Some(1),
                limits,
                faults: None,
                ceiling: None,
            },
        )
        .unwrap_err();
        assert_eq!(
            err,
            hac_runtime::RuntimeError::MemLimitExceeded {
                limit: 1_000_000_000,
                used: 0,
                requested,
            },
            "n={n}"
        );
    }
    for (src, n, mem) in [
        (wavefront, 1_518_500_250, u64::MAX),
        (include_str!("../programs/sor.hac"), 3_037_000_500, u64::MAX),
        // `p` holds n³ elements: 8n³ bytes pass `u64::MAX` while n³
        // still fits the front end's `i64` element count.
        (include_str!("../programs/matmul.hac"), 2_000_000, u64::MAX),
        // A fuel figure between `i64::MAX` and `u64::MAX` with no
        // symbolic form: its constant polynomial holds it exactly.
        (OVERFLOWING_SLIDE, 3_037_000_500, 32),
    ] {
        let cert = compile_at(src, n).cert;
        assert_eq!(cert.mem_value(), Some(mem), "n={n}: {}", cert.render());
        // The rendered polynomial evaluates to the rendered value.
        for bound in [&cert.fuel, &cert.mem] {
            let Bound::Closed { value, poly, .. } = bound else {
                panic!("n={n}: {}", cert.render());
            };
            let lookup = |v: &str| (v == "n").then_some(n);
            assert_eq!(poly.eval(&lookup), Some(*value), "n={n}: {}", cert.render());
        }
    }
    assert_eq!(
        compile_at(OVERFLOWING_SLIDE, 3_037_000_500).cert.render(),
        "cost fuel: 9223372040037250500 = 9223372040037250500, mem: 32 = 32 (upper bound)"
    );
}

/// A trailing `bigupd` whose n² write instances pass `i64::MAX` at
/// n = 3037000500, although its base array is tiny.
const OVERFLOWING_SLIDE: &str = "param n;\ninput a (1,4);\n\
    b = bigupd a [ i + n*j := 0 | i <- [1..n], j <- [1..n] ];\nresult b;\n";

/// Clause instance counts are checked: past `i64::MAX` the update's
/// write count is unknown, so it gets no delta plan, in debug and
/// release builds alike. Below it the plan counts every write.
#[test]
fn overflowing_instance_counts_decline_the_delta_plan() {
    let program = parse_program(OVERFLOWING_SLIDE).unwrap();
    let compile_at = |n: i64| {
        let env = ConstEnv::from_pairs([("n", n)]);
        compile(&program, &env, &CompileOptions::default()).unwrap()
    };
    assert!(compile_at(3_037_000_500).delta.is_none());
    let plan = compile_at(3_037_000_499).delta.expect("the count fits");
    assert_eq!(plan.writes, 3_037_000_499u64.pow(2));
}

/// Past the sizes above the front end's own integers overflow: at
/// n = 2²¹ `matmul`'s `p` holds n³ = 2⁶³ elements, and at n = 3037000500
/// its bound n·n passes `i64::MAX`; an `input`'s bound n·4 passes it at
/// n = 4·10¹⁸. The program is declined with a compile error naming the
/// array, in debug and release builds alike.
#[test]
fn arrays_whose_size_overflows_i64_are_compile_errors() {
    let matmul = include_str!("../programs/matmul.hac");
    let input = "param n;\ninput a (1, n*4);\nb = bigupd a [ 1 := 5 ];\nresult b;\n";
    for (src, n, array) in [
        (matmul, 2_097_152, "p"),
        (matmul, 3_037_000_500, "p"),
        (input, 4_000_000_000_000_000_000, "a"),
    ] {
        assert_eq!(
            compile_error(src, &[("n", n)]),
            format!(
                "array `{array}` is too large: its bounds or element count overflow a 64-bit integer"
            ),
            "n={n}"
        );
    }
}

/// An input whose bounds differ from the program's `input` declaration
/// is a runtime error naming the array and both shapes, in debug and
/// release builds alike: a shifted window would otherwise run on the
/// wrong elements, and a short one would trip a fused kernel's window
/// assertion.
#[test]
fn inputs_with_the_wrong_bounds_are_runtime_errors() {
    let program = parse_program(include_str!("../programs/tridiag.hac")).unwrap();
    let env = ConstEnv::from_pairs([("n", 8)]);
    for engine in [Engine::TreeWalk, Engine::Tape] {
        let options = CompileOptions {
            engine,
            ..CompileOptions::default()
        };
        let compiled = compile(&program, &env, &options).unwrap();
        for (given, shown) in [((0, 7), "[(0, 7)]"), ((1, 4), "[(1, 4)]")] {
            let inputs = HashMap::from([("d".to_string(), ArrayBuf::new(&[given], 1.0))]);
            let err = run(&compiled, &inputs, &FuncTable::new()).unwrap_err();
            assert_eq!(
                err,
                RuntimeError::InputShape {
                    array: "d".to_string(),
                    declared: vec![(1, 8)],
                    given: vec![given],
                },
                "{engine:?}"
            );
            assert_eq!(
                err.to_string(),
                format!(
                    "input array `d` is declared with bounds [(1, 8)] but was given bounds {shown}"
                )
            );
        }
    }
}

/// A generator spanning almost all of `i64` has three instances; its
/// trip count must not wrap. Every mode then sees all three writes of
/// `a!1` and rejects the program with the same compile error.
#[test]
fn trip_count_spanning_i64_agrees_in_every_mode() {
    let program = parse_program(
        "let a = array (1,1) \
         [ 1 := i | i <- [-9223372036854775807, 0 .. 9223372036854775807] ];\n",
    )
    .unwrap();
    for mode in [
        ExecMode::Auto,
        ExecMode::ForceChecked,
        ExecMode::ForceThunked,
    ] {
        let options = CompileOptions {
            mode,
            ..CompileOptions::default()
        };
        let err = compile(&program, &ConstEnv::new(), &options).unwrap_err();
        assert_eq!(
            err.to_string(),
            "array `a`: clauses c0 and c0 definitely write the same element [1]",
            "{mode:?}"
        );
    }
}

fn compile_error(src: &str, pairs: &[(&str, i64)]) -> String {
    let env = ConstEnv::from_pairs(pairs.iter().copied());
    compile(
        &parse_program(src).unwrap(),
        &env,
        &CompileOptions::default(),
    )
    .unwrap_err()
    .to_string()
}

/// A loop bounded by an enclosing loop's index is triangular.
#[test]
fn a_bound_on_an_outer_index_is_named_triangular() {
    let err = compile_error(
        "param n;\nlet a = array ((1,1),(n,n)) [ (i,j) := 1 | i <- [1..n], j <- [1..i] ];\n",
        &[("n", 4)],
    );
    assert_eq!(
        err,
        "loop `j` has triangular bound `i` depending on an outer index"
    );
}

/// A loop bounded by a reduction result depends on a run-time scalar,
/// not on an outer index.
#[test]
fn a_bound_on_a_runtime_scalar_is_not_called_triangular() {
    let err = compile_error(
        "let s = sum [ 5 / 2 | i <- [1..1] ];\n\
         let h = accumArray (+) 0 (1,1) [ 1 := 1 | j <- [1..s] ];\n",
        &[],
    );
    assert_eq!(
        err,
        "loop `j` has bound `s` depending on `s`, which is neither a bound parameter \
         nor an outer loop index (a run-time scalar cannot bound a loop)"
    );
}

/// The fused 4-point stencil divides exactly as the scalar code does:
/// by multiplying with `1/4` (the same bits), and by dividing by 3
/// (whose rounded reciprocal would not give them).
#[test]
fn fused_stencils_divide_bit_for_bit() {
    let n = 24;
    let a = hac_workloads::random_matrix(n, n, 41);
    let inputs = HashMap::from([("a".to_string(), a.clone())]);
    let at = |i: i64, j: i64| a.get("a", &[i, j]).unwrap();
    for divisor in [4, 3] {
        let src = format!(
            "param n;\ninput a ((1,1),(n,n));\n\
             let b = array ((2,2),(n-1,n-1))\n\
             [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i+1,j) + a!(i,j+1)) / {divisor}\n\
             | i <- [2..n-1], j <- [2..n-1] ];\n"
        );
        let compiled = compile(
            &parse_program(&src).unwrap(),
            &ConstEnv::from_pairs([("n", n)]),
            &CompileOptions::default(),
        )
        .unwrap();
        assert!(
            compiled
                .report
                .render()
                .contains(": fused (4-point stencil)"),
            "{}",
            compiled.report.render()
        );
        let out = run(&compiled, &inputs, &FuncTable::new()).unwrap();
        let b = out.array("b");
        let mut reciprocal_differs = false;
        for i in 2..n {
            for j in 2..n {
                let sum = ((at(i - 1, j) + at(i, j - 1)) + at(i + 1, j)) + at(i, j + 1);
                let want = sum / divisor as f64;
                reciprocal_differs |= want.to_bits() != (sum * (1.0 / divisor as f64)).to_bits();
                assert_eq!(
                    b.get("b", &[i, j]).unwrap().to_bits(),
                    want.to_bits(),
                    "/{divisor} at ({i},{j})"
                );
            }
        }
        // The mesh tells the two apart for 3, and cannot for 4.
        assert_eq!(reciprocal_differs, divisor == 3);
    }
}

/// A subscript naming a run-time scalar is not affine: it runs with
/// run-time checks, so every mode reports the same collision instead
/// of the default mode eliding the checks (or the analysis panicking
/// on the unbound name).
#[test]
fn subscripts_on_runtime_scalars_agree_in_every_mode() {
    let cases = [
        (
            "let s = sum [ 2 | i <- [1..1] ];\n\
             let a = array (1,4) ([ i + s := 1 | i <- [1..2] ] ++ [ i := 2 | i <- [3..4] ]);\n\
             result a;\n",
            "multiple definitions for element [3] of `a`",
        ),
        (
            "let s = sum [ 1 | i <- [1..1] ];\n\
             let a = array (1,4) ([ i + s := 1 | i <- [1..2] ] ++ [ i + s := 2 | i <- [1..2] ]);\n\
             result a;\n",
            "multiple definitions for element [2] of `a`",
        ),
    ];
    for (src, want) in cases {
        let program = parse_program(src).unwrap();
        for mode in [
            ExecMode::Auto,
            ExecMode::ForceChecked,
            ExecMode::ForceThunked,
        ] {
            let options = CompileOptions {
                mode,
                ..CompileOptions::default()
            };
            let compiled = compile(&program, &ConstEnv::new(), &options).unwrap();
            let err = run(&compiled, &HashMap::new(), &FuncTable::new()).unwrap_err();
            assert_eq!(err.to_string(), want, "{mode:?}");
        }
    }
}
