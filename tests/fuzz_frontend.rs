//! Front-end robustness: the lexer/parser must return errors — never
//! panic — on arbitrary input, and the full pipeline must reject
//! malformed programs cleanly. Whatever survives to execution must
//! respect resource limits without panicking, on every engine.

use std::collections::HashMap;

use proptest::prelude::*;

use hac_core::pipeline::{compile, run_with_options, CompileOptions, Engine, RunOptions, Unit};
use hac_lang::env::ConstEnv;
use hac_lang::parser::{parse_comp, parse_expr, parse_program};
use hac_runtime::governor::{FaultPlan, Limits};
use hac_runtime::value::{ArrayBuf, FuncTable};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary strings never panic the parser.
    #[test]
    fn parser_never_panics_on_garbage(src in ".{0,200}") {
        let _ = parse_program(&src);
        let _ = parse_expr(&src);
        let _ = parse_comp(&src);
    }

    /// Token-soup built from the language's own vocabulary never panics
    /// (more likely than raw bytes to reach deep parser states).
    #[test]
    fn parser_never_panics_on_token_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("let"), Just("letrec*"), Just("array"), Just("param"),
                Just("input"), Just("bigupd"), Just("result"), Just("sum"),
                Just("reduce"), Just("[*"), Just("*]"), Just("["), Just("]"),
                Just("("), Just(")"), Just(":="), Just("<-"), Just(".."),
                Just("++"), Just("|"), Just(","), Just(";"), Just("="),
                Just("+"), Just("-"), Just("*"), Just("/"), Just("!"),
                Just("i"), Just("a"), Just("n"), Just("1"), Just("2"),
                Just("if"), Just("then"), Just("else"), Just("where"),
                Just("and"), Just("mod"), Just("in"),
            ],
            0..40,
        )
    ) {
        let src = toks.join(" ");
        let _ = parse_program(&src);
        let _ = parse_comp(&src);
    }

    /// Whatever parses must also either compile or fail with a proper
    /// error (no panics) under a fixed environment.
    #[test]
    fn compile_never_panics_on_parsed_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("let a = array (1,n)"),
                Just("[ i := 1 | i <- [1..n] ]"),
                Just("[ i := a!(i-1) | i <- [2..n] ]"),
                Just("[ i + s := 2 | i <- [1..n] ]"),
                Just("++"),
                Just(";"),
                Just("param n;"),
                Just("input u (1,n);"),
                Just("let s = sum [ i | i <- [1..n] ];"),
            ],
            0..8,
        )
    ) {
        let src = toks.join("\n");
        if let Ok(program) = parse_program(&src) {
            let env = ConstEnv::from_pairs([("n", 4)]);
            let _ = compile(&program, &env, &CompileOptions::default());
        }
    }

    /// Whole pipeline, generated-but-plausible programs, tight fuel and
    /// memory budgets: every engine must come back with `Ok` or a
    /// structured error — never a panic, never a hang — and all three
    /// engines must agree on the outcome.
    #[test]
    fn pipeline_respects_limits_without_panicking(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("let a = array (1,n) [ i := i * 2 | i <- [1..n] ];"),
                Just("let b = array (1,n) [ i := u!(i) + 1 | i <- [1..n] ];"),
                Just("let c = array (1,n) ([ 1 := 1 ] ++ [ i := c!(i-1) * 2 | i <- [2..n] ]);"),
                Just("let d = array (1,n) [ i := sqrt(u!(i)) | i <- [1..n] ];"),
                Just("let s = sum [ u!(k) | k <- [1..n] ];"),
                Just("let e = array (1,n) [ i := if i < 3 then i else u!(i) | i <- [1..n] ];"),
            ],
            1..5,
        ),
        fuel in 0u64..60,
        mem in prop_oneof![Just(0u64), Just(128), Just(4096)],
        seed in any::<u64>(),
    ) {
        let mut src = String::from("param n;\ninput u (1,n);\n");
        for t in &toks {
            src.push_str(t);
            src.push('\n');
        }
        // Every definition is a valid result; pick the last one.
        let last = toks.last().unwrap();
        let name = last.split_whitespace().nth(1).unwrap();
        src.push_str(&format!("result {name};\n"));

        let program = match parse_program(&src) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let env = ConstEnv::from_pairs([("n", 8)]);
        let funcs = FuncTable::new();
        let limits = Limits { fuel: Some(fuel), mem_bytes: Some(mem) };
        let mut outcomes = Vec::new();
        for engine in [Engine::TreeWalk, Engine::Tape] {
            let compiled = match compile(
                &program,
                &env,
                &CompileOptions { engine, ..CompileOptions::default() },
            ) {
                Ok(c) => c,
                Err(_) => return Ok(()),
            };
            let mut inputs = HashMap::new();
            for unit in &compiled.units {
                if let Unit::Input { name, bounds } = unit {
                    let mut buf = ArrayBuf::new(bounds, 0.0);
                    let mut x = seed | 1;
                    for v in buf.data_mut() {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        *v = (x >> 40) as f64 / 1e4;
                    }
                    inputs.insert(name.clone(), buf);
                }
            }
            // Injected worker faults are absorbed, so a faulted run
            // must agree with the fault-free ones too.
            let faulted = FaultPlan::parse("r0c0:panic,r1c1:allocfail,seed:1009").unwrap();
            for (threads, faults) in [(1usize, None), (4, None), (4, Some(faulted))] {
                let opts = RunOptions { threads: Some(threads), limits, faults, ceiling: None };
                let r = run_with_options(&compiled, &inputs, &funcs, &opts);
                outcomes.push(match r {
                    Ok(out) => {
                        let mut names: Vec<&String> = out.arrays.keys().collect();
                        names.sort();
                        Ok(names
                            .iter()
                            .flat_map(|n| out.arrays[*n].data().iter().map(|v| v.to_bits()))
                            .collect::<Vec<u64>>())
                    }
                    Err(e) => Err(format!("{e:?}")),
                });
            }
        }
        for o in &outcomes[1..] {
            prop_assert_eq!(o, &outcomes[0], "engines disagree under limits\n{}", src);
        }
    }
}

#[test]
fn deeply_nested_parens_error_cleanly() {
    // Shallow nesting parses; pathological nesting is rejected by the
    // parser's depth guard instead of crashing the stack.
    let ok = format!("{}1{}", "(".repeat(100), ")".repeat(100));
    assert!(parse_expr(&ok).is_ok());
    let deep = format!("{}1{}", "(".repeat(5_000), ")".repeat(5_000));
    let err = parse_expr(&deep).unwrap_err();
    assert!(err.message.contains("nests deeper"), "{err}");
    let unbalanced = format!("{}1", "(".repeat(5_000));
    assert!(parse_expr(&unbalanced).is_err());
}
