//! Experiment runner: executes every DESIGN.md experiment at fixed
//! sizes, printing the measured counters and wall-clock times as
//! markdown tables (the source for EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p hac-bench --bin experiments
//! ```

use std::collections::HashMap;
use std::time::Instant;

use hac_bench::harness::{compile_src, inputs, run_compiled};
use hac_core::pipeline::ExecMode;
use hac_lang::core::translate;
use hac_lang::env::ConstEnv;
use hac_lang::number::number_clauses;
use hac_lang::parser::parse_program;
use hac_runtime::list::{array_from_list, eval_core_list, ListCounters};
use hac_runtime::value::FuncTable;
use hac_workloads as wl;

fn time_ms<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    // Warm up once, then take the best of 5 runs.
    let mut out = f();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
    }
    (out, best)
}

fn main() {
    println!("# hac experiment run\n");
    e1_e2_dependence_graphs();
    e3_e4_thunk_overhead();
    e5_e6_checks();
    e7_e10_updates();
    e8_jacobi();
    e9_sor();
    e11_deforest();
    e11b_reduction();
    e12_test_costs();
    e27_compile_vs_n();
}

/// §3.1's second claim: `foldl` over a comprehension compiles to a DO
/// loop with *no* cons cells — compared against folding an actual
/// cons list.
fn e11b_reduction() {
    println!("## E11b — scalar reduction: DO loop vs cons-list foldl\n");
    println!("| n | cons cells (list) | list foldl ms | DO-loop reduce ms | ratio |");
    println!("|---|---|---|---|---|");
    for n in [4096i64, 16384, 65536] {
        let u = wl::random_vector(n, 33);
        let mut arrays = HashMap::new();
        arrays.insert("u".to_string(), u.clone());
        let env = ConstEnv::from_pairs([("n", n)]);
        let funcs = FuncTable::new();
        // Parse the dot-style reduction once.
        let prog =
            parse_program("param n;\ninput u (1,n);\nlet s = sum [ u!k * u!k | k <- [1..n] ];\n")
                .unwrap();
        let (op, init, mut comp) = match &prog.bindings[1] {
            hac_lang::ast::Binding::Reduce { op, init, comp, .. } => {
                (*op, init.clone(), comp.clone())
            }
            _ => unreachable!(),
        };
        number_clauses(&mut comp);
        let term = translate(&comp);

        let (_, t_loop) = time_ms(|| {
            hac_runtime::reduce::eval_reduce(op, &init, &comp, &env, &[], &arrays, &funcs).unwrap()
        });
        let (allocs, t_list) = time_ms(|| {
            let mut counters = ListCounters::default();
            let list = eval_core_list(&term, &env, &arrays, &funcs, &mut counters).unwrap();
            let s = list.foldl(0.0, |acc, (_, v)| acc + v);
            (s, counters.cons_allocs)
        });
        println!(
            "| {n} | {} | {t_list:.3} | {t_loop:.3} | {:.2}× |",
            allocs.1,
            t_list / t_loop
        );
    }
    println!();
}

fn e1_e2_dependence_graphs() {
    println!("## E1/E2 — §5 dependence graphs and schedules\n");
    let env = [("n", 100i64), ("m", 10)];
    for (name, src) in [
        ("§5 example 1", wl::section5_example1_source()),
        ("§5 example 2", wl::section5_example2_source()),
        ("§3 wavefront", wl::wavefront_source()),
    ] {
        let compiled = compile_src(src, &env, ExecMode::Auto);
        println!("### {name}\n");
        println!("```");
        print!("{}", compiled.report.render());
        println!("```\n");
    }
}

fn e3_e4_thunk_overhead() {
    println!("## E3/E4 — thunked vs thunkless vs oracle (wall-clock, ms)\n");
    println!("| kernel | n | thunked | thunkless | oracle | thunked/thunkless |");
    println!("|---|---|---|---|---|---|");
    for n in [32i64, 64, 128] {
        let thunkless = compile_src(wl::wavefront_source(), &[("n", n)], ExecMode::Auto);
        let thunked = compile_src(wl::wavefront_source(), &[("n", n)], ExecMode::ForceThunked);
        let none = HashMap::new();
        let (_, t_less) = time_ms(|| run_compiled(&thunkless, &none));
        let (_, t_full) = time_ms(|| run_compiled(&thunked, &none));
        let (_, t_orc) = time_ms(|| wl::wavefront_oracle(n));
        println!(
            "| wavefront | {n} | {t_full:.3} | {t_less:.3} | {t_orc:.3} | {:.2}× |",
            t_full / t_less
        );
    }
    for n in [1024i64, 4096, 16384] {
        let thunkless = compile_src(wl::recurrence_source(), &[("n", n)], ExecMode::Auto);
        let thunked = compile_src(wl::recurrence_source(), &[("n", n)], ExecMode::ForceThunked);
        let none = HashMap::new();
        let (_, t_less) = time_ms(|| run_compiled(&thunkless, &none));
        let (_, t_full) = time_ms(|| run_compiled(&thunked, &none));
        let (_, t_orc) = time_ms(|| wl::recurrence_oracle(n));
        println!(
            "| recurrence | {n} | {t_full:.3} | {t_less:.3} | {t_orc:.3} | {:.2}× |",
            t_full / t_less
        );
    }
    println!();
    let n = 64;
    let thunked = compile_src(wl::wavefront_source(), &[("n", n)], ExecMode::ForceThunked);
    let out = run_compiled(&thunked, &HashMap::new());
    println!(
        "wavefront n={n} thunked counters: {} thunks, {} demands, {} memo hits\n",
        out.counters.thunked.thunks_allocated,
        out.counters.thunked.demands,
        out.counters.thunked.memo_hits
    );
}

fn e5_e6_checks() {
    println!("## E5/E6 — runtime collision/empties checks (wall-clock, ms)\n");
    println!("| n | checks elided | checks forced | check ops forced | overhead |");
    println!("|---|---|---|---|---|");
    for n in [4096i64, 16384, 65536] {
        let u = wl::random_vector(n, 21);
        let ins = inputs(&[("u", u)]);
        let elided = compile_src(wl::permutation_source(), &[("n", n)], ExecMode::Auto);
        let checked = compile_src(
            wl::permutation_source(),
            &[("n", n)],
            ExecMode::ForceChecked,
        );
        let (out_e, t_e) = time_ms(|| run_compiled(&elided, &ins));
        let (out_c, t_c) = time_ms(|| run_compiled(&checked, &ins));
        assert_eq!(out_e.counters.vm.check_ops, 0);
        println!(
            "| {n} | {t_e:.3} | {t_c:.3} | {} | {:.2}× |",
            out_c.counters.vm.check_ops,
            t_c / t_e
        );
    }
    println!();
}

fn e7_e10_updates() {
    println!("## E7/E10 — LINPACK row ops: copies and temporaries per update\n");
    println!("| kernel | n | strategy | copies | temp elems | time (ms) |");
    println!("|---|---|---|---|---|---|");
    let m = 64i64;
    for n in [256i64, 1024] {
        let a = wl::random_matrix(m, n, 3);
        for (name, src) in [
            ("row swap", wl::row_swap_source()),
            ("row scale", wl::row_scale_source()),
            ("saxpy", wl::saxpy_source()),
        ] {
            let compiled = compile_src(src, &[("m", m), ("n", n)], ExecMode::Auto);
            let strategy = compiled.report.updates[0]
                .strategy
                .split(':')
                .next()
                .unwrap()
                .to_string();
            let ins = inputs(&[("a", a.clone())]);
            let (out, t) = time_ms(|| run_compiled(&compiled, &ins));
            println!(
                "| {name} | {n} | {strategy} | {} | {} | {t:.3} |",
                out.counters.vm.elements_copied, out.counters.vm.temp_elements
            );
        }
        // Naive baseline for the swap.
        let ups: Vec<(Vec<i64>, f64)> = (1..=n)
            .flat_map(|j| {
                vec![
                    (vec![1, j], a.get("a", &[2, j]).unwrap()),
                    (vec![2, j], a.get("a", &[1, j]).unwrap()),
                ]
            })
            .collect();
        let (copied, t) = time_ms(|| {
            let mut cc = hac_runtime::incremental::CopyCounters::default();
            let out = hac_runtime::incremental::bigupd_copy(&a, ups.clone(), &mut cc).unwrap();
            (out, cc)
        });
        println!(
            "| row swap (naive copy) | {n} | copy whole | {} | 0 | {t:.3} |",
            copied.1.elements_copied
        );
    }
    println!();
}

fn e8_jacobi() {
    println!("## E8 — §9 Jacobi: node splitting vs naive copy\n");
    println!("| n | split temp elems | naive copied elems | ratio (≈ n) | split ms | naive ms |");
    println!("|---|---|---|---|---|---|");
    for n in [32i64, 64, 128] {
        let a = wl::random_matrix(n, n, 5);
        let compiled = compile_src(wl::jacobi_source(), &[("n", n)], ExecMode::Auto);
        let ins = inputs(&[("a", a.clone())]);
        let (out, t_split) = time_ms(|| run_compiled(&compiled, &ins));
        let temps = out.counters.vm.temp_elements;
        let (naive, t_naive) = time_ms(|| {
            let mut cc = hac_runtime::incremental::CopyCounters::default();
            let ups = (2..n).flat_map(|i| {
                let a = &a;
                (2..n).map(move |j| {
                    let v = (a.get("a", &[i - 1, j]).unwrap()
                        + a.get("a", &[i, j - 1]).unwrap()
                        + a.get("a", &[i + 1, j]).unwrap()
                        + a.get("a", &[i, j + 1]).unwrap())
                        / 4.0;
                    (vec![i, j], v)
                })
            });
            hac_runtime::incremental::bigupd_copy(&a, ups, &mut cc).unwrap();
            cc
        });
        println!(
            "| {n} | {temps} | {} | {:.1} | {t_split:.3} | {t_naive:.3} |",
            naive.elements_copied,
            naive.elements_copied as f64 / temps as f64
        );
    }
    println!();
}

fn e9_sor() {
    println!("## E9 — §9 Gauss–Seidel (LK23): in place, zero copies\n");
    println!("| n | copies | temps | thunks | time (ms) | oracle ms |");
    println!("|---|---|---|---|---|---|");
    for n in [32i64, 64, 128] {
        let a = wl::random_matrix(n, n, 9);
        let compiled = compile_src(wl::sor_source(), &[("n", n)], ExecMode::Auto);
        let ins = inputs(&[("a", a.clone())]);
        let (out, t) = time_ms(|| run_compiled(&compiled, &ins));
        let (_, t_orc) = time_ms(|| wl::sor_oracle(&a, n));
        println!(
            "| {n} | {} | {} | {} | {t:.3} | {t_orc:.3} |",
            out.counters.vm.elements_copied,
            out.counters.vm.temp_elements,
            out.counters.thunked.thunks_allocated
        );
    }
    println!();
}

fn e11_deforest() {
    println!("## E11 — naive TE cons lists vs deforested loops\n");
    println!("| n | cons cells | naive ms | deforested ms | oracle ms | naive/deforested |");
    println!("|---|---|---|---|---|---|");
    for n in [1024i64, 4096, 16384] {
        let u = wl::random_vector(n, 33);
        let ins = inputs(&[("u", u.clone())]);
        let compiled = compile_src(wl::deforest_source(), &[("n", n)], ExecMode::Auto);
        let program = parse_program(wl::deforest_source()).unwrap();
        let mut comp = program.array_def("a").unwrap().comp.clone();
        number_clauses(&mut comp);
        let term = translate(&comp);
        let env = ConstEnv::from_pairs([("n", n)]);
        let mut arrays = HashMap::new();
        arrays.insert("u".to_string(), u.clone());
        let funcs = FuncTable::new();

        let (_, t_less) = time_ms(|| run_compiled(&compiled, &ins));
        let (counters, t_naive) = time_ms(|| {
            let mut counters = ListCounters::default();
            let list = eval_core_list(&term, &env, &arrays, &funcs, &mut counters).unwrap();
            array_from_list("a", &[(1, 2 * n)], &list).unwrap();
            counters
        });
        let (_, t_orc) = time_ms(|| wl::deforest_oracle(&u, n));
        println!(
            "| {n} | {} | {t_naive:.3} | {t_less:.3} | {t_orc:.3} | {:.2}× |",
            counters.cons_allocs,
            t_naive / t_less
        );
    }
    println!();
}

fn e12_test_costs() {
    println!("## E12 — dependence test costs by nest depth (µs per call)\n");
    use hac_analysis::banerjee::banerjee_test;
    use hac_analysis::direction::DirVec;
    use hac_analysis::equation::{DimEquation, LoopTerm};
    use hac_analysis::exact::exact_test;
    use hac_analysis::gcd::gcd_test;

    println!("| depth | gcd | banerjee | exact (worst case) |");
    println!("|---|---|---|---|");
    for d in [1usize, 2, 3, 4, 5] {
        // Worst case for the exact search: `Σ 2x_k − 2y_k = 1` over
        // loops of 4 iterations — the interval always brackets the odd
        // RHS, integrality never holds, so the search enumerates
        // ~16^d assignments. GCD kills it instantly; Banerjee cannot.
        let eq = DimEquation {
            shared: (0..d)
                .map(|_| LoopTerm {
                    size: 4,
                    a: 2,
                    b: 2,
                })
                .collect(),
            src_only: vec![],
            snk_only: vec![],
            a0: 0,
            b0: 1,
        };
        let dv = DirVec::any(d);
        let reps = 10_000;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(gcd_test(std::slice::from_ref(&eq), &dv));
        }
        let t_gcd = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let t = Instant::now();
        for _ in 0..reps {
            std::hint::black_box(banerjee_test(std::slice::from_ref(&eq), &dv));
        }
        let t_ban = t.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let reps_e = match d {
            1 | 2 => 2000,
            3 => 500,
            4 => 50,
            _ => 5,
        };
        let t = Instant::now();
        for _ in 0..reps_e {
            std::hint::black_box(exact_test(std::slice::from_ref(&eq), &dv, u64::MAX));
        }
        let t_exact = t.elapsed().as_secs_f64() * 1e6 / reps_e as f64;
        println!("| {d} | {t_gcd:.3} | {t_ban:.3} | {t_exact:.3} |");
    }
    println!();
}

/// Compile time of the shipped `matmul` and `tridiag` programs as `n`
/// grows: the exact test's cost should depend on nest depth, not on
/// trip counts, and `matmul`'s write collisions stay disproved.
fn e27_compile_vs_n() {
    use hac_core::pipeline::{compile, CompileOptions};

    println!("## E27 — compile time vs n (best of up to 30, ms)\n");
    println!("| program | n | compile ms | write collisions |");
    println!("|---|---|---|---|");
    let programs: [(&str, &str, &[i64]); 2] = [
        (
            "matmul",
            include_str!("../../../../programs/matmul.hac"),
            &[8, 48, 128, 256],
        ),
        (
            "tridiag",
            include_str!("../../../../programs/tridiag.hac"),
            &[1024, 65536],
        ),
    ];
    for (name, src, ns) in programs {
        let program = parse_program(src).unwrap();
        for &n in ns {
            let env = ConstEnv::from_pairs([("n", n)]);
            let compile_once = || compile(&program, &env, &CompileOptions::default()).unwrap();
            let report = compile_once().report.render();
            let mut best = f64::INFINITY;
            let start = Instant::now();
            for _ in 0..30 {
                let t = Instant::now();
                std::hint::black_box(compile_once());
                best = best.min(t.elapsed().as_secs_f64() * 1e3);
                if start.elapsed().as_secs() >= 2 {
                    break;
                }
            }
            let verdict = if report.contains("write collisions: possible") {
                "possible"
            } else {
                "impossible"
            };
            println!("| {name} | {n} | {best:.3} | {verdict} |");
        }
    }
    println!();
}
