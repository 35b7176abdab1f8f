//! Experiment runner: executes every DESIGN.md experiment at fixed
//! sizes, printing the measured counters and wall-clock times as
//! markdown tables (the source for EXPERIMENTS.md).
//!
//! ```sh
//! cargo run --release -p hac-bench --bin experiments            # all
//! cargo run --release -p hac-bench --bin experiments E29 E30    # some
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
    // (id as in the section heading, runner); `E1/E2` runs for `E1` or `E2`.
    let experiments: [(&str, fn()); 14] = [
        ("E1/E2", e1_e2_dependence_graphs),
        ("E3/E4", e3_e4_thunk_overhead),
        ("E5/E6", e5_e6_checks),
        ("E7/E10", e7_e10_updates),
        ("E8", e8_jacobi),
        ("E9", e9_sor),
        ("E11", e11_deforest),
        ("E11b", e11b_reduction),
        ("E12", e12_test_costs),
        ("E27", e27_compile_vs_n),
        ("E28", e28_carried_loops),
        ("E29", e29_register_kernel),
        ("E30", e30_entry_cost),
        ("E32", e32_merged_sweeps),
    ];
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    let named = |id: &str| id.split('/').any(|x| wanted.iter().any(|w| w == x));
    if let Some(w) = wanted.iter().find(|w| {
        !experiments
            .iter()
            .any(|(id, _)| id.split('/').any(|x| x == w.as_str()))
    }) {
        let ids: Vec<&str> = experiments.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown experiment `{w}`; known: {}", ids.join(", "));
        std::process::exit(2);
    }
    println!("# hac experiment run\n");
    for (id, run) in experiments {
        if wanted.is_empty() || named(id) {
            run();
        }
    }
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

/// Run time of the shipped recurrences at the `hacbench` kernel sizes,
/// scalar tape (`--no-fuse`) against fused, one worker. Their carried
/// inner loops fuse onto the in-order generic micro-kernel; both
/// builds must produce the same bits.
fn e28_carried_loops() {
    use hac_core::pipeline::{compile, run, CompileOptions};

    println!("## E28 — carried loops on the micro-kernel (best of up to 30, ms)\n");
    println!("| program | n | --no-fuse ms | fused ms | speedup | fused loops |");
    println!("|---|---|---|---|---|---|");
    let programs = [
        (
            "sor",
            include_str!("../../../../programs/sor.hac"),
            256,
            inputs(&[("a", wl::random_matrix(256, 256, 3))]),
        ),
        (
            "wavefront",
            include_str!("../../../../programs/wavefront.hac"),
            256,
            HashMap::new(),
        ),
        (
            "tridiag",
            include_str!("../../../../programs/tridiag.hac"),
            65536,
            inputs(&[("d", wl::random_vector(65536, 5))]),
        ),
    ];
    for (name, src, n, inputs) in programs {
        let program = parse_program(src).unwrap();
        let env = ConstEnv::from_pairs([("n", n)]);
        let build = |fuse| {
            let options = CompileOptions {
                fuse,
                ..CompileOptions::default()
            };
            compile(&program, &env, &options).unwrap()
        };
        let funcs = FuncTable::new();
        let (plain, fused) = (build(false), build(true));
        let (a, t_plain) = best_of_ms(|| run(&plain, &inputs, &funcs).unwrap());
        let (b, t_fused) = best_of_ms(|| run(&fused, &inputs, &funcs).unwrap());
        let bits = |o: &hac_core::pipeline::ExecOutput| {
            let mut v: Vec<_> = o
                .arrays
                .iter()
                .map(|(k, buf)| {
                    (
                        k.clone(),
                        buf.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(bits(&a), bits(&b), "{name}: fused output differs");
        assert_eq!(a.counters, b.counters, "{name}: fused counters differ");
        let report = fused.report.render();
        let loops = report.matches(": fused (").count();
        let carried = report.matches(": fused (generic micro-kernel)").count();
        println!(
            "| {name} | {n} | {t_plain:.3} | {t_fused:.3} | {:.2}× | {loops} ({carried} generic) |",
            t_plain / t_fused
        );
    }
    println!();
}

/// The shipped recurrences at the `hacbench` kernel sizes three ways:
/// the scalar tape (`--no-fuse`), fused onto the generic register
/// kernel, and the same loops hand-written in Rust over `Vec<f64>`
/// (allocation and input copy included, as in a program run). The
/// hand-written loops keep the source's operand order, so all three
/// must produce the same bits. `tridiag` runs its `cp` and `dp` sweeps
/// as one merged loop, and its hand-written form merges them too; the
/// three-sweep hand-written form must give the same bits as well.
fn e29_register_kernel() {
    use hac_core::pipeline::{compile, run, CompileOptions};
    use hac_runtime::value::ArrayBuf;

    println!("## E29 — carried loops: scalar tape, register kernel, hand-written Rust (best of up to 30, ms)\n");
    println!("| program | n | --no-fuse ms | fused ms | Rust ms | fused / Rust |");
    println!("|---|---|---|---|---|---|");
    type Rust = fn(usize, &[f64]) -> Vec<f64>;
    // (name, source, n, input name and data, result array, Rust loops)
    let programs = [
        (
            "sor",
            include_str!("../../../../programs/sor.hac"),
            256,
            Some(("a", wl::random_matrix(256, 256, 3))),
            "b",
            sor_rust as Rust,
        ),
        (
            "wavefront",
            include_str!("../../../../programs/wavefront.hac"),
            256,
            None,
            "a",
            wavefront_rust as Rust,
        ),
        (
            "tridiag",
            include_str!("../../../../programs/tridiag.hac"),
            65536,
            Some(("d", wl::random_vector(65536, 5))),
            "x",
            tridiag_rust as Rust,
        ),
    ];
    for (name, src, n, input, result, rust) in programs {
        let program = parse_program(src).unwrap();
        let env = ConstEnv::from_pairs([("n", n as i64)]);
        let inputs: HashMap<String, ArrayBuf> = input
            .iter()
            .map(|(k, b)| (k.to_string(), b.clone()))
            .collect();
        let build = |fuse| {
            let options = CompileOptions {
                fuse,
                ..CompileOptions::default()
            };
            compile(&program, &env, &options).unwrap()
        };
        let funcs = FuncTable::new();
        let (plain, fused) = (build(false), build(true));
        let (a, t_plain) = best_of_ms(|| run(&plain, &inputs, &funcs).unwrap());
        let (b, t_fused) = best_of_ms(|| run(&fused, &inputs, &funcs).unwrap());
        let flat = input.map(|(_, b)| b.data().to_vec()).unwrap_or_default();
        let (c, t_rust) = best_of_ms(|| rust(n, &flat));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (a, b) = (a.array(result).data(), b.array(result).data());
        assert_eq!(bits(a), bits(b), "{name}: fused output differs");
        assert_eq!(bits(a), bits(&c), "{name}: hand-written output differs");
        if name == "tridiag" {
            assert_eq!(fused.merges.len(), 1, "tridiag: cp and dp merge");
            let apart = tridiag_sweeps_rust(n, &flat);
            assert_eq!(bits(a), bits(&apart), "tridiag: three-sweep Rust differs");
        }
        println!(
            "| {name} | {n} | {t_plain:.3} | {t_fused:.3} | {t_rust:.3} | {:.2}× |",
            t_fused / t_rust
        );
    }
    println!();
}

/// What entering the generic kernel costs: the same 64,516 carried
/// elements run as one row (one kernel call) and as 254 rows of 254
/// (254 calls), scalar tape against fused. Both builds must produce the
/// same bits.
fn e30_entry_cost() {
    use hac_core::pipeline::{compile, run, CompileOptions};

    println!("## E30 — generic-kernel entry cost: one long row vs many short rows (best of up to 30, ms)\n");
    println!("| shape | kernel calls | --no-fuse ms | fused ms | fused ns/element |");
    println!("|---|---|---|---|---|");
    let src = "param r; param c;
input u ((1,1),(r,c));
letrec* a = array ((1,0),(r,c))
   ([ (i,0) := 0 | i <- [1..r] ] ++
    [ (i,j) := a!(i,j-1) * 0.5 + u!(i,j) | i <- [1..r], j <- [1..c] ]);
result a;";
    let program = parse_program(src).unwrap();
    let mut per_call = Vec::new();
    for (r, c) in [(1i64, 64516i64), (254, 254)] {
        let env = ConstEnv::from_pairs([("r", r), ("c", c)]);
        let inputs = inputs(&[("u", wl::random_matrix(r, c, 11))]);
        let build = |fuse| {
            let options = CompileOptions {
                fuse,
                ..CompileOptions::default()
            };
            compile(&program, &env, &options).unwrap()
        };
        let funcs = FuncTable::new();
        let (plain, fused) = (build(false), build(true));
        let report = fused.report.render();
        assert!(
            report.contains(&format!(
                "fusion for j in [1..{c}]: fused (generic micro-kernel)"
            )),
            "the carried row loop must run the generic kernel:\n{report}"
        );
        let (a, t_plain) = best_of_ms(|| run(&plain, &inputs, &funcs).unwrap());
        let (b, t_fused) = best_of_ms(|| run(&fused, &inputs, &funcs).unwrap());
        let bits = |o: &hac_core::pipeline::ExecOutput| {
            let d = o.array("a").data();
            d.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b), "{r}×{c}: fused output differs");
        let ns = t_fused * 1e6 / (r * c) as f64;
        println!("| {r} × {c} | {r} | {t_plain:.3} | {t_fused:.3} | {ns:.2} |");
        per_call.push((r, t_fused));
    }
    let [(r1, t1), (r2, t2)] = per_call[..] else {
        unreachable!("two shapes")
    };
    println!(
        "\nExtra time per extra kernel call: {:.2} µs\n",
        (t2 - t1) * 1e3 / (r2 - r1) as f64
    );
}

/// `programs/tridiag.hac` at n=65536 with its `cp` and `dp` sweeps
/// merged into one loop and apart (the same fused build with its merge
/// dropped), against the scalar tape and both hand-written forms. All
/// five must give the same bits; merged and apart the same counters.
fn e32_merged_sweeps() {
    use hac_core::pipeline::{compile, run, CompileOptions, ExecOutput};
    use hac_runtime::value::ArrayBuf;

    println!("## E32 — tridiag's cp and dp sweeps merged into one loop (n = 65536, ms over up to 30 runs)\n");
    println!("| build | min ms | median ms | median ns/element |");
    println!("|---|---|---|---|");
    let n = 65536usize;
    let program = parse_program(include_str!("../../../../programs/tridiag.hac")).unwrap();
    let env = ConstEnv::from_pairs([("n", n as i64)]);
    let d = wl::random_vector(n as i64, 5);
    let inputs: HashMap<String, ArrayBuf> = HashMap::from([("d".to_string(), d.clone())]);
    let build = |fuse| {
        let options = CompileOptions {
            fuse,
            ..CompileOptions::default()
        };
        compile(&program, &env, &options).unwrap()
    };
    let (plain, merged) = (build(false), build(true));
    let mut apart = merged.clone();
    apart.merges.clear();
    assert_eq!(merged.merges.len(), 1, "cp and dp merge");
    let funcs = FuncTable::new();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut want = None;
    let mut row = |label: &str, f: &mut dyn FnMut() -> Vec<f64>| {
        let (out, min, median) = min_median_ms(f);
        let got = bits(&out);
        assert_eq!(
            want.get_or_insert_with(|| got.clone()),
            &got,
            "{label}: bits differ"
        );
        let ns = median * 1e6 / n as f64;
        println!("| {label} | {min:.3} | {median:.3} | {ns:.2} |");
    };
    let x = |o: ExecOutput| o.array("x").data().to_vec();
    row("`--no-fuse` (scalar tape)", &mut || {
        x(run(&plain, &inputs, &funcs).unwrap())
    });
    let (a, b) = (
        run(&apart, &inputs, &funcs).unwrap(),
        run(&merged, &inputs, &funcs).unwrap(),
    );
    assert_eq!(a.counters, b.counters, "merged and apart count the same");
    assert_eq!((a.merged_loops, b.merged_loops), (0, 1));
    row("fused, sweeps apart", &mut || {
        x(run(&apart, &inputs, &funcs).unwrap())
    });
    row("fused, cp + dp merged", &mut || {
        x(run(&merged, &inputs, &funcs).unwrap())
    });
    let flat = d.data().to_vec();
    row("Rust, sweeps apart", &mut || tridiag_sweeps_rust(n, &flat));
    row("Rust, cp + dp merged", &mut || tridiag_rust(n, &flat));
    println!();
}

/// Minimum and median wall-clock time of up to 30 calls or 2 s, with
/// the last result.
fn min_median_ms<T>(f: &mut dyn FnMut() -> T) -> (T, f64, f64) {
    let mut times = Vec::new();
    let start = Instant::now();
    let mut out = None;
    for _ in 0..30 {
        let t = Instant::now();
        out = Some(f());
        times.push(t.elapsed().as_secs_f64() * 1e3);
        if start.elapsed().as_secs() >= 2 {
            break;
        }
    }
    times.sort_by(f64::total_cmp);
    let out = out.expect("ran at least once");
    (out, times[0], times[times.len() / 2])
}

/// Best wall-clock time of up to 30 calls or 2 s, with the last result.
fn best_of_ms<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let (out, min, _) = min_median_ms(&mut f);
    (out, min)
}

/// `programs/sor.hac`: one in-place Gauss–Seidel sweep over a copy of
/// the row-major `n×n` input.
fn sor_rust(n: usize, a: &[f64]) -> Vec<f64> {
    let mut b = a.to_vec();
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            b[i * n + j] =
                (b[(i - 1) * n + j] + b[i * n + j - 1] + b[(i + 1) * n + j] + b[i * n + j + 1])
                    / 4.0;
        }
    }
    b
}

/// `programs/wavefront.hac`: the Delannoy-number recurrence.
fn wavefront_rust(n: usize, _: &[f64]) -> Vec<f64> {
    let mut a = vec![0.0; n * n];
    a[..n].fill(1.0);
    for i in 1..n {
        a[i * n] = 1.0;
    }
    for i in 1..n {
        for j in 1..n {
            a[i * n + j] = a[(i - 1) * n + j] + a[i * n + j - 1] + a[(i - 1) * n + j - 1];
        }
    }
    a
}

/// `programs/tridiag.hac` as `hac` runs it: the Thomas solve of
/// `tridiag(1,4,1) x = d` with the `cp` and `dp` sweeps in one loop.
fn tridiag_rust(n: usize, d: &[f64]) -> Vec<f64> {
    let (mut cp, mut dp, mut x) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    cp[0] = 0.25;
    dp[0] = d[0] / 4.0;
    for i in 1..n {
        cp[i] = 1.0 / (4.0 - cp[i - 1]);
        dp[i] = (d[i] - dp[i - 1]) / (4.0 - cp[i - 1]);
    }
    x[n - 1] = dp[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = dp[i] - cp[i] * x[i + 1];
    }
    x
}

/// [`tridiag_rust`] with the sweeps apart, as the source writes them.
fn tridiag_sweeps_rust(n: usize, d: &[f64]) -> Vec<f64> {
    let (mut cp, mut dp, mut x) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    cp[0] = 0.25;
    for i in 1..n {
        cp[i] = 1.0 / (4.0 - cp[i - 1]);
    }
    dp[0] = d[0] / 4.0;
    for i in 1..n {
        dp[i] = (d[i] - dp[i - 1]) / (4.0 - cp[i - 1]);
    }
    x[n - 1] = dp[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = dp[i] - cp[i] * x[i + 1];
    }
    x
}
