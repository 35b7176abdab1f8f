//! Soundness of compile-time cost certificates (the `CostCert` the
//! pipeline attaches to every `Compiled`): for every shipped program
//! and parameter rung, running with limits set *exactly* to the
//! evaluated certificate must succeed — on the tree-walker and the
//! tape engine at 1/2/4/8 threads, fused and unfused.
//! Success at `limits == cert` is the oracle "metered usage ≤
//! certificate" for both resources at once, because the meter is the
//! thing that would have stopped the run.
//!
//! For *exact* certificates the bound is also tight: the run retires
//! with zero fuel left, and one unit below the certificate fails — on
//! every engine, at every thread count, with the same error class.
//!
//! Admission decisions built on certificates are a pure function of
//! (certificate, request): a server's verdict for a given request is
//! bit-identical at every worker-thread count.
//!
//! The rendered `cost ...` report lines for `programs/*.hac` are
//! pinned in `tests/golden/cost_report.txt`; regenerate with
//! `UPDATE_GOLDEN=1 cargo test --test cost_soundness`.

use std::collections::HashMap;

use hac::serve::{Request, ServeOptions, Server};
use hac_core::pipeline::{compile, run_with_options, CompileOptions, Compiled, Engine, RunOptions};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_runtime::governor::Limits;
use hac_runtime::value::{ArrayBuf, FuncTable};
use hac_workloads as wl;
use proptest::prelude::*;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Input shapes for the shipped programs, keyed by what each
/// `programs/*.hac` declares.
enum Shape {
    Vector,
    Matrix,
}

/// (program name, source, declared input shapes).
type SuiteEntry = (&'static str, String, Vec<(&'static str, Shape)>);

fn suite() -> Vec<SuiteEntry> {
    let load = |name: &str| {
        std::fs::read_to_string(format!("programs/{name}.hac"))
            .unwrap_or_else(|e| panic!("programs/{name}.hac: {e}"))
    };
    vec![
        (
            "dot",
            load("dot"),
            vec![("a", Shape::Vector), ("b", Shape::Vector)],
        ),
        ("jacobi", load("jacobi"), vec![("a", Shape::Matrix)]),
        (
            "matmul",
            load("matmul"),
            vec![("x", Shape::Matrix), ("y", Shape::Matrix)],
        ),
        (
            "matvec",
            load("matvec"),
            vec![("m", Shape::Matrix), ("x", Shape::Vector)],
        ),
        ("sor", load("sor"), vec![("a", Shape::Matrix)]),
        ("tridiag", load("tridiag"), vec![("d", Shape::Vector)]),
        ("wavefront", load("wavefront"), vec![]),
    ]
}

fn inputs_for(shapes: &[(&'static str, Shape)], n: i64) -> HashMap<String, ArrayBuf> {
    shapes
        .iter()
        .enumerate()
        .map(|(k, (name, shape))| {
            let seed = 7 + 13 * k as u64;
            let buf = match shape {
                Shape::Vector => wl::random_vector(n, seed),
                Shape::Matrix => wl::random_matrix(n, n, seed),
            };
            (name.to_string(), buf)
        })
        .collect()
}

/// Every (engine, fuse) build of `src` at `n`; the certificate must be
/// identical across them — it is derived before any engine- or
/// fusion-specific lowering.
fn builds(src: &str, n: i64) -> Vec<(Engine, bool, Compiled)> {
    let program = parse_program(src).unwrap();
    let env = ConstEnv::from_pairs([("n", n)]);
    let mut out = Vec::new();
    for engine in [Engine::TreeWalk, Engine::Tape] {
        for fuse in [false, true] {
            let compiled = compile(
                &program,
                &env,
                &CompileOptions {
                    engine,
                    fuse,
                    ..CompileOptions::default()
                },
            )
            .unwrap();
            out.push((engine, fuse, compiled));
        }
    }
    out
}

fn run_at(
    compiled: &Compiled,
    inputs: &HashMap<String, ArrayBuf>,
    threads: usize,
    limits: Limits,
) -> Result<Option<u64>, String> {
    let funcs = FuncTable::new();
    let opts = RunOptions {
        threads: Some(threads),
        limits,
        faults: None,
        ceiling: None,
    };
    match run_with_options(compiled, inputs, &funcs, &opts) {
        Ok(out) => Ok(out.fuel_left),
        Err(e) => Err(format!("{e:?}")),
    }
}

/// The soundness oracle over the whole shipped suite: at-certificate
/// budgets succeed everywhere; exact certificates are tight from both
/// sides (zero fuel left at-cert, failure one unit under, for fuel and
/// memory alike).
#[test]
fn certificates_are_sound_and_tight_across_engines() {
    for (name, src, shapes) in &suite() {
        for n in [1i64, 2, 4, 6, 16] {
            let inputs = inputs_for(shapes, n);
            let builds = builds(src, n);
            let cert = &builds[0].2.cert;
            assert!(cert.is_closed(), "{name} n={n}: certificate must close");
            let fuel = cert.fuel_value().unwrap();
            let mem = cert.mem_value().unwrap();
            let exact = cert.is_exact();
            let rendered = cert.render();
            for (engine, fuse, compiled) in &builds {
                assert_eq!(
                    compiled.cert.render(),
                    rendered,
                    "{name} n={n}: certificate differs for {engine:?} fuse={fuse}"
                );
                let threads: &[usize] = if *engine == Engine::Tape {
                    &THREADS
                } else {
                    &[1]
                };
                for &t in threads {
                    let at = Limits {
                        fuel: Some(fuel),
                        mem_bytes: Some(mem),
                    };
                    let label = format!("{name} n={n} {engine:?} fuse={fuse} @{t}t");
                    match run_at(compiled, &inputs, t, at) {
                        Ok(left) => {
                            if exact {
                                assert_eq!(
                                    left,
                                    Some(0),
                                    "{label}: exact certificate leaves zero fuel"
                                );
                            }
                        }
                        Err(e) => panic!("{label}: at-certificate run must succeed: {e}"),
                    }
                    if exact && fuel > 0 {
                        let short = Limits {
                            fuel: Some(fuel - 1),
                            mem_bytes: None,
                        };
                        let got = run_at(compiled, &inputs, t, short);
                        assert!(
                            matches!(&got, Err(e) if e.contains("FuelExhausted")),
                            "{label}: one fuel under the certificate must trip: {got:?}"
                        );
                    }
                    if exact && mem > 0 {
                        let short = Limits {
                            fuel: None,
                            mem_bytes: Some(mem - 1),
                        };
                        let got = run_at(compiled, &inputs, t, short);
                        assert!(
                            matches!(&got, Err(e) if e.contains("MemLimitExceeded")),
                            "{label}: one byte under the certificate must trip: {got:?}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Admission is a pure function of (certificate, request): for a
    /// random program and parameter rung, a server's full verdict for
    /// budgets one under, exactly at, and absent is bit-identical at
    /// every worker-thread count.
    #[test]
    fn admission_decisions_are_pure_across_threads(seed in any::<u64>()) {
        let suite = suite();
        let (name, src, _) = &suite[(seed % suite.len() as u64) as usize];
        let n = 4 + (seed / 7 % 13) as i64;
        let program = parse_program(src).unwrap();
        let env = ConstEnv::from_pairs([("n", n)]);
        let cert = compile(&program, &env, &CompileOptions::default())
            .unwrap()
            .cert;
        prop_assert!(cert.is_closed(), "{} n={}: closed", name, n);
        let fuel = cert.fuel_value().unwrap();

        let budgets: [Option<u64>; 3] = [Some(fuel.saturating_sub(1)), Some(fuel), None];
        type Verdict = (String, Option<String>, Option<u64>);
        let mut verdicts: Vec<Vec<Verdict>> = Vec::new();
        for threads in THREADS {
            let server = Server::new(ServeOptions {
                threads,
                ..ServeOptions::default()
            });
            let mut row = Vec::new();
            for (k, budget) in budgets.iter().enumerate() {
                let mut r = Request::new(format!("q{k}"), src.as_str());
                r.params.push(("n".to_string(), n));
                r.fuel = *budget;
                let resp = server.handle(&r);
                row.push((resp.status.as_str().to_string(), resp.error, resp.fuel_left));
            }
            verdicts.push(row);
        }
        for row in &verdicts[1..] {
            prop_assert_eq!(
                row, &verdicts[0],
                "{} n={}: admission verdicts must not depend on threads", name, n
            );
        }
        // Exact certificates convert the starved rung into a proved
        // rejection; inexact ones leave it to the meter. Either way
        // the at-cert rung always completes.
        let at_cert = &verdicts[0][1];
        prop_assert_eq!(at_cert.0.as_str(), "ok");
        if cert.is_exact() {
            let starved = &verdicts[0][0];
            prop_assert_eq!(starved.0.as_str(), "over-certificate");
            prop_assert_eq!(at_cert.2, Some(0), "tight at-cert run");
        }
    }
}

/// The user-facing `cost ...` report lines for every shipped program,
/// pinned byte-for-byte. Six close exactly with symbolic polynomials;
/// Gauss–Seidel (`sor`) closes as an upper bound — its in-place
/// `bigupd` unit is bulk-charged. Regenerate with `UPDATE_GOLDEN=1`.
#[test]
fn cost_report_lines_match_golden() {
    let mut rendered = String::new();
    for (name, src, _) in &suite() {
        let program = parse_program(src).unwrap();
        let env = ConstEnv::from_pairs([("n", 16)]);
        let compiled = compile(&program, &env, &CompileOptions::default()).unwrap();
        rendered.push_str(&format!(
            "{name} n=16: {}\n",
            compiled.report.cost.as_deref().unwrap()
        ));
    }
    let golden_path = "tests/golden/cost_report.txt";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(golden_path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        rendered, want,
        "cost lines drifted from {golden_path} (regenerate with UPDATE_GOLDEN=1 if intended)"
    );
}
