//! Golden test for the per-loop fusion verdicts in `--report` output.
//! Every loop the tape compiler sees gets exactly one `fusion for ...`
//! line — either `fused (<kernel shape>)` or `scalar (<reason>)` — and
//! the wording is part of the user-facing surface, so drift is an
//! intentional act: regenerate with `UPDATE_GOLDEN=1 cargo test --test
//! fuse_report`.

use hac_core::pipeline::{compile, CompileOptions, ExecMode};
use hac_lang::env::ConstEnv;
use hac_lang::parser::parse_program;
use hac_workloads as wl;

#[test]
fn fusion_verdicts_match_golden_report() {
    let kernels: &[(&str, &str, i64)] = &[
        // Out-of-place stencil: inner loop fuses as a 4-point stencil.
        ("jacobi_step", wl::jacobi_step_source(), 8),
        // Weighted 3-point relaxation: fuses as a 3-point stencil.
        ("relaxation", wl::relaxation_source(), 24),
        // In-place update: node splitting indexes its carry buffers
        // with `mod 2`, so the inner loops take the dynamic access
        // path and stay scalar.
        ("jacobi", wl::jacobi_source(), 8),
        // Gauss–Seidel carries a flow dependence: the inner loop runs
        // in order on the generic micro-kernel.
        ("sor", wl::sor_source(), 8),
        // Recurrence over partial sums: the init clause fuses
        // elementwise, the k-accumulation is a reduction over a
        // stride-n operand (multiply-add accumulate).
        ("matmul", wl::matmul_source(), 6),
        // Running-sum recurrence: the k loop fuses as a dot kernel.
        ("dot", wl::dot_source(), 8),
        // Outer i parallel, inner k a reduction: the dot kernel runs
        // inside each chunk of the parallel region.
        ("matvec", wl::matvec_source(), 8),
    ];

    // The header predates the merge of the parallel engine into the
    // tape engine; it stays as pinned in the golden file.
    let mut rendered = String::from("# per-loop fusion verdicts (ParTape engine, fuse on)\n");
    for (name, src, n) in kernels {
        let program = parse_program(src).unwrap();
        let compiled = compile(
            &program,
            &ConstEnv::from_pairs([("n", *n)]),
            &CompileOptions::default(),
        )
        .unwrap();
        rendered.push_str(&format!("## {name} (n={n})\n"));
        for line in compiled.report.render().lines() {
            let t = line.trim_start();
            if t.starts_with("fusion ") || t.starts_with("loops ") {
                rendered.push_str(line);
                rendered.push('\n');
            }
        }
    }

    let golden_path = "tests/golden/fuse_report.txt";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(golden_path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        rendered, want,
        "fusion verdicts drifted from {golden_path} (regenerate with UPDATE_GOLDEN=1 if intended)"
    );
}

/// The whole report text, byte for byte: every shipped program plus one
/// of each report shape the shipped programs lack (an `accumArray`, a
/// mutually recursive group, a scalar reduction, a node-split update, a
/// possible collision, and the two forced modes). Regenerate with
/// `UPDATE_GOLDEN=1 cargo test --test fuse_report`.
#[test]
fn whole_reports_match_golden() {
    const MUTUAL: &str = "param n;\n\
        letrec* even = array (0,n) ([ 0 := 1 ] ++ [ i := odd!(i-1) | i <- [1..n] ])\n\
        and odd = array (0,n) ([ 0 := 0 ] ++ [ i := even!(i-1) | i <- [1..n] ]);\n\
        result even, odd;\n";
    const REDUCTION: &str = "param n;\ninput u (1,n);\n\
        let s = sum [ u!i * u!i | i <- [1..n] ];\n\
        let v = array (1,n) [ i := u!i / s | i <- [1..n] ];\nresult v;\n";
    const POSSIBLE_COLLISION: &str = "param n;\nlet a = array (1,n) \
        ([ i := 0 | i <- [1..n], i < 5 ] ++ [ 7 := 1 ]);\nresult a;\n";
    let poke = [
        ("n", 8),
        ("lo", 2),
        ("hi", 5),
        ("ui", 3),
        ("uj", 4),
        ("uv", 7),
    ];
    // Name, source, parameters, mode.
    type Case<'a> = (&'a str, &'a str, &'a [(&'a str, i64)], ExecMode);
    let cases: &[Case] = &[
        (
            "dot",
            include_str!("../programs/dot.hac"),
            &[("n", 8)],
            ExecMode::Auto,
        ),
        (
            "jacobi",
            include_str!("../programs/jacobi.hac"),
            &[("n", 8)],
            ExecMode::Auto,
        ),
        (
            "matmul",
            include_str!("../programs/matmul.hac"),
            &[("n", 6)],
            ExecMode::Auto,
        ),
        (
            "matvec",
            include_str!("../programs/matvec.hac"),
            &[("n", 8)],
            ExecMode::Auto,
        ),
        (
            "sor",
            include_str!("../programs/sor.hac"),
            &[("n", 8)],
            ExecMode::Auto,
        ),
        (
            "tridiag",
            include_str!("../programs/tridiag.hac"),
            &[("n", 16)],
            ExecMode::Auto,
        ),
        (
            "wavefront",
            include_str!("../programs/wavefront.hac"),
            &[("n", 8)],
            ExecMode::Auto,
        ),
        (
            "band_poke",
            include_str!("../programs/incremental/band_poke.hac"),
            &poke,
            ExecMode::Auto,
        ),
        (
            "jacobi_poke",
            include_str!("../programs/incremental/jacobi_poke.hac"),
            &poke,
            ExecMode::Auto,
        ),
        (
            "thomas_poke",
            include_str!("../programs/incremental/thomas_poke.hac"),
            &poke,
            ExecMode::Auto,
        ),
        (
            "histogram",
            wl::histogram_source(),
            &[("n", 8)],
            ExecMode::Auto,
        ),
        ("mutual", MUTUAL, &[("n", 6)], ExecMode::Auto),
        ("reduction", REDUCTION, &[("n", 8)], ExecMode::Auto),
        (
            "node_split",
            wl::jacobi_source(),
            &[("n", 8)],
            ExecMode::Auto,
        ),
        (
            "possible_collision",
            POSSIBLE_COLLISION,
            &[("n", 10)],
            ExecMode::Auto,
        ),
        ("pascal", wl::pascal_source(), &[("n", 10)], ExecMode::Auto),
        (
            "wavefront_thunked",
            include_str!("../programs/wavefront.hac"),
            &[("n", 8)],
            ExecMode::ForceThunked,
        ),
        (
            "sor_checked",
            include_str!("../programs/sor.hac"),
            &[("n", 8)],
            ExecMode::ForceChecked,
        ),
    ];

    let mut rendered = String::new();
    for (name, src, params, mode) in cases {
        let program = parse_program(src).unwrap();
        let options = CompileOptions {
            mode: *mode,
            ..CompileOptions::default()
        };
        let compiled = compile(
            &program,
            &ConstEnv::from_pairs(params.iter().copied()),
            &options,
        )
        .unwrap();
        rendered.push_str(&format!("## {name} {params:?} {mode:?}\n"));
        rendered.push_str(&compiled.report.render());
    }

    let golden_path = "tests/golden/report.txt";
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path, &rendered).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(golden_path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    assert_eq!(
        rendered, want,
        "reports drifted from {golden_path} (regenerate with UPDATE_GOLDEN=1 if intended)"
    );
}

/// `fuse: false` must leave the report free of fusion lines — the
/// verdicts report what the pass did, not what it would have done.
#[test]
fn no_fuse_reports_no_fusion_lines() {
    let program = parse_program(wl::jacobi_step_source()).unwrap();
    let compiled = compile(
        &program,
        &ConstEnv::from_pairs([("n", 8)]),
        &CompileOptions {
            fuse: false,
            ..CompileOptions::default()
        },
    )
    .unwrap();
    let report = compiled.report.render();
    assert!(
        !report.contains("fusion "),
        "fuse:false must not emit verdicts:\n{report}"
    );
}
