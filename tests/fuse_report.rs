//! Golden test for the per-loop fusion verdicts in `--report` output.
//! Every loop the tape compiler sees gets exactly one `fusion for ...`
//! line — either `fused (<kernel shape>)` or `scalar (<reason>)` — and
//! the wording is part of the user-facing surface, so drift is an
//! intentional act: regenerate with `UPDATE_GOLDEN=1 cargo test --test
//! fuse_report`.

use hac_core::pipeline::{compile, CompileOptions};
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
