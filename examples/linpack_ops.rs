//! The §9 LINPACK fragments — row swap, row scale, in-place SAXPY —
//! compiled as `bigupd` updates, printing each one's dependence edges
//! and the in-place strategy the compiler chose, then running a small
//! Gaussian-elimination-flavored pipeline built from them.
//!
//! ```sh
//! cargo run --example linpack_ops
//! ```

use std::collections::HashMap;

use hac::core::pipeline::{compile, run, CompileOptions};
use hac::lang::parser::parse_program;
use hac::lang::ConstEnv;
use hac_runtime::value::FuncTable;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (m, n) = (4i64, 6i64);
    let env = ConstEnv::from_pairs([("m", m), ("n", n)]);
    let a = hac::workloads::matrix(m, n, |i, j| ((i * 7 + j * 3) % 10) as f64);

    for (title, src) in [
        ("row swap (rows 1 ↔ 2)", hac::workloads::row_swap_source()),
        (
            "row scale (row 1 × 2.5)",
            hac::workloads::row_scale_source(),
        ),
        ("saxpy (row 1 += 3 × row 2)", hac::workloads::saxpy_source()),
    ] {
        println!("=== {title} ===");
        let program = parse_program(src)?;
        let compiled = compile(&program, &env, &CompileOptions::default())?;
        for u in &compiled.report.updates {
            for e in &u.anti {
                println!("  anti {e}");
            }
            println!("  strategy: {}", u.strategy);
        }
        let mut inputs = HashMap::new();
        inputs.insert("a".to_string(), a.clone());
        let out = run(&compiled, &inputs, &FuncTable::new())?;
        println!(
            "  copies: {}  temp elements: {}",
            out.counters.vm.elements_copied, out.counters.vm.temp_elements
        );
        let b = out.array("b");
        for i in 1..=2.min(m) {
            let row: Vec<String> = (1..=n)
                .map(|j| format!("{:>6.1}", b.get("b", &[i, j]).unwrap()))
                .collect();
            println!("  row {i}: {}", row.join(" "));
        }
        println!();
    }

    // A pivot-and-eliminate step written directly in the language:
    // swap the pivot row up, then eliminate below it.
    println!("=== pivot + eliminate (one elimination step) ===");
    let src = r#"
param m, n;
input a ((1,1),(m,n));
p = bigupd a ([ (1,j) := a!(2,j) | j <- [1..n] ] ++
              [ (2,j) := a!(1,j) | j <- [1..n] ]);
e = bigupd p [ (i,j) := p!(i,j) - (p!(i,1) / p!(1,1)) * p!(1,j)
             | i <- [2..m], j <- [1..n] ];
result e;
"#;
    let program = parse_program(src)?;
    let compiled = compile(&program, &env, &CompileOptions::default())?;
    for u in &compiled.report.updates {
        println!("  update `{}`: {}", u.name, u.strategy);
    }
    let mut inputs = HashMap::new();
    inputs.insert("a".to_string(), a.clone());
    let out = run(&compiled, &inputs, &FuncTable::new())?;
    let e = out.array("e");
    println!("  eliminated column 1 below the pivot:");
    for i in 1..=m {
        let row: Vec<String> = (1..=n)
            .map(|j| format!("{:>7.2}", e.get("e", &[i, j]).unwrap()))
            .collect();
        println!("  {}", row.join(" "));
    }
    for i in 2..=m {
        assert!(e.get("e", &[i, 1]).unwrap().abs() < 1e-9);
    }
    println!("  (column 1 is zero below the pivot; updates ran in place)");
    Ok(())
}
