//! Conjugate gradients on a tridiagonal SPD system, with every
//! per-iteration kernel — the matrix–vector product, both dot products
//! (§3.1 reductions), and the vector updates — written in the array
//! language, compiled once, and run each iteration.
//!
//! The solution is checked against the Thomas-algorithm oracle from
//! `hac-workloads`.
//!
//! ```sh
//! cargo run --example conjugate_gradient
//! ```

use std::collections::HashMap;

use hac::core::pipeline::{compile, run, CompileOptions};
use hac::lang::parser::parse_program;
use hac::lang::ConstEnv;
use hac_runtime::value::{ArrayBuf, FuncTable};

/// One CG iteration over the system `A = tridiag(1, 4, 1)`:
/// given p, r, x it produces xn, rn, pn and the residual norm rr2.
const STEP: &str = r#"
param n;
input p (1,n);
input r (1,n);
input x (1,n);
let q = array (1,n)
   [ i := (if i > 1 then p!(i-1) else 0) + 4 * p!i
        + (if i < n then p!(i+1) else 0) | i <- [1..n] ];
let rr = sum [ r!k * r!k | k <- [1..n] ];
let pq = sum [ p!k * q!k | k <- [1..n] ];
let xn = array (1,n) [ i := x!i + (rr / pq) * p!i | i <- [1..n] ];
let rn = array (1,n) [ i := r!i - (rr / pq) * q!i | i <- [1..n] ];
let rr2 = sum [ rn!k * rn!k | k <- [1..n] ];
let pn = array (1,n) [ i := rn!i + (rr2 / rr) * p!i | i <- [1..n] ];
result xn, rn, pn;
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64i64;
    let env = ConstEnv::from_pairs([("n", n)]);
    let program = parse_program(STEP)?;
    let compiled = compile(&program, &env, &CompileOptions::default())?;
    println!("per-iteration kernels (compiled once):");
    for a in &compiled.report.arrays {
        println!("  array `{}`: {}", a.name, a.outcome);
    }
    for (name, op) in &compiled.report.reductions {
        println!("  scalar `{name}` = fold ({op}) over comprehension");
    }

    // b = the right-hand side; start from x = 0, r = p = b.
    let b = hac::workloads::random_vector(n, 2026);
    let zero = ArrayBuf::new(&[(1, n)], 0.0);
    let mut x = zero.clone();
    let mut r = b.clone();
    let mut p = b.clone();

    let funcs = FuncTable::new();
    let mut iters = 0;
    let rr2 = loop {
        let mut inputs = HashMap::new();
        inputs.insert("p".to_string(), p.clone());
        inputs.insert("r".to_string(), r.clone());
        inputs.insert("x".to_string(), x.clone());
        let out = run(&compiled, &inputs, &funcs)?;
        x = out.array("xn").clone();
        r = out.array("rn").clone();
        p = out.array("pn").clone();
        iters += 1;
        let rr2 = out.scalar("rr2");
        if rr2 < 1e-20 || iters >= 2 * n {
            break rr2;
        }
    };
    println!("\nconverged in {iters} iterations, ‖r‖² = {rr2:.3e}");

    // Check against the direct Thomas solve.
    let exact = hac::workloads::thomas_oracle(&b, n);
    let mut max_err: f64 = 0.0;
    for i in 1..=n {
        let e = (x.get("x", &[i])? - exact.get("x", &[i])?).abs();
        max_err = max_err.max(e);
    }
    println!("max |x_cg − x_thomas| = {max_err:.3e}");
    assert!(max_err < 1e-8, "CG must agree with the direct solve");
    println!("matches the Thomas-algorithm direct solve ✓");
    Ok(())
}
