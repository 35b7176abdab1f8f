//! The paper's kernels as source programs plus hand-coded Rust oracles.
//!
//! Every kernel provides `source()` (the `hac` program text, with the
//! size bound to parameter `n` at compile time) and `oracle(...)` (the
//! "Fortran" baseline: a direct Rust loop nest producing the same
//! array). Integration tests assert pipeline == thunked == oracle;
//! benchmarks time the strategies against the oracle.

use hac_runtime::value::ArrayBuf;

use crate::util::{matrix, vector};

// ---------------------------------------------------------------------
// §3 — the wavefront recurrence (E3)
// ---------------------------------------------------------------------

/// The paper's §3 example: north/west borders 1, interior the sum of
/// north, west, and north-west neighbors (Delannoy numbers).
pub fn wavefront_source() -> &'static str {
    r#"
param n;
letrec* a = array ((1,1),(n,n))
   ([ (1,j) := 1 | j <- [1..n] ] ++
    [ (i,1) := 1 | i <- [2..n] ] ++
    [ (i,j) := a!(i-1,j) + a!(i,j-1) + a!(i-1,j-1)
       | i <- [2..n], j <- [2..n] ]);
"#
}

/// Hand-coded wavefront.
pub fn wavefront_oracle(n: i64) -> ArrayBuf {
    let mut a = ArrayBuf::new(&[(1, n), (1, n)], 0.0);
    for j in 1..=n {
        a.set("a", &[1, j], 1.0).unwrap();
    }
    for i in 2..=n {
        a.set("a", &[i, 1], 1.0).unwrap();
    }
    for i in 2..=n {
        for j in 2..=n {
            let v = a.get("a", &[i - 1, j]).unwrap()
                + a.get("a", &[i, j - 1]).unwrap()
                + a.get("a", &[i - 1, j - 1]).unwrap();
            a.set("a", &[i, j], v).unwrap();
        }
    }
    a
}

// ---------------------------------------------------------------------
// §5 example 1 — three clauses over one loop (E1)
// ---------------------------------------------------------------------

/// §5 example 1, scaled by `n` = loop trip count (array size `3n`).
/// Clause 1 writes `3i`, clause 2 reads `3(i-1)`, clause 3 reads `3i`.
pub fn section5_example1_source() -> &'static str {
    r#"
param n;
letrec* a = array (1,3*n)
   [* [ 3*i := i ] ++
      [ 3*i-1 := if i == 1 then 0 else a!(3*(i-1)) + 1 ] ++
      [ 3*i-2 := a!(3*i) * 2 ]
    | i <- [1..n] *];
"#
}

/// Hand-coded §5 example 1.
pub fn section5_example1_oracle(n: i64) -> ArrayBuf {
    let mut a = ArrayBuf::new(&[(1, 3 * n)], 0.0);
    for i in 1..=n {
        a.set("a", &[3 * i], i as f64).unwrap();
    }
    for i in 1..=n {
        let v = if i == 1 {
            0.0
        } else {
            a.get("a", &[3 * (i - 1)]).unwrap() + 1.0
        };
        a.set("a", &[3 * i - 1], v).unwrap();
        let w = a.get("a", &[3 * i]).unwrap() * 2.0;
        a.set("a", &[3 * i - 2], w).unwrap();
    }
    a
}

// ---------------------------------------------------------------------
// §5 example 2 — backward inner loop (E2)
// ---------------------------------------------------------------------

/// §5 example 2 shape: the interior reads its east neighbor, so the
/// inner loop must run backward; a border column seeds it.
pub fn section5_example2_source() -> &'static str {
    r#"
param m, n;
letrec* a = array ((1,1),(m,n))
   ([* [ (i,j) := a!(i,j+1) + i ] | i <- [1..m], j <- [1..n-1] *] ++
    [ (i,n) := i | i <- [1..m] ]);
"#
}

/// Hand-coded §5 example 2.
pub fn section5_example2_oracle(m: i64, n: i64) -> ArrayBuf {
    let mut a = ArrayBuf::new(&[(1, m), (1, n)], 0.0);
    for i in 1..=m {
        a.set("a", &[i, n], i as f64).unwrap();
    }
    for i in 1..=m {
        for j in (1..n).rev() {
            let v = a.get("a", &[i, j + 1]).unwrap() + i as f64;
            a.set("a", &[i, j], v).unwrap();
        }
    }
    a
}

// ---------------------------------------------------------------------
// First-order linear recurrence (E4 thunk-overhead kernel)
// ---------------------------------------------------------------------

/// `a!1 = 1; a!i = a!(i-1) * c + i` — the classic sequential
/// recurrence whose thunked evaluation allocates one thunk per element.
pub fn recurrence_source() -> &'static str {
    r#"
param n;
letrec* a = array (1,n)
   ([ 1 := 1 ] ++ [ i := a!(i-1) * 0.5 + i | i <- [2..n] ]);
"#
}

/// Hand-coded recurrence.
pub fn recurrence_oracle(n: i64) -> ArrayBuf {
    let mut a = vector(n, |_| 0.0);
    a.set("a", &[1], 1.0).unwrap();
    for i in 2..=n {
        let v = a.get("a", &[i - 1]).unwrap() * 0.5 + i as f64;
        a.set("a", &[i], v).unwrap();
    }
    a
}

/// One first-order recurrence per row: `a!(i,1) = u!(i,1)`, then
/// `a!(i,j) = a!(i,j-1)·0.5 + u!(i,j)`. The rows are independent, so
/// §10 proves the outer loop parallel while the inner loop carries a
/// flow dependence.
pub fn row_scan_source() -> &'static str {
    r#"
param n;
input u ((1,1),(n,n));
letrec* a = array ((1,1),(n,n))
   ([ (i,1) := u!(i,1) | i <- [1..n] ] ++
    [ (i,j) := a!(i,j-1) * 0.5 + u!(i,j) | i <- [1..n], j <- [2..n] ]);
result a;
"#
}

/// Hand-coded row scan.
pub fn row_scan_oracle(u: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut a = matrix(n, n, |_, _| 0.0);
    for i in 1..=n {
        let mut acc = u.get("u", &[i, 1]).unwrap();
        a.set("a", &[i, 1], acc).unwrap();
        for j in 2..=n {
            acc = acc * 0.5 + u.get("u", &[i, j]).unwrap();
            a.set("a", &[i, j], acc).unwrap();
        }
    }
    a
}

// ---------------------------------------------------------------------
// Tridiagonal (Thomas) forward sweep — scientific substrate kernel
// ---------------------------------------------------------------------

/// Forward elimination of a constant-coefficient tridiagonal system:
/// `c'!1 = c/b; c'!i = c / (b - sub*c'!(i-1))`, then back-substitution
/// seeds — expressed with two mutually ordered recurrences.
pub fn thomas_source() -> &'static str {
    r#"
param n;
input d (1,n);
letrec* cp = array (1,n)
   ([ 1 := 0.25 ] ++
    [ i := 1 / (4 - cp!(i-1)) | i <- [2..n] ]);
letrec* dp = array (1,n)
   ([ 1 := d!1 / 4 ] ++
    [ i := (d!i - dp!(i-1)) / (4 - cp!(i-1)) | i <- [2..n] ]);
letrec* x = array (1,n)
   ([ n := dp!n ] ++
    [ i := dp!i - cp!i * x!(i+1) | i <- [1..n-1] ]);
result x;
"#
}

/// Hand-coded Thomas solve of the same system
/// (diag 4, off-diagonals 1, right-hand side `d`).
pub fn thomas_oracle(d: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut cp = vec![0.0f64; (n + 1) as usize];
    let mut dp = vec![0.0f64; (n + 1) as usize];
    cp[1] = 0.25;
    dp[1] = d.get("d", &[1]).unwrap() / 4.0;
    for i in 2..=n as usize {
        cp[i] = 1.0 / (4.0 - cp[i - 1]);
        dp[i] = (d.get("d", &[i as i64]).unwrap() - dp[i - 1]) / (4.0 - cp[i - 1]);
    }
    let mut x = vector(n, |_| 0.0);
    x.set("x", &[n], dp[n as usize]).unwrap();
    for i in (1..n).rev() {
        let v = dp[i as usize] - cp[i as usize] * x.get("x", &[i + 1]).unwrap();
        x.set("x", &[i], v).unwrap();
    }
    x
}

// ---------------------------------------------------------------------
// §9 — Jacobi step as bigupd (E8)
// ---------------------------------------------------------------------

/// §9 Jacobi relaxation step over the interior of an `n×n` mesh, all
/// four neighbor reads of the *old* array.
pub fn jacobi_source() -> &'static str {
    r#"
param n;
input a ((1,1),(n,n));
b = bigupd a [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i+1,j) + a!(i,j+1)) / 4
             | i <- [2..n-1], j <- [2..n-1] ];
result b;
"#
}

/// Hand-coded Jacobi step against a pristine copy.
pub fn jacobi_oracle(a: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut out = a.clone();
    for i in 2..n {
        for j in 2..n {
            let v = (a.get("a", &[i - 1, j]).unwrap()
                + a.get("a", &[i, j - 1]).unwrap()
                + a.get("a", &[i + 1, j]).unwrap()
                + a.get("a", &[i, j + 1]).unwrap())
                / 4.0;
            out.set("a", &[i, j], v).unwrap();
        }
    }
    out
}

// ---------------------------------------------------------------------
// Out-of-place stencils (E19 parallel-scaling kernels)
// ---------------------------------------------------------------------

/// Out-of-place Jacobi step: the new interior is built as a fresh
/// array from the *input* mesh only. No self-reference means no flow
/// dependences, so §10 proves every loop parallelizable — the
/// dependence-free counterpart of [`jacobi_source`] (whose in-place
/// `bigupd` carries anti dependences and must run sequentially).
pub fn jacobi_step_source() -> &'static str {
    r#"
param n;
input a ((1,1),(n,n));
let b = array ((2,2),(n-1,n-1))
   [ (i,j) := (a!(i-1,j) + a!(i,j-1) + a!(i+1,j) + a!(i,j+1)) / 4
      | i <- [2..n-1], j <- [2..n-1] ];
result b;
"#
}

/// Hand-coded out-of-place Jacobi step (interior only).
pub fn jacobi_step_oracle(a: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut b = ArrayBuf::new(&[(2, n - 1), (2, n - 1)], 0.0);
    for i in 2..n {
        for j in 2..n {
            let v = (a.get("a", &[i - 1, j]).unwrap()
                + a.get("a", &[i, j - 1]).unwrap()
                + a.get("a", &[i + 1, j]).unwrap()
                + a.get("a", &[i, j + 1]).unwrap())
                / 4.0;
            b.set("b", &[i, j], v).unwrap();
        }
    }
    b
}

/// 1-D three-point relaxation (weighted smoothing) into a fresh
/// vector — single clause, identity index map, input reads only:
/// collision- and empties-checks elide and every loop is §10-parallel.
pub fn relaxation_source() -> &'static str {
    r#"
param n;
input u (1,n);
let v = array (2,n-1)
   [ i := 0.25 * u!(i-1) + 0.5 * u!i + 0.25 * u!(i+1) | i <- [2..n-1] ];
result v;
"#
}

/// Hand-coded relaxation kernel.
pub fn relaxation_oracle(u: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut v = ArrayBuf::new(&[(2, n - 1)], 0.0);
    for i in 2..n {
        let x = 0.25 * u.get("u", &[i - 1]).unwrap()
            + 0.5 * u.get("u", &[i]).unwrap()
            + 0.25 * u.get("u", &[i + 1]).unwrap();
        v.set("v", &[i], x).unwrap();
    }
    v
}

// ---------------------------------------------------------------------
// §9 — Gauss–Seidel / SOR step (Livermore Kernel 23 shape, E9)
// ---------------------------------------------------------------------

/// §9 Gauss–Seidel: north/west neighbors are *new* values (`b!`),
/// south/east are old (`a!`) — the LK23 northwest-to-southeast
/// wavefront.
pub fn sor_source() -> &'static str {
    r#"
param n;
input a ((1,1),(n,n));
b = bigupd a [ (i,j) := (b!(i-1,j) + b!(i,j-1) + a!(i+1,j) + a!(i,j+1)) / 4
             | i <- [2..n-1], j <- [2..n-1] ];
result b;
"#
}

/// Hand-coded in-place Gauss–Seidel sweep.
pub fn sor_oracle(a: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut out = a.clone();
    for i in 2..n {
        for j in 2..n {
            let v = (out.get("a", &[i - 1, j]).unwrap()
                + out.get("a", &[i, j - 1]).unwrap()
                + out.get("a", &[i + 1, j]).unwrap()
                + out.get("a", &[i, j + 1]).unwrap())
                / 4.0;
            out.set("a", &[i, j], v).unwrap();
        }
    }
    out
}

// ---------------------------------------------------------------------
// §9 — LINPACK row operations (E7, E10)
// ---------------------------------------------------------------------

/// §9 LINPACK fragment: swap rows 1 and 2 of an `m×n` matrix.
pub fn row_swap_source() -> &'static str {
    r#"
param m, n;
input a ((1,1),(m,n));
b = bigupd a ([ (1,j) := a!(2,j) | j <- [1..n] ] ++
              [ (2,j) := a!(1,j) | j <- [1..n] ]);
result b;
"#
}

/// Hand-coded row swap.
pub fn row_swap_oracle(a: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut out = a.clone();
    for j in 1..=n {
        let top = a.get("a", &[1, j]).unwrap();
        let bot = a.get("a", &[2, j]).unwrap();
        out.set("a", &[1, j], bot).unwrap();
        out.set("a", &[2, j], top).unwrap();
    }
    out
}

/// §9: scale row 1 by 2.5 — in place with no copying.
pub fn row_scale_source() -> &'static str {
    r#"
param m, n;
input a ((1,1),(m,n));
b = bigupd a [ (1,j) := 2.5 * a!(1,j) | j <- [1..n] ];
result b;
"#
}

/// Hand-coded row scale.
pub fn row_scale_oracle(a: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut out = a.clone();
    for j in 1..=n {
        let v = 2.5 * a.get("a", &[1, j]).unwrap();
        out.set("a", &[1, j], v).unwrap();
    }
    out
}

/// §9: in-place SAXPY — row 1 += 3 × row 2.
pub fn saxpy_source() -> &'static str {
    r#"
param m, n;
input a ((1,1),(m,n));
b = bigupd a [ (1,j) := a!(1,j) + 3 * a!(2,j) | j <- [1..n] ];
result b;
"#
}

/// Hand-coded in-place SAXPY.
pub fn saxpy_oracle(a: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut out = a.clone();
    for j in 1..=n {
        let v = a.get("a", &[1, j]).unwrap() + 3.0 * a.get("a", &[2, j]).unwrap();
        out.set("a", &[1, j], v).unwrap();
    }
    out
}

// ---------------------------------------------------------------------
// Deforestation kernels (E11) — non-recursive vector comprehensions
// ---------------------------------------------------------------------

/// An elementwise vector kernel with two appended clause families —
/// enough `++` structure to make naive TE re-cons visibly expensive.
pub fn deforest_source() -> &'static str {
    r#"
param n;
input u (1,n);
let a = array (1,2*n)
   ([ 2*i := u!i * u!i + 1 | i <- [1..n] ] ++
    [ 2*i-1 := u!i - 0.5 | i <- [1..n] ]);
result a;
"#
}

/// Hand-coded deforestation kernel.
pub fn deforest_oracle(u: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut a = ArrayBuf::new(&[(1, 2 * n)], 0.0);
    for i in 1..=n {
        let x = u.get("u", &[i]).unwrap();
        a.set("a", &[2 * i], x * x + 1.0).unwrap();
        a.set("a", &[2 * i - 1], x - 0.5).unwrap();
    }
    a
}

// ---------------------------------------------------------------------
// Collision / empties kernels (E5, E6)
// ---------------------------------------------------------------------

/// An even/odd split permutation: the analysis proves no collision and
/// no empties, so all runtime checks can be elided.
pub fn permutation_source() -> &'static str {
    r#"
param n;
input u (1,n);
let a = array (1,2*n)
   ([ 2*i := u!i | i <- [1..n] ] ++
    [ 2*i-1 := -u!i | i <- [1..n] ]);
result a;
"#
}

/// Hand-coded permutation kernel.
pub fn permutation_oracle(u: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut a = ArrayBuf::new(&[(1, 2 * n)], 0.0);
    for i in 1..=n {
        let x = u.get("u", &[i]).unwrap();
        a.set("a", &[2 * i], x).unwrap();
        a.set("a", &[2 * i - 1], -x).unwrap();
    }
    a
}

// ---------------------------------------------------------------------
// Histogram (accumArray)
// ---------------------------------------------------------------------

/// Histogram of `u` values scaled into 10 buckets via `floor`.
pub fn histogram_source() -> &'static str {
    r#"
param n;
input u (1,n);
let h = accumArray (+) 0 (0,9) [ floor(u!i * 10) := 1.0 | i <- [1..n] ];
result h;
"#
}

/// Hand-coded histogram.
pub fn histogram_oracle(u: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut h = ArrayBuf::new(&[(0, 9)], 0.0);
    for i in 1..=n {
        let b = (u.get("u", &[i]).unwrap() * 10.0).floor() as i64;
        let old = h.get("h", &[b]).unwrap();
        h.set("h", &[b], old + 1.0).unwrap();
    }
    h
}

// ---------------------------------------------------------------------
// Matrix multiply (multi-input, non-recursive)
// ---------------------------------------------------------------------

/// Naive n×n matmul written as a comprehension with an inner reduction
/// recurrence over a helper array of partial sums.
pub fn matmul_source() -> &'static str {
    r#"
param n;
input x ((1,1),(n,n));
input y ((1,1),(n,n));
letrec* p = array ((1,1),(n,n*n))
   ([ (i,(j-1)*n+1) := x!(i,1) * y!(1,j) | i <- [1..n], j <- [1..n] ] ++
    [ (i,(j-1)*n+k) := p!(i,(j-1)*n+k-1) + x!(i,k) * y!(k,j)
       | i <- [1..n], j <- [1..n], k <- [2..n] ]);
let c = array ((1,1),(n,n)) [ (i,j) := p!(i,j*n) | i <- [1..n], j <- [1..n] ];
result c;
"#
}

/// Hand-coded matmul.
pub fn matmul_oracle(x: &ArrayBuf, y: &ArrayBuf, n: i64) -> ArrayBuf {
    matrix(n, n, |i, j| {
        let mut acc = 0.0;
        for k in 1..=n {
            acc += x.get("x", &[i, k]).unwrap() * y.get("y", &[k, j]).unwrap();
        }
        acc
    })
}

/// Dot product as a running-sum recurrence (`programs/dot.hac`): the
/// `k` loop's only carried dependence is the accumulator cell written
/// one iteration ago, so the fusion pass overlays a register-
/// accumulator dot kernel.
pub fn dot_source() -> &'static str {
    r#"
param n;
input a (1,n);
input b (1,n);
letrec* s = array (1,n)
   ([ 1 := a!1 * b!1 ] ++
    [ k := s!(k-1) + a!k * b!k | k <- [2..n] ]);
let r = array (1,1) [ 1 := s!n ];
result r;
"#
}

/// Hand-coded dot product, folding strictly left-to-right like the
/// scalar tape (same FP op order, so the comparison is bit-exact).
pub fn dot_oracle(a: &ArrayBuf, b: &ArrayBuf, n: i64) -> ArrayBuf {
    let mut acc = a.get("a", &[1]).unwrap() * b.get("b", &[1]).unwrap();
    for k in 2..=n {
        acc += a.get("a", &[k]).unwrap() * b.get("b", &[k]).unwrap();
    }
    vector(1, |_| acc)
}

/// Matrix–vector product via per-row partial sums
/// (`programs/matvec.hac`): the outer `i` loop is proven parallel, the
/// inner `k` loop is a reduction — so a fused dot kernel runs inside
/// each chunk of the parallel region.
pub fn matvec_source() -> &'static str {
    r#"
param n;
input m ((1,1),(n,n));
input x (1,n);
letrec* p = array ((1,1),(n,n))
   ([ (i,1) := m!(i,1) * x!1 | i <- [1..n] ] ++
    [ (i,k) := p!(i,k-1) + m!(i,k) * x!k | i <- [1..n], k <- [2..n] ]);
let y = array (1,n) [ i := p!(i,n) | i <- [1..n] ];
result y;
"#
}

/// Hand-coded matvec, left-to-right per row (bit-exact vs the tape).
pub fn matvec_oracle(m: &ArrayBuf, x: &ArrayBuf, n: i64) -> ArrayBuf {
    vector(n, |i| {
        let mut acc = m.get("m", &[i, 1]).unwrap() * x.get("x", &[1]).unwrap();
        for k in 2..=n {
            acc += m.get("m", &[i, k]).unwrap() * x.get("x", &[k]).unwrap();
        }
        acc
    })
}

/// The wavefront program constructed through the builder DSL — kept
/// structurally identical to [`wavefront_source`] (tested below), for
/// hosts that generate programs programmatically.
pub fn wavefront_program() -> hac_lang::ast::Program {
    use hac_lang::build::{comp, e, program};
    program()
        .param("n")
        .letrec_star(
            "a",
            [(e(1), e("n")), (e(1), e("n"))],
            comp()
                .clause([e(1), e("j")], e(1))
                .generate("j", e(1), e("n"))
                .append(
                    comp()
                        .clause([e("i"), e(1)], e(1))
                        .generate("i", e(2), e("n")),
                )
                .append(
                    comp()
                        .clause(
                            [e("i"), e("j")],
                            e("a").idx([e("i") - e(1), e("j")])
                                + e("a").idx([e("i"), e("j") - e(1)])
                                + e("a").idx([e("i") - e(1), e("j") - e(1)]),
                        )
                        // Innermost wrap first: j inner, i outer.
                        .generate("j", e(2), e("n"))
                        .generate("i", e(2), e("n")),
                ),
        )
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hac_lang::parser::parse_program;

    #[test]
    fn all_sources_parse() {
        for (name, src) in [
            ("wavefront", wavefront_source()),
            ("s5e1", section5_example1_source()),
            ("s5e2", section5_example2_source()),
            ("recurrence", recurrence_source()),
            ("thomas", thomas_source()),
            ("jacobi", jacobi_source()),
            ("jacobi_step", jacobi_step_source()),
            ("relaxation", relaxation_source()),
            ("sor", sor_source()),
            ("row_swap", row_swap_source()),
            ("row_scale", row_scale_source()),
            ("saxpy", saxpy_source()),
            ("deforest", deforest_source()),
            ("permutation", permutation_source()),
            ("histogram", histogram_source()),
            ("matmul", matmul_source()),
            ("dot", dot_source()),
            ("matvec", matvec_source()),
        ] {
            parse_program(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn builder_program_matches_source() {
        let built = wavefront_program();
        let parsed = parse_program(wavefront_source()).unwrap();
        assert_eq!(built, parsed);
    }

    #[test]
    fn wavefront_oracle_delannoy() {
        let a = wavefront_oracle(4);
        assert_eq!(a.get("a", &[2, 2]).unwrap(), 3.0);
        assert_eq!(a.get("a", &[3, 3]).unwrap(), 13.0);
        assert_eq!(a.get("a", &[4, 4]).unwrap(), 63.0);
    }

    #[test]
    fn row_ops_oracles() {
        let a = matrix(3, 3, |i, j| (i * 10 + j) as f64);
        let sw = row_swap_oracle(&a, 3);
        assert_eq!(sw.get("a", &[1, 2]).unwrap(), 22.0);
        assert_eq!(sw.get("a", &[2, 2]).unwrap(), 12.0);
        let sc = row_scale_oracle(&a, 3);
        assert_eq!(sc.get("a", &[1, 1]).unwrap(), 27.5);
        let sx = saxpy_oracle(&a, 3);
        assert_eq!(sx.get("a", &[1, 1]).unwrap(), 11.0 + 3.0 * 21.0);
    }

    #[test]
    fn jacobi_vs_sor_differ() {
        // Not harmonic: a linear fill is a Jacobi fixed point.
        let a = matrix(4, 4, |i, j| (i * i + j * 3) as f64);
        let j = jacobi_oracle(&a, 4);
        let s = sor_oracle(&a, 4);
        // SOR uses updated neighbors, Jacobi old ones: interior differs.
        assert_ne!(j.get("a", &[3, 3]).unwrap(), s.get("a", &[3, 3]).unwrap());
    }

    #[test]
    fn jacobi_step_matches_bigupd_interior() {
        // The out-of-place step's interior equals the bigupd Jacobi's.
        let n = 5;
        let a = matrix(n, n, |i, j| (i * 2 + j) as f64);
        let step = jacobi_step_oracle(&a, n);
        let upd = jacobi_oracle(&a, n);
        for i in 2..n {
            for j in 2..n {
                assert_eq!(
                    step.get("b", &[i, j]).unwrap(),
                    upd.get("a", &[i, j]).unwrap()
                );
            }
        }
    }

    #[test]
    fn relaxation_oracle_weights() {
        let n = 5;
        let u = vector(n, |i| i as f64);
        let v = relaxation_oracle(&u, n);
        // Linear data is a fixed point of the 1-2-1 smoother.
        for i in 2..n {
            assert_eq!(v.get("v", &[i]).unwrap(), i as f64);
        }
    }

    #[test]
    fn thomas_oracle_solves() {
        // Verify A·x = d for the tridiag(1,4,1) system.
        let n = 6;
        let d = vector(n, |i| (i % 3 + 1) as f64);
        let x = thomas_oracle(&d, n);
        for i in 1..=n {
            let xm = if i > 1 {
                x.get("x", &[i - 1]).unwrap()
            } else {
                0.0
            };
            let xp = if i < n {
                x.get("x", &[i + 1]).unwrap()
            } else {
                0.0
            };
            let lhs = xm + 4.0 * x.get("x", &[i]).unwrap() + xp;
            assert!((lhs - d.get("d", &[i]).unwrap()).abs() < 1e-9, "row {i}");
        }
    }

    #[test]
    fn matmul_oracle_identity() {
        let n = 3;
        let idn = matrix(n, n, |i, j| if i == j { 1.0 } else { 0.0 });
        let x = matrix(n, n, |i, j| (i * n + j) as f64);
        let c = matmul_oracle(&x, &idn, n);
        crate::util::assert_close(&c, &x, 1e-12);
    }
}
