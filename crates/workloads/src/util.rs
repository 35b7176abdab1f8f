//! Shared helpers: deterministic input generation and buffer builders.

use hac_runtime::value::ArrayBuf;
pub use hac_runtime::value::XorShift;

/// A 1-D buffer `[1..n]` filled by `f(i)`.
pub fn vector(n: i64, mut f: impl FnMut(i64) -> f64) -> ArrayBuf {
    let mut b = ArrayBuf::new(&[(1, n)], 0.0);
    for i in 1..=n {
        b.set("v", &[i], f(i)).unwrap();
    }
    b
}

/// A 2-D buffer `[1..m]×[1..n]` filled by `f(i, j)`.
pub fn matrix(m: i64, n: i64, mut f: impl FnMut(i64, i64) -> f64) -> ArrayBuf {
    let mut b = ArrayBuf::new(&[(1, m), (1, n)], 0.0);
    for i in 1..=m {
        for j in 1..=n {
            b.set("m", &[i, j], f(i, j)).unwrap();
        }
    }
    b
}

/// A reproducible random vector.
pub fn random_vector(n: i64, seed: u64) -> ArrayBuf {
    let mut rng = XorShift::new(seed);
    vector(n, |_| rng.next_f64())
}

/// A reproducible random matrix.
pub fn random_matrix(m: i64, n: i64, seed: u64) -> ArrayBuf {
    let mut rng = XorShift::new(seed);
    matrix(m, n, |_, _| rng.next_f64())
}

/// Assert two buffers are element-wise close (oracle comparisons).
///
/// # Panics
/// Panics with the first differing element.
pub fn assert_close(got: &ArrayBuf, want: &ArrayBuf, tol: f64) {
    assert_eq!(got.bounds(), want.bounds(), "shape mismatch");
    for (k, (g, w)) in got.data().iter().zip(want.data().iter()).enumerate() {
        assert!(
            (g - w).abs() <= tol * (1.0 + w.abs()),
            "element {k}: got {g}, want {w}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShift::new(42);
        let mut b = XorShift::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let v = a.next_f64();
        assert!((0.0..1.0).contains(&v));
    }

    #[test]
    fn builders_fill() {
        let v = vector(3, |i| i as f64);
        assert_eq!(v.data(), &[1.0, 2.0, 3.0]);
        let m = matrix(2, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.data(), &[11.0, 12.0, 21.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "element")]
    fn assert_close_panics_on_mismatch() {
        let a = vector(2, |_| 1.0);
        let b = vector(2, |_| 2.0);
        assert_close(&a, &b, 1e-12);
    }
}
