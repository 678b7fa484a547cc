//! Property tests for the vectorized fast path: `SimdSeq` (intrinsics
//! or portable) agrees with the naive reference **within a documented
//! epsilon bound** on random shapes and data.
//!
//! This is the relaxed cousin of `equivalence.rs`. The deterministic
//! kernels are held to a bit oracle there; the multi-accumulator
//! micro-kernel reassociates the `k`-sum, so the contract here is the
//! error bound from DESIGN.md §14:
//!
//! ```text
//! |simd − naive|  ≤  rel · (|A|·|B|)  +  abs      (element-wise)
//! ```
//!
//! with `rel = 1e-12, abs = 1e-12` for f64 and `rel = 1e-4,
//! abs = 1e-4` for f32 (f32 is compared against the *f64* naive
//! product, so the bound also covers the quantization rounding).
//! `|A|·|B|` is the naive product of element-wise absolute values —
//! the natural magnitude against which a reassociated sum's rounding
//! is measured. Shapes deliberately straddle the MR/NR register-tile
//! and KC/MC cache-block fringes.

use ams_runtime::simd::{matmul_f32, matmul_f64, portable_matmul};
use ams_runtime::{kernels, Backend, SimdSeq};
use proptest::prelude::*;

const MAX_M: usize = 20;
const MAX_K: usize = 40;
const MAX_N: usize = 36;

/// Per-element tolerance reference: naive f64 product and the
/// magnitude matrix `|A|·|B|`.
fn oracle(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut want = vec![0.0; m * n];
    kernels::matmul_naive(a, b, &mut want, m, k, n);
    let aa: Vec<f64> = a.iter().map(|v| v.abs()).collect();
    let ba: Vec<f64> = b.iter().map(|v| v.abs()).collect();
    let mut mag = vec![0.0; m * n];
    kernels::matmul_naive(&aa, &ba, &mut mag, m, k, n);
    (want, mag)
}

fn assert_close(
    want: &[f64],
    mag: &[f64],
    got: &[f64],
    rel: f64,
    abs: f64,
    label: &str,
) -> Result<(), String> {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        let tol = rel * mag[i] + abs;
        if (w - g).abs() > tol {
            return Err(format!("{label}: elem {i}: want {w} got {g} tol {tol}"));
        }
    }
    Ok(())
}

proptest! {
    /// f64 fast path vs naive, within the documented f64 bound.
    #[test]
    fn simd_f64_matches_naive_within_epsilon(
        m in 0usize..MAX_M,
        k in 0usize..MAX_K,
        n in 1usize..MAX_N,
        pool in prop::collection::vec(-8.0f64..8.0, MAX_M * MAX_K + MAX_K * MAX_N),
    ) {
        let a = &pool[..m * k];
        let b = &pool[MAX_M * MAX_K..MAX_M * MAX_K + k * n];
        let (want, mag) = oracle(a, b, m, k, n);
        let mut got = vec![0.0; m * n];
        matmul_f64(a, b, &mut got, m, k, n);
        assert_close(&want, &mag, &got, 1e-12, 1e-12, "simd-f64")?;
    }

    /// f32 fast path vs the f64 naive reference, within the f32 bound
    /// (covers both reassociation and narrowing).
    #[test]
    fn simd_f32_matches_f64_naive_within_epsilon(
        m in 0usize..MAX_M,
        k in 0usize..MAX_K,
        n in 1usize..MAX_N,
        pool in prop::collection::vec(-8.0f64..8.0, MAX_M * MAX_K + MAX_K * MAX_N),
    ) {
        let a = &pool[..m * k];
        let b = &pool[MAX_M * MAX_K..MAX_M * MAX_K + k * n];
        let (want, mag) = oracle(a, b, m, k, n);
        let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let mut got32 = vec![0.0f32; m * n];
        matmul_f32(&a32, &b32, &mut got32, m, k, n);
        let got: Vec<f64> = got32.iter().map(|&v| v as f64).collect();
        assert_close(&want, &mag, &got, 1e-4, 1e-4, "simd-f32")?;
    }

    /// The portable unrolled fallback obeys the same f64 bound — it is
    /// the fast path on builds/CPUs without the intrinsics.
    #[test]
    fn portable_matches_naive_within_epsilon(
        m in 0usize..MAX_M,
        k in 0usize..MAX_K,
        n in 1usize..MAX_N,
        pool in prop::collection::vec(-8.0f64..8.0, MAX_M * MAX_K + MAX_K * MAX_N),
    ) {
        let a = &pool[..m * k];
        let b = &pool[MAX_M * MAX_K..MAX_M * MAX_K + k * n];
        let (want, mag) = oracle(a, b, m, k, n);
        let mut got = vec![0.0; m * n];
        portable_matmul(a, b, &mut got, m, k, n);
        assert_close(&want, &mag, &got, 1e-12, 1e-12, "portable")?;
    }

    /// Via the `Backend` trait object `matmul` lands on the same fast
    /// kernel and stays within the bound.
    #[test]
    fn simd_backend_matmul_within_epsilon(
        m in 1usize..MAX_M,
        k in 1usize..MAX_K,
        n in 1usize..MAX_N,
        pool in prop::collection::vec(-4.0f64..4.0, MAX_M * MAX_K + MAX_K * MAX_N),
    ) {
        let a = &pool[..m * k];
        let b = &pool[MAX_M * MAX_K..MAX_M * MAX_K + k * n];
        let backend: &dyn Backend = &SimdSeq;
        let mut got = vec![0.0; m * n];
        backend.matmul(a, b, &mut got, m, k, n);
        let (want, mag) = oracle(a, b, m, k, n);
        assert_close(&want, &mag, &got, 1e-12, 1e-12, "simd-backend")?;
    }
}

/// The fast path is deterministic run-to-run: same inputs, same bits
/// (reassociation is fixed by the tile shape, not by chance).
#[test]
fn simd_is_bitwise_deterministic_run_to_run() {
    let (m, k, n) = (37, 65, 29);
    let a: Vec<f64> = (0..m * k).map(|i| ((i * 31) % 17) as f64 * 0.375 - 3.0).collect();
    let b: Vec<f64> = (0..k * n).map(|i| ((i * 11) % 13) as f64 * 0.5 - 3.0).collect();
    let mut first = vec![0.0; m * n];
    matmul_f64(&a, &b, &mut first, m, k, n);
    for _ in 0..5 {
        let mut again = vec![0.0; m * n];
        matmul_f64(&a, &b, &mut again, m, k, n);
        for (f, g) in first.iter().zip(&again) {
            assert_eq!(f.to_bits(), g.to_bits());
        }
    }
}
