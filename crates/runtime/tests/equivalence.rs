//! Property tests: the blocked kernels and the `Par` backend are
//! bit-identical to the naive reference on random shapes — including
//! the degenerate `k = 0` inner dimension and `1×n` rows — and `Par`
//! output does not depend on the thread count.

use ams_runtime::{kernels, Backend, Par, Seq};
use proptest::prelude::*;

const MAX_M: usize = 13;
const MAX_K: usize = 40;
const MAX_N: usize = 21;

/// Inject exact zeros so the zero-skip fast path is exercised.
fn sparsify(mut data: Vec<f64>) -> Vec<f64> {
    for v in &mut data {
        if v.abs() < 2.0 {
            *v = 0.0;
        }
    }
    data
}

fn assert_bits_eq(want: &[f64], got: &[f64], label: &str) -> Result<(), String> {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w.to_bits() != g.to_bits() {
            return Err(format!("{label}: bit mismatch at {i}: {w:?} vs {g:?}"));
        }
    }
    Ok(())
}

proptest! {
    /// Blocked matmul is bit-identical to the naive triple loop,
    /// including empty inner dimension (k = 0) and single-row (1×n)
    /// shapes.
    #[test]
    fn blocked_matmul_matches_naive_bitwise(
        m in 0usize..MAX_M,
        k in 0usize..MAX_K,
        n in 1usize..MAX_N,
        pool in prop::collection::vec(-8.0f64..8.0, MAX_M * MAX_K + MAX_K * MAX_N)
            .prop_map(sparsify),
    ) {
        let a = &pool[..m * k];
        let b = &pool[MAX_M * MAX_K..MAX_M * MAX_K + k * n];
        let mut want = vec![0.0; m * n];
        kernels::matmul_naive(a, b, &mut want, m, k, n);
        let mut got = vec![0.0; m * n];
        kernels::matmul(a, b, &mut got, m, k, n);
        assert_bits_eq(&want, &got, "blocked")?;
    }

    /// Aᵀ·G fused kernel agrees bitwise with naive on the materialized
    /// transpose.
    #[test]
    fn transa_matches_naive_bitwise(
        r in 0usize..MAX_K,
        m in 1usize..MAX_M,
        n in 1usize..MAX_N,
        pool in prop::collection::vec(-8.0f64..8.0, MAX_K * MAX_M + MAX_K * MAX_N)
            .prop_map(sparsify),
    ) {
        let a = &pool[..r * m]; // r×m
        let g = &pool[MAX_K * MAX_M..MAX_K * MAX_M + r * n]; // r×n
        let mut at = vec![0.0; m * r];
        for rr in 0..r {
            for i in 0..m {
                at[i * r + rr] = a[rr * m + i];
            }
        }
        let mut want = vec![0.0; m * n];
        kernels::matmul_naive(&at, g, &mut want, m, r, n);
        let mut got = vec![0.0; m * n];
        kernels::matmul_transa(a, g, &mut got, r, m, n);
        assert_bits_eq(&want, &got, "transa")?;
    }

    /// The Par backend at 1, 2, and 8 threads produces the same bits
    /// as Seq for every shape — the determinism guarantee consumers
    /// rely on. Shapes are scaled up so some cases cross the parallel
    /// dispatch threshold and some stay under it.
    #[test]
    fn par_is_bitwise_deterministic_across_thread_counts(
        m in 1usize..48,
        k in 0usize..32,
        n in 1usize..24,
        pool in prop::collection::vec(-8.0f64..8.0, 48 * 32 + 32 * 24).prop_map(sparsify),
    ) {
        let a = &pool[..m * k];
        let b = &pool[48 * 32..48 * 32 + k * n];
        let mut want = vec![0.0; m * n];
        Seq.matmul(a, b, &mut want, m, k, n);
        for threads in [1usize, 2, 8] {
            let par = Par::new(threads);
            let mut got = vec![0.0; m * n];
            par.matmul(a, b, &mut got, m, k, n);
            assert_bits_eq(&want, &got, &format!("par:{threads}"))?;
        }
    }
}

/// Repeated runs on the same pool instance give the same bits — the
/// run-to-run half of the determinism guarantee.
#[test]
fn par_is_bitwise_deterministic_run_to_run() {
    let (m, k, n) = (64, 48, 32);
    let a: Vec<f64> = (0..m * k).map(|i| ((i * 31) % 17) as f64 * 0.375 - 3.0).collect();
    let b: Vec<f64> = (0..k * n).map(|i| ((i * 11) % 13) as f64 * 0.5 - 3.0).collect();
    let par = Par::new(4);
    let mut first = vec![0.0; m * n];
    par.matmul(&a, &b, &mut first, m, k, n);
    for _ in 0..5 {
        let mut again = vec![0.0; m * n];
        par.matmul(&a, &b, &mut again, m, k, n);
        for (f, g) in first.iter().zip(&again) {
            assert_eq!(f.to_bits(), g.to_bits());
        }
    }
}
