//! Sequential micro-kernels over row-major [`Element`] slices.
//!
//! The kernels are generic over the scalar ([`Element`]: `f64` or
//! `f32`), but the `f64` instantiation is **bit-compatible** with the
//! historical `Matrix` loops it replaces. Two rules make that possible
//! and must be preserved by any future optimization of *this* module
//! (the explicitly vectorized [`crate::simd`] path is exempt and pays
//! for it with an epsilon oracle instead of a bit oracle):
//!
//! 1. each output element is produced by a *single* accumulator chain
//!    that adds terms in strictly increasing `k` order (blocking over
//!    rows/`k`-panels is fine, multi-accumulator unrolling is not);
//! 2. the historical zero-skip (`if a == 0.0 { continue; }`) is kept.
//!    Besides being a real win on the GAT attention matrices (masked
//!    softmax rows are mostly exact zeros), it is semantically load
//!    bearing: skipping is how `0 · ∞ = NaN` never enters an
//!    accumulator the old code kept clean.
//!
//! Both rules live in exactly one place: [`mac_row`], the shared
//! multiply-accumulate core. Both matmul variants (`A·B`, `Aᵀ·G`) and
//! the naive oracle call it, so there is one MAC loop to audit, not
//! several near-duplicates.
//!
//! Cache strategy: `B` is row-major, so a `k`-panel of `B` is already
//! a packed contiguous block — the classic "pack B" step of a blocked
//! GEMM is a no-op here. [`matmul`] therefore blocks over `i` and `k`
//! and streams whole rows of `B`, so its inner loop is a contiguous
//! `mac_row` that vectorises. The tape's backward `g·Bᵀ` runs it on a
//! [`transpose`]d copy of `B` rather than on a fused `A·Bᵀ` kernel:
//! reading `B`'s rows directly gives the same bits, but its inner loop
//! is a scalar dot product (one accumulator, one zero-skip branch per
//! term) that cannot vectorise, and on the AMS training tape it cost
//! more than the copy saves. [`matmul_transa`] serves `Aᵀ·G`.

use crate::element::Element;

/// Rows of `A`/`out` processed per cache block.
const MC: usize = 32;
/// Depth (`k`) processed per cache block; `KC` rows of `B` (`KC × n`
/// values) stay hot across the `MC` rows of the block.
const KC: usize = 256;

/// The one multiply-accumulate core: `out[j] += av * b[j]` for every
/// `j`, skipped entirely when `av == 0` (bit-compat rule 2 — the
/// zero-skip that keeps `0 · ∞` out of the accumulators). Every
/// output element of every matmul variant is built from calls to this
/// function with strictly increasing `k`, which is bit-compat rule 1.
#[inline(always)]
pub fn mac_row<E: Element>(out: &mut [E], av: E, b: &[E]) {
    if av == E::ZERO {
        return;
    }
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += av * bv;
    }
}

/// `out[m×n] += 0` is assumed: callers pass a zeroed output buffer.
/// Cache-blocked `out = A·B` with the seed's ikj accumulation order.
///
/// Debug-asserts slice lengths; shape validation belongs to callers.
pub fn matmul<E: Element>(a: &[E], b: &[E], out: &mut [E], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "matmul: lhs buffer");
    debug_assert_eq!(b.len(), k * n, "matmul: rhs buffer");
    debug_assert_eq!(out.len(), m * n, "matmul: out buffer");
    matmul_rows(a, b, out, 0, m, k, n);
}

/// The row-range worker behind [`matmul`]: computes output rows
/// `lo..hi` into `out` (which holds exactly those rows, `(hi-lo)×n`).
/// The `Par` backend calls this per chunk; because every output row is
/// produced by this same sequential code whatever the chunking, results
/// are bit-identical across thread counts.
pub fn matmul_rows<E: Element>(
    a: &[E],
    b: &[E],
    out: &mut [E],
    lo: usize,
    hi: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), (hi - lo) * n, "matmul_rows: out buffer");
    for i0 in (lo..hi).step_by(MC) {
        let i1 = (i0 + MC).min(hi);
        for k0 in (0..k).step_by(KC) {
            let k1 = (k0 + KC).min(k);
            for i in i0..i1 {
                let arow = &a[i * k..(i + 1) * k];
                let out_row = &mut out[(i - lo) * n..(i - lo + 1) * n];
                for (kk, &av) in arow[k0..k1].iter().enumerate() {
                    let brow = &b[(k0 + kk) * n..(k0 + kk + 1) * n];
                    mac_row(out_row, av, brow);
                }
            }
        }
    }
}

/// `out = Aᵀ·G` where `a` is `r×m` and `g` is `r×n`, producing `m×n` —
/// the `∂L/∂B = Aᵀ·g` term of the matmul VJP, without materializing
/// `Aᵀ`. Bit-identical to `a.t().matmul(g)`: for each output element
/// the terms are added in increasing `r` order and the zero-skip tests
/// the (transposed) left factor `a[r,i]`, exactly as the seed loop
/// tested `Aᵀ[i,r]`.
pub fn matmul_transa<E: Element>(a: &[E], g: &[E], out: &mut [E], r: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), r * m, "matmul_transa: lhs buffer");
    debug_assert_eq!(g.len(), r * n, "matmul_transa: rhs buffer");
    debug_assert_eq!(out.len(), m * n, "matmul_transa: out buffer");
    matmul_transa_cols(a, g, out, 0, m, r, m, n);
}

/// Column-range worker behind [`matmul_transa`]: computes output rows
/// `lo..hi` (columns `lo..hi` of the logical `A`) into `out`, which
/// holds exactly those rows. `full_m` is the row stride of `a`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_transa_cols<E: Element>(
    a: &[E],
    g: &[E],
    out: &mut [E],
    lo: usize,
    hi: usize,
    r: usize,
    full_m: usize,
    n: usize,
) {
    debug_assert_eq!(out.len(), (hi - lo) * n, "matmul_transa_cols: out buffer");
    for i in lo..hi {
        let out_row = &mut out[(i - lo) * n..(i - lo + 1) * n];
        for rr in 0..r {
            let av = a[rr * full_m + i];
            let grow = &g[rr * n..(rr + 1) * n];
            mac_row(out_row, av, grow);
        }
    }
}

/// `out = Aᵀ`: `a` is `rows×cols` row-major and `out` receives the
/// `cols×rows` transpose. A pure copy, so it cannot change a bit of
/// any product computed on it.
pub fn transpose<E: Element>(a: &[E], out: &mut [E], rows: usize, cols: usize) {
    debug_assert_eq!(a.len(), rows * cols, "transpose: input buffer");
    debug_assert_eq!(out.len(), rows * cols, "transpose: out buffer");
    for r in 0..rows {
        for c in 0..cols {
            out[c * rows + r] = a[r * cols + c];
        }
    }
}

/// In-place row-broadcast bias add: `out[r][c] += bias[c]` for every
/// row of the `rows×n` buffer — the value of the tape's
/// `add_row_broadcast` op and of the serving engine's.
pub fn add_bias_rows<E: Element>(out: &mut [E], bias: &[E], rows: usize, n: usize) {
    debug_assert_eq!(out.len(), rows * n, "add_bias_rows: out buffer");
    debug_assert_eq!(bias.len(), n, "add_bias_rows: bias width");
    for row in out.chunks_exact_mut(n).take(rows) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// `y += alpha * x` — the optimizer-update axpy.
pub fn axpy<E: Element>(y: &mut [E], x: &[E], alpha: E) {
    debug_assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// Row-wise softmax over positions where `mask != 0`; masked positions
/// output exactly 0 and a fully masked row stays all zero. `out` must
/// arrive zeroed. Identical structure to the historical tape op,
/// including the final divide over *all* columns (masked entries hold
/// `0.0`, and `0.0 / denom == 0.0` for the always-positive denom).
pub fn masked_softmax_rows<E: Element>(
    x: &[E],
    mask: &[E],
    out: &mut [E],
    rows: usize,
    cols: usize,
) {
    debug_assert_eq!(x.len(), rows * cols, "masked_softmax_rows: input buffer");
    debug_assert_eq!(mask.len(), rows * cols, "masked_softmax_rows: mask buffer");
    debug_assert_eq!(out.len(), rows * cols, "masked_softmax_rows: out buffer");
    masked_softmax_rows_range(x, mask, out, 0, rows, cols);
}

/// Row-range worker behind [`masked_softmax_rows`].
pub fn masked_softmax_rows_range<E: Element>(
    x: &[E],
    mask: &[E],
    out: &mut [E],
    lo: usize,
    hi: usize,
    cols: usize,
) {
    debug_assert_eq!(out.len(), (hi - lo) * cols, "masked_softmax_rows_range: out buffer");
    for r in lo..hi {
        let xrow = &x[r * cols..(r + 1) * cols];
        let mrow = &mask[r * cols..(r + 1) * cols];
        let orow = &mut out[(r - lo) * cols..(r - lo + 1) * cols];
        let mut maxv = E::NEG_INFINITY;
        for (xv, mv) in xrow.iter().zip(mrow) {
            if *mv != E::ZERO {
                maxv = maxv.max(*xv);
            }
        }
        if maxv == E::NEG_INFINITY {
            continue; // fully masked row
        }
        let mut denom = E::ZERO;
        for ((o, xv), mv) in orow.iter_mut().zip(xrow).zip(mrow) {
            if *mv != E::ZERO {
                let e = (*xv - maxv).exp();
                *o = e;
                denom += e;
            }
        }
        for o in orow.iter_mut() {
            *o /= denom;
        }
    }
}

/// `out[r] = dot(a.row(r), b.row(r))` over `rows×cols` inputs; `out`
/// has `rows` elements. The explicit fold from `E::ZERO` is the same
/// accumulation chain the historical `.sum()` performed.
pub fn rowwise_dot<E: Element>(a: &[E], b: &[E], out: &mut [E], rows: usize, cols: usize) {
    debug_assert_eq!(a.len(), rows * cols, "rowwise_dot: lhs buffer");
    debug_assert_eq!(b.len(), rows * cols, "rowwise_dot: rhs buffer");
    debug_assert_eq!(out.len(), rows, "rowwise_dot: out buffer");
    for (r, o) in out.iter_mut().enumerate() {
        let arow = &a[r * cols..(r + 1) * cols];
        let brow = &b[r * cols..(r + 1) * cols];
        let mut acc = E::ZERO;
        for (&x, &y) in arow.iter().zip(brow) {
            acc += x * y;
        }
        *o = acc;
    }
}

/// Reference triple loop — the seed `Matrix::matmul` verbatim, kept as
/// the equivalence oracle for the blocked/parallel/vectorized kernels.
pub fn matmul_naive<E: Element>(a: &[E], b: &[E], out: &mut [E], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            let brow = &b[kk * n..(kk + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            mac_row(out_row, av, brow);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        let mut v = vec![0.0; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                v[r * cols + c] = f(r, c);
            }
        }
        v
    }

    #[test]
    fn blocked_matches_naive_bitwise_across_block_boundaries() {
        // Sizes straddling MC/KC boundaries, plus degenerate shapes.
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 2), (33, 257, 7), (64, 64, 64), (0, 4, 4), (4, 0, 4), (1, 300, 1)]
        {
            let a = mat(m, k, |r, c| ((r * 31 + c * 17) % 13) as f64 - 6.0);
            let b = mat(k, n, |r, c| ((r * 7 + c * 3) % 11) as f64 / 3.0 - 1.5);
            let mut want = vec![0.0; m * n];
            matmul_naive(&a, &b, &mut want, m, k, n);
            let mut got = vec![0.0; m * n];
            matmul(&a, &b, &mut got, m, k, n);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.to_bits(), g.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn zero_skip_keeps_inf_out_of_the_accumulator() {
        // a = [0, 1], b column holds [inf, 2]: the historical semantics
        // give 2.0 (the 0·inf term is skipped, not NaN).
        let a = [0.0, 1.0];
        let b = [f64::INFINITY, 2.0];
        let mut out = [0.0];
        matmul(&a, &b, &mut out, 1, 2, 1);
        assert_eq!(out[0], 2.0);
    }

    #[test]
    fn transpose_round_trips() {
        let (rows, cols) = (3, 5);
        let a = mat(rows, cols, |r, c| (r * cols + c) as f64);
        let mut at = vec![0.0; rows * cols];
        transpose(&a, &mut at, rows, cols);
        assert_eq!(at[..rows], [0.0, 5.0, 10.0]);
        let mut back = vec![0.0; rows * cols];
        transpose(&at, &mut back, cols, rows);
        assert_eq!(back, a);
    }

    #[test]
    fn transa_matches_matmul_with_materialized_transpose() {
        let (r, m, n) = (11, 5, 8);
        let a = mat(r, m, |i, j| ((i * 3 + j * 7) % 9) as f64 - 4.0);
        let g = mat(r, n, |i, j| (i as f64 * 0.5 - j as f64 * 0.25).sin());
        let at = mat(m, r, |i, j| a[j * m + i]);
        let mut want = vec![0.0; m * n];
        matmul_naive(&at, &g, &mut want, m, r, n);
        let mut got = vec![0.0; m * n];
        matmul_transa(&a, &g, &mut got, r, m, n);
        for (w, gv) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), gv.to_bits());
        }
    }

    #[test]
    fn fused_bias_equals_separate_add() {
        let (m, k, n) = (4, 3, 5);
        let a = mat(m, k, |r, c| (r + c) as f64 * 0.3);
        let b = mat(k, n, |r, c| (r as f64 - c as f64) * 0.7);
        let bias: Vec<f64> = (0..n).map(|c| c as f64 * 0.11 - 0.2).collect();
        let mut fused = vec![0.0; m * n];
        matmul(&a, &b, &mut fused, m, k, n);
        add_bias_rows(&mut fused, &bias, m, n);
        let mut separate = vec![0.0; m * n];
        matmul(&a, &b, &mut separate, m, k, n);
        for r in 0..m {
            for c in 0..n {
                separate[r * n + c] += bias[c];
            }
        }
        for (f, s) in fused.iter().zip(&separate) {
            assert_eq!(f.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn softmax_rows_and_fully_masked_row() {
        let x: [f64; 6] = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0];
        let mask = [1.0, 0.0, 1.0, 0.0, 0.0, 0.0];
        let mut out = [0.0; 6];
        masked_softmax_rows(&x, &mask, &mut out, 2, 3);
        assert_eq!(out[1], 0.0);
        assert!((out[0] + out[2] - 1.0).abs() < 1e-12);
        assert!(out[2] > out[0]);
        assert_eq!(&out[3..], &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn axpy_and_rowwise_dot() {
        let mut y = [1.0, 1.0];
        axpy(&mut y, &[4.0, 8.0], -0.25);
        assert_eq!(y, [0.0, -1.0]);
        let mut out = [0.0; 2];
        rowwise_dot(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], &mut out, 2, 2);
        assert_eq!(out, [17.0, 53.0]);
    }

    #[test]
    fn f32_instantiation_computes_the_same_small_product() {
        let a: [f32; 4] = [1.0, 2.0, 3.0, 4.0];
        let b: [f32; 4] = [5.0, 6.0, 7.0, 8.0];
        let mut out = [0.0f32; 4];
        matmul(&a, &b, &mut out, 2, 2, 2);
        assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
        let mut naive = [0.0f32; 4];
        matmul_naive(&a, &b, &mut naive, 2, 2, 2);
        assert_eq!(out, naive);
    }
}
