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
//!    It is semantically load bearing: skipping is how `0 · ∞ = NaN`
//!    never enters an accumulator the old code kept clean. It is also
//!    what makes graph attention bit-exact on an edge list: an
//!    attention weight that underflows to exactly 0 is skipped on the
//!    edge walk just as it was in the dense `α·Wh` product, where it
//!    sat beside the masked zeros.
//!
//! Both rules live in exactly one place: [`mac_row`], the shared
//! multiply-accumulate core. Both matmul variants (`A·B`, `Aᵀ·G`), the
//! graph-attention pair ([`graph_attention`] and its backward) and the
//! naive oracles call it, so there is one MAC loop to audit, not
//! several near-duplicates.
//!
//! Graph attention walks each row's sorted neighbours in an
//! [`EdgeList`] instead of a dense `n×n` logit matrix: O(E·f) work per
//! head instead of O(n²·f). Every accumulation chain is the one the
//! dense masked-softmax chain ran (see [`graph_attention_backward`] for
//! why the masked cells' terms can be dropped), and
//! [`graph_attention_dense`] keeps that dense chain as the bit oracle.
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

use crate::edges::EdgeList;
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

/// One attention head's inputs over an `n`-node [`EdgeList`]: the
/// score columns `s_l = Wh·a_l` and `s_r = Wh·a_r` (`n` values each),
/// the transformed features `wh` (`n×f`) and the negative slope of the
/// logit LeakyReLU.
#[derive(Debug, Clone, Copy)]
pub struct Attention<'a, E: Element> {
    pub edges: &'a EdgeList,
    pub s_l: &'a [E],
    pub s_r: &'a [E],
    pub wh: &'a [E],
    /// Width of `wh` (and of the output).
    pub f: usize,
    pub slope: E,
}

impl<E: Element> Attention<'_, E> {
    /// Row `j` of `wh`.
    #[inline(always)]
    fn wh_row(&self, j: u32) -> &[E] {
        let j = j as usize;
        &self.wh[j * self.f..(j + 1) * self.f]
    }

    /// The pre-activation logit `s_l[i] + s_r[j]` of edge `i → j`.
    #[inline(always)]
    fn logit(&self, i: usize, j: u32) -> E {
        self.s_l[i] + self.s_r[j as usize]
    }

    fn debug_check(&self, alpha: usize) {
        let n = self.edges.nodes();
        debug_assert_eq!(self.s_l.len(), n, "graph_attention: s_l length");
        debug_assert_eq!(self.s_r.len(), n, "graph_attention: s_r length");
        debug_assert_eq!(self.wh.len(), n * self.f, "graph_attention: wh buffer");
        debug_assert_eq!(alpha, self.edges.len(), "graph_attention: alpha length");
    }
}

/// `Σ_k g[k]·w[k]` in increasing `k`, skipping `g[k] == 0`: one cell of
/// the dense `g·Whᵀ` product, built by `mac_row` calls on the rows of
/// `Whᵀ` with the same zero-skip on the left factor.
#[inline(always)]
fn dot_zero_skip<E: Element>(g: &[E], w: &[E]) -> E {
    let mut acc = E::ZERO;
    for (&gv, &wv) in g.iter().zip(w) {
        if gv != E::ZERO {
            acc += gv * wv;
        }
    }
    acc
}

/// Graph attention for one head (Eqs. 2–3): per edge the logit
/// `e_ij = LeakyReLU(s_l[i] + s_r[j])`, per row the softmax
/// `α_ij = exp(e_ij − max_j e_ij) / Σ_j exp(…)` over the row's edges,
/// and `out[i] = Σ_j α_ij·wh[j]`. `alpha` (one value per edge, in edge
/// order) receives α for the backward; `out` (`n×f`) must arrive
/// zeroed. A node whose row is empty, or whose logits are all −∞ or
/// NaN, gets α = 0 and a zero output row.
///
/// Bit-identical to the dense chain ([`graph_attention_dense`]): the
/// max, the exponent sum and the aggregation each walk a row's sorted
/// neighbours, the order the dense softmax walked its unmasked
/// columns, and the aggregation runs through [`mac_row`] with its
/// zero-skip, exactly as the dense `α·Wh` product skipped α = 0.
pub fn graph_attention<E: Element>(at: Attention<'_, E>, alpha: &mut [E], out: &mut [E]) {
    at.debug_check(alpha.len());
    debug_assert_eq!(out.len(), at.edges.nodes() * at.f, "graph_attention: out buffer");
    let f = at.f;
    for i in 0..at.edges.nodes() {
        let cols = at.edges.row(i);
        let lo = at.edges.first_edge(i);
        let a = &mut alpha[lo..lo + cols.len()];
        let mut maxv = E::NEG_INFINITY;
        for (av, &j) in a.iter_mut().zip(cols) {
            let e = at.logit(i, j);
            *av = if e > E::ZERO { e } else { at.slope * e };
            maxv = maxv.max(*av);
        }
        if maxv == E::NEG_INFINITY {
            a.fill(E::ZERO);
            continue;
        }
        let mut denom = E::ZERO;
        for av in a.iter_mut() {
            *av = (*av - maxv).exp();
            denom += *av;
        }
        let orow = &mut out[i * f..(i + 1) * f];
        for (av, &j) in a.iter_mut().zip(cols) {
            *av /= denom;
            mac_row(orow, *av, at.wh_row(j));
        }
    }
}

/// The VJP of [`graph_attention`]: given `g = ∂L/∂out` (`n×f`) and the
/// forward's `alpha`, accumulate `∂L/∂s_l`, `∂L/∂s_r` (`n` each) and
/// `∂L/∂wh` (`n×f`) into zeroed buffers.
///
/// Per edge, `∂α_ij = g_i·wh_j` (zero-skipping `g`), the softmax VJP
/// `α_ij·(∂α_ij − Σ_k ∂α_ik·α_ik)` and the LeakyReLU gate give the
/// logit gradient, which is added to `∂s_l[i]` and `∂s_r[j]`; and
/// `α_ij·g_i` is added to `∂wh[j]` through [`mac_row`]. Rows are walked
/// in ascending `i`, so every `∂s_r[j]` and `∂wh[j]` collects its terms
/// in ascending `i` — the order of the dense `Aᵀ·G` product
/// ([`matmul_transa`]) and of the outer-sum reduction. The dense chain
/// also added one ±0 term per masked cell; the gradients accumulate
/// from +0, so those terms never changed a bit, and leaving them out
/// keeps the result bit-identical to [`graph_attention_dense_backward`].
pub fn graph_attention_backward<E: Element>(
    at: Attention<'_, E>,
    alpha: &[E],
    g: &[E],
    d_sl: &mut [E],
    d_sr: &mut [E],
    d_wh: &mut [E],
) {
    at.debug_check(alpha.len());
    let (n, f) = (at.edges.nodes(), at.f);
    debug_assert_eq!(g.len(), n * f, "graph_attention_backward: g buffer");
    debug_assert_eq!(d_sl.len(), n, "graph_attention_backward: d_sl length");
    debug_assert_eq!(d_sr.len(), n, "graph_attention_backward: d_sr length");
    debug_assert_eq!(d_wh.len(), n * f, "graph_attention_backward: d_wh buffer");
    for i in 0..n {
        let cols = at.edges.row(i);
        let lo = at.edges.first_edge(i);
        let a = &alpha[lo..lo + cols.len()];
        let gi = &g[i * f..(i + 1) * f];
        let mut dot = E::ZERO;
        for (&av, &j) in a.iter().zip(cols) {
            dot += dot_zero_skip(gi, at.wh_row(j)) * av;
        }
        for (&av, &j) in a.iter().zip(cols) {
            let gx = av * (dot_zero_skip(gi, at.wh_row(j)) - dot);
            let ge = if at.logit(i, j) > E::ZERO { gx } else { at.slope * gx };
            d_sl[i] += ge;
            d_sr[j as usize] += ge;
            let j = j as usize;
            mac_row(&mut d_wh[j * f..(j + 1) * f], av, gi);
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

/// Reference dense attention: the chain the edge-list kernels replaced
/// — outer-sum logits, LeakyReLU, a row softmax over the dense `n×n`
/// mask, then the `α·Wh` product — written as plain loops. Kept as the
/// equivalence oracle of [`graph_attention`], as [`matmul_naive`] is of
/// [`matmul`]. `alpha` receives α as a dense `n×n` matrix (masked cells
/// exactly 0); `alpha` and `out` must arrive zeroed.
pub fn graph_attention_dense<E: Element>(at: Attention<'_, E>, alpha: &mut [E], out: &mut [E]) {
    let (n, f) = (at.edges.nodes(), at.f);
    let mask = at.edges.to_mask::<E>();
    let mut logits = vec![E::ZERO; n * n];
    for i in 0..n {
        for j in 0..n {
            let e = at.s_l[i] + at.s_r[j];
            logits[i * n + j] = if e > E::ZERO { e } else { at.slope * e };
        }
    }
    for r in 0..n {
        let (x, m) = (&logits[r * n..(r + 1) * n], &mask[r * n..(r + 1) * n]);
        let row = &mut alpha[r * n..(r + 1) * n];
        let mut maxv = E::NEG_INFINITY;
        for (&xv, &mv) in x.iter().zip(m) {
            if mv != E::ZERO {
                maxv = maxv.max(xv);
            }
        }
        if maxv == E::NEG_INFINITY {
            continue; // fully masked row
        }
        let mut denom = E::ZERO;
        for ((o, &xv), &mv) in row.iter_mut().zip(x).zip(m) {
            if mv != E::ZERO {
                *o = (xv - maxv).exp();
                denom += *o;
            }
        }
        for o in row.iter_mut() {
            *o /= denom;
        }
    }
    matmul_naive(alpha, at.wh, out, n, n, f);
}

/// The VJP of [`graph_attention_dense`], the dense chain's backward as
/// plain loops: `∂α = g·Whᵀ`, the masked-softmax VJP, the LeakyReLU
/// gate, the outer-sum row/column reductions into `∂s_l`/`∂s_r`, and
/// `∂Wh = αᵀ·g`. `alpha` is the dense α the forward returned; the three
/// outputs must arrive zeroed.
pub fn graph_attention_dense_backward<E: Element>(
    at: Attention<'_, E>,
    alpha: &[E],
    g: &[E],
    d_sl: &mut [E],
    d_sr: &mut [E],
    d_wh: &mut [E],
) {
    let (n, f) = (at.edges.nodes(), at.f);
    let mask = at.edges.to_mask::<E>();
    let mut wht = vec![E::ZERO; n * f];
    transpose(at.wh, &mut wht, n, f);
    let mut d_alpha = vec![E::ZERO; n * n];
    matmul_naive(g, &wht, &mut d_alpha, n, f, n);
    let mut d_logit = vec![E::ZERO; n * n];
    for r in 0..n {
        let mut dot = E::ZERO;
        for c in 0..n {
            dot += d_alpha[r * n + c] * alpha[r * n + c];
        }
        for c in 0..n {
            let gx = if mask[r * n + c] != E::ZERO {
                alpha[r * n + c] * (d_alpha[r * n + c] - dot)
            } else {
                E::ZERO
            };
            let e = at.s_l[r] + at.s_r[c];
            d_logit[r * n + c] = if e > E::ZERO { gx } else { at.slope * gx };
        }
    }
    for i in 0..n {
        for j in 0..n {
            d_sl[i] += d_logit[i * n + j];
            d_sr[j] += d_logit[i * n + j];
        }
    }
    matmul_transa(alpha, g, d_wh, n, n, f);
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

    /// A 3-node graph: node 0 sees {0, 2}, node 1 nothing, node 2
    /// {1, 2}.
    fn small_graph() -> EdgeList {
        let rows: [&[u32]; 3] = [&[0, 2], &[], &[1, 2]];
        EdgeList::from_rows(rows).unwrap()
    }

    /// Attention over [`small_graph`]; `wh` is 3×2.
    fn small_attention(edges: &EdgeList) -> Attention<'_, f64> {
        const S_L: [f64; 3] = [0.5, -1.0, 2.0];
        const S_R: [f64; 3] = [1.0, 0.25, -3.0];
        const WH: [f64; 6] = [1.0, -2.0, 0.5, 4.0, -1.5, 3.0];
        Attention { edges, s_l: &S_L, s_r: &S_R, wh: &WH, f: 2, slope: 0.2 }
    }

    #[test]
    fn attention_softmaxes_over_each_rows_edges() {
        let edges = small_graph();
        let at = small_attention(&edges);
        let mut alpha = [0.0; 4];
        let mut out = [0.0; 6];
        graph_attention(at, &mut alpha, &mut out);
        assert!((alpha[0] + alpha[1] - 1.0).abs() < 1e-12);
        assert!((alpha[2] + alpha[3] - 1.0).abs() < 1e-12);
        // Logits 1.5 vs LeakyReLU(−2.5) = −0.5: the larger wins.
        assert!(alpha[0] > alpha[1]);
        // The isolated node attends to nothing and outputs zeros.
        assert_eq!(&out[2..4], &[0.0, 0.0]);
        let want0 = alpha[0] * 1.0 + alpha[1] * -1.5;
        assert!((out[0] - want0).abs() < 1e-12);
    }

    #[test]
    fn attention_matches_the_dense_oracle_bitwise() {
        let edges = small_graph();
        let at = small_attention(&edges);
        let (mut alpha, mut out) = ([0.0; 4], [0.0; 6]);
        graph_attention(at, &mut alpha, &mut out);
        let (mut dense_alpha, mut dense_out) = ([0.0; 9], [0.0; 6]);
        graph_attention_dense(at, &mut dense_alpha, &mut dense_out);
        assert_eq!(out.map(f64::to_bits), dense_out.map(f64::to_bits));
        let g = [0.3, -0.7, 0.0, 1.1, 0.0, 0.0];
        let mut sparse = ([0.0; 3], [0.0; 3], [0.0; 6]);
        graph_attention_backward(at, &alpha, &g, &mut sparse.0, &mut sparse.1, &mut sparse.2);
        let mut dense = ([0.0; 3], [0.0; 3], [0.0; 6]);
        graph_attention_dense_backward(
            at,
            &dense_alpha,
            &g,
            &mut dense.0,
            &mut dense.1,
            &mut dense.2,
        );
        assert_eq!(sparse.0.map(f64::to_bits), dense.0.map(f64::to_bits));
        assert_eq!(sparse.1.map(f64::to_bits), dense.1.map(f64::to_bits));
        assert_eq!(sparse.2.map(f64::to_bits), dense.2.map(f64::to_bits));
    }

    #[test]
    fn attention_zero_skip_keeps_a_non_neighbours_inf_out() {
        // wh row 1 is infinite but node 0 does not attend to node 1:
        // the aggregation never reads it, as the dense α·Wh product
        // skipped the masked α = 0.
        let rows: [&[u32]; 2] = [&[0], &[1]];
        let edges = EdgeList::from_rows(rows).unwrap();
        let wh = [2.0, f64::INFINITY];
        let at =
            Attention { edges: &edges, s_l: &[0.0; 2], s_r: &[0.0; 2], wh: &wh, f: 1, slope: 0.2 };
        let (mut alpha, mut out) = ([0.0; 2], [0.0; 2]);
        graph_attention(at, &mut alpha, &mut out);
        assert_eq!(out, [2.0, f64::INFINITY]);
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
