//! Explicitly vectorized single-core matmul: the `SimdSeq` backend.
//!
//! [`SimdSeq`] trades the bit-reproducibility contract of
//! [`crate::kernels`] for throughput. Its matmul uses a register-tiled
//! micro-kernel — `MR` rows of `A` against `NR` columns of `B`, every
//! output element carried in `MR×NR/lane` independent vector
//! accumulators — which reassociates the `k`-sum and therefore rounds
//! differently from the single-chain scalar kernels. The contract is
//! an **epsilon oracle**, not a bit oracle: for finite inputs the
//! result stays within a documented error bound of the naive
//! reference (`|err| ≤ rel · Σ|a||b| + abs`, see `DESIGN.md` §14 and
//! `crates/runtime/tests/simd_oracle.rs`). Two consequences:
//!
//! - training and any path that must replay bit-exactly keeps using
//!   `Seq`/`Par`; `SimdSeq` is for inference/serving;
//! - the historical zero-skip is *not* performed, so `0 · ∞ = NaN`
//!   can surface with non-finite inputs. `SimdSeq` requires finite
//!   inputs; the serve engine already validates finiteness of weights
//!   (artifact load) and outputs (predict).
//!
//! Two implementations sit behind the [`matmul_f64`]/[`matmul_f32`]
//! dispatchers:
//!
//! 1. `avx_matmul_*` — AVX2+FMA `core::arch` intrinsics, compiled
//!    under the `simd-intrinsics` feature (default-on) on x86_64 and
//!    selected at runtime via CPU feature detection;
//! 2. [`portable_matmul`] — a generic 8-lane unrolled kernel the
//!    autovectorizer cannot miss, used everywhere else.
//!
//! Only `matmul` is overridden: it dominates the forward pass. The remaining `Backend`
//! methods fall back to the deterministic generic kernels, so e.g. the
//! `Aᵀ·G` product stays bit-identical to `Seq` even on this backend
//! (graph attention is not a `Backend` method at all: every backend
//! runs the one edge-list kernel pair).

use crate::backend::Backend;
use crate::element::Element;
use crate::kernels;

#[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
use core::arch::x86_64::*;

/// Rows of `A` per register tile (the BLIS-style 6×8 f64 tile: 12
/// vector accumulators, 2 packed-`B` vectors, 1 broadcast — 15 of the
/// 16 YMM registers).
const MR: usize = 6;
/// Depth (`k`) per cache block: the packed `B` tile (`KC × NR`
/// values, 32 KiB) stays cache-resident across the row strips of an
/// `MC` block, and one block covers the full depth of every matrix
/// in the bench/serve range so `out` is loaded and stored once.
const KC: usize = 512;
/// Rows of `A`/`out` per cache block (strip-mined over `MR` tiles).
const MC: usize = 96;

/// The vectorized sequential backend. One core, epsilon-accurate.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimdSeq;

/// Whether the intrinsics fast path is compiled in *and* the CPU
/// supports it at runtime. `false` means [`portable_matmul`] serves.
pub fn accelerated() -> bool {
    #[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
    {
        return is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    }
    #[allow(unreachable_code)]
    false
}

impl Backend<f64> for SimdSeq {
    fn name(&self) -> String {
        "simd".to_string()
    }

    fn matmul(&self, a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
        matmul_f64(a, b, out, m, k, n);
    }
}

impl Backend<f32> for SimdSeq {
    fn name(&self) -> String {
        "simd".to_string()
    }

    fn matmul(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        matmul_f32(a, b, out, m, k, n);
    }
}

/// Below this many multiply-adds the blocked AVX kernel's per-call
/// packing outweighs its throughput and the portable kernel is
/// faster. Static, so backend choice stays run-to-run deterministic.
const TILE_CUTOVER_FLOPS: usize = 32 * 32 * 32;

/// `out += A·B` in f64 via the fastest kernel this build and CPU
/// offer. Same zeroed-output contract as [`kernels::matmul`].
pub fn matmul_f64(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "matmul_f64: lhs buffer");
    debug_assert_eq!(b.len(), k * n, "matmul_f64: rhs buffer");
    debug_assert_eq!(out.len(), m * n, "matmul_f64: out buffer");
    #[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
    {
        if m * k * n >= TILE_CUTOVER_FLOPS && accelerated() {
            // SAFETY: `accelerated()` verified avx2+fma at runtime;
            // slice lengths are debug-asserted above and the kernel
            // stays in bounds for any m/k/n consistent with them.
            unsafe { avx_matmul_f64(a, b, out, m, k, n) };
            return;
        }
    }
    portable_matmul(a, b, out, m, k, n);
}

/// `out += A·B` in f32 (see [`matmul_f64`]).
pub fn matmul_f32(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k, "matmul_f32: lhs buffer");
    debug_assert_eq!(b.len(), k * n, "matmul_f32: rhs buffer");
    debug_assert_eq!(out.len(), m * n, "matmul_f32: out buffer");
    #[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
    {
        if m * k * n >= TILE_CUTOVER_FLOPS && accelerated() {
            // SAFETY: as in `matmul_f64`.
            unsafe { avx_matmul_f32(a, b, out, m, k, n) };
            return;
        }
    }
    portable_matmul(a, b, out, m, k, n);
}

/// Generic unrolled fallback: 8 fixed-width lane accumulators per row
/// strip, a shape every autovectorizer turns into vector FMAs. Not
/// bit-compatible with [`kernels::matmul`] (multi-accumulator, no
/// zero-skip) — epsilon oracle only.
pub fn portable_matmul<E: Element>(a: &[E], b: &[E], out: &mut [E], m: usize, k: usize, n: usize) {
    const LANES: usize = 8;
    let n_main = n - n % LANES;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j < n_main {
            let mut acc = [E::ZERO; LANES];
            for (kk, &av) in arow.iter().enumerate() {
                let brow = &b[kk * n + j..kk * n + j + LANES];
                for (l, &bv) in brow.iter().enumerate() {
                    acc[l] += av * bv;
                }
            }
            for (o, &v) in out_row[j..j + LANES].iter_mut().zip(acc.iter()) {
                *o += v;
            }
            j += LANES;
        }
        while j < n {
            let mut acc = E::ZERO;
            for (kk, &av) in arow.iter().enumerate() {
                acc += av * b[kk * n + j];
            }
            out_row[j] += acc;
            j += 1;
        }
    }
}

/// AVX2+FMA f64 kernel: 6×8 register tiles (12 YMM accumulators),
/// `KC`-blocked depth, `MC`-blocked rows. Each `KC × 8` panel of `B`
/// is packed into a contiguous stack tile first — at large `n`
/// the raw panel strides by a page per `k` step, which defeats the
/// prefetchers; packed, it streams at 64 B/iteration from L1 and is
/// reused across every row strip of the `MC` block. Scalar
/// single-chain loops cover the `m % 6` / `n % 8` fringes.
///
/// # Safety
/// Caller must ensure the CPU supports avx2 and fma, and that slice
/// lengths match `m·k`, `k·n`, `m·n`.
#[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx_matmul_f64(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    const NR: usize = 8; // two 4-lane vectors
    let m_main = m - m % MR;
    let n_main = n - n % NR;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    let mut bt = [0.0f64; KC * NR]; // packed B tile, L1-resident
    for i0 in (0..m_main).step_by(MC) {
        let i1 = (i0 + MC).min(m_main);
        for k0 in (0..k).step_by(KC) {
            let k1 = (k0 + KC).min(k);
            let kc = k1 - k0;
            let mut j = 0;
            while j < n_main {
                let btp = bt.as_mut_ptr();
                for kk in 0..kc {
                    let src = bp.add((k0 + kk) * n + j);
                    _mm256_storeu_pd(btp.add(kk * NR), _mm256_loadu_pd(src));
                    _mm256_storeu_pd(btp.add(kk * NR + 4), _mm256_loadu_pd(src.add(4)));
                }
                let btp = bt.as_ptr();
                let mut i = i0;
                while i < i1 {
                    let mut acc = [_mm256_setzero_pd(); 2 * MR];
                    for r in 0..MR {
                        acc[2 * r] = _mm256_loadu_pd(op.add((i + r) * n + j) as *const f64);
                        acc[2 * r + 1] = _mm256_loadu_pd(op.add((i + r) * n + j + 4) as *const f64);
                    }
                    for kk in 0..kc {
                        let b0 = _mm256_loadu_pd(btp.add(kk * NR));
                        let b1 = _mm256_loadu_pd(btp.add(kk * NR + 4));
                        for r in 0..MR {
                            let av = _mm256_set1_pd(*ap.add((i + r) * k + k0 + kk));
                            acc[2 * r] = _mm256_fmadd_pd(av, b0, acc[2 * r]);
                            acc[2 * r + 1] = _mm256_fmadd_pd(av, b1, acc[2 * r + 1]);
                        }
                    }
                    for r in 0..MR {
                        _mm256_storeu_pd(op.add((i + r) * n + j), acc[2 * r]);
                        _mm256_storeu_pd(op.add((i + r) * n + j + 4), acc[2 * r + 1]);
                    }
                    i += MR;
                }
                j += NR;
            }
        }
    }
    // Fringe rows (single-chain scalar, all columns).
    if m_main < m {
        kernels::matmul_rows(a, b, &mut out[m_main * n..], m_main, m, k, n);
    }
    // Fringe columns for the vectorized rows.
    for i in 0..m_main {
        for j in n_main..n {
            let mut acc = out[i * n + j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

/// AVX2+FMA f32 kernel: 6×16 register tiles (12 YMM accumulators of
/// 8 lanes). Same packing, blocking and fringe policy as
/// [`avx_matmul_f64`].
///
/// # Safety
/// As for [`avx_matmul_f64`].
#[cfg(all(feature = "simd-intrinsics", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
unsafe fn avx_matmul_f32(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    const NR: usize = 16; // two 8-lane vectors
    let m_main = m - m % MR;
    let n_main = n - n % NR;
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let op = out.as_mut_ptr();
    let mut bt = [0.0f32; KC * NR]; // packed B tile, L1-resident
    for i0 in (0..m_main).step_by(MC) {
        let i1 = (i0 + MC).min(m_main);
        for k0 in (0..k).step_by(KC) {
            let k1 = (k0 + KC).min(k);
            let kc = k1 - k0;
            let mut j = 0;
            while j < n_main {
                let btp = bt.as_mut_ptr();
                for kk in 0..kc {
                    let src = bp.add((k0 + kk) * n + j);
                    _mm256_storeu_ps(btp.add(kk * NR), _mm256_loadu_ps(src));
                    _mm256_storeu_ps(btp.add(kk * NR + 8), _mm256_loadu_ps(src.add(8)));
                }
                let btp = bt.as_ptr();
                let mut i = i0;
                while i < i1 {
                    let mut acc = [_mm256_setzero_ps(); 2 * MR];
                    for r in 0..MR {
                        acc[2 * r] = _mm256_loadu_ps(op.add((i + r) * n + j) as *const f32);
                        acc[2 * r + 1] = _mm256_loadu_ps(op.add((i + r) * n + j + 8) as *const f32);
                    }
                    for kk in 0..kc {
                        let b0 = _mm256_loadu_ps(btp.add(kk * NR));
                        let b1 = _mm256_loadu_ps(btp.add(kk * NR + 8));
                        for r in 0..MR {
                            let av = _mm256_set1_ps(*ap.add((i + r) * k + k0 + kk));
                            acc[2 * r] = _mm256_fmadd_ps(av, b0, acc[2 * r]);
                            acc[2 * r + 1] = _mm256_fmadd_ps(av, b1, acc[2 * r + 1]);
                        }
                    }
                    for r in 0..MR {
                        _mm256_storeu_ps(op.add((i + r) * n + j), acc[2 * r]);
                        _mm256_storeu_ps(op.add((i + r) * n + j + 8), acc[2 * r + 1]);
                    }
                    i += MR;
                }
                j += NR;
            }
        }
    }
    if m_main < m {
        kernels::matmul_rows(a, b, &mut out[m_main * n..], m_main, m, k, n);
    }
    for i in 0..m_main {
        for j in n_main..n {
            let mut acc = out[i * n + j];
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(len: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..len).map(f).collect()
    }

    /// Per-element tolerance: `rel · (|A|·|B|)[i,j] + abs`.
    #[allow(clippy::too_many_arguments)]
    fn check_close(
        a: &[f64],
        b: &[f64],
        got: &[f64],
        m: usize,
        k: usize,
        n: usize,
        rel: f64,
        abs: f64,
    ) {
        let mut want = vec![0.0; m * n];
        kernels::matmul_naive(a, b, &mut want, m, k, n);
        let aa: Vec<f64> = a.iter().map(|v| v.abs()).collect();
        let ba: Vec<f64> = b.iter().map(|v| v.abs()).collect();
        let mut mag = vec![0.0; m * n];
        kernels::matmul_naive(&aa, &ba, &mut mag, m, k, n);
        for idx in 0..m * n {
            let tol = rel * mag[idx] + abs;
            assert!(
                (want[idx] - got[idx]).abs() <= tol,
                "elem {idx}: want {} got {} tol {tol}",
                want[idx],
                got[idx]
            );
        }
    }

    #[test]
    fn simd_f64_within_epsilon_of_naive_across_fringes() {
        // Straddle MR/NR/KC/MC boundaries and degenerate shapes.
        for &(m, k, n) in
            &[(1, 1, 1), (4, 8, 8), (5, 9, 11), (64, 300, 17), (67, 130, 70), (0, 3, 3), (3, 0, 3)]
        {
            let a = mat(m * k, |i| ((i * 37) % 23) as f64 * 0.125 - 1.0);
            let b = mat(k * n, |i| ((i * 13) % 19) as f64 * 0.25 - 2.0);
            let mut got = vec![0.0; m * n];
            matmul_f64(&a, &b, &mut got, m, k, n);
            check_close(&a, &b, &got, m, k, n, 1e-12, 1e-12);
        }
    }

    #[test]
    fn simd_f32_within_epsilon_of_f64_naive() {
        for &(m, k, n) in &[(4, 16, 16), (7, 33, 21), (40, 100, 40)] {
            let a = mat(m * k, |i| ((i * 7) % 13) as f64 * 0.25 - 1.5);
            let b = mat(k * n, |i| ((i * 11) % 17) as f64 * 0.125 - 1.0);
            let a32: Vec<f32> = a.iter().map(|&v| v as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
            let mut got32 = vec![0.0f32; m * n];
            matmul_f32(&a32, &b32, &mut got32, m, k, n);
            let got: Vec<f64> = got32.iter().map(|&v| v as f64).collect();
            check_close(&a, &b, &got, m, k, n, 1e-4, 1e-4);
        }
    }

    #[test]
    fn portable_matches_naive_within_epsilon() {
        let (m, k, n) = (13, 67, 29);
        let a = mat(m * k, |i| (i as f64 * 0.37).sin());
        let b = mat(k * n, |i| (i as f64 * 0.71).cos());
        let mut got = vec![0.0; m * n];
        portable_matmul(&a, &b, &mut got, m, k, n);
        check_close(&a, &b, &got, m, k, n, 1e-12, 1e-12);
    }

    #[test]
    fn backend_override_reaches_the_fast_path() {
        let (m, k, n) = (6, 20, 10);
        let a = mat(m * k, |i| (i % 5) as f64 - 2.0);
        let b = mat(k * n, |i| (i % 7) as f64 * 0.5 - 1.5);
        let mut via_backend = vec![0.0; m * n];
        SimdSeq.matmul(&a, &b, &mut via_backend, m, k, n);
        let mut direct = vec![0.0; m * n];
        matmul_f64(&a, &b, &mut direct, m, k, n);
        for (v, d) in via_backend.iter().zip(&direct) {
            assert_eq!(v.to_bits(), d.to_bits());
        }
        assert_eq!(Backend::<f64>::name(&SimdSeq), "simd");
        assert_eq!(Backend::<f32>::name(&SimdSeq), "simd");
    }
}
