//! Execution backends: *where* a kernel runs, separated from *what*
//! it computes.
//!
//! [`Seq`] is the reference backend — it calls the [`crate::kernels`]
//! directly and is bit-exact with the historical single-threaded
//! `Matrix` loops. [`Par`] dispatches row ranges of the same kernels
//! across a persistent [`ThreadPool`]. Because the partition is a pure
//! function of the problem shape ([`partition`]) and every row is
//! computed by the identical sequential kernel, `Par` output is
//! bit-identical to `Seq` — run-to-run and across thread counts. That
//! guarantee is what lets training, inference and serving choose a
//! backend freely without perturbing a single ulp.
//!
//! The trait is generic over the scalar ([`Element`]) with `f64` as
//! the default type parameter, so `dyn Backend` everywhere in the
//! codebase still means the bit-reproducible double-precision policy.
//! `Seq` and `Par` implement `Backend<E>` for every element type with
//! the same generic kernels — same ops, same order — while the
//! vectorized [`crate::SimdSeq`] implements `Backend<f64>` and
//! `Backend<f32>` separately and is held to an epsilon oracle rather
//! than a bit oracle (see [`crate::simd`]).

use crate::element::Element;
use crate::kernels;
use crate::pool::{partition, ThreadPool};
use crate::simd::SimdSeq;
use crate::RuntimeError;
use std::sync::Arc;

/// Minimum `m·k·n` (or `rows·cols` for row-wise ops) before `Par`
/// bothers the pool; below this the dispatch overhead dwarfs the work
/// and the sequential kernel is used. Shape-dependent only, so the
/// choice is deterministic.
const PAR_FLOP_THRESHOLD: usize = 16 * 1024;

/// A kernel execution policy. All methods compute over row-major
/// [`Element`] slices with caller-validated shapes (`debug_assert`ed
/// in the kernels); output buffers must arrive zeroed, as
/// [`crate::Workspace`] hands them out.
pub trait Backend<E: Element = f64>: Send + Sync + std::fmt::Debug {
    /// Human-readable backend name (for logs and bench output).
    fn name(&self) -> String;

    /// Worker threads the backend computes with (1 for `Seq`).
    fn threads(&self) -> usize {
        1
    }

    /// `out = A·B` (`m×k` times `k×n`).
    fn matmul(&self, a: &[E], b: &[E], out: &mut [E], m: usize, k: usize, n: usize) {
        kernels::matmul(a, b, out, m, k, n);
    }

    /// `out = Aᵀ·G` (`a` is `r×m`, `g` is `r×n`, out `m×n`).
    fn matmul_transa(&self, a: &[E], g: &[E], out: &mut [E], r: usize, m: usize, n: usize) {
        kernels::matmul_transa(a, g, out, r, m, n);
    }

    /// `y += alpha·x`.
    fn axpy(&self, y: &mut [E], x: &[E], alpha: E) {
        kernels::axpy(y, x, alpha);
    }

    /// `out[r] = dot(a.row(r), b.row(r))`.
    fn rowwise_dot(&self, a: &[E], b: &[E], out: &mut [E], rows: usize, cols: usize) {
        kernels::rowwise_dot(a, b, out, rows, cols);
    }
}

/// The sequential reference backend.
#[derive(Debug, Default, Clone, Copy)]
pub struct Seq;

impl<E: Element> Backend<E> for Seq {
    fn name(&self) -> String {
        "seq".to_string()
    }
}

/// Row-parallel backend over a persistent thread pool with a
/// deterministic fixed partition. Bit-identical to [`Seq`] (see module
/// docs).
#[derive(Debug)]
pub struct Par {
    pool: ThreadPool,
}

impl Par {
    /// Pool with `threads` workers (min 1).
    pub fn new(threads: usize) -> Self {
        Self { pool: ThreadPool::new(threads) }
    }

    /// Split `rows` into per-task chunks and run `body(task, lo, hi)`
    /// across the pool. `body` must write only to its own rows.
    fn for_row_chunks(&self, rows: usize, body: &(dyn Fn(usize, usize, usize) + Sync)) {
        let tasks = self.pool.workers().min(rows.max(1));
        self.pool.run(tasks, &|t| {
            let (lo, hi) = partition(rows, tasks, t);
            if lo < hi {
                body(t, lo, hi);
            }
        });
    }
}

/// A raw mutable pointer that may cross thread boundaries. Each task
/// writes a disjoint row range, so the aliasing is sound.
struct SendPtr<E>(*mut E);
impl<E> Clone for SendPtr<E> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<E> Copy for SendPtr<E> {}
unsafe impl<E> Send for SendPtr<E> {}
unsafe impl<E> Sync for SendPtr<E> {}

impl<E: Element> SendPtr<E> {
    /// # Safety
    /// `lo*width..hi*width` must be in bounds and disjoint from every
    /// other task's range.
    unsafe fn rows(self, lo: usize, hi: usize, width: usize) -> &'static mut [E] {
        std::slice::from_raw_parts_mut(self.0.add(lo * width), (hi - lo) * width)
    }
}

impl<E: Element> Backend<E> for Par {
    fn name(&self) -> String {
        format!("par:{}", self.pool.workers())
    }

    fn threads(&self) -> usize {
        self.pool.workers()
    }

    fn matmul(&self, a: &[E], b: &[E], out: &mut [E], m: usize, k: usize, n: usize) {
        if m * k * n < PAR_FLOP_THRESHOLD || self.pool.workers() == 1 {
            return kernels::matmul(a, b, out, m, k, n);
        }
        debug_assert_eq!(out.len(), m * n, "matmul: out buffer");
        let ptr = SendPtr(out.as_mut_ptr());
        self.for_row_chunks(m, &|_, lo, hi| {
            // SAFETY: chunks are disjoint row ranges of `out`.
            let rows = unsafe { ptr.rows(lo, hi, n) };
            kernels::matmul_rows(a, b, rows, lo, hi, k, n);
        });
    }

    fn matmul_transa(&self, a: &[E], g: &[E], out: &mut [E], r: usize, m: usize, n: usize) {
        if r * m * n < PAR_FLOP_THRESHOLD || self.pool.workers() == 1 {
            return kernels::matmul_transa(a, g, out, r, m, n);
        }
        debug_assert_eq!(out.len(), m * n, "matmul_transa: out buffer");
        let ptr = SendPtr(out.as_mut_ptr());
        self.for_row_chunks(m, &|_, lo, hi| {
            // SAFETY: chunks are disjoint row ranges of `out`.
            let rows = unsafe { ptr.rows(lo, hi, n) };
            kernels::matmul_transa_cols(a, g, rows, lo, hi, r, m, n);
        });
    }
}

/// Parsed backend selection, the form configs carry ("seq", "par",
/// "par:8", "simd").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendChoice {
    /// Sequential reference backend.
    Seq,
    /// Parallel backend with an explicit worker count (`None` = one
    /// worker per available CPU).
    Par(Option<usize>),
    /// Vectorized single-core backend (epsilon-accurate fast path).
    Simd,
}

impl BackendChoice {
    /// Parse a backend spec: `seq`, `par`, `par:N`, or `simd`.
    pub fn parse(spec: &str) -> Result<Self, RuntimeError> {
        match spec.trim() {
            "seq" => Ok(Self::Seq),
            "par" => Ok(Self::Par(None)),
            "simd" => Ok(Self::Simd),
            other => match other.strip_prefix("par:").map(str::parse::<usize>) {
                Some(Ok(n)) if n >= 1 => Ok(Self::Par(Some(n))),
                _ => Err(RuntimeError::BadBackendSpec(spec.to_string())),
            },
        }
    }

    fn par_threads(n: &Option<usize>) -> usize {
        n.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
    }

    /// Instantiate the chosen backend at the default (f64) precision.
    pub fn create(&self) -> Arc<dyn Backend> {
        match self {
            Self::Seq => Arc::new(Seq),
            Self::Par(n) => Arc::new(Par::new(Self::par_threads(n))),
            Self::Simd => Arc::new(SimdSeq),
        }
    }

    /// Instantiate the chosen backend at f32 — the quantized serving
    /// precision. Every choice is available in both widths; `Seq`/`Par`
    /// stay deterministic in f32 too, `SimdSeq` is the fast path.
    pub fn create_f32(&self) -> Arc<dyn Backend<f32>> {
        match self {
            Self::Seq => Arc::new(Seq),
            Self::Par(n) => Arc::new(Par::new(Self::par_threads(n))),
            Self::Simd => Arc::new(SimdSeq),
        }
    }
}

/// A shared handle to the sequential backend — the default execution
/// policy everywhere a caller does not thread its own.
pub fn seq() -> Arc<dyn Backend> {
    Arc::new(Seq)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..len).map(f).collect()
    }

    #[test]
    fn par_matches_seq_bitwise_at_1_2_8_threads() {
        // Big enough to clear the dispatch threshold.
        let (m, k, n) = (48, 40, 32);
        let a = filled(m * k, |i| ((i * 37) % 23) as f64 * 0.125 - 1.0);
        let b = filled(k * n, |i| ((i * 13) % 19) as f64 * 0.25 - 2.0);
        let mut want = vec![0.0; m * n];
        Seq.matmul(&a, &b, &mut want, m, k, n);
        for threads in [1, 2, 8] {
            let par = Par::new(threads);
            let mut got = vec![0.0; m * n];
            par.matmul(&a, &b, &mut got, m, k, n);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.to_bits(), g.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn par_f32_matches_seq_f32_bitwise() {
        // The deterministic backends stay deterministic in f32: same
        // generic kernels, same partition, same chains.
        let (m, k, n) = (48, 40, 32);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 37) % 23) as f32 * 0.125 - 1.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 13) % 19) as f32 * 0.25 - 2.0).collect();
        let mut want = vec![0.0f32; m * n];
        Seq.matmul(&a, &b, &mut want, m, k, n);
        let par = Par::new(4);
        let mut got = vec![0.0f32; m * n];
        par.matmul(&a, &b, &mut got, m, k, n);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn choice_parsing() {
        assert_eq!(BackendChoice::parse("seq").unwrap(), BackendChoice::Seq);
        assert_eq!(BackendChoice::parse("par").unwrap(), BackendChoice::Par(None));
        assert_eq!(BackendChoice::parse(" par:8 ").unwrap(), BackendChoice::Par(Some(8)));
        assert_eq!(BackendChoice::parse("simd").unwrap(), BackendChoice::Simd);
        assert!(BackendChoice::parse("par:0").is_err());
        assert!(BackendChoice::parse("gpu").is_err());
        assert!(BackendChoice::parse("").is_err());
    }

    #[test]
    fn choice_creates_named_backends() {
        assert_eq!(BackendChoice::Seq.create().name(), "seq");
        let par = BackendChoice::Par(Some(3)).create();
        assert_eq!(par.name(), "par:3");
        assert_eq!(par.threads(), 3);
        assert_eq!(BackendChoice::Simd.create().name(), "simd");
        assert_eq!(BackendChoice::Seq.create_f32().name(), "seq");
        assert_eq!(BackendChoice::Simd.create_f32().name(), "simd");
        assert_eq!(BackendChoice::Par(Some(2)).create_f32().threads(), 2);
    }
}
