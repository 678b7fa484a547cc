//! `ams-runtime` — the shared execution layer under training,
//! inference, and serving.
//!
//! The crate owns three things:
//!
//! 1. **Kernels** ([`kernels`]): cache-blocked row-major routines,
//!    generic over the scalar ([`Element`]: `f64` or `f32`) — blocked
//!    matmul, the transpose-fused `Aᵀ·G` product and the transpose the
//!    tape's backward pass needs, row-broadcast bias addition, `axpy`, and
//!    graph attention over a CSR [`EdgeList`] with its backward. The `f64`
//!    instantiation preserves the exact accumulation order of the
//!    historical `Matrix` loops, so refactoring onto the runtime
//!    changes no result bit.
//! 2. **Backends** ([`backend`]): the [`Backend`] trait separates
//!    *what* is computed from *where* (and, via its `Element`
//!    parameter, at which precision — `f64` is the default). [`Seq`]
//!    is the bit-exact reference; [`Par`] spreads disjoint row ranges
//!    of the same kernels over a persistent std-only
//!    [`pool::ThreadPool`] with a deterministic fixed partition —
//!    identical output run-to-run and across thread counts.
//!    [`SimdSeq`] ([`simd`]) is the explicitly vectorized single-core
//!    fast path, held to an epsilon oracle instead of the bit oracle.
//! 3. **Workspaces** ([`workspace`]): a scratch-buffer arena so the
//!    training step and the serve engine reuse buffers instead of
//!    allocating on the hot path.
//!
//! Shape validation surfaces as the typed [`RuntimeError`] rather than
//! a panic, which is what lets the serve layer honor its
//! no-panic-in-inference rule without suppressions.

pub mod backend;
pub mod edges;
pub mod element;
pub mod kernels;
pub mod pool;
pub mod simd;
pub mod workspace;

pub use backend::{seq, Backend, BackendChoice, Par, Seq};
pub use edges::EdgeList;
pub use element::Element;
pub use pool::{partition, ThreadPool};
pub use simd::SimdSeq;
pub use workspace::Workspace;

/// Errors surfaced by the runtime API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// Operand shapes do not compose, e.g. `m×k · k'×n` with `k ≠ k'`.
    ShapeMismatch {
        /// Operation name, e.g. `"matmul"`.
        op: &'static str,
        /// Left operand shape `(rows, cols)`.
        lhs: (usize, usize),
        /// Right operand shape `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A backend spec string that parses as none of `seq`, `par`,
    /// `par:N` with `N ≥ 1`, or `simd`.
    BadBackendSpec(String),
    /// An adjacency row that cannot be an [`EdgeList`] row.
    BadEdges {
        /// The offending node.
        row: usize,
        /// What is wrong with it.
        reason: &'static str,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "{op}: dimension mismatch ({}x{} vs {}x{})", lhs.0, lhs.1, rhs.0, rhs.1)
            }
            Self::BadBackendSpec(spec) => {
                write!(f, "invalid backend spec {spec:?} (expected seq, par, par:N, or simd)")
            }
            Self::BadEdges { row, reason } => write!(f, "edge list: row {row} {reason}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_mismatch_display_names_shapes() {
        let err = RuntimeError::ShapeMismatch { op: "matmul", lhs: (2, 3), rhs: (4, 5) };
        assert_eq!(err.to_string(), "matmul: dimension mismatch (2x3 vs 4x5)");
    }

    #[test]
    fn bad_spec_display() {
        let err = RuntimeError::BadBackendSpec("gpu".into());
        assert!(err.to_string().contains("gpu"));
    }
}
