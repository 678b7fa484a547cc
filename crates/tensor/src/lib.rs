//! # ams-tensor — dense linear algebra and reverse-mode autodiff
//!
//! The numerical substrate of the AMS reproduction. The paper implements
//! its models in PaddlePaddle; this crate provides the equivalent
//! primitives from scratch:
//!
//! * [`Matrix`] — dense row-major `f64` matrices with the usual algebra,
//!   executing on the shared `ams-runtime` kernels (re-exported here as
//!   [`runtime`]) with a pluggable sequential/parallel [`Backend`];
//! * [`linalg`] — Cholesky/LU direct solvers (closed-form ridge for the
//!   anchored LR of Eq. 5);
//! * [`Graph`]/[`Var`] — a define-by-run autodiff tape with the ops
//!   needed by node transforms, GAT attention, LSTM/GRU cells and the
//!   master objective Γ_master (Eq. 11);
//! * [`optim`] — Adam and SGD;
//! * [`init`] — Xavier/He initialization, Box–Muller normals, and
//!   inverted-dropout masks;
//! * [`gradcheck`] — finite-difference verification used across the
//!   workspace's test suites;
//! * [`plan`] — a read-only, data-free snapshot of a recorded tape
//!   ([`Graph::plan`]), the IR the `ams-analyze` static checker
//!   replays shape inference and gradient reachability over.

pub mod gradcheck;
pub mod graph;
pub mod init;
pub mod linalg;
pub mod matrix;
pub mod optim;
pub mod plan;

pub use ams_runtime as runtime;
pub use ams_runtime::{Backend, BackendChoice, Element, RuntimeError, SimdSeq, Workspace};
pub use graph::{Graph, Var};
pub use linalg::{cholesky, ridge_solve, solve_lu, solve_spd, LinalgError};
pub use matrix::Matrix;
pub use optim::{Adam, AdamState, Sgd};
pub use plan::{Plan, PlanNode, PlanOp};
