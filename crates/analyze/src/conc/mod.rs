//! Concurrency correctness layer: static lock-order analysis plus a
//! deterministic interleaving explorer.
//!
//! Two complementary halves share this module:
//!
//! * [`lockorder`] — a static pass over the workspace's production
//!   source, on the model and call graph the audit and taint passes
//!   share, that extracts which `Mutex`/`RwLock` objects each function
//!   acquires (through calls to any depth) and in what nesting order,
//!   builds the global acquisition-order graph, and reports cycles
//!   (potential deadlocks) plus guards held across blocking I/O. Runs
//!   via `ams-check conc` with the same diagnostics, suppressions, and
//!   exit codes as the lint engine.
//! * [`sched`] + [`shim`] + [`vclock`] — a miniature loom: shim
//!   primitives whose every operation is a schedule point, a
//!   bounded-exhaustive DFS scheduler that replays every interleaving
//!   of a small model within a pre-emption bound, and a vector-clock
//!   happens-before checker that flags unsynchronized conflicting
//!   accesses. [`models`] re-expresses the riskiest serving protocols
//!   (registry hot-swap, breaker half-open probe, shed-queue
//!   admission) under the harness.
//!
//! Static analysis proves ordering properties about the *real* source;
//! the explorer proves schedule properties about *models* of it. The
//! gap between model and source is covered by keeping the models
//! line-for-line close to the code they mirror (see `models`
//! doc-comments) and by the static pass watching the real code drift.

pub mod lockorder;
pub mod models;
pub mod sched;
pub mod shim;
pub mod vclock;

pub use sched::{explore, spawn, Config, JoinHandle, Stats, Violation, ViolationKind};
pub use shim::{sync_channel, Condvar, Mutex, RaceCell, RwLock, SyncChannel};
pub use vclock::{Epoch, VClock};
