//! # ams-core — the Adaptive Master-Slave regularized model
//!
//! The paper's primary contribution (§III): a GAT-based master model
//! over the company correlation graph that *generates* a per-company
//! linear-regression slave model, regularized by supervised LR
//! generation (Eq. 8) and model assembly (Eq. 10), trained in two
//! phases per §III-F.
//!
//! * [`GatLayer`]/[`GatHead`] — multi-head graph attention (Eqs. 2–3);
//! * [`AmsModel`]/[`AmsConfig`] — the full master-slave model
//!   (Γ_master, Eq. 11) with [`AmsModel::slave_weights`] exposing the
//!   per-company weights behind the Figure 8 interpretability plots.

pub mod ams;
pub mod checkpoint;
pub mod forward;
pub mod gat;

pub use ams::{AmsConfig, AmsModel, LinearLayer, ModelSnapshot, QuarterBatch};
pub use checkpoint::{CheckpointConfig, FitHalted, TrainCheckpoint};
pub use forward::{Arch, ForwardOps, GatSpec, Tape};
pub use gat::{edge_list, GatHead, GatLayer};
