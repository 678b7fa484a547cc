//! # ams-bench — experiment binaries and micro-benchmarks
//!
//! The `paper` binary computes every cross-validation cell of the
//! paper's Tables I–V once and renders those tables, Figures 6/7 and
//! the shape-claim check ([`claims`]) from them. One binary per other
//! artifact (`figure5`, `figure8`, the `ablation_*` design-choice
//! studies, the `*_bench` records) shares the plumbing in [`exp`].
//! Criterion micro-benchmarks for the substrate kernels live under
//! `benches/`.

pub mod chart;
pub mod claims;
pub mod exp;
