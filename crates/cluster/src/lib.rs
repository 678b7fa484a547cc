//! # ams-cluster — fault-tolerant sharded serving
//!
//! Scales the single-process server in `ams-serve` out to a
//! multi-process topology: N shard-group server processes, each with
//! optional replicas, fronted by a std-only router that speaks the
//! same JSONL protocol as a single shard.
//!
//! * [`shardmap`] — [`ShardMap`], rendezvous-hashed assignment of the
//!   company-id space onto shard groups: total coverage, deterministic
//!   across processes, bounded key movement on membership change
//!   (property-tested in `crates/cluster/tests/shardmap_props.rs`);
//! * [`hedge`] — [`hedge_read_timeout`], the pure staged-hedging
//!   decision: cap upstream reads when another replica could take the
//!   request, spend the full budget on the last one;
//! * [`metrics`] — [`RouterMetrics`], atomic counters surfaced by the
//!   router's `stats` endpoint;
//! * [`router`] — [`Router`], the front door: bounded admission with
//!   explicit sheds, per-group dispatcher threads with persistent
//!   upstream connections and adaptive micro-batching onto the shard
//!   `multi_predict` path, per-upstream circuit breakers, jittered
//!   retry, health-probe-driven replica re-admission, and per-company
//!   degraded fallbacks when a whole group is down — clients see typed
//!   responses, never connection errors.
//!
//! Binary: `router` (see `--help`). The failover protocol (prober vs
//! live-traffic race for the breaker's half-open probe) is modeled in
//! the `conc` explorer (`ams_analyze::conc::models::router_failover`);
//! the multi-process chaos characterization lives in
//! `crates/bench/src/bin/cluster_bench.rs` → `results/BENCH_scale.json`.

pub mod hedge;
pub mod metrics;
pub mod router;
pub mod shardmap;

pub use hedge::hedge_read_timeout;
pub use metrics::RouterMetrics;
pub use router::{route_shard, Router, RouterConfig};
pub use shardmap::ShardMap;
