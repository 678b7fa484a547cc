//! # ams-serve — the inference half of the train/serve stack
//!
//! Training (in `ams-core`) ends with a fitted `AmsModel` that dies
//! with the process. This crate makes the trained model a deployable
//! unit:
//!
//! * [`artifact`] — versioned, serde-serializable [`ModelArtifact`]
//!   (weights, anchored LR, materialized per-company slave weights and
//!   last-good predictions, standardization stats, CSR correlation
//!   graph, provenance), with the format version checked on load;
//! * [`engine`] — [`Engine`], a tape-free forward-only scorer: the
//!   exact arithmetic of `AmsModel::predict` on plain matrices, with a
//!   single-company dot-product fast path;
//! * [`registry`] — [`Registry`], named + versioned engines with
//!   atomic hot-swap under live traffic, checksum-verified file
//!   publishes, and a per-name circuit breaker;
//! * [`breaker`] — [`CircuitBreaker`], closed/open/half-open per-model
//!   protection against deterministic engine failures;
//! * [`server`] — [`Server`], a `std::net` TCP JSON-lines prediction
//!   service on a fixed worker pool with graceful shutdown, bounded
//!   admission (explicit shed), per-request deadlines, and graceful
//!   degradation to the artifact's fallback predictor;
//! * [`metrics`] — [`Metrics`], atomic counters and a latency
//!   histogram exposed through the `stats` request;
//! * [`net`] — the JSONL connection layer for both ends: the
//!   [`net::LineServer`] connection core (accept, bounded admission
//!   with shedding, worker pool, bounded line reads, shutdown) that
//!   the server and the cluster router (crates/cluster) are built on,
//!   and the client side — framing with explicit connect/read/write
//!   timeouts and jittered backoff, used by `loadgen` and the router;
//! * [`demo`] — train-and-export on a seeded synthetic universe (the
//!   `serve --demo` quickstart and the test fixture).
//!
//! Binaries: `serve` (the server) and `loadgen` (a concurrent client
//! reporting throughput and p50/p99 latency). See the README's
//! "Serving" section for the wire protocol.

pub mod artifact;
pub mod breaker;
pub mod demo;
pub mod engine;
pub mod metrics;
pub mod net;
pub mod plan;
pub mod protocol;
pub mod registry;
pub mod server;

pub use artifact::{FallbackModel, ModelArtifact, Provenance, ARTIFACT_MAGIC, FORMAT_VERSION};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use engine::{Engine, PredictError};
pub use metrics::{Metrics, MetricsSnapshot};
pub use net::{JsonlConn, Timeouts};
pub use plan::{ForwardPlan, Plane, PlaneRef};
pub use registry::Registry;
pub use server::{Server, ServerConfig};

#[cfg(test)]
pub(crate) mod testutil {
    pub use crate::demo::TrainedBundle;

    /// Train the demo fixture (small enough for unit tests).
    pub fn trained_fixture(seed: u64) -> TrainedBundle {
        crate::demo::train_demo(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_fixture;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    fn send(stream: &mut TcpStream, request: &str) -> serde::Value {
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        serde_json::from_str(&line).unwrap()
    }

    #[test]
    fn server_round_trip_all_request_types() {
        let fx = trained_fixture(61);
        let registry = Arc::new(Registry::new());
        registry.publish(fx.artifact.clone()).unwrap();
        let server = Server::start(
            ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..Default::default() },
            Arc::clone(&registry),
        )
        .unwrap();
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();

        // health
        let health = send(&mut conn, r#"{"type":"health"}"#);
        assert_eq!(health.get("ok").and_then(serde::Value::as_bool), Some(true));
        assert_eq!(health.get("status").and_then(serde::Value::as_str), Some("healthy"));

        // predict (model-space features) matches the engine exactly.
        let engine = registry.get("ams-demo").unwrap();
        let x = &fx.artifact.reference_features;
        let feat_json: Vec<String> = x.row(3).iter().map(|v| format!("{v}")).collect();
        let req = format!(
            r#"{{"type":"predict","model":"ams-demo","company":3,"features":[{}]}}"#,
            feat_json.join(",")
        );
        let resp = send(&mut conn, &req);
        assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(true));
        let served = resp.get("prediction").and_then(serde::Value::as_f64).unwrap();
        let local = engine.predict_company(3, x.row(3)).unwrap();
        assert_eq!(served.to_bits(), local.to_bits());

        // slave_weights
        let resp = send(&mut conn, r#"{"type":"slave_weights","company":0}"#);
        assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(true));
        let weights = resp.get("weights").and_then(serde::Value::as_array).unwrap();
        assert_eq!(weights.len(), fx.artifact.slave_weights.cols());

        // An unknown company is out-of-domain: answered from the
        // fallback, tagged degraded — not an error, not a closed
        // connection.
        let resp = send(&mut conn, r#"{"type":"predict","company":9999,"features":[]}"#);
        assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(true));
        assert_eq!(resp.get("degraded").and_then(serde::Value::as_bool), Some(true));
        assert!(resp.get("prediction").and_then(serde::Value::as_f64).unwrap().is_finite());

        // errors come back per-request, connection stays usable.
        let resp = send(&mut conn, "this is not json");
        assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(false));
        let resp = send(&mut conn, r#"{"type":"flarp"}"#);
        assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(false));

        // stats reflect the traffic above.
        let resp = send(&mut conn, r#"{"type":"stats"}"#);
        assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(true));
        let stats = resp.get("stats").unwrap();
        let requests = stats.get("requests").and_then(serde::Value::as_f64).unwrap();
        assert!(requests >= 6.0, "requests = {requests}");
        let errors = stats.get("errors").and_then(serde::Value::as_f64).unwrap();
        assert!(errors >= 2.0, "errors = {errors}");
        let degraded = stats.get("degraded").and_then(serde::Value::as_f64).unwrap();
        assert!(degraded >= 1.0, "degraded = {degraded}");

        drop(conn);
        server.shutdown();
    }

    #[test]
    fn server_shutdown_joins_cleanly() {
        let registry = Arc::new(Registry::new());
        let server = Server::start(
            ServerConfig { addr: "127.0.0.1:0".into(), workers: 1, ..Default::default() },
            registry,
        )
        .unwrap();
        // No traffic at all: shutdown must still join promptly.
        server.shutdown();
    }
}
