//! Seeded chaos suite: the serving stack under deterministic fault
//! injection. Every fault here replays byte-identically from its seed
//! (see `ams::fault::SeededFaults`), so these are regression tests, not
//! flakes: the server must never crash, overload must shed with an
//! explicit response, bad inputs and engine failures must degrade with
//! the right tags, and a hot-swap must heal an open circuit breaker.

use ams::cluster::{Router, RouterConfig};
use ams::fault::{FaultSite, SeededFaults};
use ams::serve::demo::train_demo;
use ams::serve::{BreakerConfig, ModelArtifact, Registry, Server, ServerConfig};
use serde_json::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One trained artifact for the whole suite (training dominates test
/// time in debug builds; the scenarios only need copies).
fn demo_artifact() -> &'static (ModelArtifact, ams::tensor::Matrix) {
    static BUNDLE: OnceLock<(ModelArtifact, ams::tensor::Matrix)> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let bundle = train_demo(7);
        (bundle.artifact, bundle.test_x)
    })
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// One round trip; `None` if the connection died (truncation, reset).
fn round_trip(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    request: &str,
) -> Option<Value> {
    writer.write_all(request.as_bytes()).ok()?;
    writer.write_all(b"\n").ok()?;
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    if line.trim().is_empty() {
        return None;
    }
    serde_json::from_str(line.trim()).ok()
}

fn predict_request(company: usize, row: &[f64]) -> String {
    let parts: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!(r#"{{"type":"predict","company":{company},"features":[{}]}}"#, parts.join(","))
}

/// The demo artifact with NaN generator weights: a model that loads
/// fine but whose engine path fails at prediction time.
fn corrupted(artifact: &ModelArtifact) -> ModelArtifact {
    let mut bad = artifact.clone();
    bad.snapshot.gen.last_mut().unwrap().w[(0, 0)] = f64::NAN;
    bad
}

#[test]
fn server_survives_seeded_fault_storm() {
    let (artifact, x) = demo_artifact();
    let faults = Arc::new(
        SeededFaults::new(20260807)
            .with_rule(FaultSite::RequestBytes, 0.25, u64::MAX)
            .with_rule(FaultSite::ConnectionStall, 0.10, u64::MAX)
            .with_rule(FaultSite::ConnectionTruncate, 0.15, u64::MAX)
            .with_rule(FaultSite::WorkerDelay, 0.20, u64::MAX)
            .with_rule(FaultSite::Features, 0.20, u64::MAX),
    );
    let registry = Arc::new(Registry::new());
    registry.publish(artifact.clone()).unwrap();
    let server = Server::start(
        ServerConfig { workers: 3, faults: Some(faults), ..Default::default() },
        registry,
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..3)
        .map(|client| {
            let addr = addr.clone();
            let row = x.row(client % x.rows()).to_vec();
            std::thread::spawn(move || {
                let (mut answered, mut reconnects) = (0u32, 0u32);
                let (mut w, mut r) = connect(&addr);
                for i in 0..40 {
                    match round_trip(&mut w, &mut r, &predict_request(i % 8, &row)) {
                        Some(resp) => {
                            // Every answered request is a well-formed
                            // JSON line with an `ok` verdict — corrupted
                            // bytes become error lines, poisoned
                            // features become degraded answers, never a
                            // crash or a garbage response.
                            let ok = resp.get("ok").and_then(Value::as_bool);
                            assert!(ok.is_some(), "response without ok: {resp:?}");
                            if resp.get("degraded").and_then(Value::as_bool) == Some(true) {
                                assert!(
                                    resp.get("degraded_reason").and_then(Value::as_str).is_some(),
                                    "degraded response must carry a reason"
                                );
                                let p = resp
                                    .get("prediction")
                                    .and_then(Value::as_f64)
                                    .expect("degraded predict carries a prediction");
                                assert!(p.is_finite(), "degraded prediction must be finite");
                            }
                            answered += 1;
                        }
                        None => {
                            reconnects += 1;
                            (w, r) = connect(&addr);
                        }
                    }
                }
                (answered, reconnects)
            })
        })
        .collect();
    let mut answered = 0;
    for h in handles {
        // A panicking client thread means the server sent something
        // indefensible; propagate it.
        let (a, _) = h.join().unwrap();
        answered += a;
    }
    assert!(answered > 0, "storm answered nothing");

    // The server must still be fully healthy on a fresh connection
    // (faults can still fire on it, so allow retries).
    let healthy = (0..20).any(|_| {
        let (mut w, mut r) = connect(&addr);
        round_trip(&mut w, &mut r, r#"{"type":"health"}"#)
            .map(|resp| resp.get("ok").and_then(Value::as_bool) == Some(true))
            .unwrap_or(false)
    });
    assert!(healthy, "server did not answer health after the storm");
    let stats = server.metrics().snapshot();
    assert!(stats.requests > 0);
    server.shutdown();
}

/// A front door under test: a shard server alone, or a router over one
/// shard server. Both run on the same connection core, so both must
/// shed and refuse with the same framing.
enum Front {
    Server(Server),
    Router { router: Router, shard: Server },
}

impl Front {
    /// Start a front door with `workers` workers, an admission queue of
    /// `queue_capacity` connections and no idle timeout.
    fn start(routed: bool, workers: usize, queue_capacity: usize) -> Self {
        let serve = |config| {
            let registry = Arc::new(Registry::new());
            registry.publish(demo_artifact().0.clone()).unwrap();
            Server::start(config, registry).unwrap()
        };
        if !routed {
            let config =
                ServerConfig { workers, queue_capacity, idle_timeout_ms: 0, ..Default::default() };
            return Front::Server(serve(config));
        }
        let shard = serve(ServerConfig::default());
        let router = Router::start(RouterConfig {
            workers,
            queue_capacity,
            shards: vec![vec![shard.local_addr()]],
            ..Default::default()
        })
        .unwrap();
        Front::Router { router, shard }
    }

    fn addr(&self) -> String {
        match self {
            Front::Server(s) => s.local_addr().to_string(),
            Front::Router { router, .. } => router.local_addr().to_string(),
        }
    }

    /// The exact line a shed connection receives.
    fn shed_line(&self) -> &'static str {
        match self {
            Front::Server(_) => {
                "{\"ok\":false,\"shed\":true,\"error\":\"server overloaded: connection shed\"}\n"
            }
            Front::Router { .. } => {
                "{\"ok\":false,\"shed\":true,\"error\":\"router overloaded: connection shed\"}\n"
            }
        }
    }

    /// The front door's own shed counter.
    fn sheds(&self) -> u64 {
        match self {
            Front::Server(s) => s.metrics().snapshot().shed,
            Front::Router { router, .. } => {
                router.metrics().sheds.load(std::sync::atomic::Ordering::Relaxed)
            }
        }
    }

    fn shutdown(self) {
        match self {
            Front::Server(s) => s.shutdown(),
            Front::Router { router, shard } => {
                router.shutdown();
                shard.shutdown();
            }
        }
    }
}

#[test]
fn overload_sheds_with_explicit_response() {
    for routed in [false, true] {
        let front = Front::start(routed, 1, 1);
        let addr = front.addr();

        // Pin the only worker: after this round trip the worker owns
        // this connection and holds it until we close it.
        let (mut pin_w, mut pin_r) = connect(&addr);
        round_trip(&mut pin_w, &mut pin_r, r#"{"type":"health"}"#).unwrap();

        // Burst past the queue: one connection queues, the rest must
        // each receive the explicit shed line, byte for byte (not a
        // hang, not a silent close).
        let mut burst = Vec::new();
        for _ in 0..8 {
            let (w, r) = connect(&addr);
            w.set_read_timeout(Some(Duration::from_millis(800))).ok();
            burst.push((w, r));
        }
        let mut shed = 0;
        for (_, reader) in &mut burst {
            let mut line = String::new();
            if reader.read_line(&mut line).is_ok() && !line.is_empty() {
                assert_eq!(line, front.shed_line(), "routed = {routed}");
                shed += 1;
            }
        }
        assert!(shed >= 5, "expected most of the burst shed, got {shed}/8 (routed = {routed})");
        assert_eq!(front.sheds(), shed as u64, "routed = {routed}");
        drop(burst);
        drop((pin_w, pin_r));
        front.shutdown();
    }
}

/// A line past the cap gets the documented refusal, byte for byte, and
/// a close — from the server and the router alike — and the front door
/// keeps serving fresh connections.
#[test]
fn oversized_line_is_refused_then_closed_by_both_front_doors() {
    for routed in [false, true] {
        let front = Front::start(routed, 2, 64);
        let (mut w, mut r) = connect(&front.addr());
        // Exactly the cap with no newline: no unread bytes are left to
        // race the refusal with a connection reset.
        w.write_all(&vec![b'a'; ams::serve::net::MAX_LINE_BYTES]).unwrap();
        let mut raw = String::new();
        r.read_to_string(&mut raw).unwrap();
        assert_eq!(
            raw, "{\"ok\":false,\"error\":\"request line exceeded 65536 bytes\"}\n",
            "routed = {routed}"
        );
        let (mut w, mut r) = connect(&front.addr());
        let health = round_trip(&mut w, &mut r, r#"{"type":"health"}"#).unwrap();
        assert_eq!(health.get("ok").and_then(Value::as_bool), Some(true), "routed = {routed}");
        front.shutdown();
    }
}

#[test]
fn breaker_trips_degrades_and_recovers_after_hot_swap() {
    let (artifact, x) = demo_artifact();
    let registry = Arc::new(Registry::with_breaker_config(BreakerConfig {
        failure_threshold: 3,
        cooldown: Duration::from_millis(100),
    }));
    registry.publish(corrupted(artifact)).unwrap();
    let server =
        Server::start(ServerConfig { workers: 1, ..Default::default() }, Arc::clone(&registry))
            .unwrap();
    let addr = server.local_addr().to_string();
    let (mut w, mut r) = connect(&addr);

    // Batch predictions exercise the corrupted generator: the first
    // three are engine failures (answered degraded from the fallback),
    // then the breaker opens and the reason changes.
    let rows: Vec<String> = (0..x.rows())
        .map(|i| {
            let parts: Vec<String> = x.row(i).iter().map(|v| format!("{v}")).collect();
            format!("[{}]", parts.join(","))
        })
        .collect();
    let batch = format!(r#"{{"type":"batch_predict","features":[{}]}}"#, rows.join(","));
    let mut reasons = Vec::new();
    for _ in 0..5 {
        let resp = round_trip(&mut w, &mut r, &batch).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(resp.get("degraded").and_then(Value::as_bool), Some(true));
        let preds = resp.get("predictions").and_then(Value::as_array).unwrap();
        assert_eq!(preds.len(), x.rows());
        assert!(
            preds.iter().all(|p| p.as_f64().is_some_and(f64::is_finite)),
            "fallback predictions must be finite"
        );
        reasons.push(resp.get("degraded_reason").and_then(Value::as_str).unwrap().to_string());
    }
    assert_eq!(reasons[..3], ["engine error", "engine error", "engine error"]);
    assert_eq!(reasons[3..], ["circuit open", "circuit open"]);

    // Health must report the open circuit.
    let health = round_trip(&mut w, &mut r, r#"{"type":"health"}"#).unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("degraded"));
    let models = health.get("models").and_then(Value::as_array).unwrap();
    assert_eq!(models[0].get("state").and_then(Value::as_str), Some("open-circuit"));

    // Hot-swap a good version; after the cooldown a half-open probe
    // succeeds and requests stop being degraded.
    let mut good = demo_artifact().0.clone();
    good.version = 2;
    registry.publish(good).unwrap();
    let probe = predict_request(0, x.row(0));
    let healed_at = Instant::now();
    loop {
        let resp = round_trip(&mut w, &mut r, &probe).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        if resp.get("degraded").and_then(Value::as_bool) != Some(true) {
            break;
        }
        assert!(healed_at.elapsed() < Duration::from_secs(10), "breaker never recovered");
        std::thread::sleep(Duration::from_millis(5));
    }
    let health = round_trip(&mut w, &mut r, r#"{"type":"health"}"#).unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("healthy"));
    let stats = server.metrics().snapshot();
    assert!(stats.degraded >= 5);
    server.shutdown();
}

#[test]
fn out_of_domain_inputs_degrade_without_touching_the_breaker() {
    let (artifact, x) = demo_artifact();
    let registry = Arc::new(Registry::with_breaker_config(BreakerConfig {
        failure_threshold: 2,
        cooldown: Duration::from_millis(100),
    }));
    registry.publish(artifact.clone()).unwrap();
    let server =
        Server::start(ServerConfig { workers: 1, ..Default::default() }, Arc::clone(&registry))
            .unwrap();
    let addr = server.local_addr().to_string();
    let (mut w, mut r) = connect(&addr);

    // Far more out-of-domain requests than the failure threshold:
    // unknown companies and non-finite features are *input* problems,
    // so the model must stay healthy and the circuit closed.
    // (JSON has no literal NaN/inf; `1e999` overflows to +inf.)
    let mut inf_parts: Vec<String> = x.row(0).iter().map(|v| format!("{v}")).collect();
    inf_parts[0] = "1e999".to_string();
    let inf_request =
        format!(r#"{{"type":"predict","company":0,"features":[{}]}}"#, inf_parts.join(","));
    for i in 0..6 {
        let request =
            if i % 2 == 0 { predict_request(x.rows() + 50, x.row(0)) } else { inf_request.clone() };
        let resp = round_trip(&mut w, &mut r, &request).unwrap();
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{resp:?}");
        assert_eq!(resp.get("degraded").and_then(Value::as_bool), Some(true));
        let reason = resp.get("degraded_reason").and_then(Value::as_str).unwrap();
        assert!(reason == "unknown company" || reason == "non-finite features", "{reason}");
    }
    // The breaker never saw a failure: a healthy request still takes
    // the primary path.
    let resp = round_trip(&mut w, &mut r, &predict_request(0, x.row(0))).unwrap();
    assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
    assert!(resp.get("degraded").is_none());
    let health = round_trip(&mut w, &mut r, r#"{"type":"health"}"#).unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("healthy"));
    server.shutdown();
}
