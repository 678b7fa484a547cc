//! Chaos benchmark: measured resilience numbers for the serving stack.
//!
//! Four scenarios against a real [`ams_serve::Server`] over TCP:
//!
//! 1. **Shed** — park the only worker, burst more connections than the
//!    admission queue holds, and measure the shed rate (every refused
//!    connection gets an explicit `{"shed":true}` line, never a hang).
//! 2. **Degraded path** — client-side p50/p99 latency of requests
//!    answered by the fallback predictor (unknown company) next to the
//!    healthy path's, so the cost of degradation is a number.
//! 3. **Recovery** — publish a corrupt model, trip its circuit breaker,
//!    hot-swap a good version, and time until the first healthy
//!    (non-degraded) response.
//! 4. **Storm** — a seeded fault plan corrupting request bytes,
//!    stalling and truncating connections, delaying workers and
//!    poisoning features, driven by reconnecting clients; the server
//!    must finish healthy.
//!
//! Writes `results/BENCH_fault.json` (override the directory with
//! `AMS_RESULTS_DIR`). Build with `--release`; the latency numbers are
//! not meaningful in debug.

use ams_bench::exp::write_bench;
use ams_fault::{FaultSite, SeededFaults};
use ams_serve::demo::train_demo;
use ams_serve::{BreakerConfig, ModelArtifact, Registry, Server, ServerConfig};
use ams_stats::quantile;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STORM_SEED: u64 = 7;
const BURST: usize = 32;
const SHED_QUEUE: usize = 2;
const LATENCY_ITERS: usize = 300;
const BREAKER_THRESHOLD: u32 = 3;
const BREAKER_COOLDOWN_MS: u64 = 150;
const STORM_REQUESTS_PER_CLIENT: usize = 60;
const STORM_CLIENTS: usize = 4;

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// One request/response round trip; `None` if the connection died.
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

fn features_json(row: &[f64]) -> String {
    let parts: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", parts.join(","))
}

fn predict_request(company: usize, row: &[f64]) -> String {
    format!(r#"{{"type":"predict","company":{company},"features":{}}}"#, features_json(row))
}

fn batch_request(x: &ams_tensor::Matrix) -> String {
    let rows: Vec<String> = (0..x.rows()).map(|i| features_json(x.row(i))).collect();
    format!(r#"{{"type":"batch_predict","features":[{}]}}"#, rows.join(","))
}

/// Scenario 1: burst past the admission queue with the worker pinned.
/// Returns `(shed responses seen by clients, shed count from metrics)`.
fn shed_scenario(artifact: ModelArtifact) -> (usize, u64) {
    let registry = Arc::new(Registry::new());
    registry.publish(artifact).expect("publish");
    let server = Server::start(
        ServerConfig {
            workers: 1,
            queue_capacity: SHED_QUEUE,
            idle_timeout_ms: 0,
            ..Default::default()
        },
        registry,
    )
    .expect("server");
    let addr = server.local_addr().to_string();

    // Pin the only worker: a health round trip proves it owns this
    // connection, and keeping the connection open keeps it owned.
    let (mut pin_w, mut pin_r) = connect(&addr);
    round_trip(&mut pin_w, &mut pin_r, r#"{"type":"health"}"#).expect("pin health");

    // Burst: the first SHED_QUEUE connections queue, the rest must be
    // shed with an explicit line (read timeout tells them apart from
    // the queued ones, which receive nothing).
    let mut burst = Vec::with_capacity(BURST);
    for _ in 0..BURST {
        let (w, r) = connect(&addr);
        w.set_read_timeout(Some(Duration::from_millis(800))).ok();
        burst.push((w, r));
    }
    let mut shed_seen = 0usize;
    for (_, reader) in &mut burst {
        let mut line = String::new();
        if reader.read_line(&mut line).is_ok()
            && serde_json::from_str::<Value>(line.trim())
                .ok()
                .and_then(|v| v.get("shed").and_then(Value::as_bool))
                == Some(true)
        {
            shed_seen += 1;
        }
    }
    let shed_metric = server.metrics().snapshot().shed;
    drop(burst);
    drop((pin_w, pin_r));
    server.shutdown();
    (shed_seen, shed_metric)
}

/// Scenario 2: healthy vs degraded (fallback) latency, client-side µs.
/// Returns `(healthy_p50, healthy_p99, degraded_p50, degraded_p99)`.
fn latency_scenario(artifact: ModelArtifact, x: &ams_tensor::Matrix) -> (f64, f64, f64, f64) {
    let registry = Arc::new(Registry::new());
    registry.publish(artifact).expect("publish");
    let server =
        Server::start(ServerConfig { workers: 2, ..Default::default() }, registry).expect("server");
    let addr = server.local_addr().to_string();
    let (mut w, mut r) = connect(&addr);

    let mut measure = |company: usize, expect_degraded: bool| -> Vec<f64> {
        let request = predict_request(company, x.row(0));
        let mut lat = Vec::with_capacity(LATENCY_ITERS);
        for i in 0..LATENCY_ITERS + 10 {
            let t = Instant::now();
            let resp = round_trip(&mut w, &mut r, &request).expect("predict");
            let dt = t.elapsed().as_secs_f64() * 1e6;
            assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
            let degraded = resp.get("degraded").and_then(Value::as_bool) == Some(true);
            assert_eq!(degraded, expect_degraded, "degraded tag mismatch");
            if i >= 10 {
                lat.push(dt);
            }
        }
        lat
    };

    let healthy = measure(0, false);
    // A company the model has never seen: answered by the fallback
    // ladder, tagged degraded.
    let degraded = measure(x.rows() + 1000, true);
    server.shutdown();
    (
        quantile(&healthy, 0.5),
        quantile(&healthy, 0.99),
        quantile(&degraded, 0.5),
        quantile(&degraded, 0.99),
    )
}

/// Scenario 3: corrupt model trips the breaker; hot-swapping a good
/// version heals it after the cooldown. Returns
/// `(requests until open, recovery ms from publish to healthy answer)`.
fn recovery_scenario(
    good: ModelArtifact,
    corrupt: ModelArtifact,
    x: &ams_tensor::Matrix,
) -> (usize, f64) {
    let registry = Arc::new(Registry::with_breaker_config(BreakerConfig {
        failure_threshold: BREAKER_THRESHOLD,
        cooldown: Duration::from_millis(BREAKER_COOLDOWN_MS),
    }));
    registry.publish(corrupt).expect("publish corrupt");
    let server =
        Server::start(ServerConfig { workers: 1, ..Default::default() }, Arc::clone(&registry))
            .expect("server");
    let addr = server.local_addr().to_string();
    let (mut w, mut r) = connect(&addr);

    // Batch predictions hit the corrupted generator weights: each is
    // answered degraded ("engine error") and counts against the
    // breaker until it opens.
    let batch = batch_request(x);
    let mut until_open = 0usize;
    loop {
        let resp = round_trip(&mut w, &mut r, &batch).expect("batch");
        assert_eq!(resp.get("degraded").and_then(Value::as_bool), Some(true));
        until_open += 1;
        let reason = resp.get("degraded_reason").and_then(Value::as_str).unwrap_or("");
        if reason == "circuit open" {
            break;
        }
        assert!(until_open <= BREAKER_THRESHOLD as usize + 1, "breaker never opened");
    }

    // Heal: publish a good version, then poll until a non-degraded
    // answer arrives. The breaker holds requests on the fallback until
    // the cooldown elapses and a half-open probe succeeds.
    let publish_at = Instant::now();
    registry.publish(good).expect("publish good");
    let probe = predict_request(0, x.row(0));
    let recovery_ms = loop {
        let resp = round_trip(&mut w, &mut r, &probe).expect("probe");
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true));
        if resp.get("degraded").and_then(Value::as_bool) != Some(true) {
            break publish_at.elapsed().as_secs_f64() * 1e3;
        }
        assert!(publish_at.elapsed() < Duration::from_secs(10), "never recovered");
        std::thread::sleep(Duration::from_millis(5));
    };
    server.shutdown();
    (until_open, recovery_ms)
}

/// Scenario 4: seeded fault storm. Returns
/// `(ok, degraded, errors, reconnects, finished healthy)`.
fn storm_scenario(artifact: ModelArtifact, x: &ams_tensor::Matrix) -> (u64, u64, u64, u64, bool) {
    let faults = Arc::new(
        SeededFaults::new(STORM_SEED)
            .with_rule(FaultSite::RequestBytes, 0.25, u64::MAX)
            .with_rule(FaultSite::ConnectionStall, 0.10, u64::MAX)
            .with_rule(FaultSite::ConnectionTruncate, 0.15, u64::MAX)
            .with_rule(FaultSite::WorkerDelay, 0.20, u64::MAX)
            .with_rule(FaultSite::Features, 0.20, u64::MAX),
    );
    let registry = Arc::new(Registry::new());
    registry.publish(artifact).expect("publish");
    let server = Server::start(
        ServerConfig { workers: 4, faults: Some(faults), ..Default::default() },
        registry,
    )
    .expect("server");
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..STORM_CLIENTS)
        .map(|client| {
            let addr = addr.clone();
            let row = x.row(client % x.rows()).to_vec();
            std::thread::spawn(move || {
                let (mut ok, mut degraded, mut errors, mut reconnects) = (0u64, 0u64, 0u64, 0u64);
                let (mut w, mut r) = connect(&addr);
                for i in 0..STORM_REQUESTS_PER_CLIENT {
                    let request = predict_request(i % 8, &row);
                    match round_trip(&mut w, &mut r, &request) {
                        Some(resp) => {
                            if resp.get("ok").and_then(Value::as_bool) == Some(true) {
                                if resp.get("degraded").and_then(Value::as_bool) == Some(true) {
                                    degraded += 1;
                                } else {
                                    ok += 1;
                                }
                            } else {
                                // Corrupted bytes → an error line, by design.
                                errors += 1;
                            }
                        }
                        None => {
                            // Truncated mid-response: reconnect and go on.
                            reconnects += 1;
                            let c = connect(&addr);
                            (w, r) = c;
                        }
                    }
                }
                (ok, degraded, errors, reconnects)
            })
        })
        .collect();
    let mut totals = (0u64, 0u64, 0u64, 0u64);
    for h in handles {
        let (ok, degraded, errors, reconnects) = h.join().expect("storm client");
        totals.0 += ok;
        totals.1 += degraded;
        totals.2 += errors;
        totals.3 += reconnects;
    }

    // After the storm the server must still answer health cleanly on a
    // fresh connection (faults may still fire on it, so retry).
    let mut survived = false;
    for _ in 0..20 {
        let (mut w, mut r) = connect(&addr);
        if let Some(resp) = round_trip(&mut w, &mut r, r#"{"type":"health"}"#) {
            if resp.get("ok").and_then(Value::as_bool) == Some(true) {
                survived = true;
                break;
            }
        }
    }
    server.shutdown();
    (totals.0, totals.1, totals.2, totals.3, survived)
}

/// The demo artifact with its generator weights corrupted to NaN: the
/// typed engine path detects the non-finite output and reports an
/// engine failure (never a panic, never a NaN on the wire).
fn corrupted(mut artifact: ModelArtifact) -> ModelArtifact {
    artifact.version = 1;
    let last = artifact.snapshot.gen.last_mut().expect("gen layers");
    last.w[(0, 0)] = f64::NAN;
    artifact
}

fn main() {
    println!("chaos bench: training demo model (seed {STORM_SEED})...");
    let bundle = train_demo(STORM_SEED);
    let artifact = bundle.artifact;
    let x = bundle.test_x;
    let mut good_v2 = artifact.clone();
    good_v2.version = 2;

    let (shed_seen, shed_metric) = shed_scenario(artifact.clone());
    let shed_rate = shed_metric as f64 / BURST as f64;
    println!(
        "  shed: burst {BURST} vs queue {SHED_QUEUE} → {shed_metric} shed \
         ({shed_seen} explicit shed lines, rate {shed_rate:.2})"
    );

    let (h50, h99, d50, d99) = latency_scenario(artifact.clone(), &x);
    println!(
        "  latency: healthy p50 {h50:.0}us p99 {h99:.0}us · degraded p50 {d50:.0}us p99 {d99:.0}us"
    );

    let (until_open, recovery_ms) = recovery_scenario(good_v2, corrupted(artifact.clone()), &x);
    println!(
        "  recovery: breaker open after {until_open} failing requests, \
         healthy {recovery_ms:.0} ms after hot-swap (cooldown {BREAKER_COOLDOWN_MS} ms)"
    );

    let (ok, degraded, errors, reconnects, survived) = storm_scenario(artifact, &x);
    println!(
        "  storm: {ok} ok · {degraded} degraded · {errors} error lines · \
         {reconnects} reconnects · survived={survived}"
    );
    assert!(survived, "server did not answer health after the storm");

    let json = format!(
        "{{\n  \"shed\": {{\"burst\": {BURST}, \"queue_capacity\": {SHED_QUEUE}, \
         \"shed\": {shed_metric}, \"shed_lines_seen\": {shed_seen}, \
         \"shed_rate\": {shed_rate:.4}}},\n  \
         \"latency\": {{\"iters\": {LATENCY_ITERS}, \"healthy_p50_us\": {h50:.1}, \
         \"healthy_p99_us\": {h99:.1}, \"degraded_p50_us\": {d50:.1}, \
         \"degraded_p99_us\": {d99:.1}}},\n  \
         \"recovery\": {{\"failure_threshold\": {BREAKER_THRESHOLD}, \
         \"cooldown_ms\": {BREAKER_COOLDOWN_MS}, \"requests_until_open\": {until_open}, \
         \"recovery_ms\": {recovery_ms:.1}}},\n  \
         \"storm\": {{\"seed\": {STORM_SEED}, \"clients\": {STORM_CLIENTS}, \
         \"requests_per_client\": {STORM_REQUESTS_PER_CLIENT}, \"ok\": {ok}, \
         \"degraded\": {degraded}, \"error_lines\": {errors}, \
         \"reconnects\": {reconnects}, \"server_survived\": {survived}}}\n}}\n"
    );
    write_bench("BENCH_fault.json", &json);
}
