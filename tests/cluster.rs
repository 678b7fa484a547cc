//! In-process cluster integration: a real [`ams::cluster::Router`]
//! over real [`ams::serve::Server`] shards, exercising routing
//! exactness, batch fan-in, replica failover, whole-group degradation
//! and probe-driven re-admission — all on loopback, no subprocesses.
//! (The multi-process chaos characterization with SIGKILL/SIGSTOP
//! lives in `crates/bench/src/bin/cluster_bench.rs`.)

use ams::cluster::{Router, RouterConfig, ShardMap};
use ams::fault::{FaultSite, SeededFaults};
use ams::serve::net::{JsonlConn, Timeouts};
use ams::serve::{
    demo, BreakerConfig, BreakerState, Engine, ModelArtifact, Registry, Server, ServerConfig,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start_shard(
    artifact: &ModelArtifact,
    faults: Option<Arc<SeededFaults>>,
) -> (Server, SocketAddr) {
    let registry = Arc::new(Registry::new());
    registry.publish(artifact.clone()).expect("demo artifact publishes");
    let server = Server::start(
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            faults: faults.map(|f| f as _),
            ..Default::default()
        },
        registry,
    )
    .expect("shard binds");
    let addr = server.local_addr();
    (server, addr)
}

fn start_router(shards: Vec<Vec<SocketAddr>>, artifact: &ModelArtifact) -> Router {
    Router::start(RouterConfig {
        shards,
        artifact: Some(artifact.clone()),
        workers: 2,
        probe_interval_ms: 100,
        hedge_after_ms: 150,
        breaker: BreakerConfig { failure_threshold: 2, cooldown: Duration::from_millis(150) },
        ..Default::default()
    })
    .expect("router starts")
}

fn connect(addr: SocketAddr) -> JsonlConn {
    JsonlConn::connect(addr, &Timeouts::uniform(Duration::from_secs(20))).expect("connect")
}

/// One request/response round trip, the reply parsed as JSON.
fn round_trip(conn: &mut JsonlConn, request: &str) -> serde::Value {
    let mut buf = String::new();
    conn.round_trip_into(request, &mut buf).expect("round trip");
    serde_json::from_str(buf.trim()).expect("reply is JSON")
}

fn predict_request(artifact: &ModelArtifact, company: usize) -> String {
    let row: Vec<String> =
        artifact.reference_features.row(company).iter().map(|v| format!("{v}")).collect();
    format!(r#"{{"type":"predict","company":{company},"features":[{}]}}"#, row.join(","))
}

fn batch_request(artifact: &ModelArtifact) -> String {
    let rows: Vec<String> = (0..artifact.num_companies())
        .map(|c| {
            let row: Vec<String> =
                artifact.reference_features.row(c).iter().map(|v| format!("{v}")).collect();
            format!("[{}]", row.join(","))
        })
        .collect();
    format!(r#"{{"type":"batch_predict","features":[{}]}}"#, rows.join(","))
}

#[test]
fn router_matches_single_shard_bitwise() {
    let bundle = demo::train_demo(61);
    let artifact = &bundle.artifact;
    let engine = Engine::new(artifact.clone()).unwrap();
    let (shard_a, addr_a) = start_shard(artifact, None);
    let (shard_b, addr_b) = start_shard(artifact, None);
    let (shard_c, addr_c) = start_shard(artifact, None);
    // Two groups; group 0 has a replica.
    let router = start_router(vec![vec![addr_a, addr_b], vec![addr_c]], artifact);
    let mut conn = connect(router.local_addr());

    // health speaks the shard protocol (loadgen-compatible).
    let health = round_trip(&mut conn, r#"{"type":"health"}"#);
    assert_eq!(health.get("ok").and_then(serde::Value::as_bool), Some(true));
    assert_eq!(health.get("status").and_then(serde::Value::as_str), Some("healthy"));
    let models = health.get("models").and_then(serde::Value::as_array).unwrap();
    assert_eq!(models[0].get("name").and_then(serde::Value::as_str), Some("ams-demo"));

    // Routed single predicts are bit-exact against a local engine.
    for company in 0..artifact.num_companies() {
        let resp = round_trip(&mut conn, &predict_request(artifact, company));
        assert_eq!(
            resp.get("ok").and_then(serde::Value::as_bool),
            Some(true),
            "company {company}: {resp:?}"
        );
        assert_ne!(resp.get("degraded").and_then(serde::Value::as_bool), Some(true));
        let served = resp.get("prediction").and_then(serde::Value::as_f64).unwrap();
        let local =
            engine.predict_company(company, artifact.reference_features.row(company)).unwrap();
        assert_eq!(served.to_bits(), local.to_bits(), "company {company}");
    }

    // slave_weights passes through to the owning shard.
    let resp = round_trip(&mut conn, r#"{"type":"slave_weights","company":0}"#);
    assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(true));
    assert_eq!(
        resp.get("weights").and_then(serde::Value::as_array).map(<[serde::Value]>::len),
        Some(artifact.slave_weights.cols())
    );

    // Batch fan-out/fan-in merges to exactly what one shard answers.
    let mut direct = connect(addr_a);
    let batch = batch_request(artifact);
    let via_router = round_trip(&mut conn, &batch);
    let via_shard = round_trip(&mut direct, &batch);
    assert_eq!(via_router.get("ok").and_then(serde::Value::as_bool), Some(true));
    assert_ne!(via_router.get("degraded").and_then(serde::Value::as_bool), Some(true));
    let merged = via_router.get("predictions").and_then(serde::Value::as_array).unwrap();
    let reference = via_shard.get("predictions").and_then(serde::Value::as_array).unwrap();
    assert_eq!(merged.len(), reference.len());
    for (c, (m, r)) in merged.iter().zip(reference.iter()).enumerate() {
        let (m, r) = (m.as_f64().unwrap(), r.as_f64().unwrap());
        assert_eq!(m.to_bits(), r.to_bits(), "company {c}");
    }

    // Errors stay per-request and typed.
    let resp = round_trip(&mut conn, "this is not json");
    assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(false));
    let resp = round_trip(&mut conn, r#"{"type":"flarp"}"#);
    assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(false));

    drop(conn);
    drop(direct);
    router.shutdown();
    shard_a.shutdown();
    shard_b.shutdown();
    shard_c.shutdown();
}

#[test]
fn dead_group_yields_typed_degraded_not_errors() {
    let bundle = demo::train_demo(62);
    let artifact = &bundle.artifact;
    let engine = Engine::new(artifact.clone()).unwrap();
    let (shard_a, addr_a) = start_shard(artifact, None);
    let (shard_b, addr_b) = start_shard(artifact, None);
    let router = start_router(vec![vec![addr_a], vec![addr_b]], artifact);
    let map = ShardMap::contiguous(2).unwrap();

    // Kill group 1 outright: its companies must degrade, typed.
    shard_b.shutdown();

    let mut conn = connect(router.local_addr());
    let mut saw_degraded = 0usize;
    let mut saw_exact = 0usize;
    // Two passes so the second pass exercises the tripped breaker too.
    for pass in 0..2 {
        for company in 0..artifact.num_companies() {
            let resp = round_trip(&mut conn, &predict_request(artifact, company));
            assert_eq!(
                resp.get("ok").and_then(serde::Value::as_bool),
                Some(true),
                "pass {pass} company {company}: every response stays typed: {resp:?}"
            );
            let prediction = resp.get("prediction").and_then(serde::Value::as_f64).unwrap();
            assert!(prediction.is_finite());
            if map.position_of(company as u64) == 1 {
                assert_eq!(
                    resp.get("degraded").and_then(serde::Value::as_bool),
                    Some(true),
                    "pass {pass} company {company} owned by the dead group"
                );
                assert_eq!(
                    resp.get("degraded_reason").and_then(serde::Value::as_str),
                    Some("shard unavailable")
                );
                saw_degraded += 1;
            } else {
                assert_ne!(resp.get("degraded").and_then(serde::Value::as_bool), Some(true));
                let local = engine
                    .predict_company(company, artifact.reference_features.row(company))
                    .unwrap();
                assert_eq!(prediction.to_bits(), local.to_bits());
                saw_exact += 1;
            }
        }
    }
    assert!(saw_degraded > 0, "fixture must own companies in the dead group");
    assert!(saw_exact > 0, "fixture must own companies in the live group");

    // The batch still answers: live slice exact, dead slice from the
    // local fallback ladder — a partial answer, never a batch error.
    let resp = round_trip(&mut conn, &batch_request(artifact));
    assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(true));
    assert_eq!(resp.get("degraded").and_then(serde::Value::as_bool), Some(true));
    assert_eq!(
        resp.get("degraded_reason").and_then(serde::Value::as_str),
        Some("shard unavailable")
    );
    let preds = resp.get("predictions").and_then(serde::Value::as_array).unwrap();
    assert_eq!(preds.len(), artifact.num_companies());
    for (c, p) in preds.iter().enumerate() {
        let p = p.as_f64().unwrap();
        if map.position_of(c as u64) == 1 {
            let fallback = engine.fallback_predict(Some(c), None);
            assert_eq!(p.to_bits(), fallback.to_bits(), "company {c} fallback");
        }
    }
    let degraded_companies =
        resp.get("degraded_companies").and_then(serde::Value::as_array).unwrap();
    assert_eq!(degraded_companies.len(), saw_degraded / 2);

    // The dead upstream's breaker is open (or probing half-open).
    assert!(router.upstream_states().iter().any(|(g, _, s)| *g == 1 && *s != BreakerState::Closed));

    drop(conn);
    router.shutdown();
    shard_a.shutdown();
}

#[test]
fn replica_failover_stays_exact() {
    let bundle = demo::train_demo(63);
    let artifact = &bundle.artifact;
    let engine = Engine::new(artifact.clone()).unwrap();
    let (shard_a, addr_a) = start_shard(artifact, None);
    let (shard_b, addr_b) = start_shard(artifact, None);
    let router = start_router(vec![vec![addr_a, addr_b]], artifact);
    let mut conn = connect(router.local_addr());

    // Warm both replicas, then kill one: answers stay exact, none
    // degrade — the surviving replica absorbs everything.
    for company in 0..artifact.num_companies().min(8) {
        let resp = round_trip(&mut conn, &predict_request(artifact, company));
        assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(true));
    }
    shard_a.shutdown();
    for pass in 0..3 {
        for company in 0..artifact.num_companies() {
            let resp = round_trip(&mut conn, &predict_request(artifact, company));
            assert_eq!(
                resp.get("ok").and_then(serde::Value::as_bool),
                Some(true),
                "pass {pass} company {company}: {resp:?}"
            );
            assert_ne!(
                resp.get("degraded").and_then(serde::Value::as_bool),
                Some(true),
                "pass {pass} company {company}: replica must cover, not degrade"
            );
            let served = resp.get("prediction").and_then(serde::Value::as_f64).unwrap();
            let local =
                engine.predict_company(company, artifact.reference_features.row(company)).unwrap();
            assert_eq!(served.to_bits(), local.to_bits());
        }
    }

    drop(conn);
    router.shutdown();
    shard_b.shutdown();
}

#[test]
fn faulty_replica_is_quarantined_then_readmitted_by_probes() {
    let bundle = demo::train_demo(64);
    let artifact = &bundle.artifact;
    // One replica truncates its first responses mid-line (connection
    // dies mid-response), then recovers; its twin stays healthy.
    let faults = Arc::new(SeededFaults::new(9).with_rule(FaultSite::ConnectionTruncate, 1.0, 6));
    let (shard_faulty, addr_faulty) = start_shard(artifact, Some(faults));
    let (shard_ok, addr_ok) = start_shard(artifact, None);
    let router = start_router(vec![vec![addr_faulty, addr_ok]], artifact);
    let mut conn = connect(router.local_addr());

    // Drive traffic until the faulty upstream's breaker opens. Every
    // response along the way stays typed ok (the healthy twin covers).
    let tripped = |router: &Router| {
        router
            .upstream_states()
            .iter()
            .any(|(_, addr, s)| *addr == addr_faulty && *s != BreakerState::Closed)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut company = 0usize;
    while !tripped(&router) {
        assert!(Instant::now() < deadline, "breaker never opened on the truncating replica");
        let resp = round_trip(&mut conn, &predict_request(artifact, company));
        assert_eq!(
            resp.get("ok").and_then(serde::Value::as_bool),
            Some(true),
            "mid-chaos response must stay typed: {resp:?}"
        );
        company = (company + 1) % artifact.num_companies();
    }

    // The fault budget exhausts; probes must re-admit the replica
    // without any further client traffic.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let all_closed =
            router.upstream_states().iter().all(|(_, _, s)| *s == BreakerState::Closed);
        if all_closed {
            break;
        }
        assert!(Instant::now() < deadline, "probes never re-admitted the recovered replica");
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        router.metrics().readmissions.load(std::sync::atomic::Ordering::Relaxed) >= 1,
        "re-admission must come from a health probe"
    );

    // And it serves exactly again.
    let resp = round_trip(&mut conn, &predict_request(artifact, 0));
    assert_eq!(resp.get("ok").and_then(serde::Value::as_bool), Some(true));

    drop(conn);
    router.shutdown();
    shard_faulty.shutdown();
    shard_ok.shutdown();
}
