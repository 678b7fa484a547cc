//! Cluster chaos benchmark: measured fault-tolerance numbers for the
//! sharded serving topology (router + shard processes over loopback).
//!
//! Unlike `chaos_bench` (one in-process server), every server here is
//! a real OS process — the router binary fronting `serve` shard
//! binaries — so the failures are real process failures:
//!
//! 1. **Throughput** — aggregate req/s through the router over a
//!    2-replica + 1-solo topology next to a single-process baseline on
//!    the same hardware. The ≥5× scaling target needs one core per
//!    process; this records the measured ratio plus the core count so
//!    the number is honest wherever it was produced.
//! 2. **Stall + re-admission** — SIGSTOP one replica mid-load at a
//!    seeded offset: requests must keep succeeding (hedged failover to
//!    the sibling replica, zero degraded), and after SIGCONT the
//!    router's health probes must re-admit the replica (breaker back
//!    to closed), timed.
//! 3. **Kill** — SIGKILL the solo shard mid-load: its companies must
//!    degrade to typed `{"degraded":true}` fallbacks — never an error
//!    line, never a dropped connection — while the surviving group
//!    stays healthy; failover latency is the gap from kill to the
//!    first typed fallback.
//! 4. **Corrupt artifact** — a shard started on a bit-flipped `AMS-ART`
//!    file must refuse to serve (checksum rejection at startup).
//!
//! The kill/stall offsets are derived from a seed via `ams_fault::mix64`,
//! so the chaos schedule is deterministic. Writes
//! `results/BENCH_scale.json` (override with `AMS_RESULTS_DIR`). Run
//! in `--release` after building the `serve` and `router` binaries.

use ams_bench::exp::write_bench;
use ams_cluster::ShardMap;
use ams_fault::mix64;
use ams_serve::demo::train_demo;
use ams_serve::Registry;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CHAOS_SEED: u64 = 11;
const CLIENTS: usize = 4;
const SHARD_WORKERS: usize = 4;
const ROUTER_WORKERS: usize = 8;
const MEASURE_MS: u64 = 2_000;
const STALL_WINDOW_MS: u64 = 3_000;
const KILL_WINDOW_MS: u64 = 2_500;
const PROBE_MS: u64 = 200;
const HEDGE_MS: u64 = 120;
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(20);
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// Child processes killed on drop, so a panicking scenario never
/// leaves orphan servers holding ports.
struct Procs(Vec<(String, Child)>);

impl Procs {
    fn push(&mut self, name: &str, child: Child) {
        self.0.push((name.to_string(), child));
    }
    fn kill(&mut self, name: &str) {
        for (n, c) in &mut self.0 {
            if n == name {
                let _ = c.kill();
                let _ = c.wait();
            }
        }
    }
    fn pid(&self, name: &str) -> u32 {
        self.0.iter().find(|(n, _)| n == name).expect("known process").1.id()
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        for (_, c) in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

fn signal(pid: u32, sig: &str) {
    let status =
        Command::new("kill").arg(sig).arg(pid.to_string()).status().expect("spawn kill(1)");
    assert!(status.success(), "kill {sig} {pid} failed");
}

/// Reserve a loopback port by binding and dropping. Racy in theory,
/// fine for a bench that owns the machine for its lifetime.
fn free_port() -> u16 {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    l.local_addr().expect("local addr").port()
}

fn bin_path(name: &str) -> PathBuf {
    let mut p = std::env::current_exe().expect("current exe");
    p.pop();
    p.push(name);
    if !p.exists() {
        eprintln!(
            "cluster_bench: {} not found — build it first:\n  cargo build --release -p ams-serve -p ams-cluster",
            p.display()
        );
        std::process::exit(2);
    }
    p
}

fn connect(addr: &str) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT)).ok();
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// One round trip; `None` if the connection died or timed out.
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

fn wait_healthy(addr: &str, what: &str) {
    let start = Instant::now();
    loop {
        if let Ok(stream) = TcpStream::connect(addr) {
            stream.set_read_timeout(Some(Duration::from_millis(500))).ok();
            let mut w = stream.try_clone().expect("clone");
            let mut r = BufReader::new(stream);
            if let Some(resp) = round_trip(&mut w, &mut r, r#"{"type":"health"}"#) {
                if resp.get("ok").and_then(Value::as_bool) == Some(true) {
                    return;
                }
            }
        }
        assert!(start.elapsed() < READY_TIMEOUT, "{what} at {addr} never became healthy");
        std::thread::sleep(Duration::from_millis(50));
    }
}

fn features_json(row: &[f64]) -> String {
    let parts: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", parts.join(","))
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Ok,
    Degraded,
    Shed,
    ErrorLine,
    IoError,
}

fn classify(resp: Option<&Value>) -> Class {
    match resp {
        None => Class::IoError,
        Some(v) => {
            if v.get("ok").and_then(Value::as_bool) == Some(true) {
                if v.get("degraded").and_then(Value::as_bool) == Some(true) {
                    Class::Degraded
                } else {
                    Class::Ok
                }
            } else if v.get("shed").and_then(Value::as_bool) == Some(true) {
                Class::Shed
            } else {
                Class::ErrorLine
            }
        }
    }
}

/// One classified response: milliseconds since the window opened,
/// request latency, company asked for, and what came back.
struct Sample {
    at_ms: f64,
    latency_ms: f64,
    company: u64,
    class: Class,
}

/// Drive `CLIENTS` persistent connections against `addr` for
/// `duration`, cycling the company universe, recording every response.
fn drive(addr: &str, requests: &Arc<Vec<String>>, duration: Duration) -> Vec<Sample> {
    let start = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let addr = addr.to_string();
            let requests = Arc::clone(requests);
            std::thread::spawn(move || {
                let (mut w, mut r) = connect(&addr);
                let mut samples = Vec::new();
                let mut i = client; // stagger companies across clients
                while start.elapsed() < duration {
                    let company = (i % requests.len()) as u64;
                    let t = Instant::now();
                    let resp = round_trip(&mut w, &mut r, &requests[i % requests.len()]);
                    let class = classify(resp.as_ref());
                    samples.push(Sample {
                        at_ms: start.elapsed().as_secs_f64() * 1e3,
                        latency_ms: t.elapsed().as_secs_f64() * 1e3,
                        company,
                        class,
                    });
                    if class == Class::IoError {
                        // A dead connection would otherwise spin: make
                        // the failure visible once and re-establish.
                        let c = connect(&addr);
                        (w, r) = c;
                    }
                    i += 1;
                }
                samples
            })
        })
        .collect();
    let mut all = Vec::new();
    for h in handles {
        all.extend(h.join().expect("load client"));
    }
    all
}

fn count(samples: &[Sample], class: Class) -> usize {
    samples.iter().filter(|s| s.class == class).count()
}

/// Query the router's stats endpoint over a persistent control
/// connection and return the breaker state of `upstream_addr`.
fn upstream_state(
    w: &mut TcpStream,
    r: &mut BufReader<TcpStream>,
    upstream_addr: &str,
) -> Option<String> {
    let resp = round_trip(w, r, r#"{"type":"stats"}"#)?;
    for u in resp.get("upstreams").and_then(Value::as_array)? {
        if u.get("addr").and_then(Value::as_str) == Some(upstream_addr) {
            return u.get("state").and_then(Value::as_str).map(str::to_string);
        }
    }
    None
}

fn stat(resp: &Value, name: &str) -> u64 {
    resp.get("stats")
        .and_then(|s| s.get(name))
        .and_then(Value::as_f64)
        .map(|v| v as u64)
        .unwrap_or(0)
}

fn main() {
    let serve_bin = bin_path("serve");
    let router_bin = bin_path("router");
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Deterministic chaos schedule: offsets into the load windows.
    let r0 = mix64(CHAOS_SEED);
    let stall_at_ms = 600 + r0 % 400;
    let stall_for_ms = STALL_WINDOW_MS - stall_at_ms;
    let kill_at_ms = 700 + mix64(r0) % 500;
    println!(
        "cluster bench: seed {CHAOS_SEED} → stall at {stall_at_ms} ms for {stall_for_ms} ms, \
         kill at {kill_at_ms} ms"
    );

    // One artifact shared by every shard, written once to disk.
    println!("  training demo model...");
    let bundle = train_demo(7);
    let tmp = std::env::temp_dir().join(format!("ams-cluster-bench-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("temp dir");
    let art_path = tmp.join("demo.amsart");
    bundle.artifact.write_file(&art_path).expect("write artifact");
    // A corrupted copy: flip one byte in the middle of the framed file.
    let corrupt_path = tmp.join("corrupt.amsart");
    let mut bytes = std::fs::read(&art_path).expect("read artifact back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&corrupt_path, bytes).expect("write corrupt artifact");

    // The company universe and canned requests (row i features for
    // company i, wrapped once so every client shares one allocation).
    let registry = Registry::new();
    let engine = registry.publish(bundle.artifact.clone()).expect("publish");
    let n_companies = engine.num_companies();
    let x = &bundle.test_x;
    let requests: Arc<Vec<String>> = Arc::new(
        (0..n_companies)
            .map(|c| {
                format!(
                    r#"{{"type":"predict","company":{c},"features":{}}}"#,
                    features_json(x.row(c % x.rows()))
                )
            })
            .collect(),
    );

    let spawn_shard = |procs: &mut Procs, name: &str, port: u16, artifact: &PathBuf| {
        let child = Command::new(&serve_bin)
            .args(["--addr", &format!("127.0.0.1:{port}")])
            .args(["--workers", &SHARD_WORKERS.to_string()])
            .args(["--artifact", &artifact.to_string_lossy()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn shard");
        procs.push(name, child);
    };

    let mut procs = Procs(Vec::new());

    // --- 1. single-process baseline -----------------------------------
    let base_port = free_port();
    spawn_shard(&mut procs, "baseline", base_port, &art_path);
    let base_addr = format!("127.0.0.1:{base_port}");
    wait_healthy(&base_addr, "baseline shard");
    let baseline = drive(&base_addr, &requests, Duration::from_millis(MEASURE_MS));
    let baseline_rps = count(&baseline, Class::Ok) as f64 / (MEASURE_MS as f64 / 1e3);
    procs.kill("baseline");
    println!("  baseline: {baseline_rps:.0} req/s ({} clients, 1 process)", CLIENTS);

    // --- cluster topology: group 0 = {A, B}, group 1 = {C} ------------
    let (pa, pb, pc) = (free_port(), free_port(), free_port());
    spawn_shard(&mut procs, "shard-a", pa, &art_path);
    spawn_shard(&mut procs, "shard-b", pb, &art_path);
    spawn_shard(&mut procs, "shard-c", pc, &art_path);
    for (name, p) in [("shard A", pa), ("shard B", pb), ("shard C", pc)] {
        wait_healthy(&format!("127.0.0.1:{p}"), name);
    }
    let router_port = free_port();
    let shards_spec = format!("127.0.0.1:{pa},127.0.0.1:{pb};127.0.0.1:{pc}");
    let child = Command::new(&router_bin)
        .args(["--addr", &format!("127.0.0.1:{router_port}")])
        .args(["--workers", &ROUTER_WORKERS.to_string()])
        .args(["--shards", &shards_spec])
        .args(["--artifact", &art_path.to_string_lossy()])
        .args(["--probe-ms", &PROBE_MS.to_string()])
        .args(["--hedge-ms", &HEDGE_MS.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn router");
    procs.push("router", child);
    let router_addr = format!("127.0.0.1:{router_port}");
    wait_healthy(&router_addr, "router");
    let (mut ctl_w, mut ctl_r) = connect(&router_addr);

    // --- 2. healthy cluster throughput --------------------------------
    let healthy = drive(&router_addr, &requests, Duration::from_millis(MEASURE_MS));
    let cluster_rps = count(&healthy, Class::Ok) as f64 / (MEASURE_MS as f64 / 1e3);
    let ratio = cluster_rps / baseline_rps;
    assert_eq!(count(&healthy, Class::Degraded), 0, "healthy cluster must not degrade");
    assert_eq!(count(&healthy, Class::IoError), 0, "healthy cluster dropped a connection");
    assert_eq!(count(&healthy, Class::ErrorLine), 0, "healthy cluster sent an error line");
    println!(
        "  cluster: {cluster_rps:.0} req/s through router ({:.2}x baseline on {cores} core(s))",
        ratio
    );

    // --- 3. stall a replica mid-load, then re-admit -------------------
    let stall_window = Duration::from_millis(STALL_WINDOW_MS);
    let pid_a = procs.pid("shard-a");
    let addr_clone = router_addr.clone();
    let req_clone = Arc::clone(&requests);
    let loader = std::thread::spawn(move || drive(&addr_clone, &req_clone, stall_window));
    std::thread::sleep(Duration::from_millis(stall_at_ms));
    signal(pid_a, "-STOP");
    // Keep the replica stopped until the load window closes, so the
    // re-admission below is driven purely by the health prober rather
    // than by request traffic winning the half-open race (both are
    // legal — the conc model proves the race safe — but only the
    // probe path is being timed here).
    let stalled = loader.join().expect("stall loader");
    signal(pid_a, "-CONT");
    let resumed_at = Instant::now();
    // Hedged failover to replica B: nothing degrades, nothing errors.
    assert_eq!(count(&stalled, Class::Degraded), 0, "replica failover must stay exact");
    assert_eq!(count(&stalled, Class::IoError), 0, "stall dropped a client connection");
    assert_eq!(count(&stalled, Class::ErrorLine), 0, "stall produced an error line");
    // The failover cost: worst latency among requests finishing inside
    // the stall (first hits eat the hedge timeout before failing over).
    let stall_lo = stall_at_ms as f64;
    let stall_hi = STALL_WINDOW_MS as f64;
    let failover_ms = stalled
        .iter()
        .filter(|s| s.at_ms >= stall_lo && s.at_ms <= stall_hi)
        .map(|s| s.latency_ms)
        .fold(0.0f64, f64::max);
    // Probe-driven re-admission: breaker on A back to closed.
    let a_addr = format!("127.0.0.1:{pa}");
    let readmission_ms = loop {
        match upstream_state(&mut ctl_w, &mut ctl_r, &a_addr) {
            Some(state) if state == "closed" => {
                break resumed_at.elapsed().as_secs_f64() * 1e3;
            }
            _ => {}
        }
        assert!(
            resumed_at.elapsed() < Duration::from_secs(15),
            "stalled replica was never re-admitted"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    println!(
        "  stall: worst in-stall latency {failover_ms:.0} ms (hedge {HEDGE_MS} ms), \
         re-admitted {readmission_ms:.0} ms after SIGCONT"
    );

    // --- 4. kill the solo shard mid-load ------------------------------
    let map = ShardMap::contiguous(2).expect("two groups");
    let kill_window = Duration::from_millis(KILL_WINDOW_MS);
    let addr_clone = router_addr.clone();
    let req_clone = Arc::clone(&requests);
    let loader = std::thread::spawn(move || drive(&addr_clone, &req_clone, kill_window));
    std::thread::sleep(Duration::from_millis(kill_at_ms));
    procs.kill("shard-c");
    let kill = loader.join().expect("kill loader");
    assert_eq!(count(&kill, Class::IoError), 0, "kill dropped a client connection");
    assert_eq!(count(&kill, Class::ErrorLine), 0, "kill produced a non-typed error");
    // Before the kill nothing degrades; after it, group-1 companies
    // degrade to typed fallbacks while group 0 stays healthy. A short
    // settling margin covers requests in flight at the kill instant.
    let settle = 250.0;
    for s in &kill {
        let group = map.shard_of(s.company);
        if s.at_ms < kill_at_ms as f64 {
            assert_eq!(s.class, Class::Ok, "pre-kill response not ok for company {}", s.company);
        } else if s.at_ms > kill_at_ms as f64 + settle {
            let expect = if group == 1 { Class::Degraded } else { Class::Ok };
            assert_eq!(
                s.class, expect,
                "company {} (group {group}) at {:.0} ms",
                s.company, s.at_ms
            );
        }
    }
    let post: Vec<&Sample> = kill.iter().filter(|s| s.at_ms > kill_at_ms as f64).collect();
    let post_degraded = post.iter().filter(|s| s.class == Class::Degraded).count();
    let post_ok = post.iter().filter(|s| s.class == Class::Ok).count();
    let degraded_fraction = post_degraded as f64 / post.len().max(1) as f64;
    let kill_to_degraded_ms = kill
        .iter()
        .filter(|s| s.class == Class::Degraded)
        .map(|s| s.at_ms - kill_at_ms as f64)
        .fold(f64::INFINITY, f64::min);
    assert!(post_degraded > 0, "the dead group never produced a typed fallback");
    println!(
        "  kill: first typed fallback {kill_to_degraded_ms:.0} ms after SIGKILL, \
         {post_ok} healthy + {post_degraded} degraded after it ({:.0}% degraded)",
        degraded_fraction * 100.0
    );

    // Router-side accounting for the whole run.
    let stats = round_trip(&mut ctl_w, &mut ctl_r, r#"{"type":"stats"}"#).expect("stats");
    let (hedges, failovers, readmissions) =
        (stat(&stats, "hedges"), stat(&stats, "failovers"), stat(&stats, "readmissions"));
    println!(
        "  router: {hedges} hedged reads, {failovers} failovers, {readmissions} re-admissions"
    );
    assert!(failovers > 0, "the stall must have forced failovers");
    assert!(readmissions > 0, "the probe loop must have re-admitted shard A");

    // --- 5. corrupt artifact is refused at startup --------------------
    let corrupt_port = free_port();
    let mut corrupt_child = Command::new(&serve_bin)
        .args(["--addr", &format!("127.0.0.1:{corrupt_port}")])
        .args(["--artifact", &corrupt_path.to_string_lossy()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn corrupt shard");
    let refused = loop {
        match corrupt_child.try_wait().expect("try_wait") {
            Some(status) => break !status.success(),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    assert!(refused, "a corrupt artifact must be refused at startup");
    println!("  corrupt artifact: refused at startup (checksum rejection)");

    let total: usize = [&baseline, &healthy, &stalled, &kill].iter().map(|s| s.len()).sum();
    let json = format!(
        "{{\n  \"seed\": {CHAOS_SEED},\n  \
         \"topology\": {{\"groups\": 2, \"replicas_group0\": 2, \"shard_processes\": 3, \
         \"router_workers\": {ROUTER_WORKERS}, \"shard_workers\": {SHARD_WORKERS}, \
         \"clients\": {CLIENTS}, \"companies\": {n_companies}}},\n  \
         \"throughput\": {{\"baseline_rps\": {baseline_rps:.0}, \"cluster_rps\": {cluster_rps:.0}, \
         \"ratio\": {ratio:.3}, \"cores\": {cores}, \
         \"note\": \"router + 3 shard processes on {cores} core(s); the 5x scaling target \
         assumes one core per process — on shared cores the ratio measures protocol overhead, \
         not scaling\"}},\n  \
         \"stall\": {{\"at_ms\": {stall_at_ms}, \"duration_ms\": {stall_for_ms}, \
         \"hedge_ms\": {HEDGE_MS}, \"worst_in_stall_latency_ms\": {failover_ms:.1}, \
         \"readmission_ms\": {readmission_ms:.1}, \"probe_interval_ms\": {PROBE_MS}, \
         \"degraded\": 0, \"error_lines\": 0, \"io_errors\": 0}},\n  \
         \"kill\": {{\"at_ms\": {kill_at_ms}, \"first_fallback_ms\": {kill_to_degraded_ms:.1}, \
         \"post_kill_ok\": {post_ok}, \"post_kill_degraded\": {post_degraded}, \
         \"degraded_fraction\": {degraded_fraction:.4}, \"error_lines\": 0, \"io_errors\": 0}},\n  \
         \"router\": {{\"hedges\": {hedges}, \"failovers\": {failovers}, \
         \"readmissions\": {readmissions}}},\n  \
         \"corrupt_artifact\": {{\"refused_at_startup\": true}},\n  \
         \"total_requests\": {total}\n}}\n"
    );
    write_bench("BENCH_scale.json", &json);
    let _ = std::fs::remove_dir_all(&tmp);
}
