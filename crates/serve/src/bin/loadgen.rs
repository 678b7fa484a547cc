//! Concurrent load generator for the `serve` binary.
//!
//! ```text
//! loadgen [--addr 127.0.0.1:7878] [--connections 8] [--duration 5] [--mode predict|slave_weights]
//! ```
//!
//! Opens N persistent connections, sends single-company requests as
//! fast as the server answers them, and reports total throughput plus
//! mean/p50/p99 latency measured client-side.
//!
//! Refused or interrupted connections (including server-side sheds
//! under overload) are retried with bounded, jittered exponential
//! backoff; the summary reports how many retries the run needed. A
//! worker that panics loses its samples but never takes down the run —
//! join errors are collected and reported, not propagated.

use ams_serve::net::{backoff, JsonlConn, Timeouts};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reconnect attempts before a worker gives up.
const MAX_RETRIES: u32 = 5;

/// Socket budgets: a quick connect, generous read (responses queue
/// behind other clients under load), bounded write.
fn timeouts() -> Timeouts {
    Timeouts {
        connect: Duration::from_millis(500),
        read: Duration::from_secs(10),
        write: Duration::from_secs(10),
    }
}

struct Args {
    addr: String,
    connections: usize,
    duration_secs: u64,
    mode: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        connections: 8,
        duration_secs: 5,
        mode: "predict".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--connections" => {
                args.connections =
                    value("--connections")?.parse().map_err(|e| format!("--connections: {e}"))?;
            }
            "--duration" => {
                args.duration_secs =
                    value("--duration")?.parse().map_err(|e| format!("--duration: {e}"))?;
            }
            "--mode" => args.mode = value("--mode")?,
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--addr HOST:PORT] [--connections N] \
                     [--duration SECONDS] [--mode predict|slave_weights]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.mode != "predict" && args.mode != "slave_weights" {
        return Err(format!("--mode must be predict or slave_weights, got `{}`", args.mode));
    }
    // One thread per connection: clamp the command-line count so a
    // typo'd `--connections` cannot ask for a million threads.
    args.connections = args.connections.clamp(1, MAX_CONNECTIONS);
    Ok(args)
}

/// Ceiling on `--connections`.
const MAX_CONNECTIONS: usize = 4096;

/// One round trip: write a request line, read the response line.
fn round_trip(
    conn: &mut JsonlConn,
    request: &str,
    line: &mut String,
) -> Result<serde::Value, String> {
    conn.round_trip_into(request, line)?;
    serde_json::from_str(line.trim()).map_err(|e| format!("bad response: {e}"))
}

/// [`JsonlConn::connect_str`] with bounded, jittered retry — a refused
/// connection (full backlog, shed burst) earns up to [`MAX_RETRIES`]
/// more tries.
fn connect_with_retry(addr: &str, salt: u64, retries: &AtomicU64) -> Result<JsonlConn, String> {
    let mut attempt = 0u32;
    loop {
        match JsonlConn::connect_str(addr, &timeouts()) {
            Ok(c) => return Ok(c),
            Err(e) if attempt < MAX_RETRIES => {
                retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff(attempt, salt));
                attempt += 1;
                let _ = e;
            }
            Err(e) => return Err(format!("{e} (after {MAX_RETRIES} retries)")),
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };

    // Discover the published model's shape from a health probe.
    let mut probe = match JsonlConn::connect_str(&args.addr, &timeouts()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(1);
        }
    };
    let mut line = String::new();
    let health = round_trip(&mut probe, r#"{"type":"health"}"#, &mut line).unwrap_or_else(|e| {
        eprintln!("loadgen: health probe failed: {e}");
        std::process::exit(1);
    });
    // Close the probe before the clients connect: held open, it would
    // pin one server worker for the whole run.
    drop(probe);
    let models = health.get("models").and_then(serde::Value::as_array).unwrap_or(&[]);
    let first = models.first().unwrap_or_else(|| {
        eprintln!("loadgen: server has no published models");
        std::process::exit(1);
    });
    let model = first.get("name").and_then(serde::Value::as_str).unwrap_or("ams-demo").to_string();
    let companies =
        first.get("companies").and_then(serde::Value::as_f64).unwrap_or(1.0).max(1.0) as usize;
    let width =
        first.get("feature_width").and_then(serde::Value::as_f64).unwrap_or(1.0).max(1.0) as usize;
    println!(
        "target {} · model {model} · {companies} companies · feature width {width} · \
         {} connections · {}s · mode {}",
        args.addr, args.connections, args.duration_secs, args.mode
    );

    // A fixed synthetic feature row; the server does the same work
    // regardless of the values.
    let features: Vec<String> =
        (0..width).map(|j| format!("{:.3}", 0.1 + 0.01 * j as f64)).collect();
    let features = features.join(",");

    let deadline = Instant::now() + Duration::from_secs(args.duration_secs);
    let failed = Arc::new(AtomicBool::new(false));
    let retries = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..args.connections.max(1))
        .map(|conn_id| {
            let addr = args.addr.clone();
            let model = model.clone();
            let mode = args.mode.clone();
            let features = features.clone();
            let failed = Arc::clone(&failed);
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || -> Vec<u64> {
                let salt = conn_id as u64;
                let mut conn = match connect_with_retry(&addr, salt, &retries) {
                    Ok(c) => c,
                    Err(e) => {
                        eprintln!("loadgen[{conn_id}]: {e}");
                        failed.store(true, Ordering::Relaxed);
                        return Vec::new();
                    }
                };
                let mut latencies = Vec::with_capacity(1 << 16);
                let mut line = String::new();
                let mut company = conn_id;
                while Instant::now() < deadline {
                    let request = match mode.as_str() {
                        "predict" => format!(
                            r#"{{"type":"predict","model":"{model}","company":{company},"features":[{features}]}}"#
                        ),
                        _ => format!(
                            r#"{{"type":"slave_weights","model":"{model}","company":{company}}}"#
                        ),
                    };
                    let started = Instant::now();
                    match round_trip(&mut conn, &request, &mut line) {
                        Ok(resp) => {
                            let ok = resp.get("ok").and_then(serde::Value::as_bool) == Some(true);
                            let shed =
                                resp.get("shed").and_then(serde::Value::as_bool) == Some(true);
                            if shed {
                                // Overload shed closes the connection;
                                // reconnect with backoff and continue.
                                retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(backoff(0, salt));
                                match connect_with_retry(&addr, salt, &retries) {
                                    Ok(c) => conn = c,
                                    Err(e) => {
                                        eprintln!("loadgen[{conn_id}]: {e}");
                                        failed.store(true, Ordering::Relaxed);
                                        return latencies;
                                    }
                                }
                                continue;
                            }
                            if !ok {
                                eprintln!("loadgen[{conn_id}]: error response: {}", line.trim());
                                failed.store(true, Ordering::Relaxed);
                                return latencies;
                            }
                        }
                        Err(_) => {
                            // The connection died mid-request (server
                            // restart, truncation, reset): reconnect
                            // with backoff rather than aborting the run.
                            match connect_with_retry(&addr, salt, &retries) {
                                Ok(c) => conn = c,
                                Err(e) => {
                                    eprintln!("loadgen[{conn_id}]: {e}");
                                    failed.store(true, Ordering::Relaxed);
                                    return latencies;
                                }
                            }
                            continue;
                        }
                    }
                    // ams-lint: allow(no-unbounded-queue-in-serve) — bounded by run duration
                    latencies.push(started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
                    company = (company + 1) % companies;
                }
                latencies
            })
        })
        .collect();

    // Collect join errors instead of propagating a worker's panic: the
    // run reports what it measured, plus how many workers died.
    let mut all: Vec<u64> = Vec::new();
    let mut panicked = 0usize;
    for (i, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(latencies) => all.extend(latencies),
            Err(_) => {
                panicked += 1;
                eprintln!("loadgen: worker {i} panicked; its samples are lost");
            }
        }
    }

    if all.is_empty() {
        eprintln!("loadgen: no successful requests");
        std::process::exit(1);
    }
    all.sort_unstable();
    let total = all.len();
    let throughput = total as f64 / args.duration_secs.max(1) as f64;
    let mean = all.iter().sum::<u64>() as f64 / total as f64;
    let quantile = |q: f64| all[((total as f64 * q) as usize).min(total - 1)];
    println!(
        "{total} requests in {}s → {:.0} req/s · latency mean {:.1} µs · p50 {:.1} µs · \
         p99 {:.1} µs · {} retries · {panicked} workers panicked",
        args.duration_secs,
        throughput,
        mean / 1_000.0,
        quantile(0.50) as f64 / 1_000.0,
        quantile(0.99) as f64 / 1_000.0,
        retries.load(Ordering::Relaxed),
    );
    if failed.load(Ordering::Relaxed) || panicked > 0 {
        std::process::exit(1);
    }
}
