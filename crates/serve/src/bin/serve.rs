//! The AMS prediction server.
//!
//! ```text
//! serve [--addr 127.0.0.1:7878] [--workers 4]
//!       [--backend seq|par|par:N|simd|f32|f32:SPEC]
//!       [--artifact PATH]... [--demo] [--seed 7]
//!       [--queue 64] [--idle-timeout-ms 30000] [--deadline-ms 0]
//! ```
//!
//! `--backend f32` (or `f32:seq`, `f32:par:N`, `f32:simd`) serves
//! batch predictions from the quantized mixed-precision path — within
//! the documented epsilon of the f64 result, not bit-identical; see
//! DESIGN.md §14.
//!
//! With `--artifact`, loads and publishes each artifact — either a
//! plain JSON export or a checksummed `AMS-ART` file written by
//! `ModelArtifact::write_file` (corruption is detected and refused) —
//! repeat the flag to publish several models/versions. With `--demo`
//! (or no artifacts at all), trains a small model on a seeded synthetic
//! universe and publishes it as `ams-demo` v1. Speak JSON lines to the
//! printed address; see the README "Serving" section for the protocol.

use ams_serve::{demo, ModelArtifact, Registry, Server, ServerConfig};
use std::sync::Arc;

struct Args {
    addr: String,
    workers: usize,
    backend: Option<String>,
    artifacts: Vec<String>,
    demo: bool,
    seed: u64,
    queue: usize,
    idle_timeout_ms: u64,
    deadline_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_string(),
        workers: 4,
        backend: None,
        artifacts: Vec::new(),
        demo: false,
        seed: 7,
        queue: 64,
        idle_timeout_ms: 30_000,
        deadline_ms: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--workers" => {
                args.workers =
                    value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?;
            }
            "--backend" => args.backend = Some(value("--backend")?),
            // ams-lint: allow(no-unbounded-queue-in-serve) — bounded by argv length
            "--artifact" => args.artifacts.push(value("--artifact")?),
            "--demo" => args.demo = true,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--queue" => {
                args.queue = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?;
            }
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("--idle-timeout-ms: {e}"))?;
            }
            "--deadline-ms" => {
                args.deadline_ms =
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: serve [--addr HOST:PORT] [--workers N] \
                     [--backend seq|par|par:N|simd|f32|f32:SPEC] \
                     [--artifact PATH]... [--demo] [--seed N] [--queue N] \
                     [--idle-timeout-ms MS] [--deadline-ms MS]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    // `--workers` and `--queue` need no clamp here: the connection
    // core bounds both (`ams_serve::net::{MAX_WORKERS, MAX_QUEUE}`).
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };

    let registry = Arc::new(Registry::new());
    for path in &args.artifacts {
        let artifact = match ModelArtifact::load_file(std::path::Path::new(path)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("serve: {path}: {e}");
                std::process::exit(1);
            }
        };
        let (name, version) = (artifact.name.clone(), artifact.version);
        match registry.publish(artifact) {
            Ok(engine) => println!(
                "published {name} v{version} ({} companies, width {})",
                engine.num_companies(),
                engine.feature_width()
            ),
            Err(e) => {
                eprintln!("serve: publish {name} v{version}: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.demo || args.artifacts.is_empty() {
        println!("training demo model (seed {})...", args.seed);
        let bundle = demo::train_demo(args.seed);
        let engine = registry.publish(bundle.artifact).expect("demo artifact publishes");
        println!(
            "published {} v{} ({} companies, width {})",
            engine.artifact().name,
            engine.artifact().version,
            engine.num_companies(),
            engine.feature_width()
        );
    }

    let server = match Server::start(
        ServerConfig {
            addr: args.addr.clone(),
            workers: args.workers,
            backend: args.backend.clone(),
            queue_capacity: args.queue,
            idle_timeout_ms: args.idle_timeout_ms,
            default_deadline_ms: args.deadline_ms,
            faults: None,
        },
        registry,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!(
        "listening on {} with {} workers (JSON lines; try {{\"type\":\"health\"}})",
        server.local_addr(),
        args.workers
    );
    // Serve until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
