//! The cluster router front door.
//!
//! ```text
//! router --shards "HOST:PORT[,HOST:PORT...][;GROUP2...]"
//!        [--addr 127.0.0.1:7979] [--workers 4]
//!        [--artifact PATH | --demo] [--seed 7]
//!        [--queue 64] [--max-batch 32]
//!        [--probe-ms 200] [--hedge-ms 150] [--deadline-ms 0]
//! ```
//!
//! `--shards` lists the shard groups: replicas within a group are
//! comma-separated, groups are semicolon-separated. Example — two
//! groups, the first with a replica:
//!
//! ```text
//! router --shards "127.0.0.1:7878,127.0.0.1:7879;127.0.0.1:7880" --demo
//! ```
//!
//! The router speaks the same JSONL protocol as a single `serve`
//! process, so `loadgen` (and any shard client) works against it
//! unmodified. `--artifact`/`--demo` give the router its own copy of
//! the served model for batch fan-in and local degraded fallbacks —
//! point it at the same artifact the shards serve.

use ams_cluster::{Router, RouterConfig};
use ams_serve::net::resolve;
use ams_serve::{demo, ModelArtifact};
use std::net::SocketAddr;

struct Args {
    addr: String,
    workers: usize,
    shards: String,
    artifact: Option<String>,
    demo: bool,
    seed: u64,
    queue: usize,
    max_batch: usize,
    probe_ms: u64,
    hedge_ms: u64,
    deadline_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7979".to_string(),
        workers: 4,
        shards: String::new(),
        artifact: None,
        demo: false,
        seed: 7,
        queue: 64,
        max_batch: 32,
        probe_ms: 200,
        hedge_ms: 150,
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
            "--shards" => args.shards = value("--shards")?,
            "--artifact" => args.artifact = Some(value("--artifact")?),
            "--demo" => args.demo = true,
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--queue" => {
                args.queue = value("--queue")?.parse().map_err(|e| format!("--queue: {e}"))?;
            }
            "--max-batch" => {
                args.max_batch =
                    value("--max-batch")?.parse().map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--probe-ms" => {
                args.probe_ms =
                    value("--probe-ms")?.parse().map_err(|e| format!("--probe-ms: {e}"))?;
            }
            "--hedge-ms" => {
                args.hedge_ms =
                    value("--hedge-ms")?.parse().map_err(|e| format!("--hedge-ms: {e}"))?;
            }
            "--deadline-ms" => {
                args.deadline_ms =
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?;
            }
            "--help" | "-h" => {
                println!(
                    "usage: router --shards \"HOST:PORT[,REPLICA...][;GROUP2...]\" \
                     [--addr HOST:PORT] [--workers N] [--artifact PATH | --demo] [--seed N] \
                     [--queue N] [--max-batch N] [--probe-ms MS] [--hedge-ms MS] \
                     [--deadline-ms MS]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.shards.is_empty() {
        return Err(
            "--shards is required (e.g. --shards \"127.0.0.1:7878;127.0.0.1:7879\")".to_string()
        );
    }
    // A typo'd `--max-batch` must cost a warning-sized envelope, not
    // the number's worth of pre-sized slots. `--workers` and `--queue`
    // are bounded by the connection core (`ams_serve::net`).
    args.max_batch = args.max_batch.clamp(1, MAX_MAX_BATCH);
    Ok(args)
}

/// Ceiling on `--max-batch`: rows fanned in per batched request.
const MAX_MAX_BATCH: usize = 1 << 12;

/// Parse `"a,b;c"` into groups of replica addresses.
fn parse_shards(spec: &str) -> Result<Vec<Vec<SocketAddr>>, String> {
    let mut groups = Vec::new();
    for group in spec.split(';') {
        let group = group.trim();
        if group.is_empty() {
            continue;
        }
        let mut replicas = Vec::new();
        for addr in group.split(',') {
            let addr = addr.trim();
            if addr.is_empty() {
                continue;
            }
            replicas.push(resolve(addr)?);
        }
        if replicas.is_empty() {
            return Err(format!("empty shard group in `{spec}`"));
        }
        groups.push(replicas);
    }
    if groups.is_empty() {
        return Err(format!("no shard groups in `{spec}`"));
    }
    Ok(groups)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("router: {e}");
            std::process::exit(2);
        }
    };
    let shards = match parse_shards(&args.shards) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("router: --shards: {e}");
            std::process::exit(2);
        }
    };
    let artifact = match (&args.artifact, args.demo) {
        (Some(path), _) => match ModelArtifact::load_file(std::path::Path::new(path)) {
            Ok(a) => Some(a),
            Err(e) => {
                eprintln!("router: {path}: {e}");
                std::process::exit(1);
            }
        },
        (None, true) => {
            println!("training demo model (seed {})...", args.seed);
            Some(demo::train_demo(args.seed).artifact)
        }
        (None, false) => {
            eprintln!("router: no --artifact/--demo: batch fan-in and degraded fallbacks disabled");
            None
        }
    };

    let groups = shards.len();
    let replicas: usize = shards.iter().map(Vec::len).sum();
    let router = match Router::start(RouterConfig {
        addr: args.addr.clone(),
        workers: args.workers,
        shards,
        artifact,
        queue_capacity: args.queue,
        max_batch: args.max_batch,
        probe_interval_ms: args.probe_ms,
        hedge_after_ms: args.hedge_ms,
        default_deadline_ms: args.deadline_ms,
        ..Default::default()
    }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("router: cannot start on {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    println!(
        "routing on {} with {} workers over {groups} shard groups ({replicas} replicas; \
         JSON lines; try {{\"type\":\"health\"}})",
        router.local_addr(),
        args.workers
    );
    // Route until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
