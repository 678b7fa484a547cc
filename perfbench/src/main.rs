//! The repository's benchmark: end-to-end and per-layer numbers for the
//! two things the AMS reproduction delivers, the per-fold fit and the
//! served predictions.
//!
//! ```text
//! perfbench --workload <train_fold|serve_single|serve_batch|cluster_single>
//!           --seed N --seconds S --trace 0|1
//! perfbench --suite [--seed N] [--seconds S]
//! ```
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- <args>`.
//!
//! Workloads (each a closed loop: one client thread, at most one
//! connection, next operation only after the previous one answered):
//!
//! * `train_fold` — read the seed's 71-company transaction panel from an
//!   `ams-store` file, build features, standardizer and correlation
//!   graph, fit AMS on the first paper fold at a fixed 300-epoch budget
//!   (no early stopping), predict the test quarter, export the artifact
//!   and load it into an `Engine`. A run times at least [`FOLD_OPS`]
//!   operations, however short `--seconds` is.
//! * `serve_single` — single-company `predict` lines over TCP to an
//!   in-process `Server` publishing an artifact trained on that panel.
//!   The artifact is the workload's input, trained once per run; set-up
//!   is loading it from JSON and starting the service.
//! * `serve_batch` — `batch_predict` of the whole 71×48 universe on one
//!   line against the same server.
//! * `cluster_single` — the `serve_single` stream through an in-process
//!   `Router` over two shard `Server`s.
//!
//! Serving is measured with the whole process on one CPU (see
//! `env::pin_to_one_cpu`), so client, server and router threads never
//! overlap.
//!
//! Every operation's output is checked (see `train::run_fold` and
//! `wire::check_response`); a mismatch counts as a failed operation.
//!
//! A shared host runs the benchmark fast for a while and up to about
//! 1.6× slower for the next (see `host`). A serving loop probes the
//! host's speed every tenth of a second and takes its median latency and
//! its throughput (operations over loop seconds) over the windows in
//! which the host ran near its fastest; set-up repetitions are kept the
//! same way. A `train_fold` operation takes seconds and spans several
//! host phases with no point inside it to probe at, so its median and
//! throughput are over every operation. The
//! 90th percentile is printed on the `samples` line beside the result,
//! not as a metric (see [`end_to_end`]).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics, measured by spans
//! the benchmark puts around each public layer call it makes. Earlier
//! lines carry the run's environment record and, for a traced run, its
//! own end-to-end numbers, so tracing overhead is traced minus untraced.
//! `--suite` runs every workload, traced and untraced, at two seeds in
//! fresh processes and prints the results side by side.

mod env;
mod host;
mod suite;
mod trace;
mod train;
mod wire;

use ams_serve::ModelArtifact;
use ams_stats::quantile;
use host::Probe;
use serde::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use wire::{Deployment, Kind, LoopOut, Stream, Tally, Tracing};

const WORKLOADS: [&str; 4] = ["train_fold", "serve_single", "serve_batch", "cluster_single"];

/// Set-up repetitions per run; `setup_s` is the median of those run on
/// a fast host.
const SETUP_REPS: usize = 21;

/// Pause before each set-up repetition. A set-up takes milliseconds, so
/// back to back the repetitions would all fall in one host phase; spread
/// over two seconds they meet several.
const SETUP_GAP: Duration = Duration::from_millis(100);

/// Fewest `train_fold` operations a run times. One takes seconds, so a
/// run of `--seconds` alone would time a handful, too few for a median
/// and a 90th percentile.
const FOLD_OPS: usize = 10;

/// Fit budget of the artifact the serving workloads publish.
const SERVE_EPOCHS: usize = 60;

/// Untimed warm-up of a serving loop before measuring.
const WARMUP_SECONDS: f64 = 1.0;

/// Length of the router probe a traced run adds for workloads that do
/// not go through the router themselves.
const ROUTER_PROBE_SECONDS: f64 = 1.0;

const USAGE: &str = "usage: perfbench --workload <train_fold|serve_single|serve_batch|cluster_single> \
                     --seed N --seconds S --trace 0|1\n       perfbench --suite [--seed N] [--seconds S]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    suite: bool,
}

impl Args {
    fn parse() -> Result<Self, String> {
        let mut args =
            Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, suite: false };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--suite" {
                args.suite = true;
                continue;
            }
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value != "0",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !args.suite && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("unknown workload `{}`", args.workload));
        }
        if args.seconds <= 0.0 {
            return Err("--seconds must be positive".to_string());
        }
        Ok(args)
    }
}

/// One metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// What a run reports.
struct Report {
    tally: Tally,
    /// Sample counts and the 90th-percentile latency, printed beside the
    /// result.
    samples: Vec<(&'static str, f64)>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// A scratch directory inside the checkout, removed when dropped.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> Result<Self, String> {
        let dir = Path::new(".bench_build").join(format!("perfbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    quantile(xs, 0.5)
}

fn p90(lat_us: &[f64]) -> f64 {
    if lat_us.is_empty() {
        return f64::NAN;
    }
    quantile(lat_us, 0.9)
}

/// Time `reps` set-ups, [`SETUP_GAP`] apart and each right after a host
/// probe, tearing down each but the last. Returns the durations of the
/// set-ups run on a fast host (see `host`), seconds, and the last
/// set-up's result.
fn time_setups<T>(
    reps: usize,
    mut set_up: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<(Vec<f64>, T), String> {
    let mut probe = Probe::new();
    let (mut probes, mut secs, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..reps {
        if let Some(prev) = last.take() {
            tear_down(prev);
        }
        std::thread::sleep(SETUP_GAP);
        probes.push(probe.time_us());
        let t0 = Instant::now();
        last = Some(set_up()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    let fast = host::fast(&probes);
    let kept = secs.iter().zip(fast).filter(|&(_, f)| f).map(|(&s, _)| s).collect();
    Ok((kept, last.ok_or("no set-up ran")?))
}

/// The end-to-end metrics of a measured loop that timed `lat_us` in
/// `loop_secs` of wall time.
///
/// There is no tail-latency metric. On a shared host a varying share of
/// operations (5–50% of single requests from one run to the next) runs
/// about 1.6× slower than the rest, and the 90th percentile sits between
/// the two: over runs of the same code its spread (interquartile range
/// over median) reached 0.32, wider than the widest bound a metric may
/// have (0.25). It is printed beside the result instead.
fn end_to_end(
    setup: &[f64],
    peak_rss_mb: f64,
    lat_us: &[f64],
    loop_secs: f64,
    tally: &Tally,
) -> Vec<Metric> {
    let ok = tally.attempted.saturating_sub(tally.failed) as f64 / tally.attempted.max(1) as f64;
    vec![
        ("setup_s", median(setup), "s"),
        ("throughput_rps", lat_us.len() as f64 / loop_secs, "1/s"),
        ("latency_p50_us", median(lat_us), "us"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("success_ratio", ok, "ratio"),
    ]
}

/// Per-layer metrics of the fold pipeline, from the `fold` spans.
fn fold_layers(tr: &Tracer, epochs: usize, growth: f64, bytes_read: u64) -> Vec<Metric> {
    let ms = |name| median(&tr.micros_of(name)) / 1e3;
    vec![
        ("store.read_panel_ms", ms("store.read_panel"), "ms"),
        ("data.features_ms", ms("data.features"), "ms"),
        ("graph.build_ms", ms("graph.build"), "ms"),
        ("core.fit_ms_per_epoch", ms("core.fit") / epochs as f64, "ms"),
        ("core.epoch_cost_growth", growth, "ratio"),
        ("core.predict_ms", ms("core.predict"), "ms"),
        ("serve.export_ms", ms("serve.export"), "ms"),
        ("trace.fold_coverage", tr.child_coverage("fold"), "ratio"),
        ("store.bytes_read", bytes_read as f64, "bytes"),
    ]
}

/// Per-layer metrics of the serving path. `main` is the loop whose
/// requests the serve-layer spans replayed; `routed` is the loop that
/// went through the router with direct-to-shard comparisons.
fn serving_layers(
    tr: &Tracer,
    main: &LoopOut,
    routed: &LoopOut,
    stream: &Stream,
    response_bytes: f64,
) -> Vec<Metric> {
    let us = |name| median(&tr.micros_of(name));
    let p50 = median(&main.lat_us);
    vec![
        ("serve.parse_us", us("serve.parse"), "us"),
        ("serve.engine_us", us("serve.engine"), "us"),
        ("serve.serialize_us", us("serve.serialize"), "us"),
        ("server.handle_mean_us", main.handle_mean_us, "us"),
        ("serve.wire_us", p50 - main.handle_mean_us, "us"),
        ("router.added_us", median(&routed.lat_us) - median(&routed.direct_us), "us"),
        ("router.round_trips_per_req", routed.round_trips_per_req, "ratio"),
        ("router.retries", routed.retries as f64, "count"),
        ("runtime.allocs_per_req", main.allocs_per_req, "count"),
        ("serve.request_bytes", stream.request_bytes(), "bytes"),
        ("serve.response_bytes", response_bytes, "bytes"),
    ]
}

/// Serve `stream` through a fresh router over two shards for a short
/// traced loop, each line also sent straight to its shard; checks every
/// answer like the workload does.
fn router_probe(
    engine: &ams_serve::Engine,
    stream: &Stream,
    replay: bool,
    tr: &mut Tracer,
) -> Result<(LoopOut, f64), String> {
    let dep = Deployment::start(engine.artifact(), true)?;
    let result = wire::preflight(&dep, stream).and_then(|bytes| {
        let tracing = Tracing { tr, engine, replay, direct: true };
        Ok((wire::drive(&dep, stream, ROUTER_PROBE_SECONDS, 0, Some(tracing))?, bytes))
    });
    dep.shutdown();
    result
}

fn train_fold(args: &Args, dir: &Path) -> Result<Report, String> {
    let (setup, store) = time_setups(SETUP_REPS, || train::write_store(args.seed, dir), drop)?;
    let mut tally = Tally::default();
    // Warm-up: one full operation, so the measured ones run on a heap
    // the allocator has already grown.
    let fold = |tr: &mut Tracer| {
        train::run_fold(&store, args.seed, train::FOLD_EPOCHS, Some(train::BA_FLOOR), tr)
    };
    tally.add(&fold(&mut Tracer::new(false)));

    let mut tr = Tracer::new(args.trace);
    let mut lat_us = Vec::new();
    let mut last = None;
    let began = Instant::now();
    for op in 0.. {
        if op >= FOLD_OPS && began.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let t0 = Instant::now();
        let run = fold(&mut tr);
        let lat = t0.elapsed().as_secs_f64() * 1e6;
        tally.add(&run);
        if let Ok(run) = run {
            lat_us.push(lat);
            last = Some(run);
        }
    }
    let loop_secs = began.elapsed().as_secs_f64();
    let end_to_end = end_to_end(&setup, env::peak_rss_mb(), &lat_us, loop_secs, &tally);
    let mut per_layer = Vec::new();
    if args.trace {
        let run = last.ok_or("no operation succeeded")?;
        let full = median(&tr.micros_of("core.fit")) / 1e6;
        let growth = train::epoch_cost_growth(&run.inputs, args.seed, train::FOLD_EPOCHS, full);
        per_layer = fold_layers(&tr, train::FOLD_EPOCHS, growth, run.bytes_read);
        // Serve the fold's own artifact briefly, so the serving and
        // router layers are measured on this workload's model too.
        let stream = Stream::new(Kind::Single, &run.engine, args.seed)?;
        let (probe, bytes) = router_probe(&run.engine, &stream, true, &mut tr)?;
        per_layer.extend(serving_layers(&tr, &probe, &probe, &stream, bytes));
        tally.merge(probe.tally);
    }
    let samples = vec![
        ("ops", lat_us.len() as f64),
        ("setups", setup.len() as f64),
        ("p90_us", p90(&lat_us)),
    ];
    Ok(Report { tally, samples, end_to_end, per_layer })
}

fn serving(args: &Args, dir: &Path, kind: Kind, routed: bool) -> Result<Report, String> {
    // The input: an artifact trained on the seed's panel by the fold
    // pipeline (traced, so the run also reports the fold layers).
    let mut tr = Tracer::new(args.trace);
    let store = train::write_store(args.seed, dir)?;
    let run = train::run_fold(&store, args.seed, SERVE_EPOCHS, None, &mut tr)?;
    let json = run.engine.artifact().to_json();
    let start = || Deployment::start(&ModelArtifact::from_json(&json)?, routed);
    let (setup, dep) = time_setups(SETUP_REPS, start, Deployment::shutdown)?;
    let stream = Stream::new(kind, &run.engine, args.seed)?;
    let result = measure(args, &dep, &stream, &run, routed, &mut tr, &setup);
    dep.shutdown();
    result
}

fn measure(
    args: &Args,
    dep: &Deployment,
    stream: &Stream,
    run: &train::FoldRun,
    routed: bool,
    tr: &mut Tracer,
    setup: &[f64],
) -> Result<Report, String> {
    let response_bytes = wire::preflight(dep, stream)?;
    let mut warm = wire::drive(dep, stream, WARMUP_SECONDS, 0, None)?;
    // The service is up and warm. Its peak memory is read here: during
    // the measured loop the client's own latency samples, as many as the
    // run gets through, would count too.
    let peak_rss_mb = env::peak_rss_mb();
    let tracing = if args.trace {
        Some(Tracing { tr: &mut *tr, engine: &run.engine, replay: true, direct: routed })
    } else {
        None
    };
    let mut main = wire::drive(dep, stream, args.seconds, warm.lat_us.len(), tracing)?;
    let mut tally = std::mem::take(&mut warm.tally);
    tally.merge(std::mem::take(&mut main.tally));
    let end_to_end = end_to_end(setup, peak_rss_mb, &main.fast_lat_us, main.fast_secs, &tally);
    let mut per_layer = Vec::new();
    if args.trace {
        let full = median(&tr.micros_of("core.fit")) / 1e6;
        let growth = train::epoch_cost_growth(&run.inputs, args.seed, SERVE_EPOCHS, full);
        per_layer = fold_layers(tr, SERVE_EPOCHS, growth, run.bytes_read);
        let probe = if routed {
            None
        } else {
            let (mut probe, _) = router_probe(&run.engine, stream, false, &mut Tracer::new(true))?;
            tally.merge(std::mem::take(&mut probe.tally));
            Some(probe)
        };
        let routed_loop = probe.as_ref().unwrap_or(&main);
        per_layer.extend(serving_layers(tr, &main, routed_loop, stream, response_bytes));
    }
    let samples = vec![
        ("ops", main.lat_us.len() as f64),
        ("fast_ops", main.fast_lat_us.len() as f64),
        ("windows", main.windows as f64),
        ("fast_windows", main.fast_windows as f64),
        ("setups", setup.len() as f64),
        ("p90_us", p90(&main.fast_lat_us)),
    ];
    Ok(Report { tally, samples, end_to_end, per_layer })
}

fn metrics_value(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                let m = Value::Object(vec![
                    ("value".to_string(), Value::Number(value)),
                    ("unit".to_string(), Value::String(unit.to_string())),
                ]);
                (name.to_string(), m)
            })
            .collect(),
    )
}

fn line(fields: Vec<(&str, Value)>) -> String {
    let obj = Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect());
    serde_json::to_string(&obj).expect("a metrics object serializes")
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.suite {
        std::process::exit(suite::run(args.seed, args.seconds));
    }
    let placement = env::pin_to_one_cpu();
    let ticks = env::cpu_ticks();
    let report = ScratchDir::new().and_then(|dir| match args.workload.as_str() {
        "train_fold" => train_fold(&args, &dir.0),
        "serve_single" => serving(&args, &dir.0, Kind::Single, false),
        "serve_batch" => serving(&args, &dir.0, Kind::Batch, false),
        _ => serving(&args, &dir.0, Kind::Single, true),
    });
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Some(e) = &report.tally.first_error {
        eprintln!("perfbench: {}: first failure: {e}", args.workload);
    }
    println!("{}", line(vec![("env", env::record(&placement, ticks, env::cpu_ticks()))]));
    let samples = report.samples.iter().map(|&(k, v)| (k.to_string(), Value::Number(v)));
    println!("{}", line(vec![("samples", Value::Object(samples.collect()))]));
    let metrics = if args.trace {
        println!("{}", line(vec![("traced_end_to_end", metrics_value(&report.end_to_end))]));
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{}",
        line(vec![
            ("correct", Value::Bool(report.tally.failed == 0)),
            ("attempted", Value::Number(report.tally.attempted as f64)),
            ("failed", Value::Number(report.tally.failed as f64)),
            ("metrics", metrics_value(metrics)),
        ])
    );
}
