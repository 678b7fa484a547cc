//! Runtime benchmark: kernel throughput, training epoch time and
//! serving latency on both execution backends.
//!
//! Writes `results/BENCH_runtime.json` (override the directory with
//! `AMS_RESULTS_DIR`) and prints a human-readable summary. Build with
//! `--release`; debug numbers are not meaningful.
//!
//! The parallel numbers are only as good as the machine: on a
//! single-hardware-thread host `par` degenerates to the sequential
//! kernels plus dispatch overhead, which is exactly what the JSON will
//! report. The `cpus` field records what the run actually had.

use ams_bench::exp::write_bench;
use ams_core::{AmsConfig, AmsModel, QuarterBatch};
use ams_graph::CompanyGraph;
use ams_serve::demo::train_demo;
use ams_serve::Engine;
use ams_stats::quantile;
use ams_tensor::init::standard_normal;
use ams_tensor::runtime::{seq, Backend, Par, SimdSeq, Workspace};
use ams_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const MATMUL_SIZES: [usize; 4] = [64, 128, 256, 512];
const FIT_EPOCHS: usize = 20;
const SERVE_ITERS: usize = 200;

fn filled(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = standard_normal(rng);
    }
    m
}

/// Best-of-several GFLOP/s for an n×n·n×n matmul on one backend.
fn matmul_gflops(backend: &dyn Backend, n: usize, rng: &mut StdRng) -> f64 {
    let a = filled(n, n, rng);
    let b = filled(n, n, rng);
    let mut out = Matrix::zeros(n, n);
    let flops = 2.0 * (n * n * n) as f64;
    let mut best = f64::INFINITY;
    let reps = (5e7 / flops).clamp(3.0, 200.0) as usize;
    for _ in 0..reps {
        out.as_mut_slice().fill(0.0);
        let t = Instant::now();
        backend.matmul(a.as_slice(), b.as_slice(), out.as_mut_slice(), n, n, n);
        best = best.min(t.elapsed().as_secs_f64());
    }
    flops / best / 1e9
}

/// Small full-batch training problem in the demo's size class.
fn fit_task() -> (CompanyGraph, Vec<QuarterBatch>) {
    let n = 24;
    let d = 12;
    let mut rng = StdRng::seed_from_u64(5);
    let graph = CompanyGraph::complete(n);
    let train = (0..4)
        .map(|_| QuarterBatch { x: filled(n, d, &mut rng), y: filled(n, 1, &mut rng) })
        .collect();
    (graph, train)
}

fn fit_sec_per_epoch(backend_spec: Option<&str>) -> f64 {
    let (graph, train) = fit_task();
    let mut model = AmsModel::new(AmsConfig {
        epochs: FIT_EPOCHS,
        seed: 5,
        backend: backend_spec.map(str::to_string),
        ..Default::default()
    });
    let t = Instant::now();
    model.fit(&graph, &train);
    t.elapsed().as_secs_f64() / FIT_EPOCHS as f64
}

/// Warm batch-prediction latency distribution (µs) on one backend.
fn serve_latencies(engine: &Engine, x: &Matrix, backend: &dyn Backend) -> (f64, f64) {
    let mut ws = Workspace::new();
    let mut lat = Vec::with_capacity(SERVE_ITERS);
    for i in 0..SERVE_ITERS + 10 {
        let t = Instant::now();
        let pred = engine.predict_batch_with(x, backend, &mut ws).expect("predict");
        let dt = t.elapsed().as_secs_f64() * 1e6;
        ws.give(pred.into_vec());
        if i >= 10 {
            lat.push(dt);
        }
    }
    (quantile(&lat, 0.5), quantile(&lat, 0.99))
}

/// Warm quantized-path latency (µs): the f32 plan on the vectorized
/// backend, with both precision arenas persistent as in a worker.
fn serve_latencies_f32(engine: &Engine, x: &Matrix) -> (f64, f64) {
    let backend = SimdSeq;
    let mut ws32: Workspace<f32> = Workspace::new();
    let mut ws = Workspace::new();
    let mut lat = Vec::with_capacity(SERVE_ITERS);
    for i in 0..SERVE_ITERS + 10 {
        let t = Instant::now();
        let pred = engine
            .predict_batch_f32_deadline(x, &backend, &mut ws32, &mut ws, None)
            .expect("predict f32");
        let dt = t.elapsed().as_secs_f64() * 1e6;
        ws.give(pred.into_vec());
        if i >= 10 {
            lat.push(dt);
        }
    }
    (quantile(&lat, 0.5), quantile(&lat, 0.99))
}

fn main() {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let par: Arc<dyn Backend> = Arc::new(Par::new(cpus.max(2)));
    let seq = seq();
    println!("runtime bench: {cpus} hardware thread(s), par backend = {}", par.name());

    let simd = SimdSeq;
    println!("  simd backend: accelerated = {}", ams_tensor::runtime::simd::accelerated());

    let mut rng = StdRng::seed_from_u64(9);
    let mut matmul_rows = Vec::new();
    for n in MATMUL_SIZES {
        let gs = matmul_gflops(seq.as_ref(), n, &mut rng);
        let gp = matmul_gflops(par.as_ref(), n, &mut rng);
        let gv = matmul_gflops(&simd, n, &mut rng);
        println!(
            "  matmul {n:>3}: seq {gs:>6.2} GFLOP/s   par {gp:>6.2} GFLOP/s   \
             simd {gv:>6.2} GFLOP/s   x{:.2}",
            gv / gs
        );
        matmul_rows.push(format!(
            "    {{\"n\": {n}, \"seq_gflops\": {gs:.3}, \"par_gflops\": {gp:.3}, \
             \"simd_gflops\": {gv:.3}, \"speedup\": {:.3}, \"simd_speedup\": {:.3}}}",
            gp / gs,
            gv / gs
        ));
    }

    let fit_seq = fit_sec_per_epoch(None);
    let fit_par = fit_sec_per_epoch(Some("par"));
    println!("  fit: seq {:.1} ms/epoch   par {:.1} ms/epoch", fit_seq * 1e3, fit_par * 1e3);

    let bundle = train_demo(7);
    let engine = Engine::new(bundle.artifact).expect("demo engine");
    let (s50, s99) = serve_latencies(&engine, &bundle.test_x, seq.as_ref());
    let (p50, p99) = serve_latencies(&engine, &bundle.test_x, par.as_ref());
    let (f50, f99) = serve_latencies_f32(&engine, &bundle.test_x);
    println!("  serve ({} rows): seq p50 {s50:.0}us p99 {s99:.0}us", bundle.test_x.rows());
    println!("  serve ({} rows): par p50 {p50:.0}us p99 {p99:.0}us", bundle.test_x.rows());
    println!("  serve ({} rows): f32 p50 {f50:.0}us p99 {f99:.0}us", bundle.test_x.rows());

    let json = format!(
        "{{\n  \"cpus\": {cpus},\n  \"par_backend\": \"{}\",\n  \"simd_accelerated\": {},\n  \
         \"matmul\": [\n{}\n  ],\n  \
         \"fit\": {{\"epochs\": {FIT_EPOCHS}, \"seq_sec_per_epoch\": {fit_seq:.6}, \
         \"par_sec_per_epoch\": {fit_par:.6}}},\n  \"serve\": {{\"batch_rows\": {}, \
         \"iters\": {SERVE_ITERS}, \"seq_p50_us\": {s50:.1}, \"seq_p99_us\": {s99:.1}, \
         \"par_p50_us\": {p50:.1}, \"par_p99_us\": {p99:.1}, \
         \"f32_p50_us\": {f50:.1}, \"f32_p99_us\": {f99:.1}}},\n  \"note\": \"seq and par are \
         bit-identical; simd f64 and the quantized f32 serve row are within the documented \
         epsilon-oracle bounds (DESIGN 14); par speedup is bounded by the hardware threads \
         recorded in cpus\"\n}}\n",
        par.name(),
        ams_tensor::runtime::simd::accelerated(),
        matmul_rows.join(",\n"),
        bundle.test_x.rows(),
    );
    write_bench("BENCH_runtime.json", &json);
}
