//! Micro-benchmarks for the numerical substrate: dense kernels, the
//! direct solvers behind the anchored LR, and a full GAT-layer
//! forward+backward at the workloads' actual sizes (n = 71 companies).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use ams_graph::{CompanyGraph, GraphConfig};
use ams_tensor::init::xavier_uniform;
use ams_tensor::{ridge_solve, Graph, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[16usize, 64, 128] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = xavier_uniform(n, n, &mut rng);
        let b = xavier_uniform(n, n, &mut rng);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)));
        });
    }
    group.finish();
}

fn bench_ridge_solve(c: &mut Criterion) {
    // The anchored LR of Eq. 5 at the transaction panel's size:
    // ~710 samples × 48 features.
    let mut rng = StdRng::seed_from_u64(2);
    let x = xavier_uniform(710, 48, &mut rng);
    let y = xavier_uniform(710, 1, &mut rng);
    c.bench_function("anchored_lr_ridge_solve_710x48", |b| {
        b.iter(|| black_box(ridge_solve(&x, &y, 1.0).unwrap()));
    });
}

fn bench_gat_layer(c: &mut Criterion) {
    use ams_core::{GatLayer, GatSpec, Tape};
    let mut rng = StdRng::seed_from_u64(3);
    let n = 71;
    let layer = GatLayer::hidden(48, 8, 4, &mut rng);
    let x0 = xavier_uniform(n, 48, &mut rng);
    // A plausible correlation-graph mask.
    let series: Vec<Vec<f64>> =
        (0..n).map(|i| (0..12).map(|t| ((i * 7 + t * 13) % 29) as f64).collect()).collect();
    let graph = CompanyGraph::from_series(&series, GraphConfig::default());
    let mask = Matrix::from_vec(n, n, graph.dense_mask());
    let spec = GatSpec { heads: layer.heads.len(), leaky_slope: layer.leaky_slope };

    c.bench_function("gat_layer_forward_71x48_4heads", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let pv: Vec<_> = layer.params().iter().map(|p| g.input((*p).clone())).collect();
            let Ok(y) = GatLayer::forward(&mut Tape::new(&mut g, &mask, &pv), &x, &spec, 0);
            black_box(y);
        });
    });

    c.bench_function("gat_layer_forward_backward_71x48_4heads", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let pv: Vec<_> = layer.params().iter().map(|p| g.input((*p).clone())).collect();
            let Ok(y) = GatLayer::forward(&mut Tape::new(&mut g, &mask, &pv), &x, &spec, 0);
            let loss = g.sq_frobenius(y);
            black_box(g.backward(loss));
        });
    });
}

fn bench_cholesky(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let a = xavier_uniform(48, 48, &mut rng);
    let spd = a.matmul(&a.t()).add(&Matrix::eye(48).scale(48.0));
    c.bench_function("cholesky_48", |b| {
        b.iter(|| black_box(ams_tensor::cholesky(&spd).unwrap()));
    });
}

criterion_group!(benches, bench_matmul, bench_ridge_solve, bench_gat_layer, bench_cholesky);
criterion_main!(benches);
