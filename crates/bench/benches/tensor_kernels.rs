//! Micro-benchmarks for the numerical substrate: dense kernels, the
//! direct solvers behind the anchored LR, the edge-list graph-attention
//! kernel pair, and a full GAT-layer forward+backward at the workloads'
//! actual sizes (n = 71 companies, the k = 5 correlation graph).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use std::sync::Arc;

use ams_core::edge_list;
use ams_graph::{CompanyGraph, GraphConfig};
use ams_tensor::init::xavier_uniform;
use ams_tensor::runtime::{kernels, EdgeList};
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

/// A plausible k = 5 correlation graph over `n` companies.
fn correlation_edges(n: usize) -> Arc<EdgeList> {
    let series: Vec<Vec<f64>> =
        (0..n).map(|i| (0..12).map(|t| ((i * 7 + t * 13) % 29) as f64).collect()).collect();
    Arc::new(edge_list(&CompanyGraph::from_series(&series, GraphConfig::default())))
}

fn bench_graph_attention(c: &mut Criterion) {
    // One hidden head's attention (f = 8) over the n = 71 graph: the
    // kernel pair both the tape and the serving engine run.
    let mut rng = StdRng::seed_from_u64(5);
    let (n, f) = (71, 8);
    let edges = correlation_edges(n);
    let s_l = xavier_uniform(n, 1, &mut rng);
    let s_r = xavier_uniform(n, 1, &mut rng);
    let wh = xavier_uniform(n, f, &mut rng);
    let g = xavier_uniform(n, f, &mut rng);
    let at = kernels::Attention {
        edges: &edges,
        s_l: s_l.as_slice(),
        s_r: s_r.as_slice(),
        wh: wh.as_slice(),
        f,
        slope: 0.2,
    };
    let mut alpha = vec![0.0; edges.len()];
    let mut out = vec![0.0; n * f];
    c.bench_function("graph_attention_forward_71x8", |b| {
        b.iter(|| {
            out.fill(0.0);
            kernels::graph_attention(at, &mut alpha, &mut out);
            black_box(&out);
        });
    });
    let (mut d_sl, mut d_sr, mut d_wh) = (vec![0.0; n], vec![0.0; n], vec![0.0; n * f]);
    c.bench_function("graph_attention_backward_71x8", |b| {
        b.iter(|| {
            d_sl.fill(0.0);
            d_sr.fill(0.0);
            d_wh.fill(0.0);
            kernels::graph_attention_backward(
                at,
                &alpha,
                g.as_slice(),
                &mut d_sl,
                &mut d_sr,
                &mut d_wh,
            );
            black_box(&d_wh);
        });
    });
}

fn bench_gat_layer(c: &mut Criterion) {
    use ams_core::{GatLayer, GatSpec, Tape};
    let mut rng = StdRng::seed_from_u64(3);
    let n = 71;
    let layer = GatLayer::hidden(48, 8, 4, &mut rng);
    let x0 = xavier_uniform(n, 48, &mut rng);
    let edges = correlation_edges(n);
    let spec = GatSpec { heads: layer.heads.len(), leaky_slope: layer.leaky_slope };

    c.bench_function("gat_layer_forward_71x48_4heads", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let pv: Vec<_> = layer.params().iter().map(|p| g.input((*p).clone())).collect();
            let Ok(y) = GatLayer::forward(&mut Tape::new(&mut g, &edges, &pv), &x, &spec, 0);
            black_box(y);
        });
    });

    c.bench_function("gat_layer_forward_backward_71x48_4heads", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let x = g.input(x0.clone());
            let pv: Vec<_> = layer.params().iter().map(|p| g.input((*p).clone())).collect();
            let Ok(y) = GatLayer::forward(&mut Tape::new(&mut g, &edges, &pv), &x, &spec, 0);
            let loss = g.sq_frobenius(y);
            black_box(g.backward(loss, &pv));
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

criterion_group!(
    benches,
    bench_matmul,
    bench_ridge_solve,
    bench_graph_attention,
    bench_gat_layer,
    bench_cholesky
);
criterion_main!(benches);
