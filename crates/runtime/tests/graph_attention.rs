//! Property tests: the edge-list graph-attention pair is bit-identical
//! to the dense chain it replaced ([`kernels::graph_attention_dense`]:
//! outer-sum logits, LeakyReLU, masked row softmax, `α·Wh`, and that
//! chain's backward) — the forward output, α, and all three VJPs — on
//! random CSR graphs with isolated nodes, self-loop-only graphs and
//! complete graphs, in f64 and in f32.

use ams_graph::CompanyGraph;
use ams_runtime::{kernels, EdgeList, Element};
use proptest::prelude::*;

/// Largest graph generated.
const MAX_N: usize = 12;
/// Largest feature width generated.
const MAX_F: usize = 6;
/// Values drawn per case: `s_l`, `s_r`, `wh` and the cotangent `g`.
const POOL: usize = 2 * MAX_N + 2 * MAX_N * MAX_F;

/// The graph of one case. `kind` picks the family: 0 random, 1 random
/// with every third node isolated (no edges, not even a self-loop),
/// 2 self-loops only, 3 complete.
fn graph(kind: u8, n: usize, density: f64, coins: &[f64]) -> EdgeList {
    let from_company = |g: CompanyGraph| EdgeList::from_rows((0..n).map(|i| g.neighbors(i)));
    let edges = match kind {
        2 => from_company(CompanyGraph::isolated(n)),
        3 => from_company(CompanyGraph::complete(n)),
        _ => {
            let rows: Vec<Vec<u32>> = (0..n)
                .map(|i| {
                    if kind == 1 && i % 3 == 0 {
                        return Vec::new();
                    }
                    (0..n as u32).filter(|&j| coins[i * MAX_N + j as usize] < density).collect()
                })
                .collect();
            EdgeList::from_rows(rows.iter().map(Vec::as_slice))
        }
    };
    edges.expect("generated rows are ascending and in range")
}

/// Exact zeros in `g` and `wh` exercise both zero-skips.
fn sparsify(v: f64) -> f64 {
    if v.abs() < 1.0 {
        0.0
    } else {
        v
    }
}

fn bits<E: Element>(xs: &[E]) -> Vec<u64> {
    xs.iter().map(|v| v.to_f64().to_bits()).collect()
}

fn same_bits<E: Element>(want: &[E], got: &[E], what: &str) -> Result<(), String> {
    if bits(want) == bits(got) {
        return Ok(());
    }
    let (w, g): (Vec<f64>, Vec<f64>) =
        (want.iter().map(|v| v.to_f64()).collect(), got.iter().map(|v| v.to_f64()).collect());
    Err(format!("{what}: dense {w:?} vs edge list {g:?}"))
}

/// Run both chains at precision `E` and compare every output bit.
/// `scale` stretches the scores so that some weights underflow to an
/// exact 0 and take the zero-skip path in both chains.
fn check<E: Element>(edges: &EdgeList, f: usize, pool: &[f64], scale: f64) -> Result<(), String> {
    let n = edges.nodes();
    let take = |lo: usize, len: usize, map: fn(f64) -> f64| -> Vec<E> {
        pool[lo..lo + len].iter().map(|&v| E::from_f64(map(v))).collect()
    };
    let s_l: Vec<E> = take(0, n, |v| v).into_iter().map(|v| v * E::from_f64(scale)).collect();
    let s_r: Vec<E> = take(MAX_N, n, |v| v).into_iter().map(|v| v * E::from_f64(scale)).collect();
    let wh = take(2 * MAX_N, n * f, sparsify);
    let g = take(2 * MAX_N + MAX_N * MAX_F, n * f, sparsify);
    let at =
        kernels::Attention { edges, s_l: &s_l, s_r: &s_r, wh: &wh, f, slope: E::from_f64(0.2) };

    let (mut dense_alpha, mut dense_out) = (vec![E::ZERO; n * n], vec![E::ZERO; n * f]);
    kernels::graph_attention_dense(at, &mut dense_alpha, &mut dense_out);
    let (mut alpha, mut out) = (vec![E::ZERO; edges.len()], vec![E::ZERO; n * f]);
    kernels::graph_attention(at, &mut alpha, &mut out);
    same_bits(&dense_out, &out, "forward")?;
    let mut on_edges = Vec::with_capacity(edges.len());
    for i in 0..n {
        on_edges.extend(edges.row(i).iter().map(|&j| dense_alpha[i * n + j as usize]));
    }
    same_bits(&on_edges, &alpha, "alpha")?;

    let mut dense = (vec![E::ZERO; n], vec![E::ZERO; n], vec![E::ZERO; n * f]);
    kernels::graph_attention_dense_backward(
        at,
        &dense_alpha,
        &g,
        &mut dense.0,
        &mut dense.1,
        &mut dense.2,
    );
    let mut sparse = (vec![E::ZERO; n], vec![E::ZERO; n], vec![E::ZERO; n * f]);
    kernels::graph_attention_backward(at, &alpha, &g, &mut sparse.0, &mut sparse.1, &mut sparse.2);
    same_bits(&dense.0, &sparse.0, "d_s_l")?;
    same_bits(&dense.1, &sparse.1, "d_s_r")?;
    same_bits(&dense.2, &sparse.2, "d_wh")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// f64: forward, α, ∂s_l, ∂s_r and ∂Wh are bit-identical to the
    /// dense chain on every graph family.
    #[test]
    fn edge_list_attention_matches_the_dense_chain_f64(
        n in 1usize..MAX_N + 1,
        f in 1usize..MAX_F + 1,
        kind in 0u8..4,
        density in 0.0f64..1.0,
        scale_pick in 0usize..3,
        coins in prop::collection::vec(0.0f64..1.0, MAX_N * MAX_N),
        pool in prop::collection::vec(-4.0f64..4.0, POOL),
    ) {
        let edges = graph(kind, n, density, &coins);
        check::<f64>(&edges, f, &pool, [1.0, 50.0, 400.0][scale_pick])?;
    }

    /// f32: the same instantiation, the same bits against the dense
    /// chain in f32.
    #[test]
    fn edge_list_attention_matches_the_dense_chain_f32(
        n in 1usize..MAX_N + 1,
        f in 1usize..MAX_F + 1,
        kind in 0u8..4,
        density in 0.0f64..1.0,
        scale_pick in 0usize..3,
        coins in prop::collection::vec(0.0f64..1.0, MAX_N * MAX_N),
        pool in prop::collection::vec(-4.0f64..4.0, POOL),
    ) {
        let edges = graph(kind, n, density, &coins);
        check::<f32>(&edges, f, &pool, [1.0, 50.0, 400.0][scale_pick])?;
    }
}

/// The families the properties draw from really do occur.
#[test]
fn graph_families_cover_isolated_self_loop_and_complete_graphs() {
    let coins = vec![0.5; MAX_N * MAX_N];
    assert_eq!(graph(1, 7, 1.0, &coins).isolated(), 3);
    let loops = graph(2, 7, 0.0, &coins);
    assert!((0..7).all(|i| loops.row(i) == [i as u32]));
    assert_eq!(graph(3, 7, 0.0, &coins).len(), 49);
    assert_eq!(graph(0, 7, 0.0, &coins).isolated(), 7);
}
