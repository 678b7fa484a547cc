//! The tape on the runtime: its workspace arena stays balanced across
//! reset/re-run cycles, its matmul backward is bit-identical to the
//! naive reference on materialised transposes, on `Seq` and `Par`, and
//! a backward sweep asked for some leaves gives each the same bits as
//! one asked for every leaf.

use std::sync::Arc;

use ams_tensor::runtime::{kernels, Backend, EdgeList, Par, Seq};
use ams_tensor::{Graph, Matrix, Var};
use proptest::prelude::*;

fn mat(rows: usize, cols: usize, f: impl Fn(usize, usize) -> f64) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|i| f(i / cols, i % cols)).collect())
}

/// Record a graph that uses every op kind and return its leaves and
/// its 1×1 loss.
fn every_op(g: &mut Graph) -> ([Var; LEAVES], Var) {
    let x = g.input(mat(4, 3, |r, c| (r as f64 - 1.5) * 0.4 + c as f64 * 0.3));
    let w = g.input(mat(3, 2, |r, c| (r + 2 * c) as f64 * 0.25 - 0.5));
    let bias = g.input(Matrix::from_rows(&[&[0.1, -0.2]]));
    let a1 = g.input(Matrix::col_vector(&[0.3, -0.7]));
    let a2 = g.input(Matrix::col_vector(&[-0.2, 0.5]));
    let wb = g.input(mat(4, 4, |r, c| if r == c { 0.5 } else { 0.05 }));
    let y = g.input(Matrix::col_vector(&[0.2, -0.1, 0.4, 0.0]));
    // Node i sees j when i == j or (i + j) % 3 == 0.
    let rows: [&[u32]; 4] = [&[0, 3], &[1, 2], &[1, 2], &[0, 3]];
    let edges = Arc::new(EdgeList::from_rows(rows).unwrap());
    let keep = mat(4, 4, |r, c| if (r * 4 + c) % 5 == 0 { 0.0 } else { 1.25 });

    let h = g.matmul(x, w);
    let h = g.add_row_broadcast(h, bias);
    let h1 = g.relu(h);
    let h2 = g.leaky_relu(h, 0.2);
    let s = g.sigmoid(h1);
    let t = g.tanh(h2);
    let p = g.mul(s, t);
    let q = g.add(p, h1);
    let r = g.sub(q, t);
    let c = g.clamp_min(s, 0.1);
    let l = g.log(c);
    let d = g.div(r, c);
    let af = g.affine(d, 0.5, 0.1);

    let u = g.matmul(h, a1);
    let v = g.matmul(h, a2);
    let agg = g.graph_attention(u, v, af, &edges, 0.2);
    let cat = g.concat_cols(&[agg, l]);
    let tr = g.transpose(cat);
    let dropped = g.dropout(cat, keep);
    let sel = g.select_rows(dropped, &[0, 2, 2, 3]);
    let beta = g.matmul(sel, wb);
    let pred = g.rowwise_dot(sel, beta);

    let fit = g.mse(pred, y);
    let spread = g.mean_all(tr);
    let reg = g.sq_frobenius(w);
    let total = g.sum_all(tr);
    let loss = g.add(fit, spread);
    let loss = g.add(loss, reg);
    ([x, w, bias, a1, a2, wb, y], g.add(loss, total))
}

/// Leaves recorded by [`every_op`].
const LEAVES: usize = 7;

#[test]
fn reset_keeps_the_workspace_arena_balanced() {
    for backend in [Arc::new(Seq) as Arc<dyn Backend>, Arc::new(Par::new(2))] {
        let mut g = Graph::with_backend(backend);
        // (pooled after reset, pooled after backward, allocs) per cycle.
        let mut cycles = Vec::new();
        for _ in 0..3 {
            g.reset();
            let after_reset = g.workspace_pooled();
            let (leaves, loss) = every_op(&mut g);
            g.backward(loss, &leaves);
            cycles.push((after_reset, g.workspace_pooled(), g.workspace_counters().0));
        }
        assert_eq!(cycles[0].0, 0, "a fresh graph starts with an empty arena");
        assert!(cycles[1].0 > 0, "reset must hand the issued buffers back");
        assert_eq!(cycles[1], cycles[2], "arena not balanced after cycle 1: {cycles:?}");
        assert_eq!(cycles[0].2, cycles[2].2, "the tape allocated after cycle 1: {cycles:?}");
    }
}

const MAX_M: usize = 48;
const MAX_K: usize = 40;
const MAX_N: usize = 24;

/// Inject exact zeros so the zero-skip fast path is exercised.
fn sparsify(mut data: Vec<f64>) -> Vec<f64> {
    for v in &mut data {
        if v.abs() < 2.0 {
            *v = 0.0;
        }
    }
    data
}

fn transposed(data: &[f64], rows: usize, cols: usize) -> Vec<f64> {
    (0..rows * cols).map(|i| data[(i % rows) * cols + i / rows]).collect()
}

fn assert_bits_eq(want: &[f64], got: &Matrix, label: &str) -> Result<(), String> {
    for (i, (w, g)) in want.iter().zip(got.as_slice()).enumerate() {
        if w.to_bits() != g.to_bits() {
            return Err(format!("{label}: bit mismatch at {i}: {w:?} vs {g:?}"));
        }
    }
    Ok(())
}

proptest! {
    /// The tape's matmul backward gives `ga = G·Bᵀ` and `gb = Aᵀ·G`
    /// bit for bit as the naive triple loop on the materialised
    /// transposes, for an upstream cotangent `G` with exact zeros, on
    /// `Seq` and on a two-worker `Par` (shapes large enough for some
    /// cases to cross its parallel dispatch threshold).
    #[test]
    fn matmul_backward_matches_naive_bitwise(
        m in 1usize..MAX_M,
        k in 0usize..MAX_K,
        n in 1usize..MAX_N,
        pool in prop::collection::vec(-8.0f64..8.0, MAX_M * MAX_K + MAX_K * MAX_N + MAX_M * MAX_N)
            .prop_map(sparsify),
    ) {
        let (a, rest) = pool.split_at(MAX_M * MAX_K);
        let (b, cot) = rest.split_at(MAX_K * MAX_N);
        let (a, b, cot) = (&a[..m * k], &b[..k * n], &cot[..m * n]);

        let mut want_ga = vec![0.0; m * k];
        kernels::matmul_naive(cot, &transposed(b, k, n), &mut want_ga, m, n, k);
        let mut want_gb = vec![0.0; k * n];
        kernels::matmul_naive(&transposed(a, m, k), cot, &mut want_gb, k, m, n);

        for backend in [Arc::new(Seq) as Arc<dyn Backend>, Arc::new(Par::new(2))] {
            let label = backend.name();
            let mut g = Graph::with_backend(backend);
            let av = g.input(Matrix::from_vec(m, k, a.to_vec()));
            let bv = g.input(Matrix::from_vec(k, n, b.to_vec()));
            let gv = g.input(Matrix::from_vec(m, n, cot.to_vec()));
            let c = g.matmul(av, bv);
            // d(sum(C ⊙ G))/dC = 1 · G exactly, so the matmul sees G.
            let weighted = g.mul(c, gv);
            let loss = g.sum_all(weighted);
            let grads = g.backward(loss, &[av, bv]);
            assert_bits_eq(&want_ga, &grads[0], &format!("{label} ga"))?;
            assert_bits_eq(&want_gb, &grads[1], &format!("{label} gb"))?;
        }
    }

    /// A sweep asked for a random subset of [`every_op`]'s leaves, in a
    /// random order, returns one gradient per requested leaf, in that
    /// order, each bit-identical to the one a sweep asked for every leaf
    /// gives: skipping the work no requested leaf needs moves no bit.
    #[test]
    fn backward_wrt_a_subset_keeps_every_bit(
        keys in prop::collection::vec(0.0f64..1.0, LEAVES),
        cut in 0.0f64..1.0,
    ) {
        for backend in [Arc::new(Seq) as Arc<dyn Backend>, Arc::new(Par::new(2))] {
            let label = backend.name();
            let mut g = Graph::with_backend(backend);
            let (leaves, loss) = every_op(&mut g);
            let all = g.backward(loss, &leaves);
            // Requested: the leaves whose key is below `cut`, by key.
            let mut order: Vec<usize> = (0..LEAVES).filter(|&i| keys[i] < cut).collect();
            order.sort_by(|&i, &j| keys[i].total_cmp(&keys[j]));
            let wrt: Vec<Var> = order.iter().map(|&i| leaves[i]).collect();
            let some = g.backward(loss, &wrt);
            prop_assert_eq!(some.len(), wrt.len());
            for (&i, grad) in order.iter().zip(&some) {
                prop_assert_eq!(grad.shape(), all[i].shape());
                assert_bits_eq(all[i].as_slice(), grad, &format!("{label} leaf {i}"))?;
            }
        }
    }
}
