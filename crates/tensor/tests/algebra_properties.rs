//! Property-based tests of the matrix algebra and autodiff invariants.

use std::sync::Arc;

use ams_tensor::runtime::EdgeList;
use ams_tensor::{Graph, Matrix};
use proptest::prelude::*;

/// Strategy: a rows×cols matrix with bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    /// (A B) C = A (B C) within floating tolerance.
    #[test]
    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    /// (A B)ᵀ = Bᵀ Aᵀ.
    #[test]
    fn transpose_reverses_product(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).t();
        let right = b.t().matmul(&a.t());
        prop_assert!(left.max_abs_diff(&right) < 1e-10);
    }

    /// A (B + C) = A B + A C.
    #[test]
    fn matmul_distributes(a in matrix(3, 4), b in matrix(4, 2), c in matrix(4, 2)) {
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.max_abs_diff(&right) < 1e-9);
    }

    /// Addition commutes, subtraction anticommutes.
    #[test]
    fn add_sub_symmetry(a in matrix(4, 4), b in matrix(4, 4)) {
        prop_assert!(a.add(&b).max_abs_diff(&b.add(&a)) < 1e-12);
        prop_assert!(a.sub(&b).max_abs_diff(&b.sub(&a).scale(-1.0)) < 1e-12);
    }

    /// ‖A‖²_F = tr(Aᵀ A) via the diagonal sum.
    #[test]
    fn frobenius_is_trace_of_gram(a in matrix(3, 5)) {
        let gram = a.t().matmul(&a);
        let trace: f64 = (0..gram.rows()).map(|i| gram[(i, i)]).sum();
        prop_assert!((a.sq_frobenius() - trace).abs() < 1e-9 * (1.0 + trace.abs()));
    }

    /// Row selection preserves exact row contents for any index list.
    #[test]
    fn select_rows_exact(a in matrix(5, 3), ids in prop::collection::vec(0usize..5, 1..8)) {
        let s = a.select_rows(&ids);
        for (r, &id) in ids.iter().enumerate() {
            prop_assert_eq!(s.row(r), a.row(id));
        }
    }

    /// Autodiff linearity: grad of sum(αX) w.r.t. X is α everywhere.
    #[test]
    fn grad_of_scaled_sum_is_constant(a in matrix(3, 3), alpha in -5.0f64..5.0) {
        let mut g = Graph::new();
        let x = g.input(a);
        let y = g.scale(x, alpha);
        let loss = g.sum_all(y);
        let grads = g.backward(loss, &[x]);
        for &v in grads[0].as_slice() {
            prop_assert!((v - alpha).abs() < 1e-12);
        }
    }

    /// Gradient of a quadratic form matches the closed form:
    /// d/dX ‖X W‖² = 2 X W Wᵀ.
    #[test]
    fn quadratic_gradient_closed_form(x0 in matrix(3, 4), w0 in matrix(4, 2)) {
        let mut g = Graph::new();
        let x = g.input(x0.clone());
        let w = g.input(w0.clone());
        let y = g.matmul(x, w);
        let loss = g.sq_frobenius(y);
        let grads = g.backward(loss, &[x]);
        let expected = x0.matmul(&w0).matmul(&w0.t()).scale(2.0);
        prop_assert!(grads[0].max_abs_diff(&expected) < 1e-8);
    }

    /// Backward through add/sub chains keeps gradient magnitudes exact:
    /// loss = sum(a + b − b) has grad 1 w.r.t. a and 0 w.r.t. b.
    #[test]
    fn cancellation_gradients(a in matrix(2, 3), b in matrix(2, 3)) {
        let mut g = Graph::new();
        let av = g.input(a);
        let bv = g.input(b);
        let s = g.add(av, bv);
        let d = g.sub(s, bv);
        let loss = g.sum_all(d);
        let grads = g.backward(loss, &[av, bv]);
        for &v in grads[0].as_slice() {
            prop_assert!((v - 1.0).abs() < 1e-12);
        }
        for &v in grads[1].as_slice() {
            prop_assert!(v.abs() < 1e-12);
        }
    }

    /// Cholesky solve residual stays tiny on generated SPD systems.
    #[test]
    fn spd_solve_residual(a in matrix(4, 4), b in matrix(4, 2)) {
        // Make SPD: A Aᵀ + 4 I.
        let spd = a.matmul(&a.t()).add(&Matrix::eye(4).scale(4.0));
        let x = ams_tensor::solve_spd(&spd, &b).expect("SPD solve");
        let resid = spd.matmul(&x).sub(&b);
        prop_assert!(resid.max_abs_diff(&Matrix::zeros(4, 2)) < 1e-8);
    }

    /// Attention weights stay on the simplex: on the complete graph
    /// with `wh = I` the aggregation returns α itself, row by row.
    #[test]
    fn attention_simplex(scores in matrix(4, 2)) {
        let rows: Vec<Vec<u32>> = (0..4).map(|_| (0..4).collect()).collect();
        let edges = EdgeList::from_rows(rows.iter().map(Vec::as_slice)).expect("complete graph");
        let mut g = Graph::new();
        let sl = g.input(Matrix::col_vector(&scores.col(0)));
        let sr = g.input(Matrix::col_vector(&scores.col(1)));
        let wh = g.input(Matrix::eye(4));
        let y = g.graph_attention(sl, sr, wh, &Arc::new(edges), 0.2);
        let yv = g.value(y);
        for r in 0..4 {
            let row_sum: f64 = yv.row(r).iter().sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-10);
            prop_assert!(yv.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }
}
