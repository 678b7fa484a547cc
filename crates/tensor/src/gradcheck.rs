//! Finite-difference gradient checking.
//!
//! Every op in [`crate::graph`] is verified against central differences
//! in this module's test suite, and downstream crates (GAT layers, LSTM
//! cells, the AMS master objective) reuse [`check_gradients`] in their
//! own tests. This is the correctness anchor for the whole autodiff
//! substrate: a VJP bug anywhere shows up as a large relative error
//! here.

use std::sync::Arc;

use ams_runtime::Backend;

use crate::graph::{Graph, Var};
use crate::matrix::Matrix;

/// A differentiable scalar function of a list of parameter matrices:
/// given the parameter values, build a graph and return it together with
/// the leaf [`Var`]s corresponding to each parameter and the 1×1 loss.
pub type ScalarFn<'a> = &'a dyn Fn(&mut Graph, &[Var]) -> Var;

/// Evaluate `f` at `params` on `backend`, returning the scalar loss.
fn eval(f: ScalarFn, params: &[Matrix], backend: &Arc<dyn Backend>) -> f64 {
    let mut g = Graph::with_backend(Arc::clone(backend));
    let vars: Vec<Var> = params.iter().map(|p| g.input(p.clone())).collect();
    let loss = f(&mut g, &vars);
    g.value(loss).item()
}

/// Numerical gradient of `f` by central differences with step `eps`.
pub fn numeric_gradients(f: ScalarFn, params: &[Matrix], eps: f64) -> Vec<Matrix> {
    numeric_gradients_with(f, params, eps, &ams_runtime::seq())
}

/// [`numeric_gradients`] evaluated on an explicit backend.
pub fn numeric_gradients_with(
    f: ScalarFn,
    params: &[Matrix],
    eps: f64,
    backend: &Arc<dyn Backend>,
) -> Vec<Matrix> {
    let mut grads = Vec::with_capacity(params.len());
    for pi in 0..params.len() {
        let mut grad = Matrix::zeros(params[pi].rows(), params[pi].cols());
        for idx in 0..params[pi].len() {
            let mut plus = params.to_vec();
            plus[pi].as_mut_slice()[idx] += eps;
            let mut minus = params.to_vec();
            minus[pi].as_mut_slice()[idx] -= eps;
            grad.as_mut_slice()[idx] =
                (eval(f, &plus, backend) - eval(f, &minus, backend)) / (2.0 * eps);
        }
        grads.push(grad);
    }
    grads
}

/// Analytic (reverse-mode) gradient of `f` at `params`.
pub fn analytic_gradients(f: ScalarFn, params: &[Matrix]) -> Vec<Matrix> {
    analytic_gradients_with(f, params, &ams_runtime::seq())
}

/// [`analytic_gradients`] evaluated on an explicit backend.
pub fn analytic_gradients_with(
    f: ScalarFn,
    params: &[Matrix],
    backend: &Arc<dyn Backend>,
) -> Vec<Matrix> {
    let mut g = Graph::with_backend(Arc::clone(backend));
    let vars: Vec<Var> = params.iter().map(|p| g.input(p.clone())).collect();
    let loss = f(&mut g, &vars);
    g.backward(loss, &vars)
}

/// Compare analytic and numeric gradients; returns the worst relative
/// error `|a − n| / max(1, |a|, |n|)` over all parameter entries.
pub fn max_relative_error(f: ScalarFn, params: &[Matrix], eps: f64) -> f64 {
    max_relative_error_with(f, params, eps, &ams_runtime::seq())
}

/// [`max_relative_error`] with both sweeps running on `backend`.
pub fn max_relative_error_with(
    f: ScalarFn,
    params: &[Matrix],
    eps: f64,
    backend: &Arc<dyn Backend>,
) -> f64 {
    let analytic = analytic_gradients_with(f, params, backend);
    let numeric = numeric_gradients_with(f, params, eps, backend);
    let mut worst: f64 = 0.0;
    for (a, n) in analytic.iter().zip(&numeric) {
        for (&av, &nv) in a.as_slice().iter().zip(n.as_slice()) {
            let denom = 1.0f64.max(av.abs()).max(nv.abs());
            worst = worst.max((av - nv).abs() / denom);
        }
    }
    worst
}

/// Assert that the analytic gradient of `f` matches finite differences
/// to within `tol` relative error.
///
/// # Panics
/// Panics (test-style) when the tolerance is exceeded.
pub fn check_gradients(f: ScalarFn, params: &[Matrix], tol: f64) {
    let err = max_relative_error(f, params, 1e-5);
    assert!(err < tol, "gradient check failed: max relative error {err:.3e} >= tol {tol:.1e}");
}

/// [`check_gradients`] with every graph evaluation on `backend` — used
/// to pin that the parallel backend differentiates identically to the
/// sequential reference.
pub fn check_gradients_with(f: ScalarFn, params: &[Matrix], tol: f64, backend: &Arc<dyn Backend>) {
    let err = max_relative_error_with(f, params, 1e-5, backend);
    assert!(
        err < tol,
        "gradient check failed on {}: max relative error {err:.3e} >= tol {tol:.1e}",
        backend.name()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{dropout_mask, he_uniform, xavier_uniform};
    use ams_runtime::EdgeList;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TOL: f64 = 1e-6;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn check_matmul_chain() {
        let mut r = rng();
        let params = vec![xavier_uniform(3, 4, &mut r), xavier_uniform(4, 2, &mut r)];
        check_gradients(
            &|g, vars| {
                let y = g.matmul(vars[0], vars[1]);
                g.sq_frobenius(y)
            },
            &params,
            TOL,
        );
    }

    #[test]
    fn check_elementwise_ops() {
        let mut r = rng();
        let params = vec![xavier_uniform(3, 3, &mut r), xavier_uniform(3, 3, &mut r)];
        check_gradients(
            &|g, vars| {
                let s = g.add(vars[0], vars[1]);
                let d = g.sub(vars[0], vars[1]);
                let p = g.mul(s, d);
                let a = g.affine(p, 1.5, -0.25);
                g.sq_frobenius(a)
            },
            &params,
            TOL,
        );
    }

    #[test]
    fn check_activations() {
        let mut r = rng();
        // Offset away from 0 so ReLU's kink doesn't poison the FD check.
        let base = xavier_uniform(4, 4, &mut r).map(|x| if x.abs() < 0.05 { x + 0.1 } else { x });
        for act in 0..4 {
            let params = vec![base.clone()];
            check_gradients(
                &move |g, vars| {
                    let y = match act {
                        0 => g.relu(vars[0]),
                        1 => g.leaky_relu(vars[0], 0.2),
                        2 => g.sigmoid(vars[0]),
                        _ => g.tanh(vars[0]),
                    };
                    g.sq_frobenius(y)
                },
                &params,
                TOL,
            );
        }
    }

    #[test]
    fn check_bias_broadcast_and_mean() {
        let mut r = rng();
        let params = vec![xavier_uniform(5, 3, &mut r), xavier_uniform(1, 3, &mut r)];
        check_gradients(
            &|g, vars| {
                let y = g.add_row_broadcast(vars[0], vars[1]);
                let t = g.tanh(y);
                g.mean_all(t)
            },
            &params,
            TOL,
        );
    }

    /// Path 0–1–2–3 with self-loops, plus node 4 with no edges at all.
    fn path_with_isolated_node() -> Arc<EdgeList> {
        let rows: [&[u32]; 5] = [&[0, 1], &[0, 1, 2], &[1, 2, 3], &[2, 3], &[]];
        Arc::new(EdgeList::from_rows(rows).expect("valid rows"))
    }

    #[test]
    fn check_graph_attention() {
        // Every input of the op at once: both score columns (so the
        // LeakyReLU gate, the softmax VJP and the outer-sum reductions
        // are all exercised) and the aggregated features.
        let mut r = rng();
        let params = vec![
            xavier_uniform(5, 1, &mut r), // s_l
            xavier_uniform(5, 1, &mut r), // s_r
            xavier_uniform(5, 3, &mut r), // wh
        ];
        let edges = path_with_isolated_node();
        let weights = xavier_uniform(5, 3, &mut r);
        check_gradients(
            &move |g, vars| {
                let h = g.graph_attention(vars[0], vars[1], vars[2], &edges, 0.2);
                let w = g.input(weights.clone());
                let y = g.mul(h, w);
                g.sum_all(y)
            },
            &params,
            TOL,
        );
    }

    #[test]
    fn check_graph_attention_head_pattern() {
        // The exact head GAT records: the scores are projections of the
        // same features the op aggregates, so `wh` collects gradient
        // from all three of its uses.
        let mut r = rng();
        let params = vec![
            xavier_uniform(5, 3, &mut r), // node features
            xavier_uniform(3, 1, &mut r), // a_left
            xavier_uniform(3, 1, &mut r), // a_right
        ];
        let edges = path_with_isolated_node();
        check_gradients(
            &move |g, vars| {
                let sl = g.matmul(vars[0], vars[1]);
                let sr = g.matmul(vars[0], vars[2]);
                let h = g.graph_attention(sl, sr, vars[0], &edges, 0.2);
                g.sq_frobenius(h)
            },
            &params,
            TOL,
        );
    }

    #[test]
    fn check_rowwise_dot_and_select() {
        let mut r = rng();
        let params = vec![xavier_uniform(5, 4, &mut r), xavier_uniform(5, 4, &mut r)];
        check_gradients(
            &|g, vars| {
                let d = g.rowwise_dot(vars[0], vars[1]);
                let s = g.select_rows(d, &[0, 2, 2, 4]);
                g.sq_frobenius(s)
            },
            &params,
            TOL,
        );
    }

    #[test]
    fn check_concat_and_mse() {
        let mut r = rng();
        let params = vec![xavier_uniform(3, 2, &mut r), xavier_uniform(3, 3, &mut r)];
        let target = xavier_uniform(3, 5, &mut r);
        check_gradients(
            &move |g, vars| {
                let c = g.concat_cols(&[vars[0], vars[1]]);
                let t = g.input(target.clone());
                g.mse(c, t)
            },
            &params,
            TOL,
        );
    }

    #[test]
    fn check_dropout_is_linear() {
        let mut r = rng();
        let params = vec![he_uniform(4, 4, &mut r)];
        let mask = dropout_mask(4, 4, 0.5, &mut r);
        check_gradients(
            &move |g, vars| {
                let d = g.dropout(vars[0], mask.clone());
                g.sq_frobenius(d)
            },
            &params,
            TOL,
        );
    }

    #[test]
    fn check_transpose_chain() {
        let mut r = rng();
        let params = vec![xavier_uniform(3, 5, &mut r)];
        check_gradients(
            &|g, vars| {
                let t = g.transpose(vars[0]);
                let y = g.matmul(t, vars[0]);
                g.sum_all(y)
            },
            &params,
            TOL,
        );
    }

    #[test]
    fn check_log_div_clamp() {
        let mut r = rng();
        // Positive, bounded away from the clamp threshold so the FD
        // probe never crosses the kink.
        let a = xavier_uniform(3, 3, &mut r).map(|x| x.abs() + 0.5);
        let b = xavier_uniform(3, 3, &mut r).map(|x| x.abs() + 0.5);
        check_gradients(
            &|g, vars| {
                let c = g.clamp_min(vars[1], 1e-3);
                let q = g.div(vars[0], c);
                let l = g.log(q);
                g.sq_frobenius(l)
            },
            &[a, b],
            TOL,
        );
    }

    #[test]
    fn check_gat_composite_end_to_end() {
        // The full attention-layer op mix in one scalar objective:
        // score projections → graph attention over the edge list,
        // concatenated across two heads with eval-mode (identity)
        // dropout in between. Each op has a unit check above; this
        // verifies the *composition* — the configuration the AMS
        // master actually differentiates through.
        let mut r = rng();
        let params = vec![
            xavier_uniform(4, 3, &mut r), // node features
            xavier_uniform(3, 2, &mut r), // head-1 W
            xavier_uniform(2, 1, &mut r), // head-1 a_left
            xavier_uniform(2, 1, &mut r), // head-1 a_right
            xavier_uniform(3, 2, &mut r), // head-2 W
            xavier_uniform(2, 1, &mut r), // head-2 a_left
            xavier_uniform(2, 1, &mut r), // head-2 a_right
        ];
        let rows: [&[u32]; 4] = [&[0, 1], &[0, 1, 2], &[1, 2, 3], &[2, 3]];
        let edges = Arc::new(EdgeList::from_rows(rows).expect("valid rows"));
        // Eval-mode dropout: rate 0 ⇒ an all-ones mask, so the op is
        // recorded on the tape but must behave as the identity.
        let eval_mask = dropout_mask(4, 2, 0.0, &mut r);
        assert!(eval_mask.as_slice().iter().all(|&m| m == 1.0));
        check_gradients(
            &move |g, vars| {
                let mut heads = Vec::new();
                for h in 0..2 {
                    let wx = g.matmul(vars[0], vars[1 + 3 * h]);
                    let sl = g.matmul(wx, vars[2 + 3 * h]);
                    let sr = g.matmul(wx, vars[3 + 3 * h]);
                    let agg = g.graph_attention(sl, sr, wx, &edges, 0.2);
                    let agg = g.dropout(agg, eval_mask.clone());
                    heads.push(g.relu(agg));
                }
                let cat = g.concat_cols(&heads);
                g.sq_frobenius(cat)
            },
            &params,
            1e-5,
        );
    }

    #[test]
    fn eval_mode_dropout_is_identity() {
        let mut r = rng();
        let mut g = Graph::new();
        let x0 = xavier_uniform(3, 4, &mut r);
        let x = g.input(x0.clone());
        let m = dropout_mask(3, 4, 0.0, &mut r);
        let y = g.dropout(x, m);
        assert_eq!(g.value(y).as_slice(), x0.as_slice());
        let loss = g.sum_all(y);
        let grads = g.backward(loss, &[x]);
        assert!(grads[0].max_abs_diff(&Matrix::ones(3, 4)) < 1e-15);
    }

    #[test]
    fn check_matmul_chain_on_par_backend() {
        // Same composite as `check_matmul_chain`, with every forward
        // and backward sweep on the row-parallel backend: gradients
        // must agree with finite differences (and, being bit-identical
        // to Seq by construction, with the sequential check).
        let par: Arc<dyn Backend> = Arc::new(ams_runtime::Par::new(4));
        let mut r = rng();
        let params = vec![xavier_uniform(3, 4, &mut r), xavier_uniform(4, 2, &mut r)];
        check_gradients_with(
            &|g, vars| {
                let y = g.matmul(vars[0], vars[1]);
                g.sq_frobenius(y)
            },
            &params,
            TOL,
            &par,
        );
        // Analytic gradients on Par are bit-identical to Seq.
        let f: ScalarFn = &|g, vars| {
            let y = g.matmul(vars[0], vars[1]);
            g.sq_frobenius(y)
        };
        let seq_grads = analytic_gradients(f, &params);
        let par_grads = analytic_gradients_with(f, &params, &par);
        for (s, p) in seq_grads.iter().zip(&par_grads) {
            for (sv, pv) in s.as_slice().iter().zip(p.as_slice()) {
                assert_eq!(sv.to_bits(), pv.to_bits());
            }
        }
    }

    #[test]
    fn numeric_gradient_of_known_function() {
        // f(w) = sum(w^2) → df/dw = 2w exactly; FD should agree closely.
        let params = vec![Matrix::from_rows(&[&[1.0, -2.0, 0.5]])];
        let numeric = numeric_gradients(&|g, vars| g.sq_frobenius(vars[0]), &params, 1e-5);
        let expected = params[0].scale(2.0);
        assert!(numeric[0].max_abs_diff(&expected) < 1e-8);
    }
}
