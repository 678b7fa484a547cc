//! Multilayer perceptron baseline (§IV-B: "a greater capacity than
//! linear regression but uninterpretable").
//!
//! ReLU hidden layers with inverted dropout, L2 weight decay, trained
//! full-batch with Adam — matching the paper's training protocol
//! (§IV-C: Adam, dropout on stacked fully connected layers, L2).

use ams_tensor::init::{dropout_mask, he_uniform};
use ams_tensor::{Adam, Graph, Matrix, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::regressor::Regressor;

/// MLP hyperparameters.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden layer widths (e.g. `[32, 16]`).
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f64,
    /// Full-batch epochs.
    pub epochs: usize,
    /// L2 weight-decay strength.
    pub l2: f64,
    /// Dropout probability applied after every hidden activation.
    pub dropout: f64,
    /// Parameter-init / dropout seed.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        Self { hidden: vec![32, 16], lr: 1e-2, epochs: 300, l2: 1e-4, dropout: 0.1, seed: 0 }
    }
}

/// A fitted/fittable MLP regressor.
pub struct Mlp {
    config: MlpConfig,
    /// Interleaved `[w1, b1, w2, b2, ...]`; weights are `in×out`.
    params: Vec<Matrix>,
}

impl Mlp {
    /// Untrained MLP; layers are sized lazily at `fit` time from the
    /// design-matrix width.
    pub fn new(config: MlpConfig) -> Self {
        Self { config, params: Vec::new() }
    }

    fn build_params(&mut self, input_dim: usize, rng: &mut StdRng) {
        let mut dims = vec![input_dim];
        dims.extend_from_slice(&self.config.hidden);
        dims.push(1);
        self.params.clear();
        for w in dims.windows(2) {
            self.params.push(he_uniform(w[0], w[1], rng));
            self.params.push(Matrix::zeros(1, w[1]));
        }
    }

    /// Forward pass; when `rng` is `Some` dropout masks are sampled
    /// (training mode), otherwise the network runs deterministically.
    fn forward(&self, g: &mut Graph, x: Var, rng: Option<&mut StdRng>) -> (Var, Vec<Var>) {
        let mut param_vars = Vec::with_capacity(self.params.len());
        for p in &self.params {
            param_vars.push(g.input(p.clone()));
        }
        let n_layers = self.params.len() / 2;
        let mut h = x;
        let mut rng = rng;
        for l in 0..n_layers {
            let z = g.matmul(h, param_vars[2 * l]);
            let z = g.add_row_broadcast(z, param_vars[2 * l + 1]);
            if l + 1 < n_layers {
                h = g.relu(z);
                if self.config.dropout > 0.0 {
                    if let Some(r) = rng.as_deref_mut() {
                        let shape = g.value(h).shape();
                        let mask = dropout_mask(shape.0, shape.1, self.config.dropout, r);
                        h = g.dropout(h, mask);
                    }
                }
            } else {
                h = z;
            }
        }
        (h, param_vars)
    }
}

impl Regressor for Mlp {
    fn fit(&mut self, x: &Matrix, y: &Matrix) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.build_params(x.cols(), &mut rng);
        let mut adam = Adam::new(self.config.lr);
        for _ in 0..self.config.epochs {
            let mut g = Graph::new();
            let xin = g.input(x.clone());
            let (pred, param_vars) = self.forward(&mut g, xin, Some(&mut rng));
            let target = g.input(y.clone());
            let mut loss = g.mse(pred, target);
            if self.config.l2 > 0.0 {
                for (i, &pv) in param_vars.iter().enumerate() {
                    if i % 2 == 0 {
                        // weights only, not biases
                        let sq = g.sq_frobenius(pv);
                        let reg = g.scale(sq, self.config.l2);
                        loss = g.add(loss, reg);
                    }
                }
            }
            adam.step(&mut self.params, &g.backward(loss, &param_vars));
        }
    }

    fn predict(&self, x: &Matrix) -> Matrix {
        assert!(!self.params.is_empty(), "predict before fit");
        let mut g = Graph::new();
        let xin = g.input(x.clone());
        let (pred, _) = self.forward(&mut g, xin, None);
        g.value(pred).clone()
    }

    fn name(&self) -> &str {
        "MLP"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regressor::mse;
    use crate::regressor::testutil::{linear_problem, nonlinear_problem};

    #[test]
    fn learns_linear_map() {
        let (xtr, ytr, xte, yte) = linear_problem(200, 50, 4, 0.05, 10);
        let mut m = Mlp::new(MlpConfig { epochs: 400, dropout: 0.0, ..Default::default() });
        m.fit(&xtr, &ytr);
        let err = mse(&m.predict(&xte), &yte);
        assert!(err < 0.1, "mlp linear-map test mse {err}");
    }

    #[test]
    fn learns_nonlinear_map_better_than_linear() {
        let (x, y) = nonlinear_problem(300, 0.05, 11);
        let (xtr, ytr) = (
            x.select_rows(&(0..200).collect::<Vec<_>>()),
            y.select_rows(&(0..200).collect::<Vec<_>>()),
        );
        let (xte, yte) = (
            x.select_rows(&(200..300).collect::<Vec<_>>()),
            y.select_rows(&(200..300).collect::<Vec<_>>()),
        );
        let mut mlp = Mlp::new(MlpConfig {
            hidden: vec![48, 24],
            epochs: 800,
            dropout: 0.0,
            lr: 5e-3,
            ..Default::default()
        });
        mlp.fit(&xtr, &ytr);
        let mlp_err = mse(&mlp.predict(&xte), &yte);
        let mut lin = crate::linear::RidgeRegression::new(1e-6);
        lin.fit(&xtr, &ytr);
        let lin_err = mse(&lin.predict(&xte), &yte);
        assert!(mlp_err < lin_err, "mlp {mlp_err} should beat linear {lin_err} on nonlinear data");
    }

    #[test]
    fn deterministic_given_seed() {
        let (xtr, ytr, xte, _) = linear_problem(50, 10, 3, 0.1, 12);
        let cfg = MlpConfig { epochs: 50, seed: 99, ..Default::default() };
        let mut a = Mlp::new(cfg.clone());
        a.fit(&xtr, &ytr);
        let mut b = Mlp::new(cfg);
        b.fit(&xtr, &ytr);
        assert_eq!(a.predict(&xte).as_slice(), b.predict(&xte).as_slice());
    }

    #[test]
    fn prediction_is_deterministic_after_fit() {
        // Dropout must be inference-disabled.
        let (xtr, ytr, xte, _) = linear_problem(50, 10, 3, 0.1, 13);
        let mut m = Mlp::new(MlpConfig { epochs: 30, dropout: 0.4, ..Default::default() });
        m.fit(&xtr, &ytr);
        assert_eq!(m.predict(&xte).as_slice(), m.predict(&xte).as_slice());
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        Mlp::new(MlpConfig::default()).predict(&Matrix::ones(1, 3));
    }
}
