//! First-order optimizers over flat parameter lists.
//!
//! The paper optimizes both the master objective Γ_master (Eq. 11) and
//! every neural baseline with Adam (Kingma & Ba, cited as [18]);
//! plain SGD is kept for tests and ablations. Parameters are a
//! `&mut [Matrix]` owned by the model; the optimizer holds per-parameter
//! moment state aligned by position, so a model must always pass its
//! parameters in the same order.

use crate::matrix::Matrix;

/// A serializable snapshot of an [`Adam`] optimizer's internal state,
/// used by training checkpoints to resume a run bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamState {
    /// Steps taken so far.
    pub t: u64,
    /// First-moment estimates, positionally aligned with the params.
    pub m: Vec<Matrix>,
    /// Second-moment estimates, positionally aligned with the params.
    pub v: Vec<Matrix>,
}

/// Adam optimizer with bias-corrected first and second moments.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate α.
    pub lr: f64,
    /// Exponential decay for the first moment (default 0.9).
    pub beta1: f64,
    /// Exponential decay for the second moment (default 0.999).
    pub beta2: f64,
    /// Numerical fuzz (default 1e-8).
    pub eps: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    /// Adam with the standard (0.9, 0.999, 1e-8) hyperparameters.
    pub fn new(lr: f64) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Snapshot the moment buffers and step counter for checkpointing.
    pub fn export_state(&self) -> AdamState {
        AdamState { t: self.t, m: self.m.clone(), v: self.v.clone() }
    }

    /// Restore a snapshot taken with [`Self::export_state`]. Subsequent
    /// [`Self::step`] calls continue the original trajectory exactly.
    pub fn restore_state(&mut self, state: AdamState) {
        assert_eq!(state.m.len(), state.v.len(), "Adam::restore_state: m/v length mismatch");
        self.t = state.t;
        self.m = state.m;
        self.v = state.v;
    }

    /// Apply one update. `params` and `grads` must be positionally
    /// aligned and keep the same shapes across calls.
    ///
    /// # Panics
    /// Panics on length or shape mismatch with the first call.
    pub fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "Adam::step: params/grads length mismatch");
        if self.m.is_empty() {
            self.m = params.iter().map(|p| Matrix::zeros(p.rows(), p.cols())).collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "Adam::step: parameter count changed between steps");
        self.t += 1;
        let t = self.t as i32;
        let bc1 = 1.0 - self.beta1.powi(t);
        let bc2 = 1.0 - self.beta2.powi(t);
        for ((p, g), (m, v)) in params.iter_mut().zip(grads).zip(self.m.iter_mut().zip(&mut self.v))
        {
            assert_eq!(p.shape(), g.shape(), "Adam::step: gradient shape mismatch");
            for ((pi, &gi), (mi, vi)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice()))
            {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
                let m_hat = *mi / bc1;
                let v_hat = *vi / bc2;
                *pi -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
            }
        }
    }
}

/// Plain stochastic gradient descent, optionally with momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f64,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f64,
    velocity: Vec<Matrix>,
}

impl Sgd {
    /// Momentum-free SGD.
    pub fn new(lr: f64) -> Self {
        Self { lr, momentum: 0.0, velocity: Vec::new() }
    }

    /// SGD with classical momentum.
    pub fn with_momentum(lr: f64, momentum: f64) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }

    /// Apply one update (see [`Adam::step`] for the alignment contract).
    pub fn step(&mut self, params: &mut [Matrix], grads: &[Matrix]) {
        assert_eq!(params.len(), grads.len(), "Sgd::step: params/grads length mismatch");
        if self.momentum == 0.0 {
            for (p, g) in params.iter_mut().zip(grads) {
                p.add_scaled_assign(g, -self.lr);
            }
            return;
        }
        if self.velocity.is_empty() {
            self.velocity = params.iter().map(|p| Matrix::zeros(p.rows(), p.cols())).collect();
        }
        for ((p, g), vel) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            *vel = vel.scale(self.momentum).add(g);
            p.add_scaled_assign(vel, -self.lr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimize f(w) = ||w - target||^2 and check convergence.
    fn quadratic_descent(optimizer: &mut dyn FnMut(&mut [Matrix], &[Matrix]), steps: usize) -> f64 {
        let target = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
        let mut params = vec![Matrix::zeros(2, 2)];
        for _ in 0..steps {
            let mut g = Graph::new();
            let w = g.input(params[0].clone());
            let t = g.input(target.clone());
            let d = g.sub(w, t);
            let loss = g.sq_frobenius(d);
            optimizer(&mut params, &g.backward(loss, &[w]));
        }
        params[0].max_abs_diff(&target)
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut adam = Adam::new(0.1);
        let err = quadratic_descent(&mut |p, g| adam.step(p, g), 500);
        assert!(err < 1e-3, "Adam residual {err}");
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut sgd = Sgd::new(0.1);
        let err = quadratic_descent(&mut |p, g| sgd.step(p, g), 200);
        assert!(err < 1e-6, "SGD residual {err}");
    }

    #[test]
    fn momentum_sgd_converges() {
        let mut sgd = Sgd::with_momentum(0.05, 0.9);
        let err = quadratic_descent(&mut |p, g| sgd.step(p, g), 300);
        assert!(err < 1e-6, "momentum SGD residual {err}");
    }

    #[test]
    fn adam_first_step_has_unit_scale() {
        // On the first step Adam moves by ~lr regardless of gradient
        // magnitude (bias correction makes m_hat/sqrt(v_hat) = sign(g)).
        let mut adam = Adam::new(0.01);
        let mut params = vec![Matrix::scalar(0.0)];
        let grads = vec![Matrix::scalar(1e6)];
        adam.step(&mut params, &grads);
        assert!((params[0].item() + 0.01).abs() < 1e-9);
    }

    #[test]
    fn adam_state_round_trip_resumes_trajectory() {
        // Run 300 steps straight through, and 150 + snapshot/restore +
        // 150; the final parameters must match bit for bit.
        let run = |split: Option<usize>| {
            let target = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
            let mut adam = Adam::new(0.1);
            let mut params = vec![Matrix::zeros(2, 2)];
            for step in 0..300 {
                if split == Some(step) {
                    let snap = adam.export_state();
                    adam = Adam::new(0.1);
                    adam.restore_state(snap);
                }
                let mut g = Graph::new();
                let w = g.input(params[0].clone());
                let t = g.input(target.clone());
                let d = g.sub(w, t);
                let loss = g.sq_frobenius(d);
                adam.step(&mut params, &g.backward(loss, &[w]));
            }
            params.remove(0)
        };
        let straight = run(None);
        let resumed = run(Some(150));
        assert_eq!(straight.as_slice(), resumed.as_slice());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn adam_rejects_misaligned_grads() {
        let mut adam = Adam::new(0.01);
        let mut params = vec![Matrix::scalar(0.0)];
        adam.step(&mut params, &[]);
    }
}
