//! Recurrent baselines: LSTM (Hochreiter & Schmidhuber) and GRU (Cho et
//! al.), the "neural sequence models" group of §IV-B.
//!
//! Each model unrolls over the `k = 4` historical quarters (oldest →
//! newest) as arranged by [`crate::sequence::SequenceSpec`], then
//! concatenates the final hidden state with the static context
//! (current-quarter estimates, alternative data, one-hots) and applies
//! a linear head. Trained full-batch with Adam under L2, like every
//! other neural model in the paper's protocol.

use ams_tensor::init::xavier_uniform;
use ams_tensor::{Adam, Graph, Matrix, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::regressor::Regressor;
use crate::sequence::SequenceSpec;

/// Which recurrent cell to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RnnKind {
    /// Long Short-Term Memory (12 gate matrices).
    Lstm,
    /// Gated Recurrent Unit (9 gate matrices).
    Gru,
}

/// RNN hyperparameters.
#[derive(Debug, Clone)]
pub struct RnnConfig {
    /// Hidden state width.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Full-batch epochs.
    pub epochs: usize,
    /// L2 strength on all weight matrices.
    pub l2: f64,
    /// Init seed.
    pub seed: u64,
}

impl Default for RnnConfig {
    fn default() -> Self {
        Self { hidden: 24, lr: 1e-2, epochs: 300, l2: 1e-4, seed: 0 }
    }
}

/// A recurrent regressor over the lag structure of the feature rows.
pub struct Rnn {
    kind: RnnKind,
    config: RnnConfig,
    spec: SequenceSpec,
    params: Vec<Matrix>,
}

impl Rnn {
    /// New LSTM over the given flat-feature decomposition.
    pub fn lstm(spec: SequenceSpec, config: RnnConfig) -> Self {
        Self { kind: RnnKind::Lstm, config, spec, params: Vec::new() }
    }

    /// New GRU over the given flat-feature decomposition.
    pub fn gru(spec: SequenceSpec, config: RnnConfig) -> Self {
        Self { kind: RnnKind::Gru, config, spec, params: Vec::new() }
    }

    fn n_gates(&self) -> usize {
        match self.kind {
            RnnKind::Lstm => 4, // input, forget, cell, output
            RnnKind::Gru => 3,  // update, reset, candidate
        }
    }

    fn build_params(&mut self, rng: &mut StdRng) {
        let d = self.spec.step_width();
        let h = self.config.hidden;
        self.params.clear();
        for _ in 0..self.n_gates() {
            self.params.push(xavier_uniform(d, h, rng)); // W  (input → gate)
            self.params.push(xavier_uniform(h, h, rng)); // U  (hidden → gate)
            self.params.push(Matrix::zeros(1, h)); //        b
        }
        // Linear head on [h_final | static].
        self.params.push(xavier_uniform(h + self.spec.static_width(), 1, rng));
        self.params.push(Matrix::zeros(1, 1));
    }

    /// Gate pre-activation `x W + h U + b` for gate `gate`.
    fn gate(&self, g: &mut Graph, pv: &[Var], gate: usize, x: Var, h: Var) -> Var {
        let xw = g.matmul(x, pv[3 * gate]);
        let hu = g.matmul(h, pv[3 * gate + 1]);
        let s = g.add(xw, hu);
        g.add_row_broadcast(s, pv[3 * gate + 2])
    }

    fn forward(&self, g: &mut Graph, steps: &[Matrix], stat: &Matrix) -> (Var, Vec<Var>) {
        let pv: Vec<Var> = self.params.iter().map(|p| g.input(p.clone())).collect();
        let n = steps[0].rows();
        let h0 = g.input(Matrix::zeros(n, self.config.hidden));
        let mut h = h0;
        match self.kind {
            RnnKind::Lstm => {
                let mut c = g.input(Matrix::zeros(n, self.config.hidden));
                for xm in steps {
                    let x = g.input(xm.clone());
                    let i = self.gate(g, &pv, 0, x, h);
                    let i = g.sigmoid(i);
                    let f = self.gate(g, &pv, 1, x, h);
                    let f = g.sigmoid(f);
                    let gc = self.gate(g, &pv, 2, x, h);
                    let gc = g.tanh(gc);
                    let o = self.gate(g, &pv, 3, x, h);
                    let o = g.sigmoid(o);
                    let fc = g.mul(f, c);
                    let ig = g.mul(i, gc);
                    c = g.add(fc, ig);
                    let tc = g.tanh(c);
                    h = g.mul(o, tc);
                }
            }
            RnnKind::Gru => {
                for xm in steps {
                    let x = g.input(xm.clone());
                    let z = self.gate(g, &pv, 0, x, h);
                    let z = g.sigmoid(z);
                    let r = self.gate(g, &pv, 1, x, h);
                    let r = g.sigmoid(r);
                    let rh = g.mul(r, h);
                    let cand = self.gate(g, &pv, 2, x, rh);
                    let cand = g.tanh(cand);
                    // h' = (1 − z) ⊙ h + z ⊙ cand
                    let one_minus_z = g.affine(z, -1.0, 1.0);
                    let keep = g.mul(one_minus_z, h);
                    let upd = g.mul(z, cand);
                    h = g.add(keep, upd);
                }
            }
        }
        let stat_v = g.input(stat.clone());
        let joined = g.concat_cols(&[h, stat_v]);
        let head_w = pv[pv.len() - 2];
        let head_b = pv[pv.len() - 1];
        let out = g.matmul(joined, head_w);
        let out = g.add_row_broadcast(out, head_b);
        (out, pv)
    }
}

impl Regressor for Rnn {
    fn fit(&mut self, x: &Matrix, y: &Matrix) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.build_params(&mut rng);
        let (steps, stat) = self.spec.split(x);
        let mut adam = Adam::new(self.config.lr);
        for _ in 0..self.config.epochs {
            let mut g = Graph::new();
            let (pred, pv) = self.forward(&mut g, &steps, &stat);
            let target = g.input(y.clone());
            let mut loss = g.mse(pred, target);
            if self.config.l2 > 0.0 {
                for (i, &v) in pv.iter().enumerate() {
                    // Penalize weight matrices (every 3rd slot in gate
                    // triples is the bias; the last slot is head bias).
                    let is_bias = (i < pv.len() - 2 && i % 3 == 2) || i == pv.len() - 1;
                    if !is_bias {
                        let sq = g.sq_frobenius(v);
                        let reg = g.scale(sq, self.config.l2);
                        loss = g.add(loss, reg);
                    }
                }
            }
            adam.step(&mut self.params, &g.backward(loss, &pv));
        }
    }

    fn predict(&self, x: &Matrix) -> Matrix {
        assert!(!self.params.is_empty(), "predict before fit");
        let (steps, stat) = self.spec.split(x);
        let mut g = Graph::new();
        let (pred, _) = self.forward(&mut g, &steps, &stat);
        g.value(pred).clone()
    }

    fn name(&self) -> &str {
        match self.kind {
            RnnKind::Lstm => "Lstm",
            RnnKind::Gru => "GRU",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regressor::mse;
    use ams_tensor::init::standard_normal;

    /// Toy sequence task on a flat layout: 3 lags of one feature, label
    /// depends on the *trend* across lags (needs the recurrence).
    fn seq_problem(n: usize, seed: u64) -> (SequenceSpec, Matrix, Matrix) {
        let names: Vec<String> =
            ["bias", "v_dq3", "v_dq2", "v_dq1"].iter().map(|s| s.to_string()).collect();
        let spec = SequenceSpec::derive(&names, 3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Matrix::zeros(n, 4);
        let mut y = Matrix::zeros(n, 1);
        for r in 0..n {
            x[(r, 0)] = 1.0;
            let a = standard_normal(&mut rng);
            let b = standard_normal(&mut rng);
            let c = standard_normal(&mut rng);
            x[(r, 1)] = a;
            x[(r, 2)] = b;
            x[(r, 3)] = c;
            y[(r, 0)] = (c - b) + 0.5 * (b - a); // weighted trend
        }
        (spec, x, y)
    }

    #[test]
    fn lstm_learns_trend() {
        let (spec, x, y) = seq_problem(200, 30);
        let mut m = Rnn::lstm(spec, RnnConfig { epochs: 400, hidden: 12, ..Default::default() });
        m.fit(&x, &y);
        let err = mse(&m.predict(&x), &y);
        assert!(err < 0.05, "lstm train mse {err}");
    }

    #[test]
    fn gru_learns_trend() {
        let (spec, x, y) = seq_problem(200, 31);
        let mut m = Rnn::gru(spec, RnnConfig { epochs: 400, hidden: 12, ..Default::default() });
        m.fit(&x, &y);
        let err = mse(&m.predict(&x), &y);
        assert!(err < 0.05, "gru train mse {err}");
    }

    #[test]
    fn generalizes_to_fresh_data() {
        let (spec, xtr, ytr) = seq_problem(300, 32);
        let (_, xte, yte) = seq_problem(100, 33);
        let mut m = Rnn::gru(spec, RnnConfig { epochs: 400, hidden: 12, ..Default::default() });
        m.fit(&xtr, &ytr);
        let err = mse(&m.predict(&xte), &yte);
        assert!(err < 0.1, "gru test mse {err}");
    }

    #[test]
    fn gate_counts() {
        let (spec, _, _) = seq_problem(10, 34);
        let mut lstm = Rnn::lstm(spec.clone(), RnnConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        lstm.build_params(&mut rng);
        assert_eq!(lstm.params.len(), 4 * 3 + 2);
        let mut gru = Rnn::gru(spec, RnnConfig::default());
        gru.build_params(&mut rng);
        assert_eq!(gru.params.len(), 3 * 3 + 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (spec, x, y) = seq_problem(50, 35);
        let cfg = RnnConfig { epochs: 30, seed: 5, ..Default::default() };
        let mut a = Rnn::lstm(spec.clone(), cfg.clone());
        a.fit(&x, &y);
        let mut b = Rnn::lstm(spec, cfg);
        b.fit(&x, &y);
        assert_eq!(a.predict(&x).as_slice(), b.predict(&x).as_slice());
    }

    #[test]
    fn names() {
        let (spec, _, _) = seq_problem(5, 36);
        assert_eq!(Rnn::lstm(spec.clone(), RnnConfig::default()).name(), "Lstm");
        assert_eq!(Rnn::gru(spec, RnnConfig::default()).name(), "GRU");
    }
}
