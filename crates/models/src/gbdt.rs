//! Gradient-boosted regression trees in the XGBoost formulation (the
//! paper's XGBoost baseline with `objective = "reg:linear"`).
//!
//! Second-order boosting on squared loss: per boosting round the
//! gradient is `pred − y` and the hessian 1; trees are grown by exact
//! greedy split search maximizing the regularized gain
//!
//! ```text
//! gain = ½ [ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! ```
//!
//! with leaf weights `−G/(H+λ)`, shrinkage, and optional row/column
//! subsampling.

use ams_tensor::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::regressor::Regressor;

/// GBDT hyperparameters.
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Number of boosting rounds.
    pub n_estimators: usize,
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Shrinkage η applied to every leaf.
    pub learning_rate: f64,
    /// L2 regularization λ on leaf weights.
    pub lambda: f64,
    /// Minimum split gain γ.
    pub gamma: f64,
    /// Minimum hessian sum (= sample count for squared loss) per child.
    pub min_child_weight: f64,
    /// Row subsample fraction per tree.
    pub subsample: f64,
    /// Column subsample fraction per tree.
    pub colsample: f64,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        Self {
            n_estimators: 200,
            max_depth: 3,
            learning_rate: 0.1,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            colsample: 1.0,
            seed: 0,
        }
    }
}

/// One node of a regression tree (arena-allocated).
#[derive(Debug, Clone)]
enum TreeNode {
    Split { feature: usize, threshold: f64, left: usize, right: usize },
    Leaf { value: f64 },
}

#[derive(Debug, Clone)]
struct Tree {
    nodes: Vec<TreeNode>,
}

impl Tree {
    fn predict_row(&self, row: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                TreeNode::Leaf { value } => return *value,
                TreeNode::Split { feature, threshold, left, right } => {
                    i = if row[*feature] < *threshold { *left } else { *right };
                }
            }
        }
    }

    fn num_leaves(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, TreeNode::Leaf { .. })).count()
    }
}

/// The boosted ensemble.
pub struct Gbdt {
    config: GbdtConfig,
    trees: Vec<Tree>,
    base_score: f64,
}

impl Gbdt {
    /// Untrained ensemble.
    pub fn new(config: GbdtConfig) -> Self {
        assert!(config.learning_rate > 0.0, "gbdt: non-positive learning rate");
        assert!((0.0..=1.0).contains(&config.subsample) && config.subsample > 0.0);
        assert!((0.0..=1.0).contains(&config.colsample) && config.colsample > 0.0);
        Self { config, trees: Vec::new(), base_score: 0.0 }
    }

    /// Total leaves across the ensemble (complexity diagnostic).
    pub fn total_leaves(&self) -> usize {
        self.trees.iter().map(Tree::num_leaves).sum()
    }

    /// Grow one tree on (grad, hess) for the given rows/columns.
    fn grow_tree(
        &self,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        cols: &[usize],
    ) -> Tree {
        let mut nodes = Vec::new();
        self.grow_node(x, grad, hess, rows, cols, 0, &mut nodes);
        Tree { nodes }
    }

    #[allow(clippy::too_many_arguments)]
    fn grow_node(
        &self,
        x: &Matrix,
        grad: &[f64],
        hess: &[f64],
        rows: &[usize],
        cols: &[usize],
        depth: usize,
        nodes: &mut Vec<TreeNode>,
    ) -> usize {
        let g_sum: f64 = rows.iter().map(|&r| grad[r]).sum();
        let h_sum: f64 = rows.iter().map(|&r| hess[r]).sum();
        let leaf = |nodes: &mut Vec<TreeNode>| {
            let value = -g_sum / (h_sum + self.config.lambda);
            nodes.push(TreeNode::Leaf { value });
            nodes.len() - 1
        };
        if depth >= self.config.max_depth || rows.len() < 2 {
            return leaf(nodes);
        }

        // Exact greedy split search.
        let parent_score = g_sum * g_sum / (h_sum + self.config.lambda);
        let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)
        let mut sorted = rows.to_vec();
        for &f in cols {
            sorted.sort_by(|&a, &b| x[(a, f)].partial_cmp(&x[(b, f)]).expect("NaN feature"));
            let mut gl = 0.0;
            let mut hl = 0.0;
            for w in 0..sorted.len() - 1 {
                let r = sorted[w];
                gl += grad[r];
                hl += hess[r];
                let gr = g_sum - gl;
                let hr = h_sum - hl;
                // Can't split between equal feature values.
                if x[(sorted[w], f)] == x[(sorted[w + 1], f)] {
                    continue;
                }
                if hl < self.config.min_child_weight || hr < self.config.min_child_weight {
                    continue;
                }
                let gain = 0.5
                    * (gl * gl / (hl + self.config.lambda) + gr * gr / (hr + self.config.lambda)
                        - parent_score)
                    - self.config.gamma;
                if gain > best.map_or(0.0, |b| b.0) {
                    let threshold = 0.5 * (x[(sorted[w], f)] + x[(sorted[w + 1], f)]);
                    best = Some((gain, f, threshold));
                }
            }
        }

        match best {
            None => leaf(nodes),
            Some((_, feature, threshold)) => {
                let (lrows, rrows): (Vec<usize>, Vec<usize>) =
                    rows.iter().partition(|&&r| x[(r, feature)] < threshold);
                // Reserve this node's slot, then grow children.
                nodes.push(TreeNode::Leaf { value: 0.0 });
                let slot = nodes.len() - 1;
                let left = self.grow_node(x, grad, hess, &lrows, cols, depth + 1, nodes);
                let right = self.grow_node(x, grad, hess, &rrows, cols, depth + 1, nodes);
                nodes[slot] = TreeNode::Split { feature, threshold, left, right };
                slot
            }
        }
    }
}

impl Regressor for Gbdt {
    fn fit(&mut self, x: &Matrix, y: &Matrix) {
        assert_eq!(x.rows(), y.rows(), "gbdt: label count mismatch");
        let n = x.rows();
        let d = x.cols();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        self.trees.clear();
        self.base_score = (0..n).map(|i| y[(i, 0)]).sum::<f64>() / n as f64;
        let mut pred = vec![self.base_score; n];
        let hess = vec![1.0; n];
        let all_rows: Vec<usize> = (0..n).collect();
        let all_cols: Vec<usize> = (0..d).collect();
        for _ in 0..self.config.n_estimators {
            let grad: Vec<f64> = (0..n).map(|i| pred[i] - y[(i, 0)]).collect();
            let rows = if self.config.subsample < 1.0 {
                let m = ((n as f64 * self.config.subsample).round() as usize).max(2);
                let mut r = all_rows.clone();
                r.shuffle(&mut rng);
                r.truncate(m);
                r
            } else {
                all_rows.clone()
            };
            let cols = if self.config.colsample < 1.0 {
                let m = ((d as f64 * self.config.colsample).round() as usize).max(1);
                let mut c = all_cols.clone();
                c.shuffle(&mut rng);
                c.truncate(m);
                c
            } else {
                all_cols.clone()
            };
            let tree = self.grow_tree(x, &grad, &hess, &rows, &cols);
            for (i, p) in pred.iter_mut().enumerate() {
                *p += self.config.learning_rate * tree.predict_row(x.row(i));
            }
            self.trees.push(tree);
        }
    }

    fn predict(&self, x: &Matrix) -> Matrix {
        assert!(!self.trees.is_empty(), "predict before fit");
        let mut out = Matrix::full(x.rows(), 1, self.base_score);
        for tree in &self.trees {
            for r in 0..x.rows() {
                out[(r, 0)] += self.config.learning_rate * tree.predict_row(x.row(r));
            }
        }
        out
    }

    fn name(&self) -> &str {
        "XGBoost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regressor::mse;
    use crate::regressor::testutil::{linear_problem, nonlinear_problem};

    #[test]
    fn fits_step_function_exactly() {
        // y = 1 if x > 0 else -1: one split suffices.
        let n = 40;
        let mut x = Matrix::zeros(n, 1);
        let mut y = Matrix::zeros(n, 1);
        for i in 0..n {
            let v = i as f64 - 19.5;
            x[(i, 0)] = v;
            y[(i, 0)] = if v > 0.0 { 1.0 } else { -1.0 };
        }
        let mut m = Gbdt::new(GbdtConfig {
            n_estimators: 100,
            max_depth: 2,
            lambda: 0.0,
            ..Default::default()
        });
        m.fit(&x, &y);
        let err = mse(&m.predict(&x), &y);
        assert!(err < 1e-4, "step-function mse {err}");
    }

    #[test]
    fn boosting_reduces_training_error_monotonically_in_rounds() {
        let (xtr, ytr, _, _) = linear_problem(150, 1, 5, 0.1, 40);
        let errs: Vec<f64> = [5usize, 50, 200]
            .iter()
            .map(|&rounds| {
                let mut m = Gbdt::new(GbdtConfig { n_estimators: rounds, ..Default::default() });
                m.fit(&xtr, &ytr);
                mse(&m.predict(&xtr), &ytr)
            })
            .collect();
        assert!(errs[1] < errs[0]);
        assert!(errs[2] < errs[1]);
    }

    #[test]
    fn captures_nonlinearity() {
        let (x, y) = nonlinear_problem(400, 0.05, 41);
        let tr: Vec<usize> = (0..300).collect();
        let te: Vec<usize> = (300..400).collect();
        let (xtr, ytr) = (x.select_rows(&tr), y.select_rows(&tr));
        let (xte, yte) = (x.select_rows(&te), y.select_rows(&te));
        let mut m = Gbdt::new(GbdtConfig { n_estimators: 300, max_depth: 4, ..Default::default() });
        m.fit(&xtr, &ytr);
        let gbdt_err = mse(&m.predict(&xte), &yte);
        let mut lin = crate::linear::RidgeRegression::new(1e-6);
        lin.fit(&xtr, &ytr);
        let lin_err = mse(&lin.predict(&xte), &yte);
        assert!(gbdt_err < lin_err, "gbdt {gbdt_err} should beat linear {lin_err}");
    }

    #[test]
    fn constant_target_yields_base_score_only() {
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let y = Matrix::full(3, 1, 7.0);
        let mut m = Gbdt::new(GbdtConfig { n_estimators: 10, ..Default::default() });
        m.fit(&x, &y);
        let p = m.predict(&x);
        for i in 0..3 {
            assert!((p[(i, 0)] - 7.0).abs() < 1e-9);
        }
    }

    #[test]
    fn gamma_prunes_weak_splits() {
        let (xtr, ytr, _, _) = linear_problem(100, 1, 4, 0.5, 42);
        let mut loose =
            Gbdt::new(GbdtConfig { n_estimators: 20, gamma: 0.0, ..Default::default() });
        loose.fit(&xtr, &ytr);
        let mut strict =
            Gbdt::new(GbdtConfig { n_estimators: 20, gamma: 10.0, ..Default::default() });
        strict.fit(&xtr, &ytr);
        assert!(strict.total_leaves() < loose.total_leaves());
    }

    #[test]
    fn subsampling_is_deterministic_per_seed() {
        let (xtr, ytr, xte, _) = linear_problem(120, 20, 4, 0.2, 43);
        let cfg = GbdtConfig {
            n_estimators: 30,
            subsample: 0.7,
            colsample: 0.7,
            seed: 3,
            ..Default::default()
        };
        let mut a = Gbdt::new(cfg.clone());
        a.fit(&xtr, &ytr);
        let mut b = Gbdt::new(cfg);
        b.fit(&xtr, &ytr);
        assert_eq!(a.predict(&xte).as_slice(), b.predict(&xte).as_slice());
    }

    #[test]
    fn min_child_weight_limits_tiny_leaves() {
        let (xtr, ytr, _, _) = linear_problem(60, 1, 3, 0.2, 44);
        let mut m = Gbdt::new(GbdtConfig {
            n_estimators: 5,
            max_depth: 6,
            min_child_weight: 20.0,
            ..Default::default()
        });
        m.fit(&xtr, &ytr);
        // With ≥20 samples/leaf out of 60, a tree can have at most 3 leaves.
        for t in &m.trees {
            assert!(t.num_leaves() <= 3, "leaf count {}", t.num_leaves());
        }
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        Gbdt::new(GbdtConfig::default()).predict(&Matrix::ones(1, 1));
    }
}
