//! The Adaptive Master-Slave regularized model (§III).
//!
//! Pipeline per Figure 3: node transformation (Eq. 1) → GAT over the
//! company correlation graph (Eqs. 2–3) → slave-model generation
//! `β_v(X_i) = M(g(X_i))` (Eq. 6), regularized by
//!
//! * **supervised LR generation** (Eq. 8): `β_v` is pulled toward the
//!   anchored LR `B_acr` pre-trained on the whole training set (Eq. 5);
//! * **model assembly** (Eq. 10): the effective slave model is
//!   `γ·β_v(X_i) + (1−γ)·β_c` with a globally optimized `β_c`.
//!
//! Training follows §III-F: phase 1 fits `B_acr` in closed form; phase
//! 2 minimizes Γ_master (Eq. 11) with Adam over the node-transform, GAT
//! and generator parameters plus `β_c`.

use ams_graph::CompanyGraph;
use ams_tensor::init::he_uniform;
use ams_tensor::runtime::{Backend, BackendChoice, EdgeList};
use ams_tensor::{ridge_solve, Adam, AdamState, Graph, Matrix, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

use crate::checkpoint::{self, CheckpointConfig, FitHalted, TrainCheckpoint};
use crate::forward::{Arch, ForwardOps, Tape};
use crate::gat::{edge_list, GatHead, GatLayer};

/// AMS hyperparameters. The γ / λ_slg / λ₁ knobs are the ones the
/// paper's random search tunes per CV fold.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct AmsConfig {
    /// Node-transform hidden widths (Eq. 1; one ReLU layer per entry).
    pub nt_hidden: Vec<usize>,
    /// Per-head width of hidden GAT layers.
    pub gat_hidden: usize,
    /// Number of attention heads in hidden GAT layers (H of Eq. 3).
    pub gat_heads: usize,
    /// Width of the single-head GAT output layer.
    pub gat_out: usize,
    /// Generator `M` hidden widths (ReLU; the final projection to the
    /// slave-LR weight vector has no activation).
    pub gen_hidden: Vec<usize>,
    /// Model-assembly mix γ ∈ [0, 1] (Eq. 10); 1 = fully adaptive.
    pub gamma: f64,
    /// Supervised-generation strength λ_slg (Eq. 9).
    pub lambda_slg: f64,
    /// L2 strength λ₁ on master weights and β_c (Eq. 11).
    pub lambda_l2: f64,
    /// Ridge strength of the anchored LR (λ of Eq. 5).
    pub anchored_lambda: f64,
    /// Adam learning rate.
    pub lr: f64,
    /// Full-batch epochs for phase 2.
    pub epochs: usize,
    /// Dropout on stacked dense layers (node transform and generator).
    pub dropout: f64,
    /// Init/dropout seed.
    pub seed: u64,
    /// Concatenate the node-transform output to the GAT output before
    /// slave generation (a residual/skip connection). With mean degree
    /// ~k the attention softmax dilutes a company's own features to
    /// ~1/k of its embedding; the skip keeps per-company information
    /// undiminished, which per-company slave generation needs.
    pub residual: bool,
    /// Columns of the feature vector the *slave-LR* is evaluated on
    /// (`None` = all). The master always sees the full vector. Routing
    /// only the continuous financial features to the slave removes the
    /// per-company-intercept memorization channel (a constant or
    /// one-hot column's slave weight is an arbitrary company fixed
    /// effect, pure overfitting on quarterly panels this small) while
    /// keeping the interpretability of the per-feature weights.
    pub slave_cols: Option<Vec<usize>>,
    /// Execution backend spec for the shared runtime kernels:
    /// `"seq"`, `"par"`, or `"par:N"` (`None` = sequential). Every
    /// backend produces bit-identical parameters and predictions — this
    /// knob only chooses how the kernels execute, never what they
    /// compute, so it is safe to flip between training and serving.
    pub backend: Option<String>,
}

impl AmsConfig {
    /// The `d×m` 0/1 matrix selecting the slave columns from a width-`d`
    /// feature row; `None` when the slave model reads every column.
    ///
    /// # Panics
    /// Panics if a slave column is out of range for width `d`.
    pub fn slave_selection(&self, d: usize) -> Option<Matrix> {
        self.slave_cols.as_ref().map(|cols| {
            let mut s = Matrix::zeros(d, cols.len());
            for (j, &c) in cols.iter().enumerate() {
                assert!(c < d, "slave column {c} out of range for width {d}");
                s[(c, j)] = 1.0;
            }
            s
        })
    }
}

impl Default for AmsConfig {
    fn default() -> Self {
        Self {
            nt_hidden: vec![48],
            gat_hidden: 8,
            gat_heads: 4,
            gat_out: 24,
            gen_hidden: vec![48],
            gamma: 0.8,
            lambda_slg: 0.3,
            lambda_l2: 1e-3,
            anchored_lambda: 1.0,
            lr: 5e-3,
            epochs: 2000,
            dropout: 0.1,
            seed: 0,
            residual: true,
            slave_cols: None,
            backend: None,
        }
    }
}

/// One training quarter: node features for every company (`n×d`, rows
/// aligned with graph node ids) and the normalized unexpected-revenue
/// labels (`n×1`).
#[derive(Debug, Clone)]
pub struct QuarterBatch {
    /// Company features at this quarter.
    pub x: Matrix,
    /// Normalized unexpected revenue labels.
    pub y: Matrix,
}

/// Serializable snapshot of a fitted [`AmsModel`]: the learned
/// parameters in structured form. With the company graph the model was
/// fit on, this is everything needed to reproduce `predict` without
/// retraining or the autodiff tape; the serving artifact embeds both.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelSnapshot {
    /// The configuration the model was trained with.
    pub config: AmsConfig,
    /// Node-transform layers (W `in×out`, b `1×out`).
    pub nt: Vec<LinearLayer>,
    /// GAT stack in forward order.
    pub gat: Vec<GatLayer>,
    /// Generator layers; the last maps to the slave-LR width.
    pub gen: Vec<LinearLayer>,
    /// Globally optimized assembly component β_c (m×1, slave-column
    /// space).
    pub beta_c: Matrix,
    /// Anchored LR coefficients B_acr (m×1, slave-column space); `None`
    /// until `fit`.
    pub b_acr: Option<Matrix>,
}

impl ModelSnapshot {
    /// Every trained parameter in the order the forward reads them —
    /// node transform, GAT heads, generator, β_c — as `(name, value,
    /// whether Eq. 11's L2 applies)`: weights and β_c, not biases.
    pub fn params(&self) -> Vec<(String, &Matrix, bool)> {
        let mut out = Vec::new();
        for (i, l) in self.nt.iter().enumerate() {
            out.extend([(format!("nt[{i}].w"), &l.w, true), (format!("nt[{i}].b"), &l.b, false)]);
        }
        for (g, layer) in self.gat.iter().enumerate() {
            for (h, head) in layer.heads.iter().enumerate() {
                out.push((format!("gat[{g}].head[{h}].w"), &head.w, true));
                out.push((format!("gat[{g}].head[{h}].a_left"), &head.a_left, true));
                out.push((format!("gat[{g}].head[{h}].a_right"), &head.a_right, true));
            }
        }
        for (i, l) in self.gen.iter().enumerate() {
            out.extend([(format!("gen[{i}].w"), &l.w, true), (format!("gen[{i}].b"), &l.b, false)]);
        }
        out.push(("beta_c".to_string(), &self.beta_c, true));
        out
    }
}

/// One affine layer: weight `in×out` and bias `1×out`.
///
/// Stored as a named struct (not a tuple) so the snapshot JSON is
/// self-describing.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct LinearLayer {
    pub w: Matrix,
    pub b: Matrix,
}

/// Structural description of one full-batch training graph, exported
/// for static analysis: the data-free tape [`Plan`](ams_tensor::Plan)
/// plus the node ids of every trainable parameter (with human names in
/// [`AmsModel::param_names`] form) and of the Γ_master loss. Feed it to
/// `ams_analyze::analyze` to shape-check the tape and prove every
/// parameter is reachable from the loss before spending epochs on it.
#[derive(Debug, Clone)]
pub struct TrainingAudit {
    /// Data-free snapshot of the epoch's tape.
    pub plan: ams_tensor::Plan,
    /// `(plan node id, parameter name)` in `param_list` order.
    pub params: Vec<(usize, String)>,
    /// Plan node id of the scalar training loss.
    pub loss: usize,
}

/// The fitted AMS model.
pub struct AmsModel {
    /// Configuration and learned state: exactly what
    /// [`AmsModel::snapshot`] exports. Before `fit` the layers are
    /// empty and `b_acr` is `None`.
    state: ModelSnapshot,
    /// Kernel execution backend resolved from `config.backend`.
    backend: Arc<dyn Backend>,
    /// The edges of the graph the model was fit on, which graph
    /// attention walks; `None` before `fit`.
    edges: Option<Arc<EdgeList>>,
}

/// Resolve the configured backend spec, panicking on an invalid spec
/// (configuration errors surface at model construction, not mid-fit).
fn resolve_backend(config: &AmsConfig) -> Arc<dyn Backend> {
    match &config.backend {
        Some(spec) => {
            BackendChoice::parse(spec).unwrap_or_else(|e| panic!("AmsConfig.backend: {e}")).create()
        }
        None => ams_tensor::runtime::seq(),
    }
}

impl AmsModel {
    /// Untrained model; layer shapes are finalized at `fit` time from
    /// the feature width.
    ///
    /// # Panics
    /// Panics if γ is outside `[0, 1]`, a regularization strength is
    /// negative, or `config.backend` is not a valid spec.
    pub fn new(config: AmsConfig) -> Self {
        assert!((0.0..=1.0).contains(&config.gamma), "gamma outside [0,1]");
        assert!(config.lambda_slg >= 0.0 && config.lambda_l2 >= 0.0);
        let backend = resolve_backend(&config);
        let state = ModelSnapshot {
            config,
            nt: Vec::new(),
            gat: Vec::new(),
            gen: Vec::new(),
            beta_c: Matrix::zeros(0, 0),
            b_acr: None,
        };
        Self { state, backend, edges: None }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &AmsConfig {
        &self.state.config
    }

    /// The anchored LR `B_acr` (available after `fit`), in slave-column
    /// space.
    pub fn anchored(&self) -> Option<&Matrix> {
        self.state.b_acr.as_ref()
    }

    fn build_params(&mut self, d: usize, rng: &mut StdRng) {
        let ModelSnapshot { config, nt, gat, gen, beta_c, .. } = &mut self.state;
        nt.clear();
        gat.clear();
        gen.clear();
        let mut w_in = d;
        for &w_out in &config.nt_hidden {
            nt.push(LinearLayer { w: he_uniform(w_in, w_out, rng), b: Matrix::zeros(1, w_out) });
            w_in = w_out;
        }
        let hidden = GatLayer::hidden(w_in, config.gat_hidden, config.gat_heads, rng);
        let hidden_out = hidden.out_dim();
        gat.push(hidden);
        gat.push(GatLayer::output(hidden_out, config.gat_out, rng));
        let nt_out = config.nt_hidden.last().copied().unwrap_or(d);
        let mut g_in = config.gat_out + if config.residual { nt_out } else { 0 };
        for &w_out in &config.gen_hidden {
            gen.push(LinearLayer { w: he_uniform(g_in, w_out, rng), b: Matrix::zeros(1, w_out) });
            g_in = w_out;
        }
        // Final projection to the slave-LR weight vector (no
        // activation). Zero-initialized: combined with the bias warm
        // start below, the generated slave starts exactly at the
        // anchored LR and training learns per-company *residual*
        // adaptation — the optimization-friendly reading of the
        // supervised-generation idea (Eq. 8).
        let m = config.slave_cols.as_ref().map_or(d, Vec::len);
        gen.push(LinearLayer { w: Matrix::zeros(g_in, m), b: Matrix::zeros(1, m) });
        *beta_c = Matrix::zeros(m, 1);
    }

    /// Flat parameter list in the canonical order used for Adam.
    fn param_list(&self) -> Vec<Matrix> {
        self.state.params().into_iter().map(|(_, p, _)| p.clone()).collect()
    }

    /// Human names for every slot of [`AmsModel::param_list`], in the
    /// same canonical order: `nt[i].w`, `nt[i].b`,
    /// `gat[l].head[h].{w,a_left,a_right}`, `gen[i].{w,b}`, `beta_c`.
    /// Used to label parameters in training-audit diagnostics.
    pub fn param_names(&self) -> Vec<String> {
        self.state.params().into_iter().map(|(name, _, _)| name).collect()
    }

    /// Write a flat parameter list back into the structured storage.
    fn store_params(&mut self, params: &[Matrix]) {
        let mut it = params.iter();
        for l in &mut self.state.nt {
            l.w = it.next().expect("nt W").clone();
            l.b = it.next().expect("nt b").clone();
        }
        for layer in &mut self.state.gat {
            for head in &mut layer.heads {
                head.w = it.next().expect("gat W").clone();
                head.a_left = it.next().expect("gat a_l").clone();
                head.a_right = it.next().expect("gat a_r").clone();
            }
        }
        for l in &mut self.state.gen {
            l.w = it.next().expect("gen W").clone();
            l.b = it.next().expect("gen b").clone();
        }
        self.state.beta_c = it.next().expect("beta_c").clone();
        assert!(it.next().is_none(), "extra parameters");
    }

    /// The forward's shape: layer counts, heads, slopes and γ.
    fn arch(&self) -> Arch<f64> {
        Arch::new(&self.state, |v| v)
    }

    /// The master→slave forward pass for one quarter's node features
    /// `x`: node transform (Eq. 1) → GAT (Eqs. 2–3) → generator (Eq. 6)
    /// → assembly (Eq. 10) → slave-LR evaluation. Returns `[prediction
    /// n×1, generated β_v n×m, assembled β n×m]`. Written once for
    /// every [`ForwardOps`]: the tape trains and predicts with it, the
    /// serving engine scores with it. Parameters are read in
    /// `param_list` order; `ops.stage` marks where a deadline may
    /// abandon the pass.
    pub fn forward<O: ForwardOps>(
        ops: &mut O,
        arch: &Arch<O::Scalar>,
        x: &O::Value,
    ) -> Result<[O::Value; 3], O::Error> {
        // `p` is the cursor into the parameters. Node transform (Eq. 1).
        let mut p = 0;
        let mut h = ops.dup(x);
        for _ in 0..arch.nt {
            let z = ops.matmul(&h, &ops.param(p)?)?;
            let z = ops.add_row_broadcast(z, &ops.param(p + 1)?)?;
            ops.free(h);
            let z = ops.relu(z);
            h = ops.dropout(z);
            p += 2;
        }
        ops.stage()?;
        let nt_out = if arch.residual { Some(ops.dup(&h)) } else { None };
        // GAT stack (Eqs. 2–3).
        for layer in &arch.gat {
            let next = GatLayer::forward(ops, &h, layer, p)?;
            ops.free(h);
            h = next;
            p += GatHead::N_PARAMS * layer.heads;
        }
        ops.stage()?;
        if let Some(nt_out) = nt_out {
            let mut cat = O::Concat::default();
            ops.concat_push(&mut cat, h)?;
            ops.concat_push(&mut cat, nt_out)?;
            h = ops.concat_cols(cat)?;
        }
        // Generator M (Eq. 6): hidden ReLU layers then a linear map.
        for i in 0..arch.gen {
            let z = ops.matmul(&h, &ops.param(p)?)?;
            let z = ops.add_row_broadcast(z, &ops.param(p + 1)?)?;
            ops.free(h);
            h = if i + 1 < arch.gen {
                let z = ops.relu(z);
                ops.dropout(z)
            } else {
                z
            };
            p += 2;
        }
        ops.stage()?;
        let beta_v = h; // n×m

        // Model assembly (Eq. 10): β = γ β_v + (1−γ) β_c. The ones·β_cᵀ
        // product (not a row copy) normalizes `-0.0` entries.
        let ones = ops.ones(x);
        let bc_t = ops.transpose(&ops.param(p)?); // 1×m
        let bc_rows = ops.matmul(&ones, &bc_t)?; // n×m
        ops.free(ones);
        ops.free(bc_t);
        let v = ops.dup(&beta_v);
        let scaled_v = ops.scale(v, arch.gamma);
        let scaled_c = ops.scale(bc_rows, arch.gamma_c);
        let beta = ops.add(scaled_v, scaled_c)?;

        // Slave-LR evaluation on the slave columns: ÛR_i = x̃_iᵀ β_i.
        let x_slave = match ops.selection() {
            Some(sel) => {
                let xs = ops.matmul(x, &sel)?;
                ops.free(sel);
                xs
            }
            None => ops.dup(x),
        };
        let pred = ops.rowwise_dot(&x_slave, &beta)?;
        ops.free(x_slave);
        Ok([pred, beta_v, beta])
    }

    /// Validate fit inputs and return `(feature width, the graph's edges)`.
    fn check_fit_inputs(graph: &CompanyGraph, train: &[QuarterBatch]) -> (usize, Arc<EdgeList>) {
        assert!(!train.is_empty(), "AMS fit: no training quarters");
        let n_nodes = graph.num_nodes();
        for b in train {
            assert_eq!(b.x.rows(), n_nodes, "AMS fit: batch rows != graph nodes");
            assert_eq!(b.y.rows(), n_nodes, "AMS fit: label rows != graph nodes");
        }
        (train[0].x.cols(), Arc::new(edge_list(graph)))
    }

    /// Phase 1: the anchored LR on all training samples (Eq. 5), in
    /// slave-column space.
    fn fit_anchored(&self, train: &[QuarterBatch], d: usize) -> Matrix {
        let mut x_all = train[0].x.clone();
        let mut y_all = train[0].y.clone();
        for b in &train[1..] {
            x_all = x_all.vcat(&b.x);
            y_all = y_all.vcat(&b.y);
        }
        // The identity when the slave reads every column.
        let selection = self.state.config.slave_selection(d).unwrap_or_else(|| Matrix::eye(d));
        let x_all = x_all.matmul(&selection);
        ridge_solve(&x_all, &y_all, self.state.config.anchored_lambda)
            .or_else(|_| ridge_solve(&x_all, &y_all, self.state.config.anchored_lambda + 1e-6))
            .expect("anchored LR solve failed")
    }

    /// Phase 1, the anchored LR `B_acr` (Eq. 5), and phase 2's starting
    /// point: fresh layers drawn from `rng`, with both slave components
    /// warm-started at the anchored LR — the generator's output bias and
    /// the global assembly β_c start at `B_acr`, so epoch 0 reproduces
    /// the anchored model exactly. Returns `B_acr`.
    fn warm_start(&mut self, train: &[QuarterBatch], d: usize, rng: &mut StdRng) -> Matrix {
        let b_acr = self.fit_anchored(train, d);
        self.state.b_acr = Some(b_acr.clone());
        self.build_params(d, rng);
        self.state.beta_c = b_acr.clone();
        if let Some(last) = self.state.gen.last_mut() {
            last.b = b_acr.t();
        }
        b_acr
    }

    /// Record one full-batch training step on `g`: parameter inputs,
    /// per-quarter forward passes, and the Γ_master objective (Eq. 11)
    /// — data term, supervised-generation pull toward `b_acr`, and L2.
    /// Returns the parameter `Var`s (in `param_list` order) and the
    /// scalar loss. Shared by the epoch loop of
    /// [`AmsModel::fit_with_validation`] and by
    /// [`AmsModel::training_audit`], so the audited tape is the
    /// trained tape by construction, not a parallel reimplementation.
    fn build_training_graph(
        &self,
        g: &mut Graph,
        train: &[QuarterBatch],
        edges: &Arc<EdgeList>,
        b_acr: &Matrix,
        params: &[Matrix],
        mut rng: Option<&mut StdRng>,
    ) -> (Vec<Var>, Var) {
        let total_n: usize = train.iter().map(|b| b.x.rows()).sum();
        let param_vars: Vec<Var> = params.iter().map(|p| g.input(p.clone())).collect();
        let b_acr_rowvar = g.input(b_acr.t()); // 1×d, broadcast target
        let arch = self.arch();
        let selection = self.state.config.slave_selection(train[0].x.cols());

        let mut data_term: Option<Var> = None;
        let mut slg_term: Option<Var> = None;
        for batch in train {
            let x = g.input(batch.x.clone());
            let y = g.input(batch.y.clone());
            let mut tape = Tape {
                selection: selection.as_ref(),
                dropout: self.state.config.dropout,
                rng: rng.as_deref_mut(),
                ..Tape::new(g, edges, &param_vars)
            };
            let Ok([pred, beta_v, _]) = Self::forward(&mut tape, &arch, &x);
            let resid = g.sub(pred, y);
            let sq = g.sq_frobenius(resid);
            data_term = Some(match data_term {
                None => sq,
                Some(acc) => g.add(acc, sq),
            });
            // ‖β_v(X_i) − B_acr‖² summed over companies: subtract the
            // broadcast anchored row from every generated row.
            let n = batch.x.rows();
            let ones = g.input(Matrix::ones(n, 1));
            let acr_rows = g.matmul(ones, b_acr_rowvar);
            let dv = g.sub(beta_v, acr_rows);
            let sqv = g.sq_frobenius(dv);
            slg_term = Some(match slg_term {
                None => sqv,
                Some(acc) => g.add(acc, sqv),
            });
        }
        let data_term = data_term.expect("nonempty train");
        let slg_term = slg_term.expect("nonempty train");
        let scale_data = 1.0 / (2.0 * total_n as f64);
        let mut loss = g.scale(data_term, scale_data);
        if self.state.config.lambda_slg > 0.0 {
            let slg = g.scale(slg_term, self.state.config.lambda_slg * scale_data);
            loss = g.add(loss, slg);
        }
        if self.state.config.lambda_l2 > 0.0 {
            for (&v, (_, _, l2)) in param_vars.iter().zip(self.state.params()) {
                if l2 {
                    let sq = g.sq_frobenius(v);
                    let reg = g.scale(sq, 0.5 * self.state.config.lambda_l2);
                    loss = g.add(loss, reg);
                }
            }
        }
        (param_vars, loss)
    }

    /// Export one epoch's training graph for static analysis without
    /// running any optimizer step. On an untrained model, phase 1 and
    /// the phase-2 seed run on a scratch copy, exactly as `fit` would
    /// run them, and the model itself stays untrained; on a fitted model
    /// the current parameters are used and left untouched. The recorded
    /// tape — including dropout nodes when `dropout > 0` — is the same
    /// graph the epoch loop trains on.
    pub fn training_audit(&self, graph: &CompanyGraph, train: &[QuarterBatch]) -> TrainingAudit {
        let (d, edges) = Self::check_fit_inputs(graph, train);
        if let Some(b_acr) = &self.state.b_acr {
            return self.audit_tape(train, &edges, b_acr, &self.param_list());
        }
        let mut scratch =
            Self { state: self.state.clone(), backend: Arc::clone(&self.backend), edges: None };
        let mut rng = StdRng::seed_from_u64(self.state.config.seed);
        let b_acr = scratch.warm_start(train, d, &mut rng);
        scratch.audit_tape(train, &edges, &b_acr, &scratch.param_list())
    }

    /// One epoch's training tape on `params`, recorded with its own
    /// dropout RNG (seeded as `fit` seeds its own) for static analysis.
    fn audit_tape(
        &self,
        train: &[QuarterBatch],
        edges: &Arc<EdgeList>,
        b_acr: &Matrix,
        params: &[Matrix],
    ) -> TrainingAudit {
        let mut rng = StdRng::seed_from_u64(self.state.config.seed);
        let mut g = Graph::new();
        let (param_vars, loss) =
            self.build_training_graph(&mut g, train, edges, b_acr, params, Some(&mut rng));
        let params = param_vars.iter().map(|v| v.index()).zip(self.param_names()).collect();
        TrainingAudit { plan: g.plan(), params, loss: loss.index() }
    }

    /// Two-phase training (§III-F) on the given correlation graph and
    /// training quarters.
    ///
    /// # Panics
    /// Panics if batches are empty or row counts disagree with the
    /// graph's node count.
    pub fn fit(&mut self, graph: &CompanyGraph, train: &[QuarterBatch]) {
        let _ = self.fit_with_validation(graph, train, None);
    }

    /// Like [`AmsModel::fit`], but when a validation quarter is given,
    /// validation MSE is evaluated every 25 epochs and the parameters
    /// with the best validation error are kept (the standard
    /// early-stopping counterpart of the paper's per-fold validation
    /// quarter, §IV-C). Returns the best validation MSE (NaN when no
    /// validation batch was supplied), which hyperparameter search uses
    /// to compare candidate configurations.
    pub fn fit_with_validation(
        &mut self,
        graph: &CompanyGraph,
        train: &[QuarterBatch],
        val: Option<&QuarterBatch>,
    ) -> f64 {
        match self.fit_inner(graph, train, val, None, false) {
            Ok(v) => v,
            Err(h) => unreachable!("halt without a checkpoint config: {h}"),
        }
    }

    /// Like [`AmsModel::fit_with_validation`], but writes an atomic,
    /// checksummed [`TrainCheckpoint`] every `ckpt.every` epochs so a
    /// crashed run can be resumed with [`AmsModel::fit_resume`].
    /// Returns `Err(FitHalted)` only when the test-only
    /// [`CheckpointConfig::halt_after_epoch`] crash hook fires.
    pub fn fit_checkpointed(
        &mut self,
        graph: &CompanyGraph,
        train: &[QuarterBatch],
        val: Option<&QuarterBatch>,
        ckpt: &CheckpointConfig,
    ) -> Result<f64, FitHalted> {
        self.fit_inner(graph, train, val, Some(ckpt), false)
    }

    /// Resume a checkpointed fit from the newest *valid* checkpoint in
    /// `ckpt.dir` (corrupt files are skipped — the checksummed framing
    /// detects them — falling back to the previous retained one). The
    /// resumed run replays the exact epoch stream: parameters, Adam
    /// moments, the dropout RNG, and the early-stopping state are all
    /// restored, so the final parameters are bit-identical to an
    /// uninterrupted run over the same inputs. With no usable
    /// checkpoint on disk this is a fresh [`AmsModel::fit_checkpointed`]
    /// run.
    ///
    /// # Panics
    /// Panics if the checkpoint's parameter list does not match this
    /// configuration's shape (a checkpoint from a different model).
    pub fn fit_resume(
        &mut self,
        graph: &CompanyGraph,
        train: &[QuarterBatch],
        val: Option<&QuarterBatch>,
        ckpt: &CheckpointConfig,
    ) -> Result<f64, FitHalted> {
        self.fit_inner(graph, train, val, Some(ckpt), true)
    }

    fn fit_inner(
        &mut self,
        graph: &CompanyGraph,
        train: &[QuarterBatch],
        val: Option<&QuarterBatch>,
        ckpt: Option<&CheckpointConfig>,
        resume: bool,
    ) -> Result<f64, FitHalted> {
        let (d, edges) = Self::check_fit_inputs(graph, train);
        // The graph never changes during a fit: install it once, so the
        // validation predictions below can run.
        self.edges = Some(Arc::clone(&edges));

        // Phase 1, then phase 2 (Adam on Γ_master, Eq. 11) from its
        // warm start.
        let mut rng = StdRng::seed_from_u64(self.state.config.seed);
        let b_acr = self.warm_start(train, d, &mut rng);

        let mut params = self.param_list();
        let mut adam = Adam::new(self.state.config.lr);
        let mut best: Option<(f64, Vec<Matrix>)> = None;
        const VAL_EVERY: usize = 25;
        // Stop after this many consecutive validation checks without
        // improvement — deep-overfit snapshots are never useful and the
        // one-quarter validation set is too noisy to be trusted to pick
        // among them.
        const PATIENCE: usize = 12;
        let mut checks_since_best = 0usize;
        let mut start_epoch = 0usize;

        if resume {
            let cfg = ckpt.expect("fit_resume requires a checkpoint config");
            if let Some((path, ck)) = checkpoint::latest_valid(&cfg.dir) {
                assert_eq!(
                    ck.params.len(),
                    params.len(),
                    "checkpoint {} was written by a different model configuration",
                    path.display()
                );
                params = ck.params.clone();
                adam.restore_state(AdamState {
                    t: ck.adam_t as u64,
                    m: ck.adam_m.clone(),
                    v: ck.adam_v.clone(),
                });
                rng = StdRng::from_state(ck.decode_rng().expect("checkpoint passed validation"));
                best = ck.best_params.as_ref().map(|bp| (ck.best_vmse, bp.clone()));
                checks_since_best = ck.checks_since_best;
                start_epoch = ck.epoch + 1;
            }
        }

        // Epoch-0 snapshot: the warm-started model reproduces the
        // anchored LR exactly, so validation selection can never end up
        // materially worse than the anchor. (A resumed run restored its
        // selection state from the checkpoint instead.)
        if let (0, Some(vb)) = (start_epoch, val) {
            self.store_params(&params);
            let pred = self.predict(&vb.x);
            let vmse = pred.sub(&vb.y).sq_frobenius() / pred.len() as f64;
            best = Some((vmse, params.clone()));
        }

        // With the `verify` feature, statically check the training tape
        // before the first optimizer step: shapes, gradient
        // reachability of every parameter, numerical-risk rules. The
        // audit uses its own RNG so enabling the feature cannot perturb
        // the training dropout stream.
        #[cfg(feature = "verify")]
        {
            let TrainingAudit { plan, params: named, loss } =
                self.audit_tape(train, &edges, &b_acr, &params);
            let audit = ams_analyze::PlanAudit { plan, params: named, loss: Some(loss) };
            let report = ams_analyze::analyze(&audit);
            assert!(
                !report.has_errors(),
                "AMS training-graph verification failed:\n{}",
                report.render_text()
            );
        }

        // One tape for the whole fit: `reset` hands the buffers the
        // graph's workspace arena issued back to it, so after the first
        // epoch the heavy ops run on recycled buffers instead of fresh
        // allocations. Bit-exactness is unaffected — the kernels and
        // accumulation order are identical either way.
        let mut g = Graph::with_backend(Arc::clone(&self.backend));
        for epoch in start_epoch..self.state.config.epochs {
            g.reset();
            let (param_vars, loss) =
                self.build_training_graph(&mut g, train, &edges, &b_acr, &params, Some(&mut rng));
            adam.step(&mut params, &g.backward(loss, &param_vars));

            if let Some(vb) = val {
                if (epoch + 1) % VAL_EVERY == 0 || epoch + 1 == self.state.config.epochs {
                    self.store_params(&params);
                    let pred = self.predict(&vb.x);
                    let vmse = pred.sub(&vb.y).sq_frobenius() / pred.len() as f64;
                    if best.as_ref().is_none_or(|(b, _)| vmse < *b) {
                        best = Some((vmse, params.clone()));
                        checks_since_best = 0;
                    } else {
                        checks_since_best += 1;
                        if checks_since_best >= PATIENCE {
                            break;
                        }
                    }
                }
            }

            if let Some(cfg) = ckpt {
                if cfg.every > 0 && (epoch + 1) % cfg.every == 0 {
                    let AdamState { t, m, v } = adam.export_state();
                    let ck = TrainCheckpoint {
                        epoch,
                        params: params.clone(),
                        adam_t: t as usize,
                        adam_m: m,
                        adam_v: v,
                        rng_state: TrainCheckpoint::encode_rng(rng.state()),
                        best_vmse: best.as_ref().map_or(f64::NAN, |(b, _)| *b),
                        best_params: best.as_ref().map(|(_, p)| p.clone()),
                        checks_since_best,
                    };
                    if let Err(e) = checkpoint::write(cfg, &ck) {
                        // Checkpointing is best-effort durability; a
                        // failed write must not kill the training run.
                        eprintln!("checkpoint write failed at epoch {epoch}: {e}");
                    }
                }
                if cfg.halt_after_epoch == Some(epoch) {
                    return Err(FitHalted { epoch });
                }
            }
        }
        let best_val = best.as_ref().map_or(f64::NAN, |(v, _)| *v);
        if let Some((_, best_params)) = best {
            self.store_params(&best_params);
        } else {
            self.store_params(&params);
        }
        Ok(best_val)
    }

    /// Predict normalized unexpected revenue for every company at one
    /// quarter (`x` is `n×d` with rows aligned to graph node ids).
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let (pred, _, _) = self.run_eval(x);
        pred
    }

    /// The per-company slave-LR weights at one quarter:
    /// `(assembled β, generated β_v)`, both `n×d`. The assembled β is
    /// what Figure 8 visualizes — the weight the final linear model
    /// puts on each feature of each company.
    pub fn slave_weights(&self, x: &Matrix) -> (Matrix, Matrix) {
        let (_, beta_v, beta) = self.run_eval(x);
        (beta, beta_v)
    }

    /// Export the learned state. Usually called after `fit`; an
    /// untrained model snapshots too (empty layers, `b_acr: None`),
    /// which [`AmsModel::from_snapshot`] restores to the same untrained
    /// state.
    pub fn snapshot(&self) -> ModelSnapshot {
        self.state.clone()
    }

    /// Rebuild a predict-ready model from an exported snapshot and the
    /// graph the model was fit on. The result is interchangeable with
    /// the model that produced the snapshot for `predict` /
    /// `slave_weights` (bit-for-bit: both run the same forward pass over
    /// the same parameters and edges). An unfitted snapshot (no `b_acr`)
    /// restores to the untrained state, whatever `graph` is.
    pub fn from_snapshot(state: ModelSnapshot, graph: &CompanyGraph) -> Self {
        let backend = resolve_backend(&state.config);
        let edges = state.b_acr.as_ref().map(|_| Arc::new(edge_list(graph)));
        Self { state, backend, edges }
    }

    /// The edges of the graph the model was fit on (`None` before
    /// `fit`).
    pub fn fitted_edges(&self) -> Option<&EdgeList> {
        self.edges.as_deref()
    }

    fn run_eval(&self, x: &Matrix) -> (Matrix, Matrix, Matrix) {
        let edges = self.edges.as_ref().expect("predict before fit");
        assert_eq!(x.rows(), edges.nodes(), "predict: row count != graph nodes");
        let params = self.param_list();
        let mut g = Graph::with_backend(Arc::clone(&self.backend));
        let xv = g.input(x.clone());
        let pv: Vec<Var> = params.iter().map(|p| g.input(p.clone())).collect();
        let selection = self.state.config.slave_selection(x.cols());
        let mut tape = Tape { selection: selection.as_ref(), ..Tape::new(&mut g, edges, &pv) };
        let Ok([pred, beta_v, beta]) = Self::forward(&mut tape, &self.arch(), &xv);
        (g.value(pred).clone(), g.value(beta_v).clone(), g.value(beta).clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_graph::GraphConfig;
    use ams_tensor::init::standard_normal;

    #[test]
    fn config_serde_json_round_trip() {
        let config = AmsConfig {
            nt_hidden: vec![24, 12],
            gat_heads: 3,
            gamma: 0.35,
            slave_cols: Some(vec![0, 2, 5]),
            seed: 99,
            backend: Some("par:2".to_string()),
            ..AmsConfig::default()
        };
        let json = serde_json::to_string(&config).unwrap();
        let back: AmsConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nt_hidden, config.nt_hidden);
        assert_eq!(back.gat_hidden, config.gat_hidden);
        assert_eq!(back.gat_heads, config.gat_heads);
        assert_eq!(back.gat_out, config.gat_out);
        assert_eq!(back.gen_hidden, config.gen_hidden);
        assert_eq!(back.gamma.to_bits(), config.gamma.to_bits());
        assert_eq!(back.lambda_slg.to_bits(), config.lambda_slg.to_bits());
        assert_eq!(back.lambda_l2.to_bits(), config.lambda_l2.to_bits());
        assert_eq!(back.anchored_lambda.to_bits(), config.anchored_lambda.to_bits());
        assert_eq!(back.lr.to_bits(), config.lr.to_bits());
        assert_eq!(back.epochs, config.epochs);
        assert_eq!(back.dropout.to_bits(), config.dropout.to_bits());
        assert_eq!(back.seed, config.seed);
        assert_eq!(back.residual, config.residual);
        assert_eq!(back.slave_cols, config.slave_cols);
        assert_eq!(back.backend, config.backend);

        // `None` must survive as well (it selects all-continuous columns
        // downstream, which is very different from `Some(vec![])`).
        let config = AmsConfig::default();
        let back: AmsConfig =
            serde_json::from_str(&serde_json::to_string(&config).unwrap()).unwrap();
        assert_eq!(back.slave_cols, None);
        assert_eq!(back.backend, None);
    }

    /// Synthetic "adaptive" task: two clusters of nodes with *opposite*
    /// optimal linear weights on feature 0. A single global LR must
    /// average them out; AMS can specialize via the graph.
    struct AdaptiveTask {
        graph: CompanyGraph,
        train: Vec<QuarterBatch>,
        test: QuarterBatch,
    }

    fn adaptive_task(n_per_cluster: usize, quarters: usize, seed: u64) -> AdaptiveTask {
        let n = 2 * n_per_cluster;
        let mut rng = StdRng::seed_from_u64(seed);
        // Cluster graph: dense within cluster, no cross edges.
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let lo = if i < n_per_cluster { 0 } else { n_per_cluster };
                (lo..lo + n_per_cluster).map(|j| j as u32).collect()
            })
            .collect();
        let graph = CompanyGraph::from_adjacency(adj);
        let make = |rng: &mut StdRng| {
            let mut x = Matrix::zeros(n, 3);
            let mut y = Matrix::zeros(n, 1);
            for i in 0..n {
                let sign = if i < n_per_cluster { 1.0 } else { -1.0 };
                let f0 = standard_normal(rng);
                let f1 = standard_normal(rng);
                x[(i, 0)] = f0;
                x[(i, 1)] = f1;
                // Cluster-identifying feature the master can read.
                x[(i, 2)] = sign;
                y[(i, 0)] = sign * f0 + 0.5 * f1 + 0.05 * standard_normal(rng);
            }
            QuarterBatch { x, y }
        };
        let train = (0..quarters).map(|_| make(&mut rng)).collect();
        let test = make(&mut rng);
        AdaptiveTask { graph, train, test }
    }

    fn mse(a: &Matrix, b: &Matrix) -> f64 {
        a.sub(b).sq_frobenius() / a.len() as f64
    }

    #[test]
    fn ams_beats_anchored_lr_on_adaptive_task() {
        let task = adaptive_task(8, 6, 70);
        let mut model = AmsModel::new(AmsConfig {
            epochs: 400,
            dropout: 0.0,
            gamma: 0.8,
            lambda_slg: 0.1,
            lr: 1e-2,
            ..Default::default()
        });
        model.fit(&task.graph, &task.train);

        // Anchored LR error (the best any global linear model can do).
        let b_acr = model.anchored().unwrap().clone();
        let lr_pred = task.test.x.matmul(&b_acr);
        let lr_err = mse(&lr_pred, &task.test.y);

        let ams_pred = model.predict(&task.test.x);
        let ams_err = mse(&ams_pred, &task.test.y);
        assert!(
            ams_err < 0.5 * lr_err,
            "AMS {ams_err} should clearly beat the global LR {lr_err} on the adaptive task"
        );
    }

    #[test]
    fn slave_weights_differ_across_clusters() {
        let task = adaptive_task(8, 6, 71);
        let mut model = AmsModel::new(AmsConfig {
            epochs: 400,
            dropout: 0.0,
            gamma: 0.8,
            lambda_slg: 0.1,
            lr: 1e-2,
            ..Default::default()
        });
        model.fit(&task.graph, &task.train);
        let (beta, _) = model.slave_weights(&task.test.x);
        // Feature-0 weight should be positive in cluster A and clearly
        // lower (specialized toward negative) in cluster B.
        let w_a = beta[(0, 0)];
        let w_b = beta[(8, 0)];
        assert!(w_a > 0.2, "cluster A weight {w_a}");
        assert!(w_b < 0.0, "cluster B weight {w_b}");
        assert!(w_a - w_b > 0.4, "clusters should be clearly separated: {w_a} vs {w_b}");
    }

    #[test]
    fn gamma_zero_reduces_to_global_model() {
        // With γ = 0 the generated β_v is ignored: predictions must be
        // exactly x β_c for every company.
        let task = adaptive_task(4, 3, 72);
        let mut model =
            AmsModel::new(AmsConfig { epochs: 50, dropout: 0.0, gamma: 0.0, ..Default::default() });
        model.fit(&task.graph, &task.train);
        let pred = model.predict(&task.test.x);
        let (beta, _) = model.slave_weights(&task.test.x);
        // All rows of the assembled β are identical.
        for i in 1..beta.rows() {
            for j in 0..beta.cols() {
                assert!((beta[(i, j)] - beta[(0, j)]).abs() < 1e-12);
            }
        }
        // And prediction is the linear model applied row-wise.
        for i in 0..pred.rows() {
            let manual: f64 = (0..beta.cols()).map(|j| task.test.x[(i, j)] * beta[(0, j)]).sum();
            assert!((pred[(i, 0)] - manual).abs() < 1e-10);
        }
    }

    #[test]
    fn snapshot_json_round_trip_preserves_predictions() {
        let task = adaptive_task(4, 3, 74);
        let mut model = AmsModel::new(AmsConfig {
            epochs: 60,
            dropout: 0.0,
            gamma: 0.8,
            slave_cols: Some(vec![0, 1]),
            ..Default::default()
        });
        model.fit(&task.graph, &task.train);
        let want_pred = model.predict(&task.test.x);
        let (want_beta, want_beta_v) = model.slave_weights(&task.test.x);

        let json = serde_json::to_string(&model.snapshot()).unwrap();
        let snap: ModelSnapshot = serde_json::from_str(&json).unwrap();
        let restored = AmsModel::from_snapshot(snap, &task.graph);
        let got_pred = restored.predict(&task.test.x);
        let (got_beta, got_beta_v) = restored.slave_weights(&task.test.x);

        // JSON floats use shortest-round-trip formatting, so the
        // restored parameters — and therefore the forward pass — are
        // bit-for-bit identical, not merely close.
        for (a, b) in
            [(&want_pred, &got_pred), (&want_beta, &got_beta), (&want_beta_v, &got_beta_v)]
        {
            assert_eq!(a.rows(), b.rows());
            assert_eq!(a.cols(), b.cols());
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits(), "at ({i},{j})");
                }
            }
        }
        assert!(restored.anchored().is_some());
    }

    fn ckpt_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("ams-fit-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Config for the resume tests: dropout > 0 so the RNG stream is
    /// load-bearing, with validation so the early-stopping state is too.
    fn resume_config() -> AmsConfig {
        AmsConfig { epochs: 120, dropout: 0.1, gamma: 0.8, lr: 1e-2, ..Default::default() }
    }

    fn snapshot_json(model: &AmsModel) -> String {
        serde_json::to_string(&model.snapshot()).unwrap()
    }

    #[test]
    fn fit_resume_after_crash_is_bit_identical() {
        let task = adaptive_task(6, 3, 90);
        let val = task.test.clone();

        // Uninterrupted reference run.
        let mut straight = AmsModel::new(resume_config());
        let want_vmse = straight.fit_with_validation(&task.graph, &task.train, Some(&val));

        // Crashed run: checkpoints every 20 epochs, simulated crash
        // after epoch 50 — deliberately *between* checkpoints, so the
        // resume must replay epochs 40..=50 from the epoch-39 file.
        let dir = ckpt_dir("crash");
        let mut cfg = CheckpointConfig::new(&dir, 20);
        cfg.halt_after_epoch = Some(50);
        let mut crashed = AmsModel::new(resume_config());
        let halted = crashed.fit_checkpointed(&task.graph, &task.train, Some(&val), &cfg);
        assert_eq!(halted.unwrap_err(), FitHalted { epoch: 50 });

        // Resume in a *fresh* model (the crashed process is gone).
        cfg.halt_after_epoch = None;
        let mut resumed = AmsModel::new(resume_config());
        let got_vmse = resumed.fit_resume(&task.graph, &task.train, Some(&val), &cfg).unwrap();

        assert_eq!(want_vmse.to_bits(), got_vmse.to_bits(), "best val MSE must match exactly");
        assert_eq!(
            snapshot_json(&straight),
            snapshot_json(&resumed),
            "resumed parameters must be bit-identical to the uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fit_resume_survives_corrupt_newest_checkpoint() {
        let task = adaptive_task(6, 3, 91);
        let val = task.test.clone();

        let mut straight = AmsModel::new(resume_config());
        straight.fit_with_validation(&task.graph, &task.train, Some(&val));

        let dir = ckpt_dir("corrupt");
        let mut cfg = CheckpointConfig::new(&dir, 20);
        cfg.halt_after_epoch = Some(65);
        let mut crashed = AmsModel::new(resume_config());
        crashed.fit_checkpointed(&task.graph, &task.train, Some(&val), &cfg).unwrap_err();

        // Bit-flip the newest checkpoint (as if the disk corrupted it);
        // resume must reject it on checksum and fall back to the older
        // retained file — replaying more epochs, same final bits.
        let files = crate::checkpoint::list(&dir);
        assert!(files.len() >= 2, "need at least two retained checkpoints");
        let newest = files.last().unwrap().1.clone();
        ams_fault::bit_flip_file(&newest, 999).unwrap();

        cfg.halt_after_epoch = None;
        let mut resumed = AmsModel::new(resume_config());
        resumed.fit_resume(&task.graph, &task.train, Some(&val), &cfg).unwrap();
        assert_eq!(snapshot_json(&straight), snapshot_json(&resumed));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fit_resume_without_checkpoints_is_a_fresh_run() {
        let task = adaptive_task(4, 3, 92);
        let dir = ckpt_dir("fresh");
        let cfg = CheckpointConfig::new(&dir, 50);
        let mut a = AmsModel::new(AmsConfig { epochs: 60, ..resume_config() });
        let va = a.fit_resume(&task.graph, &task.train, Some(&task.test), &cfg).unwrap();
        let mut b = AmsModel::new(AmsConfig { epochs: 60, ..resume_config() });
        let vb = b.fit_with_validation(&task.graph, &task.train, Some(&task.test));
        assert_eq!(va.to_bits(), vb.to_bits());
        assert_eq!(snapshot_json(&a), snapshot_json(&b));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn untrained_snapshot_round_trips() {
        let model = AmsModel::new(AmsConfig::default());
        let json = serde_json::to_string(&model.snapshot()).unwrap();
        let graph = adaptive_task(2, 2, 93).graph;
        let restored = AmsModel::from_snapshot(serde_json::from_str(&json).unwrap(), &graph);
        assert!(restored.anchored().is_none());
        assert!(restored.fitted_edges().is_none());
        assert_eq!(restored.config().seed, AmsConfig::default().seed);
    }

    #[test]
    fn strong_slg_pulls_generated_weights_toward_anchor() {
        // Compare the mean distance of β_v to B_acr with and without
        // the supervised-generation regularizer: strong λ_slg must pull
        // the generated weights far closer to the anchor.
        let task = adaptive_task(4, 3, 73);
        let dist = |lambda_slg: f64| {
            let mut model = AmsModel::new(AmsConfig {
                epochs: 300,
                dropout: 0.0,
                gamma: 1.0,
                lambda_slg,
                lr: 1e-2,
                ..Default::default()
            });
            model.fit(&task.graph, &task.train);
            let (_, beta_v) = model.slave_weights(&task.test.x);
            let acr = model.anchored().unwrap();
            let mut acc = 0.0;
            for i in 0..beta_v.rows() {
                for j in 0..beta_v.cols() {
                    acc += (beta_v[(i, j)] - acr[(j, 0)]).abs();
                }
            }
            acc / beta_v.len() as f64
        };
        let free = dist(0.0);
        let pinned = dist(1e4);
        assert!(
            pinned < 0.5 * free,
            "strong λ_slg distance {pinned} should be well below unregularized {free}"
        );
        assert!(pinned < 0.1, "pinned mean distance {pinned} should be small in absolute terms");
    }

    #[test]
    fn par_backend_fit_and_predict_are_bit_identical_to_seq() {
        // The backend knob must never change what is computed: a full
        // fit (phase 1 + Adam epochs + dropout) on the parallel backend
        // has to reproduce the sequential run bit for bit.
        let task = adaptive_task(6, 3, 78);
        let cfg = AmsConfig { epochs: 60, seed: 21, ..Default::default() };
        let mut seq = AmsModel::new(cfg.clone());
        seq.fit(&task.graph, &task.train);
        let mut par = AmsModel::new(AmsConfig { backend: Some("par:4".into()), ..cfg });
        par.fit(&task.graph, &task.train);
        let ps = seq.predict(&task.test.x);
        let pp = par.predict(&task.test.x);
        for (a, b) in ps.as_slice().iter().zip(pp.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (bs, _) = seq.slave_weights(&task.test.x);
        let (bp, _) = par.slave_weights(&task.test.x);
        for (a, b) in bs.as_slice().iter().zip(bp.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "invalid backend spec")]
    fn invalid_backend_spec_is_rejected_at_construction() {
        AmsModel::new(AmsConfig { backend: Some("gpu".into()), ..Default::default() });
    }

    #[test]
    fn deterministic_per_seed() {
        let task = adaptive_task(4, 2, 74);
        let cfg = AmsConfig { epochs: 30, seed: 11, ..Default::default() };
        let mut a = AmsModel::new(cfg.clone());
        a.fit(&task.graph, &task.train);
        let mut b = AmsModel::new(cfg);
        b.fit(&task.graph, &task.train);
        assert_eq!(a.predict(&task.test.x).as_slice(), b.predict(&task.test.x).as_slice());
    }

    #[test]
    fn fit_uses_correlation_graph_builder() {
        // End-to-end with a graph built from revenue series.
        let series: Vec<Vec<f64>> =
            (0..8).map(|i| (0..6).map(|t| (i as f64 + 1.0) * (t as f64 + 1.0)).collect()).collect();
        let graph = CompanyGraph::from_series(&series, GraphConfig { k: 2, ..Default::default() });
        let task = adaptive_task(4, 2, 75);
        let mut model = AmsModel::new(AmsConfig { epochs: 20, ..Default::default() });
        model.fit(&graph, &task.train);
        assert_eq!(model.predict(&task.test.x).rows(), 8);
    }

    #[test]
    fn training_audit_passes_static_analysis() {
        let task = adaptive_task(4, 2, 76);
        let mut model = AmsModel::new(AmsConfig {
            epochs: 10,
            slave_cols: Some(vec![0, 1]),
            ..Default::default()
        });
        let audit = model.training_audit(&task.graph, &task.train);
        let names: Vec<String> = audit.params.iter().map(|(_, n)| n.clone()).collect();
        assert!(audit.params.iter().any(|(_, n)| n == "beta_c"));
        assert!(audit.params.iter().any(|(_, n)| n == "gat[0].head[0].a_left"));
        assert!(audit.loss < audit.plan.len());
        // The real training tape must be clean under every tape-IR pass.
        let report = ams_analyze::analyze(&ams_analyze::PlanAudit {
            plan: audit.plan,
            params: audit.params,
            loss: Some(audit.loss),
        });
        assert!(!report.has_errors(), "{}", report.render_text());
        // Auditing an untrained model leaves it untrained, and does not
        // perturb a later fit.
        assert!(model.snapshot().b_acr.is_none());
        assert!(model.fitted_edges().is_none());
        model.fit(&task.graph, &task.train);
        assert_eq!(names, model.param_names(), "the audit names the parameters fit trains");
        let mut fresh = AmsModel::new(AmsConfig {
            epochs: 10,
            slave_cols: Some(vec![0, 1]),
            ..Default::default()
        });
        fresh.fit(&task.graph, &task.train);
        assert_eq!(model.predict(&task.test.x).as_slice(), fresh.predict(&task.test.x).as_slice());
    }

    /// An exact proxy for the cost of an epoch: the training tape of
    /// the `train_fold` shape — the default architecture, a
    /// slave-column subset, T = 4 quarters of 71 companies — records
    /// 305 nodes. Each GAT head is one `graph_attention` node where the
    /// dense chain recorded four (outer sum, LeakyReLU, masked softmax,
    /// `α·Wh`): 365 − 3 × 5 heads × 4 quarters. The count depends only
    /// on the architecture and T, not on the data or the graph.
    #[test]
    fn training_tape_nodes_per_epoch_at_the_fold_0_shape() {
        let n = 71;
        let mut rng = StdRng::seed_from_u64(5);
        let train: Vec<QuarterBatch> = (0..4)
            .map(|_| QuarterBatch {
                x: ams_tensor::init::xavier_uniform(n, 48, &mut rng),
                y: ams_tensor::init::xavier_uniform(n, 1, &mut rng),
            })
            .collect();
        let config = AmsConfig { slave_cols: Some((0..40).collect()), ..Default::default() };
        let model = AmsModel::new(config);
        let audit = model.training_audit(&CompanyGraph::complete(n), &train);
        assert_eq!(audit.plan.len(), 305);
        let attention = audit.plan.nodes.iter().filter(|node| node.op.name() == "graph_attention");
        assert_eq!(attention.count(), 5 * 4, "one node per head per quarter");
    }

    #[test]
    fn training_audit_on_fitted_model_reuses_trained_state() {
        let task = adaptive_task(4, 2, 77);
        let mut model = AmsModel::new(AmsConfig { epochs: 10, dropout: 0.0, ..Default::default() });
        model.fit(&task.graph, &task.train);
        let before = model.predict(&task.test.x);
        let audit = model.training_audit(&task.graph, &task.train);
        // Every parameter is an input leaf of the plan.
        for (node, name) in &audit.params {
            assert!(
                matches!(audit.plan.nodes[*node].op, ams_tensor::PlanOp::Leaf),
                "{name} is not a leaf"
            );
        }
        // And the audit left the fitted parameters untouched.
        assert_eq!(model.predict(&task.test.x).as_slice(), before.as_slice());
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        AmsModel::new(AmsConfig::default()).predict(&Matrix::ones(2, 3));
    }

    #[test]
    #[should_panic(expected = "batch rows != graph nodes")]
    fn fit_rejects_mismatched_rows() {
        let graph = CompanyGraph::complete(3);
        let batch = QuarterBatch { x: Matrix::ones(4, 2), y: Matrix::ones(4, 1) };
        AmsModel::new(AmsConfig::default()).fit(&graph, &[batch]);
    }
}
