//! Tape-free forward-only scoring.
//!
//! Training-side `AmsModel::predict` replays the master→slave forward
//! pass on the autodiff [`ams_tensor::Graph`] — every intermediate is
//! recorded on a tape so gradients *could* be taken, which serving
//! never needs. [`Engine`] runs the same arithmetic directly on
//! workspace buffers: same primitives in the same order, so results
//! are bit-for-bit identical to the tape, with no tape allocation.
//!
//! The forward pass itself ([`run_plan`]) is generic over the scalar
//! ([`Element`]): the engine freezes its weights into a
//! [`ForwardPlan`] per precision at load time — an exact f64 copy
//! (the bit-identical default path) and a quantized f32 copy (the
//! mixed-precision path of DESIGN.md §14, within a documented epsilon
//! of the f64 result).
//!
//! Three paths:
//! * **batch** ([`Engine::predict_batch`]) re-runs the master and the
//!   slave generation for a fresh feature matrix (one row per graph
//!   node) — what a nightly re-score over updated panels uses;
//! * **batch, f32** ([`Engine::predict_batch_f32`]) — the same pass on
//!   the quantized plan and an `f32` backend (typically the vectorized
//!   `SimdSeq`), trading the bit contract for throughput;
//! * **fast** ([`Engine::predict_company`]) scores one company as a
//!   dot product against its materialized slave-LR weights from the
//!   artifact — the low-latency online path. At the artifact's
//!   reference features it agrees with the batch path exactly; for
//!   fresh features it holds the company's β fixed (the master is not
//!   re-run), which is the standard export-the-entity-parameters
//!   serving trade-off.

use crate::artifact::{FallbackModel, ModelArtifact};
use crate::plan::{ForwardPlan, PlanGatHead, PlanGatLayer, PlanLinear, Plane, PlaneRef};
use ams_tensor::runtime::{Backend, Element, RuntimeError, Seq, SimdSeq, Workspace};
use ams_tensor::Matrix;
use std::time::Instant;

/// Why a prediction could not be served from the engine. The
/// classification is what the server's degradation ladder keys on: only
/// [`PredictError::Engine`] counts against a model's circuit breaker —
/// a malformed request or an expired deadline says nothing about the
/// model's health.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PredictError {
    /// The request itself is malformed (wrong shape, unknown company).
    BadRequest(String),
    /// The per-request deadline expired mid-flight; the forward pass
    /// was abandoned between stages.
    DeadlineExceeded,
    /// The engine failed (corrupt snapshot, non-finite output).
    Engine(String),
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::BadRequest(m) => write!(f, "{m}"),
            PredictError::DeadlineExceeded => write!(f, "deadline exceeded"),
            PredictError::Engine(m) => write!(f, "engine error: {m}"),
        }
    }
}

impl std::error::Error for PredictError {}

impl From<String> for PredictError {
    /// Untyped errors bubbling out of the kernel helpers can only be
    /// shape mismatches from a corrupt snapshot — engine failures.
    fn from(message: String) -> Self {
        PredictError::Engine(message)
    }
}

impl PredictError {
    /// Does this failure count against the model's circuit breaker?
    pub fn is_engine_failure(&self) -> bool {
        matches!(self, PredictError::Engine(_))
    }
}

/// Bail out of the forward pass between stages once the request's
/// deadline has passed — the abandoned work is the cheapest work.
fn check_deadline(deadline: Option<Instant>) -> Result<(), PredictError> {
    match deadline {
        Some(d) if Instant::now() >= d => Err(PredictError::DeadlineExceeded),
        _ => Ok(()),
    }
}

/// A scoring-ready model: a validated artifact plus its weights frozen
/// into both execution precisions. Cheap to clone behind an `Arc`;
/// immutable, so freely shared across server workers.
#[derive(Debug)]
pub struct Engine {
    artifact: ModelArtifact,
    /// Exact copy of the snapshot weights — the bit-identical path.
    plan64: ForwardPlan<f64>,
    /// The weights quantized to f32 once, at load time.
    plan32: ForwardPlan<f32>,
    /// Degraded-mode predictor, always resolved: taken from the
    /// artifact when present, rebuilt from the snapshot otherwise.
    fallback: FallbackModel,
}

impl Engine {
    /// Validate an artifact and prepare it for scoring.
    pub fn new(artifact: ModelArtifact) -> Result<Self, String> {
        artifact.validate()?;
        let plan64 = ForwardPlan::from_artifact(&artifact)?;
        let plan32 = artifact.quantize_f32()?;
        let placeholder = FallbackModel {
            anchor: artifact
                .snapshot
                .b_acr
                .clone()
                .unwrap_or_else(|| Matrix::zeros(artifact.slave_weights.cols(), 1)),
            last_good: Matrix::zeros(artifact.num_companies(), 1),
        };
        let from_artifact = artifact.fallback.clone();
        let mut engine = Self { artifact, plan64, plan32, fallback: placeholder };
        match from_artifact {
            Some(fb) => engine.fallback = fb,
            None => {
                // Pre-fallback artifact: materialize last-good
                // predictions once, at load time, from the engine's own
                // batch path at the export-time reference features.
                let reference = engine.artifact.reference_features.clone();
                if let Ok(pred) = engine.predict_batch(&reference) {
                    engine.fallback.last_good = pred;
                }
            }
        }
        Ok(engine)
    }

    /// The degraded-mode predictor (never absent; see [`Engine::new`]).
    pub fn fallback(&self) -> &FallbackModel {
        &self.fallback
    }

    /// The quantized f32 plan this engine scores the f32 path with.
    pub fn plan_f32(&self) -> &ForwardPlan<f32> {
        &self.plan32
    }

    /// Score through the fallback ladder. `features` (full-width, may
    /// be `None` or non-finite) is projected to slave space here; the
    /// result is always finite — this path cannot fail.
    pub fn fallback_predict(&self, company: Option<usize>, features: Option<&[f64]>) -> f64 {
        let slave_row: Option<Vec<f64>> = features.and_then(|f| {
            if f.len() != self.feature_width() {
                return None;
            }
            Some(match &self.artifact.snapshot.config.slave_cols {
                Some(cols) => cols.iter().map(|&c| f[c]).collect(),
                None => f.to_vec(),
            })
        });
        self.fallback.predict(company, slave_row.as_deref())
    }

    /// The artifact this engine scores with.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Number of companies (graph nodes).
    pub fn num_companies(&self) -> usize {
        self.artifact.num_companies()
    }

    /// Full feature width the model consumes.
    pub fn feature_width(&self) -> usize {
        self.artifact.feature_width()
    }

    /// Fast path: score one company against its materialized slave-LR
    /// weights. `features` is a full-width (standardized) feature row;
    /// the slave-column projection happens here.
    pub fn predict_company(&self, company: usize, features: &[f64]) -> Result<f64, String> {
        let n = self.num_companies();
        if company >= n {
            return Err(format!("company {company} out of range (model has {n})"));
        }
        let d = self.feature_width();
        if features.len() != d {
            return Err(format!("feature width {} != model width {d}", features.len()));
        }
        let beta = self.artifact.slave_weights.row(company);
        let pred = match &self.artifact.snapshot.config.slave_cols {
            // Σ_j x[cols[j]] · β_j in slave-column order — exactly the
            // x·S projection followed by the row-wise dot.
            Some(cols) => cols.iter().zip(beta).map(|(&c, &b)| features[c] * b).sum(),
            None => features.iter().zip(beta).map(|(&x, &b)| x * b).sum(),
        };
        Ok(pred)
    }

    /// [`Engine::predict_company`] with a typed error: shape problems
    /// are the caller's fault, a non-finite result is an engine failure
    /// (finite weights against finite features cannot produce one).
    pub fn predict_company_checked(
        &self,
        company: usize,
        features: &[f64],
    ) -> Result<f64, PredictError> {
        let pred = self.predict_company(company, features).map_err(PredictError::BadRequest)?;
        if !pred.is_finite() {
            return Err(PredictError::Engine(format!(
                "non-finite prediction for company {company}"
            )));
        }
        Ok(pred)
    }

    /// The materialized slave-LR weight row for one company, aligned
    /// with the slave columns.
    pub fn slave_weights_row(&self, company: usize) -> Result<&[f64], String> {
        let n = self.num_companies();
        if company >= n {
            return Err(format!("company {company} out of range (model has {n})"));
        }
        Ok(self.artifact.slave_weights.row(company))
    }

    /// Names of the slave-weight columns (subset of the feature names
    /// when `slave_cols` is configured). Empty when the artifact
    /// carries no names.
    pub fn slave_feature_names(&self) -> Vec<String> {
        let names = &self.artifact.feature_names;
        if names.is_empty() {
            return Vec::new();
        }
        match &self.artifact.snapshot.config.slave_cols {
            Some(cols) => cols.iter().map(|&c| names[c].clone()).collect(),
            None => names.clone(),
        }
    }

    /// Batch path: re-run master→slave generation on a fresh feature
    /// matrix (one row per graph node) and score every company.
    /// Bit-for-bit equal to `AmsModel::predict` on the same input.
    pub fn predict_batch(&self, x: &Matrix) -> Result<Matrix, String> {
        let mut ws = Workspace::new();
        self.predict_batch_with(x, &Seq, &mut ws)
    }

    /// [`Engine::predict_batch`] on an explicit backend and workspace.
    /// Every scratch buffer comes from (and returns to) `ws`, so after
    /// one warm-up call the hot path performs zero heap allocations —
    /// provided the caller recycles the returned prediction with
    /// `ws.give(pred.into_vec())` once it has been serialized, as the
    /// server workers do.
    pub fn predict_batch_with(
        &self,
        x: &Matrix,
        backend: &dyn Backend,
        ws: &mut Workspace,
    ) -> Result<Matrix, String> {
        self.predict_batch_deadline(x, backend, ws, None).map_err(|e| e.to_string())
    }

    /// [`Engine::predict_batch_with`] with a typed error and an
    /// optional per-request deadline. The deadline is checked between
    /// forward-pass stages, so an expired request abandons the
    /// remaining work instead of finishing late; the output is checked
    /// finite, so a corrupt artifact reports an engine failure (which
    /// the server counts against the model's circuit breaker) rather
    /// than serving NaN.
    pub fn predict_batch_deadline(
        &self,
        x: &Matrix,
        backend: &dyn Backend,
        ws: &mut Workspace,
        deadline: Option<Instant>,
    ) -> Result<Matrix, PredictError> {
        let (pred, beta_v, beta) =
            run_plan(&self.plan64, PlaneRef::of_matrix(x), backend, ws, deadline)?;
        ws.give(beta_v.into_vec());
        ws.give(beta.into_vec());
        if pred.as_slice().iter().any(|v| !v.is_finite()) {
            ws.give(pred.into_vec());
            return Err(PredictError::Engine("non-finite prediction".to_string()));
        }
        Ok(pred.into_matrix())
    }

    /// The f32 batch path: narrow the input once, run the forward pass
    /// on the quantized plan with an `f32` backend, widen the
    /// predictions back to f64. Within the epsilon bound of DESIGN.md
    /// §14 of [`Engine::predict_batch`] — not bit-identical.
    ///
    /// Scratch comes from the caller's `f32` arena (`ws32`); the
    /// widened output buffer comes from the f64 arena (`ws`), so both
    /// pools warm up once and the steady-state path is allocation-free.
    /// Non-finite input is rejected up front as a bad request: the
    /// vectorized kernels do not carry the deterministic kernels'
    /// `0·∞` guard, so their contract requires finite features.
    pub fn predict_batch_f32_deadline(
        &self,
        x: &Matrix,
        backend: &dyn Backend<f32>,
        ws32: &mut Workspace<f32>,
        ws: &mut Workspace,
        deadline: Option<Instant>,
    ) -> Result<Matrix, PredictError> {
        // One pass both narrows and validates: the finite check rides
        // the copy instead of a separate scan over `x`.
        let mut xin = ws32.take(x.len());
        let mut finite = true;
        for (o, &v) in xin.iter_mut().zip(x.as_slice()) {
            finite &= v.is_finite();
            *o = v as f32;
        }
        if !finite {
            ws32.give(xin);
            return Err(PredictError::BadRequest(
                "non-finite features (the f32 path requires finite input)".to_string(),
            ));
        }
        let x32 = Plane::from_vec(x.rows(), x.cols(), xin);
        let result = run_plan(&self.plan32, x32.view(), backend, ws32, deadline);
        ws32.give(x32.into_vec());
        let (pred, beta_v, beta) = result?;
        ws32.give(beta_v.into_vec());
        ws32.give(beta.into_vec());
        let rows = pred.rows();
        let mut data = ws.take(pred.len());
        for (o, &v) in data.iter_mut().zip(pred.as_slice()) {
            *o = v as f64;
        }
        ws32.give(pred.into_vec());
        let out = Matrix::from_vec(rows, 1, data);
        if out.as_slice().iter().any(|v| !v.is_finite()) {
            ws.give(out.into_vec());
            return Err(PredictError::Engine("non-finite prediction".to_string()));
        }
        Ok(out)
    }

    /// Convenience wrapper over [`Engine::predict_batch_f32_deadline`]
    /// on the vectorized [`SimdSeq`] backend with throwaway arenas.
    pub fn predict_batch_f32(&self, x: &Matrix) -> Result<Matrix, String> {
        let mut ws32 = Workspace::new();
        let mut ws = Workspace::new();
        self.predict_batch_f32_deadline(x, &SimdSeq, &mut ws32, &mut ws, None)
            .map_err(|e| e.to_string())
    }

    /// Batch slave weights `(assembled β, generated β_v)`, both `n×m` —
    /// the serving-side counterpart of `AmsModel::slave_weights`.
    pub fn slave_weights_batch(&self, x: &Matrix) -> Result<(Matrix, Matrix), String> {
        let mut ws = Workspace::new();
        let (pred, beta_v, beta) =
            run_plan(&self.plan64, PlaneRef::of_matrix(x), &Seq, &mut ws, None)
                .map_err(|e| e.to_string())?;
        ws.give(pred.into_vec());
        Ok((beta.into_matrix(), beta_v.into_matrix()))
    }
}

/// What [`run_plan`] hands back: `(predictions, generated β_v,
/// assembled β)`, all still in the plan's scalar type.
type PlanOutputs<E> = (Plane<E>, Plane<E>, Plane<E>);

/// The forward pass of `AmsModel::forward`, replayed value-only on the
/// runtime kernels — generic over the scalar. For `E = f64` every step
/// performs the identical arithmetic in the identical order as the
/// tape op — that is what makes the engine exactly (not approximately)
/// equal to the training-side predict, on every deterministic backend.
/// For `E = f32` the same code is the quantized inference path.
fn run_plan<E: Element>(
    plan: &ForwardPlan<E>,
    x: PlaneRef<'_, E>,
    backend: &dyn Backend<E>,
    ws: &mut Workspace<E>,
    deadline: Option<Instant>,
) -> Result<PlanOutputs<E>, PredictError> {
    if x.rows != plan.companies {
        return Err(PredictError::BadRequest(format!(
            "batch has {} rows but the model graph has {} nodes",
            x.rows, plan.companies
        )));
    }
    if x.cols != plan.width {
        return Err(PredictError::BadRequest(format!(
            "feature width {} != model width {}",
            x.cols, plan.width
        )));
    }

    // Node transform (Eq. 1); dropout is identity at eval time.
    let mut h = clone_ref_ws(x, ws);
    for PlanLinear { w, b } in &plan.nt {
        let mut z = matmul_add_bias_ws(h.view(), w.view(), b.view(), backend, ws)?;
        relu_in_place(&mut z);
        ws.give(h.into_vec());
        h = z;
    }
    check_deadline(deadline)?;
    let nt_out = clone_ref_ws(h.view(), ws);
    // GAT stack (Eqs. 2–3).
    for layer in &plan.gat {
        let next = gat_layer_forward_ws(layer, &h, &plan.mask, backend, ws)?;
        ws.give(h.into_vec());
        h = next;
    }
    check_deadline(deadline)?;
    if plan.residual {
        let cat = hcat_ws(&h, &nt_out, ws);
        ws.give(h.into_vec());
        h = cat;
    }
    ws.give(nt_out.into_vec());
    // Generator M (Eq. 6): hidden ReLU layers then a linear map.
    let n_gen = plan.gen.len();
    for (i, PlanLinear { w, b }) in plan.gen.iter().enumerate() {
        let mut z = matmul_add_bias_ws(h.view(), w.view(), b.view(), backend, ws)?;
        if i + 1 < n_gen {
            relu_in_place(&mut z);
        }
        ws.give(h.into_vec());
        h = z;
    }
    check_deadline(deadline)?;
    let beta_v = h;

    // Model assembly (Eq. 10): β = γ β_v + (1−γ) β_c. The ones·βcᵀ
    // product is kept (rather than a row copy) so `-0.0` entries
    // normalize exactly as on the tape.
    let ones = {
        let mut data = ws.take(x.rows);
        data.iter_mut().for_each(|v| *v = E::ONE);
        Plane::from_vec(x.rows, 1, data)
    };
    let bc_rows = matmul_ws(ones.view(), plan.beta_c_t.view(), backend, ws)?;
    ws.give(ones.into_vec());
    let mut beta = affine_ws(&beta_v, plan.gamma, ws);
    let bc_scaled = affine_ws(&bc_rows, plan.gamma_c, ws);
    ws.give(bc_rows.into_vec());
    for (a, &b) in beta.as_mut_slice().iter_mut().zip(bc_scaled.as_slice()) {
        *a += b;
    }
    ws.give(bc_scaled.into_vec());

    // Slave-LR evaluation on the slave columns.
    let x_slave = match &plan.selection {
        Some(sel) => matmul_ws(x, sel.view(), backend, ws)?,
        None => clone_ref_ws(x, ws),
    };
    let mut pred_data = ws.take(x_slave.rows());
    backend.rowwise_dot(
        x_slave.as_slice(),
        beta.as_slice(),
        &mut pred_data,
        x_slave.rows(),
        x_slave.cols(),
    );
    let pred = Plane::from_vec(x_slave.rows(), 1, pred_data);
    ws.give(x_slave.into_vec());
    Ok((pred, beta_v, beta))
}

/// Copy a plane view into a workspace buffer.
fn clone_ref_ws<E: Element>(x: PlaneRef<'_, E>, ws: &mut Workspace<E>) -> Plane<E> {
    let mut data = ws.take(x.data.len());
    data.copy_from_slice(x.data);
    Plane::from_vec(x.rows, x.cols, data)
}

/// `Graph::relu` value semantics, in place.
fn relu_in_place<E: Element>(x: &mut Plane<E>) {
    for e in x.as_mut_slice() {
        *e = (*e).max(E::ZERO);
    }
}

/// `Graph::leaky_relu` value semantics, in place.
fn leaky_relu_in_place<E: Element>(x: &mut Plane<E>, alpha: E) {
    for e in x.as_mut_slice() {
        *e = if *e > E::ZERO { *e } else { alpha * *e };
    }
}

/// `Graph::affine`/`scale` value semantics (`alpha·x + 0.0`; the
/// `+ 0.0` is kept so `-0.0` entries normalize exactly as on the tape).
fn affine_ws<E: Element>(x: &Plane<E>, alpha: E, ws: &mut Workspace<E>) -> Plane<E> {
    let mut data = ws.take(x.len());
    for (o, &e) in data.iter_mut().zip(x.as_slice()) {
        *o = alpha * e + E::ZERO;
    }
    Plane::from_vec(x.rows(), x.cols(), data)
}

/// Workspace-fed matrix product on the runtime kernels; shape errors
/// surface as the runtime's typed error rendered to the engine's
/// error-string convention (never a panic on the inference path).
fn matmul_ws<E: Element>(
    a: PlaneRef<'_, E>,
    b: PlaneRef<'_, E>,
    backend: &dyn Backend<E>,
    ws: &mut Workspace<E>,
) -> Result<Plane<E>, String> {
    if a.cols != b.rows {
        return Err(RuntimeError::ShapeMismatch {
            op: "matmul",
            lhs: (a.rows, a.cols),
            rhs: (b.rows, b.cols),
        }
        .to_string());
    }
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let mut data = ws.take(m * n);
    backend.matmul(a.data, b.data, &mut data, m, k, n);
    Ok(Plane::from_vec(m, n, data))
}

/// Fused `x·W + b` (bias broadcast over rows), workspace-fed — the
/// matmul and the bias add happen in the same order the tape's
/// separate ops used, so values match bit-for-bit.
fn matmul_add_bias_ws<E: Element>(
    x: PlaneRef<'_, E>,
    w: PlaneRef<'_, E>,
    b: PlaneRef<'_, E>,
    backend: &dyn Backend<E>,
    ws: &mut Workspace<E>,
) -> Result<Plane<E>, String> {
    if x.cols != w.rows {
        return Err(RuntimeError::ShapeMismatch {
            op: "matmul",
            lhs: (x.rows, x.cols),
            rhs: (w.rows, w.cols),
        }
        .to_string());
    }
    if b.rows != 1 || b.cols != w.cols {
        return Err(RuntimeError::ShapeMismatch {
            op: "add_bias",
            lhs: (x.rows, w.cols),
            rhs: (b.rows, b.cols),
        }
        .to_string());
    }
    let (m, k, n) = (x.rows, x.cols, w.cols);
    let mut data = ws.take(m * n);
    backend.matmul_add_bias(x.data, w.data, b.data, &mut data, m, k, n);
    Ok(Plane::from_vec(m, n, data))
}

/// `Graph::outer_sum` value semantics: `out[i][j] = u[i] + v[j]`.
fn outer_sum_ws<E: Element>(u: &Plane<E>, v: &Plane<E>, ws: &mut Workspace<E>) -> Plane<E> {
    debug_assert_eq!(u.cols(), 1, "outer_sum: u must be a column vector");
    debug_assert_eq!(v.cols(), 1, "outer_sum: v must be a column vector");
    let (rows, cols) = (u.rows(), v.rows());
    let mut data = ws.take(rows * cols);
    for i in 0..rows {
        for j in 0..cols {
            data[i * cols + j] = u.as_slice()[i] + v.as_slice()[j];
        }
    }
    Plane::from_vec(rows, cols, data)
}

/// Horizontal concatenation `[a | b]`, workspace-fed.
fn hcat_ws<E: Element>(a: &Plane<E>, b: &Plane<E>, ws: &mut Workspace<E>) -> Plane<E> {
    debug_assert_eq!(a.rows(), b.rows(), "hcat: row mismatch");
    let (rows, ac, bc) = (a.rows(), a.cols(), b.cols());
    let mut data = ws.take(rows * (ac + bc));
    for r in 0..rows {
        data[r * (ac + bc)..r * (ac + bc) + ac].copy_from_slice(a.row(r));
        data[r * (ac + bc) + ac..(r + 1) * (ac + bc)].copy_from_slice(b.row(r));
    }
    Plane::from_vec(rows, ac + bc, data)
}

/// One attention head, value-only (`GatHead::forward` minus the tape).
fn gat_head_forward_ws<E: Element>(
    head: &PlanGatHead<E>,
    x: &Plane<E>,
    mask: &Plane<E>,
    leaky_slope: E,
    backend: &dyn Backend<E>,
    ws: &mut Workspace<E>,
) -> Result<Plane<E>, String> {
    let wx = matmul_ws(x.view(), head.w.view(), backend, ws)?;
    let s_l = matmul_ws(wx.view(), head.a_left.view(), backend, ws)?;
    let s_r = matmul_ws(wx.view(), head.a_right.view(), backend, ws)?;
    let mut logits = outer_sum_ws(&s_l, &s_r, ws);
    ws.give(s_l.into_vec());
    ws.give(s_r.into_vec());
    leaky_relu_in_place(&mut logits, leaky_slope);
    let mut attn_data = ws.take(logits.len());
    backend.masked_softmax_rows(
        logits.as_slice(),
        mask.as_slice(),
        &mut attn_data,
        logits.rows(),
        logits.cols(),
    );
    let attn = Plane::from_vec(logits.rows(), logits.cols(), attn_data);
    ws.give(logits.into_vec());
    let out = matmul_ws(attn.view(), wx.view(), backend, ws)?;
    ws.give(attn.into_vec());
    ws.give(wx.into_vec());
    Ok(out)
}

/// One GAT layer, value-only (`GatLayer::forward` minus the tape).
/// A zero-head layer is a corrupt artifact, reported as an error.
fn gat_layer_forward_ws<E: Element>(
    layer: &PlanGatLayer<E>,
    x: &Plane<E>,
    mask: &Plane<E>,
    backend: &dyn Backend<E>,
    ws: &mut Workspace<E>,
) -> Result<Plane<E>, String> {
    let mut out: Option<Plane<E>> = None;
    for head in &layer.heads {
        let mut h = gat_head_forward_ws(head, x, mask, layer.leaky_slope, backend, ws)?;
        relu_in_place(&mut h);
        out = Some(match out {
            None => h,
            Some(acc) => {
                let cat = hcat_ws(&acc, &h, ws);
                ws.give(acc.into_vec());
                ws.give(h.into_vec());
                cat
            }
        });
    }
    out.ok_or_else(|| "gat layer has no heads (corrupt snapshot)".to_string())
}

/// Convenience: sanity-check an engine against a snapshot's own
/// reference features. Returns the max absolute deviation between the
/// fast path and the batch path — `Ok(0.0)` for a well-formed artifact.
pub fn fast_vs_batch_deviation(engine: &Engine) -> Result<f64, String> {
    let x = &engine.artifact().reference_features;
    let batch = engine.predict_batch(x)?;
    let mut worst = 0.0f64;
    for i in 0..engine.num_companies() {
        let fast = engine.predict_company(i, x.row(i))?;
        worst = worst.max((fast - batch[(i, 0)]).abs());
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_fixture;

    #[test]
    fn batch_path_matches_model_predict_bitwise() {
        let fx = trained_fixture(41);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let want = fx.model.predict(&fx.artifact.reference_features);
        let got = engine.predict_batch(&fx.artifact.reference_features).unwrap();
        assert_eq!(want.shape(), got.shape());
        for i in 0..want.rows() {
            assert_eq!(
                want[(i, 0)].to_bits(),
                got[(i, 0)].to_bits(),
                "row {i}: {} vs {}",
                want[(i, 0)],
                got[(i, 0)]
            );
        }
    }

    #[test]
    fn batch_path_matches_on_fresh_features() {
        // Not just the export-time features: any same-shape batch must
        // agree with the tape, to well under the 1e-10 acceptance bound.
        let fx = trained_fixture(42);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let fresh = fx.artifact.reference_features.map(|v| v * 1.25 + 0.03);
        let want = fx.model.predict(&fresh);
        let got = engine.predict_batch(&fresh).unwrap();
        for i in 0..want.rows() {
            assert!(
                (want[(i, 0)] - got[(i, 0)]).abs() < 1e-10,
                "row {i}: {} vs {}",
                want[(i, 0)],
                got[(i, 0)]
            );
        }
    }

    #[test]
    fn slave_weights_match_model() {
        let fx = trained_fixture(43);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let (want_beta, want_beta_v) = fx.model.slave_weights(x);
        let (got_beta, got_beta_v) = engine.slave_weights_batch(x).unwrap();
        for (a, b) in [(&want_beta, &got_beta), (&want_beta_v, &got_beta_v)] {
            assert_eq!(a.shape(), b.shape());
            for i in 0..a.rows() {
                for j in 0..a.cols() {
                    assert_eq!(a[(i, j)].to_bits(), b[(i, j)].to_bits());
                }
            }
        }
    }

    #[test]
    fn fast_path_equals_batch_at_reference_features() {
        let fx = trained_fixture(44);
        let engine = Engine::new(fx.artifact).unwrap();
        assert_eq!(fast_vs_batch_deviation(&engine).unwrap(), 0.0);
    }

    #[test]
    fn hot_path_is_allocation_free_after_warm_up() {
        // One warm-up call populates the workspace arena; every later
        // request must add zero fresh allocations (the arena counter is
        // the acceptance gauge — it counts in debug and release alike).
        let fx = trained_fixture(46);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let mut ws = Workspace::new();
        let warm = engine.predict_batch_with(x, &Seq, &mut ws).unwrap();
        ws.give(warm.into_vec());
        let (allocs_after_warmup, _) = ws.counters();
        let pooled_after_warmup = ws.pooled();
        for _ in 0..5 {
            let pred = engine.predict_batch_with(x, &Seq, &mut ws).unwrap();
            ws.give(pred.into_vec());
        }
        let (allocs, _) = ws.counters();
        assert_eq!(allocs, allocs_after_warmup, "prediction hot path allocated after warm-up");
        // A balanced arena: every request gives back what it took, so
        // the free list (and each best-fit scan of it) does not grow.
        assert_eq!(ws.pooled(), pooled_after_warmup, "prediction hot path leaked into the arena");
    }

    #[test]
    fn f32_hot_path_is_allocation_free_after_warm_up() {
        // The mixed-precision path pools through two arenas (f32
        // scratch, f64 output); both must stop allocating once warm.
        let fx = trained_fixture(46);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let mut ws32: Workspace<f32> = Workspace::new();
        let mut ws: Workspace<f64> = Workspace::new();
        let warm =
            engine.predict_batch_f32_deadline(x, &SimdSeq, &mut ws32, &mut ws, None).unwrap();
        ws.give(warm.into_vec());
        let warm32 = ws32.counters().0;
        let warm64 = ws.counters().0;
        for _ in 0..5 {
            let pred =
                engine.predict_batch_f32_deadline(x, &SimdSeq, &mut ws32, &mut ws, None).unwrap();
            ws.give(pred.into_vec());
        }
        assert_eq!(ws32.counters().0, warm32, "f32 arena allocated after warm-up");
        assert_eq!(ws.counters().0, warm64, "f64 arena allocated after warm-up");
    }

    #[test]
    fn f32_path_tracks_f64_within_documented_epsilon() {
        // DESIGN.md §14: the quantized path must stay within
        // rel 1e-4 · |prediction| + abs 1e-4 of the f64 path.
        let fx = trained_fixture(50);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let want = engine.predict_batch(x).unwrap();
        let got = engine.predict_batch_f32(x).unwrap();
        assert_eq!(want.shape(), got.shape());
        for i in 0..want.rows() {
            let (w, g) = (want[(i, 0)], got[(i, 0)]);
            let tol = 1e-4 * w.abs() + 1e-4;
            assert!((w - g).abs() <= tol, "row {i}: f64 {w} vs f32 {g} (tol {tol})");
        }
    }

    #[test]
    fn f32_path_rejects_non_finite_input_as_bad_request() {
        let fx = trained_fixture(50);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let mut x = fx.artifact.reference_features.clone();
        x[(0, 0)] = f64::NAN;
        let mut ws32: Workspace<f32> = Workspace::new();
        let mut ws: Workspace<f64> = Workspace::new();
        let err =
            engine.predict_batch_f32_deadline(&x, &SimdSeq, &mut ws32, &mut ws, None).unwrap_err();
        assert!(matches!(err, PredictError::BadRequest(_)), "{err}");
        assert!(!err.is_engine_failure());
    }

    #[test]
    fn batch_path_on_par_backend_is_bit_identical() {
        let fx = trained_fixture(47);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let want = engine.predict_batch(x).unwrap();
        let par = ams_tensor::runtime::Par::new(4);
        let mut ws = Workspace::new();
        let got = engine.predict_batch_with(x, &par, &mut ws).unwrap();
        for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn fallback_is_rebuilt_for_pre_fallback_artifacts() {
        let fx = trained_fixture(48);
        let with = Engine::new(fx.artifact.clone()).unwrap();
        let mut stripped = fx.artifact.clone();
        stripped.fallback = None;
        let without = Engine::new(stripped).unwrap();
        // Rebuilt last-good predictions equal the exported ones bitwise
        // (both are the batch path at the reference features).
        let (a, b) = (&with.fallback().last_good, &without.fallback().last_good);
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fallback_predict_is_total() {
        let fx = trained_fixture(48);
        let engine = Engine::new(fx.artifact).unwrap();
        let d = engine.feature_width();
        // Every corner of the ladder yields a finite number.
        assert!(engine.fallback_predict(Some(0), Some(&vec![0.5; d])).is_finite());
        assert!(engine.fallback_predict(Some(0), Some(&vec![f64::NAN; d])).is_finite());
        assert!(engine.fallback_predict(Some(0), Some(&[1.0])).is_finite()); // wrong width
        assert!(engine.fallback_predict(Some(usize::MAX), None).is_finite());
        assert!(engine.fallback_predict(None, None).is_finite());
        // Known company with unusable features serves its last-good.
        let got = engine.fallback_predict(Some(2), Some(&vec![f64::INFINITY; d]));
        assert_eq!(got.to_bits(), engine.fallback().last_good[(2, 0)].to_bits());
    }

    #[test]
    fn expired_deadline_aborts_between_stages() {
        let fx = trained_fixture(49);
        let engine = Engine::new(fx.artifact.clone()).unwrap();
        let x = &fx.artifact.reference_features;
        let mut ws = Workspace::new();
        let past = Instant::now() - std::time::Duration::from_millis(1);
        let err = engine.predict_batch_deadline(x, &Seq, &mut ws, Some(past)).unwrap_err();
        assert_eq!(err, PredictError::DeadlineExceeded);
        assert!(!err.is_engine_failure(), "a slow request is not a sick model");
        // A generous deadline does not disturb the result.
        let far = Instant::now() + std::time::Duration::from_secs(60);
        let want = engine.predict_batch(x).unwrap();
        let got = engine.predict_batch_deadline(x, &Seq, &mut ws, Some(far)).unwrap();
        for (w, g) in want.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(w.to_bits(), g.to_bits());
        }
    }

    #[test]
    fn typed_errors_classify_caller_vs_engine() {
        let fx = trained_fixture(49);
        let engine = Engine::new(fx.artifact).unwrap();
        let d = engine.feature_width();
        let err = engine.predict_company_checked(10_000, &vec![0.0; d]).unwrap_err();
        assert!(matches!(err, PredictError::BadRequest(_)), "{err}");
        let mut ws = Workspace::new();
        let err =
            engine.predict_batch_deadline(&Matrix::zeros(1, d), &Seq, &mut ws, None).unwrap_err();
        assert!(matches!(err, PredictError::BadRequest(_)), "{err}");
        assert!(!err.is_engine_failure());
    }

    #[test]
    fn corrupt_snapshot_is_an_engine_failure() {
        let fx = trained_fixture(49);
        let mut artifact = fx.artifact.clone();
        // Flip a generator weight to NaN: the forward pass completes
        // but produces a non-finite prediction.
        let layer = artifact.snapshot.gen.last_mut().expect("generator layers");
        layer.w[(0, 0)] = f64::NAN;
        let engine = Engine::new(artifact).unwrap();
        let mut ws = Workspace::new();
        let err = engine
            .predict_batch_deadline(&fx.artifact.reference_features, &Seq, &mut ws, None)
            .unwrap_err();
        assert!(err.is_engine_failure(), "{err}");
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let fx = trained_fixture(45);
        let engine = Engine::new(fx.artifact).unwrap();
        assert!(engine.predict_company(10_000, &vec![0.0; engine.feature_width()]).is_err());
        assert!(engine.predict_company(0, &[1.0]).is_err());
        assert!(engine.predict_batch(&Matrix::zeros(1, engine.feature_width())).is_err());
        assert!(engine.predict_batch(&Matrix::zeros(engine.num_companies(), 1)).is_err());
        assert!(engine.slave_weights_row(10_000).is_err());
    }
}
