//! Tape-free forward-only scoring.
//!
//! The AMS forward is written once, in `ams-core`, generic over
//! [`ForwardOps`]: training-side `AmsModel::predict` runs it on the
//! autodiff tape, which records every intermediate so gradients
//! *could* be taken — serving never needs them. [`Engine`] runs the
//! same generic forward on its workspace executor: each op is one
//! runtime kernel call on a buffer from the worker's [`Workspace`],
//! the same kernels in the same order as the tape, so results are
//! bit-for-bit identical to the tape with no tape allocation.
//!
//! The executor is generic over the scalar ([`Element`]): the engine
//! freezes its weights into a [`ForwardPlan`] per precision at load
//! time — an exact f64 copy (the bit-identical default path) and a
//! quantized f32 copy (the mixed-precision path of DESIGN.md §14,
//! within a documented epsilon of the f64 result).
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
use crate::plan::{ForwardPlan, Plane, PlaneRef};
use ams_core::{AmsModel, ForwardOps};
use ams_tensor::runtime::{kernels, Backend, Element, RuntimeError, Seq, SimdSeq, Workspace};
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

impl PredictError {
    /// Does this failure count against the model's circuit breaker?
    pub fn is_engine_failure(&self) -> bool {
        matches!(self, PredictError::Engine(_))
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
    /// Degraded-mode predictor: the snapshot's `B_acr` and the
    /// artifact's last-good predictions.
    fallback: FallbackModel,
}

impl Engine {
    /// Validate an artifact and prepare it for scoring.
    pub fn new(artifact: ModelArtifact) -> Result<Self, String> {
        artifact.validate()?;
        let plan64 = ForwardPlan::from_artifact(&artifact);
        let plan32 = artifact.quantize_f32();
        let fallback = FallbackModel {
            anchor: artifact.snapshot.b_acr.clone().ok_or("artifact: snapshot has no b_acr")?,
            last_good: artifact.last_good.clone(),
        };
        Ok(Self { artifact, plan64, plan32, fallback })
    }

    /// The degraded-mode predictor.
    pub fn fallback(&self) -> &FallbackModel {
        &self.fallback
    }

    /// Score through the fallback ladder. `features` (full-width, may
    /// be `None` or non-finite) is projected to slave space here; the
    /// result is always finite — this path cannot fail.
    pub fn fallback_predict(&self, company: Option<usize>, features: Option<&[f64]>) -> f64 {
        let full = features.filter(|f| f.len() == self.feature_width());
        match (full, &self.artifact.snapshot.config.slave_cols) {
            (Some(f), Some(cols)) => {
                self.fallback.predict_from(company, Some(cols.iter().map(|&c| f[c])))
            }
            (full, _) => self.fallback.predict(company, full),
        }
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
        let [pred, beta_v, beta] =
            Executor::forward(&self.plan64, PlaneRef::of_matrix(x), backend, ws, deadline)?;
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
        let result = Executor::forward(&self.plan32, x32.view(), backend, ws32, deadline);
        ws32.give(x32.into_vec());
        let [pred, beta_v, beta] = result?;
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
        let [pred, beta_v, beta] =
            Executor::forward(&self.plan64, PlaneRef::of_matrix(x), &Seq, &mut ws, None)
                .map_err(|e| e.to_string())?;
        ws.give(pred.into_vec());
        Ok((beta.into_matrix(), beta_v.into_matrix()))
    }
}

/// A value of the workspace executor: a buffer this pass took from the
/// workspace, or a borrowed plane (a plan weight, the caller's input).
enum Buf<'a, E: Element> {
    Pooled(Plane<E>),
    Fixed(PlaneRef<'a, E>),
}

impl<E: Element> Buf<'_, E> {
    fn view(&self) -> PlaneRef<'_, E> {
        match self {
            Buf::Pooled(p) => p.view(),
            Buf::Fixed(r) => *r,
        }
    }
}

/// `Ok` when `ok`; otherwise the shape mismatch of a corrupt plan, an
/// engine failure.
fn check<E: Element>(
    ok: bool,
    op: &'static str,
    a: PlaneRef<'_, E>,
    b: PlaneRef<'_, E>,
) -> Result<(), PredictError> {
    if ok {
        return Ok(());
    }
    let (lhs, rhs) = ((a.rows, a.cols), (b.rows, b.cols));
    Err(PredictError::Engine(RuntimeError::ShapeMismatch { op, lhs, rhs }.to_string()))
}

/// [`ForwardOps`] value-only on the runtime kernels, over `Plane<E>`:
/// the engine's half of the one AMS forward. Every buffer comes from
/// and goes back to the worker's workspace; element-wise ops work in
/// place; dropout is the identity; [`ForwardOps::stage`] checks the
/// request deadline.
struct Executor<'a, E: Element> {
    plan: &'a ForwardPlan<E>,
    backend: &'a dyn Backend<E>,
    ws: &'a mut Workspace<E>,
    deadline: Option<Instant>,
}

impl<'a, E: Element> Executor<'a, E> {
    /// Run [`AmsModel::forward`] on `x` (one row per graph node):
    /// `[predictions, generated β_v, assembled β]`, still in `E`. For
    /// `E = f64` every op is the tape's arithmetic in the tape's order,
    /// so the result equals `AmsModel::predict` bit for bit on every
    /// deterministic backend.
    fn forward(
        plan: &'a ForwardPlan<E>,
        x: PlaneRef<'a, E>,
        backend: &'a dyn Backend<E>,
        ws: &'a mut Workspace<E>,
        deadline: Option<Instant>,
    ) -> Result<[Plane<E>; 3], PredictError> {
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
        let mut exec = Executor { plan, backend, ws, deadline };
        let [pred, beta_v, beta] = AmsModel::forward(&mut exec, &plan.arch, &Buf::Fixed(x))?;
        Ok([exec.pooled(pred), exec.pooled(beta_v), exec.pooled(beta)])
    }

    /// A zeroed `rows×cols` workspace buffer.
    fn blank(&mut self, rows: usize, cols: usize) -> Plane<E> {
        Plane::from_vec(rows, cols, self.ws.take(rows * cols))
    }

    /// `v` as a workspace buffer, copying a borrowed plane in.
    fn pooled(&mut self, v: Buf<'_, E>) -> Plane<E> {
        match v {
            Buf::Pooled(p) => p,
            Buf::Fixed(r) => {
                let mut p = self.blank(r.rows, r.cols);
                p.as_mut_slice().copy_from_slice(r.data);
                p
            }
        }
    }

    /// `f` applied to every element, in place.
    fn map(&mut self, x: Buf<'a, E>, f: impl Fn(E) -> E) -> Buf<'a, E> {
        let mut p = self.pooled(x);
        p.as_mut_slice().iter_mut().for_each(|e| *e = f(*e));
        Buf::Pooled(p)
    }
}

impl<'a, E: Element> ForwardOps for Executor<'a, E> {
    type Scalar = E;
    type Value = Buf<'a, E>;
    type Concat = Option<Buf<'a, E>>;
    type Error = PredictError;

    fn param(&self, index: usize) -> Result<Buf<'a, E>, PredictError> {
        let w = self.plan.weights.get(index);
        w.map(|w| Buf::Fixed(w.view()))
            .ok_or_else(|| PredictError::Engine(format!("no weight {index}")))
    }

    fn ones(&mut self, like: &Buf<'a, E>) -> Buf<'a, E> {
        let mut p = self.blank(like.view().rows, 1);
        p.as_mut_slice().fill(E::ONE);
        Buf::Pooled(p)
    }

    fn selection(&mut self) -> Option<Buf<'a, E>> {
        self.plan.selection.as_ref().map(|s| Buf::Fixed(s.view()))
    }

    fn dup(&mut self, x: &Buf<'a, E>) -> Buf<'a, E> {
        match x {
            Buf::Fixed(r) => Buf::Fixed(*r),
            Buf::Pooled(p) => Buf::Pooled(self.pooled(Buf::Fixed(p.view()))),
        }
    }

    fn free(&mut self, x: Buf<'a, E>) {
        if let Buf::Pooled(p) = x {
            self.ws.give(p.into_vec());
        }
    }

    fn stage(&mut self) -> Result<(), PredictError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(PredictError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    fn matmul(&mut self, a: &Buf<'a, E>, b: &Buf<'a, E>) -> Result<Buf<'a, E>, PredictError> {
        let (a, b) = (a.view(), b.view());
        check(a.cols == b.rows, "matmul", a, b)?;
        let mut out = self.blank(a.rows, b.cols);
        self.backend.matmul(a.data, b.data, out.as_mut_slice(), a.rows, a.cols, b.cols);
        Ok(Buf::Pooled(out))
    }

    fn add_row_broadcast(
        &mut self,
        x: Buf<'a, E>,
        bias: &Buf<'a, E>,
    ) -> Result<Buf<'a, E>, PredictError> {
        let (xv, b) = (x.view(), bias.view());
        check(b.rows == 1 && b.cols == xv.cols, "add_row_broadcast", xv, b)?;
        let (rows, cols) = (xv.rows, xv.cols);
        let mut out = self.pooled(x);
        kernels::add_bias_rows(out.as_mut_slice(), b.data, rows, cols);
        Ok(Buf::Pooled(out))
    }

    fn relu(&mut self, x: Buf<'a, E>) -> Buf<'a, E> {
        self.map(x, |e| e.max(E::ZERO))
    }

    fn dropout(&mut self, x: Buf<'a, E>) -> Buf<'a, E> {
        x
    }

    fn graph_attention(
        &mut self,
        s_l: Buf<'a, E>,
        s_r: Buf<'a, E>,
        wh: &Buf<'a, E>,
        slope: E,
    ) -> Result<Buf<'a, E>, PredictError> {
        let (sl, sr, w) = (s_l.view(), s_r.view(), wh.view());
        let edges = &self.plan.edges;
        let n = edges.nodes();
        check((sl.rows, sl.cols, sr.rows, sr.cols) == (n, 1, n, 1), "graph_attention", sl, sr)?;
        check(w.rows == n, "graph_attention", sl, w)?;
        let mut alpha = self.ws.take(edges.len());
        let mut out = self.blank(n, w.cols);
        let at =
            kernels::Attention { edges, s_l: sl.data, s_r: sr.data, wh: w.data, f: w.cols, slope };
        kernels::graph_attention(at, &mut alpha, out.as_mut_slice());
        self.ws.give(alpha);
        self.free(s_l);
        self.free(s_r);
        Ok(Buf::Pooled(out))
    }

    fn concat_push(
        &mut self,
        cat: &mut Option<Buf<'a, E>>,
        part: Buf<'a, E>,
    ) -> Result<(), PredictError> {
        let Some(acc) = cat.take() else {
            *cat = Some(part);
            return Ok(());
        };
        let (a, b) = (acc.view(), part.view());
        check(a.rows == b.rows, "concat_cols", a, b)?;
        let width = a.cols + b.cols;
        let mut out = self.blank(a.rows, width);
        let data = out.as_mut_slice();
        for r in 0..a.rows {
            data[r * width..r * width + a.cols].copy_from_slice(a.row(r));
            data[r * width + a.cols..(r + 1) * width].copy_from_slice(b.row(r));
        }
        self.free(acc);
        self.free(part);
        *cat = Some(Buf::Pooled(out));
        Ok(())
    }

    fn concat_cols(&mut self, cat: Option<Buf<'a, E>>) -> Result<Buf<'a, E>, PredictError> {
        cat.ok_or_else(|| PredictError::Engine("gat layer has no heads (corrupt plan)".to_string()))
    }

    fn transpose(&mut self, x: &Buf<'a, E>) -> Buf<'a, E> {
        let v = x.view();
        let mut out = self.blank(v.cols, v.rows);
        kernels::transpose(v.data, out.as_mut_slice(), v.rows, v.cols);
        Buf::Pooled(out)
    }

    fn scale(&mut self, x: Buf<'a, E>, alpha: E) -> Buf<'a, E> {
        self.map(x, |e| alpha * e + E::ZERO)
    }

    fn add(&mut self, a: Buf<'a, E>, b: Buf<'a, E>) -> Result<Buf<'a, E>, PredictError> {
        let (av, bv) = (a.view(), b.view());
        check((av.rows, av.cols) == (bv.rows, bv.cols), "add", av, bv)?;
        let mut sum = self.pooled(a);
        sum.as_mut_slice().iter_mut().zip(b.view().data).for_each(|(s, &y)| *s += y);
        self.free(b);
        Ok(Buf::Pooled(sum))
    }

    fn rowwise_dot(&mut self, a: &Buf<'a, E>, b: &Buf<'a, E>) -> Result<Buf<'a, E>, PredictError> {
        let (a, b) = (a.view(), b.view());
        check((a.rows, a.cols) == (b.rows, b.cols), "rowwise_dot", a, b)?;
        let mut out = self.blank(a.rows, 1);
        self.backend.rowwise_dot(a.data, b.data, out.as_mut_slice(), a.rows, a.cols);
        Ok(Buf::Pooled(out))
    }
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

    /// Bit-for-bit equality of two same-shape matrices.
    fn assert_bits_eq(want: &Matrix, got: &Matrix, what: &str) {
        assert_eq!(want.shape(), got.shape(), "{what}: shape");
        for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
            assert_eq!(w.to_bits(), g.to_bits(), "{what}: element {i}: {w} vs {g}");
        }
    }

    #[test]
    fn engine_matches_tape_across_architectures() {
        // The demo config has a slave-column subset, the residual skip,
        // several heads and one hidden layer in both dense stacks; each
        // row turns one of those off after a short fit.
        use ams_core::AmsConfig;
        let demo = AmsConfig {
            nt_hidden: vec![16],
            gen_hidden: vec![16],
            epochs: 15,
            dropout: 0.0,
            slave_cols: Some((0..8).collect()),
            seed: 81,
            ..AmsConfig::default()
        };
        let variants = [
            ("no residual", AmsConfig { residual: false, ..demo.clone() }),
            ("every slave column", AmsConfig { slave_cols: None, ..demo.clone() }),
            ("no node transform", AmsConfig { nt_hidden: vec![], ..demo.clone() }),
            ("linear generator", AmsConfig { gen_hidden: vec![], ..demo.clone() }),
            ("one head", AmsConfig { gat_heads: 1, ..demo.clone() }),
        ];
        let par = ams_tensor::runtime::Par::new(2);
        for (name, config) in variants {
            let fx = crate::demo::train_with(81, config);
            let engine = Engine::new(fx.artifact.clone()).unwrap();
            let x = &fx.artifact.reference_features;
            let mut on_par = fx.artifact.snapshot.clone();
            on_par.config.backend = Some("par:2".into());
            let tape_par = AmsModel::from_snapshot(on_par, &fx.artifact.graph);
            for tape in [&fx.model, &tape_par] {
                let want = tape.predict(x);
                assert_bits_eq(&want, &engine.predict_batch(x).unwrap(), name);
                let mut ws = Workspace::new();
                let got = engine.predict_batch_with(x, &par, &mut ws).unwrap();
                assert_bits_eq(&want, &got, name);
                let (want_beta, want_beta_v) = tape.slave_weights(x);
                let (got_beta, got_beta_v) = engine.slave_weights_batch(x).unwrap();
                assert_bits_eq(&want_beta, &got_beta, name);
                assert_bits_eq(&want_beta_v, &got_beta_v, name);
                // The f32 path: within the DESIGN §14 bound.
                let got32 = engine.predict_batch_f32(x).unwrap();
                for (w, g) in want.as_slice().iter().zip(got32.as_slice()) {
                    assert!((w - g).abs() <= 1e-4 * w.abs() + 1e-4, "{name}: f64 {w} vs f32 {g}");
                }
            }
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
