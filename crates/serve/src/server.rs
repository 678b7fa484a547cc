//! Concurrent TCP prediction server, `std::net` only.
//!
//! Wire protocol: JSON lines. Each request is one JSON object on one
//! line; each response is one JSON object on one line. Connections are
//! persistent — a client may pipeline many requests. Floats travel as
//! shortest-round-trip JSON numbers, so a served prediction is
//! bit-for-bit the engine's output.
//!
//! Requests (`model` may be omitted when exactly one model is
//! published; `version` pins an older retained version; `deadline_ms`
//! bounds how long the server may spend on this request):
//!
//! ```text
//! {"type":"predict","model":"ams","company":3,"features":[...]}
//! {"type":"predict","company":3,"features":[...],"raw":true}
//! {"type":"batch_predict","features":[[...],[...],...],"deadline_ms":50}
//! {"type":"multi_predict","requests":[{"company":3,"features":[...]},...]}
//! {"type":"slave_weights","company":3}
//! {"type":"health"}
//! {"type":"stats"}
//! ```
//!
//! Responses: `{"ok":true,...}` or `{"ok":false,"error":"..."}` — a
//! bad request gets an error response on its line, never a dropped
//! connection or a panic.
//!
//! ## Overload and degradation
//!
//! Admission is bounded: when [`ServerConfig::queue_capacity`]
//! connections are already waiting, a new connection receives an
//! explicit `{"ok":false,"shed":true,...}` line and is closed instead
//! of queueing without bound. Per-model circuit breakers (see
//! [`crate::breaker`]) trip after consecutive engine failures; while a
//! breaker is open — and for any out-of-domain input (non-finite
//! features, unknown company) — predictions are served from the
//! artifact's fallback predictor and tagged `"degraded":true` with a
//! `degraded_reason`. The `health` response reports each model as
//! `healthy`, `degraded`, or `open-circuit`.

use crate::engine::{Engine, PredictError};
use crate::metrics::Metrics;
use crate::net::{LineHandler, LineServer, Reply};
use crate::registry::Registry;
use ams_fault::{apply_delay, corrupt_bytes, flip_non_finite, FaultAction, FaultPlan, FaultSite};
use ams_tensor::runtime::{Backend, BackendChoice, Workspace};
use serde::Value;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server settings.
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Fixed worker-thread count (clamped to `1..=net::MAX_WORKERS`).
    pub workers: usize,
    /// Execution backend spec (`"seq"`, `"par"`, `"par:N"`, `"simd"`,
    /// `"f32"`, `"f32:SPEC"`); `None` means sequential. The f64 specs
    /// all produce bit-identical predictions — they only choose how the
    /// kernels execute. A `"f32"` prefix switches batch prediction to
    /// the quantized mixed-precision path (DESIGN.md §14): `"f32"`
    /// alone runs it on the vectorized `simd` backend, `"f32:seq"` /
    /// `"f32:par:N"` pick the execution strategy explicitly. Results
    /// stay within the documented epsilon of the f64 path, not
    /// bit-identical; single-company predicts are untouched.
    pub backend: Option<String>,
    /// Bounded admission queue: connections beyond this many waiting
    /// are shed with an explicit response (clamped to
    /// `1..=net::MAX_QUEUE`).
    pub queue_capacity: usize,
    /// Close a connection idle for this long, counting it in
    /// `idle_disconnects`; `0` disables the idle timeout.
    pub idle_timeout_ms: u64,
    /// Default per-request deadline; `0` means none. A request's
    /// `deadline_ms` field overrides it.
    pub default_deadline_ms: u64,
    /// Fault-injection plan for chaos testing; `None` (the production
    /// default) injects nothing.
    pub faults: Option<Arc<dyn FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            backend: None,
            queue_capacity: 64,
            idle_timeout_ms: 30_000,
            default_deadline_ms: 0,
            faults: None,
        }
    }
}

/// Everything a worker needs per request, shared across the pool.
struct Shared {
    registry: Arc<Registry>,
    metrics: Arc<Metrics>,
    backend: Arc<dyn Backend>,
    /// `Some` puts batch prediction on the quantized f32 path, run on
    /// this backend; `None` (the default) keeps the bit-exact f64 path.
    backend_f32: Option<Arc<dyn Backend<f32>>>,
    default_deadline: Option<Duration>,
    faults: Arc<dyn FaultPlan>,
}

/// A running prediction server on the [`LineServer`] connection core.
/// Dropping without [`Server::shutdown`] detaches the threads; call
/// `shutdown` for a clean stop.
pub struct Server {
    core: LineServer<Shared>,
}

impl Server {
    /// Bind, spawn the acceptor and the worker pool, and return.
    pub fn start(config: ServerConfig, registry: Arc<Registry>) -> std::io::Result<Self> {
        let bad_spec = |e: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, e);
        // An `f32` prefix selects the precision; the remainder (default
        // `simd`) selects the execution strategy for that precision.
        type Backends = (Arc<dyn Backend>, Option<Arc<dyn Backend<f32>>>);
        let (backend, backend_f32): Backends = match config.backend.as_deref() {
            None => (ams_tensor::runtime::seq(), None),
            Some("f32") => (ams_tensor::runtime::seq(), Some(BackendChoice::Simd.create_f32())),
            Some(spec) => match spec.strip_prefix("f32:") {
                Some(rest) => {
                    let choice = BackendChoice::parse(rest)
                        .map_err(|e| bad_spec(format!("f32 backend: {e}")))?;
                    (ams_tensor::runtime::seq(), Some(choice.create_f32()))
                }
                None => (
                    BackendChoice::parse(spec).map_err(|e| bad_spec(e.to_string()))?.create(),
                    None,
                ),
            },
        };
        let millis = |ms| if ms == 0 { None } else { Some(Duration::from_millis(ms)) };
        let shared = Arc::new(Shared {
            registry,
            metrics: Arc::new(Metrics::new()),
            backend,
            backend_f32,
            default_deadline: millis(config.default_deadline_ms),
            faults: config.faults.unwrap_or_else(|| Arc::new(ams_fault::NoFaults)),
        });
        let core = LineServer::start(
            &config.addr,
            config.workers,
            config.queue_capacity,
            millis(config.idle_timeout_ms),
            shared,
        )?;
        Ok(Self { core })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.core.local_addr()
    }

    /// Shared metrics handle.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.core.handler().metrics)
    }

    /// Graceful shutdown: stop accepting, let workers finish the
    /// request they are on, join every thread.
    pub fn shutdown(self) {
        self.core.shutdown();
    }
}

impl LineHandler for Shared {
    /// Per-worker scratch arenas, one per precision: buffers recycle
    /// across every request a worker serves, so the prediction hot path
    /// stops allocating once warm. The f32 arena stays empty unless the
    /// server runs the mixed-precision path.
    type Scratch = (Workspace, Workspace<f32>);

    const SHED_LINE: &'static [u8] =
        b"{\"ok\":false,\"shed\":true,\"error\":\"server overloaded: connection shed\"}\n";

    fn handle(&self, (ws, ws32): &mut Self::Scratch, line: &str) -> Reply {
        // Injected faults (NoFaults in production — every decide() is
        // None): a stalled client, corrupted request bytes, a slow
        // worker, a connection dying mid-response. The server must
        // absorb all of them without crashing.
        if let Some(FaultAction::Stall { millis }) = self.faults.decide(FaultSite::ConnectionStall)
        {
            apply_delay(millis);
        }
        let corrupted: String;
        let line = match self.faults.decide(FaultSite::RequestBytes) {
            Some(FaultAction::CorruptBytes { xor_seed, density }) => {
                let mut bytes = line.as_bytes().to_vec();
                corrupt_bytes(&mut bytes, xor_seed, density);
                corrupted = String::from_utf8_lossy(&bytes).into_owned();
                corrupted.trim()
            }
            _ => line,
        };
        if let Some(FaultAction::Delay { millis }) = self.faults.decide(FaultSite::WorkerDelay) {
            apply_delay(millis);
        }
        let started = Instant::now();
        let (kind, response) = handle_request(line, self, ws, ws32);
        let is_error = matches!(response.get("ok").and_then(Value::as_bool), Some(false) | None);
        self.metrics.record(&kind, started.elapsed(), is_error);
        let encoded = serde_json::to_string(&response).unwrap_or_else(|_| {
            r#"{"ok":false,"error":"internal: response serialization failed"}"#.to_string()
        });
        if let Some(FaultAction::Truncate) = self.faults.decide(FaultSite::ConnectionTruncate) {
            let mut cut = encoded.into_bytes();
            cut.truncate(cut.len() / 2);
            return Reply::Cut(cut);
        }
        Reply::Line(encoded)
    }

    fn on_shed(&self) {
        self.metrics.record_shed();
    }

    fn on_idle(&self) {
        self.metrics.record_idle_disconnect();
    }

    fn on_oversize(&self) {
        self.metrics.record("oversized", Duration::ZERO, true);
    }

    fn on_config_error(&self) {
        self.metrics.record_config_error();
    }
}

/// Dispatch one request line. Returns `(request kind, response)`;
/// every failure path becomes an `{"ok":false,...}` response.
fn handle_request(
    line: &str,
    shared: &Shared,
    ws: &mut Workspace,
    ws32: &mut Workspace<f32>,
) -> (String, Value) {
    let parsed: Result<Value, _> = serde_json::from_str(line);
    let request = match parsed {
        Ok(v) => v,
        Err(e) => return ("invalid".to_string(), error_response(&format!("invalid JSON: {e}"))),
    };
    let kind = request.get("type").and_then(Value::as_str).unwrap_or("missing").to_string();
    // Per-request deadline: the request's own budget wins over the
    // server default; the clock starts when handling starts.
    let deadline = request
        .get("deadline_ms")
        .and_then(Value::as_f64)
        .filter(|&ms| ms > 0.0)
        .map(|ms| Duration::from_millis(ms as u64))
        .or(shared.default_deadline)
        .map(|budget| Instant::now() + budget);
    let response = match kind.as_str() {
        "predict" => handle_predict(&request, shared, deadline),
        "multi_predict" => handle_multi_predict(&request, shared, deadline),
        "batch_predict" => handle_batch_predict(&request, shared, ws, ws32, deadline),
        "slave_weights" => handle_slave_weights(&request, &shared.registry),
        "health" => Ok(handle_health(&shared.registry)),
        "stats" => Ok(Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("stats".to_string(), serde::Serialize::to_value(&shared.metrics.snapshot())),
        ])),
        other => Err(format!("unknown request type `{other}`")),
    };
    (kind, response.unwrap_or_else(|e| error_response(&e)))
}

fn error_response(message: &str) -> Value {
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(false)),
        ("error".to_string(), Value::String(message.to_string())),
    ])
}

/// Resolve the engine a request addresses.
fn resolve_engine(request: &Value, registry: &Registry) -> Result<Arc<Engine>, String> {
    let version = request.get("version").and_then(Value::as_f64);
    match request.get("model").and_then(Value::as_str) {
        Some(name) => match version {
            Some(v) => registry
                .get_version(name, v as u64)
                .ok_or_else(|| format!("no model `{name}` at version {v}")),
            None => registry.get(name).ok_or_else(|| format!("no model `{name}`")),
        },
        None => {
            let names = registry.list();
            match names.as_slice() {
                [] => Err("no models published".to_string()),
                [(only, _, _)] => registry.get(only).ok_or_else(|| format!("no model `{only}`")),
                _ => Err(format!("`model` required ({} models published)", names.len())),
            }
        }
    }
}

fn features_field(request: &Value) -> Result<Vec<f64>, String> {
    let raw = request.get("features").ok_or_else(|| "missing `features`".to_string())?;
    serde::Deserialize::from_value(raw).map_err(|e| format!("bad `features`: {e}"))
}

fn company_field(request: &Value) -> Result<usize, String> {
    let v = request
        .get("company")
        .and_then(Value::as_f64)
        .ok_or_else(|| "missing `company`".to_string())?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("bad `company` {v}"));
    }
    Ok(v as usize)
}

fn deadline_expired(deadline: Option<Instant>) -> bool {
    matches!(deadline, Some(d) if Instant::now() >= d)
}

/// Build a degraded (`"degraded":true`) single-company response from
/// the engine's fallback ladder. Infallible by construction.
fn degraded_predict(
    engine: &Engine,
    company: usize,
    features: &[f64],
    standardizer: Option<&ams_data::Standardizer>,
    reason: &str,
    metrics: &Metrics,
) -> Value {
    metrics.record_degraded();
    let feats = if features.len() == engine.feature_width() { Some(features) } else { None };
    let mut prediction = engine.fallback_predict(Some(company), feats);
    if let Some(st) = standardizer {
        prediction = st.destandardize_label(prediction);
    }
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("degraded".to_string(), Value::Bool(true)),
        ("degraded_reason".to_string(), Value::String(reason.to_string())),
        ("model".to_string(), Value::String(engine.artifact().name.clone())),
        ("version".to_string(), Value::Number(engine.artifact().version as f64)),
        ("company".to_string(), Value::Number(company as f64)),
        ("prediction".to_string(), Value::Number(prediction)),
    ])
}

/// The degradation ladder, in order:
/// 1. malformed request → error response (no health signal);
/// 2. out-of-domain input (non-finite features, unknown company) →
///    fallback, tagged degraded — the *model* is fine;
/// 3. open circuit → fallback, tagged degraded, engine untouched;
/// 4. expired deadline → explicit deadline error;
/// 5. engine failure → breaker takes a failure, request still answered
///    from the fallback, tagged degraded.
fn handle_predict(
    request: &Value,
    shared: &Shared,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let engine = resolve_engine(request, &shared.registry)?;
    predict_resolved(&engine, request, shared, deadline)
}

/// Coalesced single predictions: the cluster router's micro-batching
/// endpoint. The engine resolves once per envelope; each element runs
/// the full [`handle_predict`] ladder independently, so one malformed
/// or out-of-domain element degrades (or errors) on its own slot and
/// never poisons its batch-mates. `results[i]` answers `requests[i]`.
fn handle_multi_predict(
    request: &Value,
    shared: &Shared,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let engine = resolve_engine(request, &shared.registry)?;
    let elements = request
        .get("requests")
        .and_then(Value::as_array)
        .ok_or_else(|| "missing `requests`".to_string())?;
    let mut results = Vec::with_capacity(elements.len());
    for element in elements {
        let resp = predict_resolved(&engine, element, shared, deadline)
            .unwrap_or_else(|e| error_response(&e));
        results.push(resp);
    }
    Ok(Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("model".to_string(), Value::String(engine.artifact().name.clone())),
        ("version".to_string(), Value::Number(engine.artifact().version as f64)),
        ("results".to_string(), Value::Array(results)),
    ]))
}

/// The per-request body of [`handle_predict`], after engine
/// resolution — shared with [`handle_multi_predict`].
fn predict_resolved(
    engine: &Arc<Engine>,
    request: &Value,
    shared: &Shared,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let company = company_field(request)?;
    let mut features = features_field(request)?;
    // Injected fault: out-of-domain feature values. Exercises the same
    // path a poisoned upstream panel would.
    if let Some(FaultAction::FlipNonFinite { flips, kind_seed }) =
        shared.faults.decide(FaultSite::Features)
    {
        flip_non_finite(&mut features, flips, kind_seed);
    }
    let raw = request.get("raw").and_then(Value::as_bool).unwrap_or(false);
    // Resolve the standardizer once so raw-space handling has a single
    // fallible step instead of a checked lookup plus a later unwrap.
    let standardizer =
        if raw {
            Some(engine.artifact().standardizer.as_ref().ok_or_else(|| {
                "model has no standardizer; send model-space features".to_string()
            })?)
        } else {
            None
        };
    if let Some(st) = standardizer {
        if features.len() != st.width() {
            return Err(format!("feature width {} != model width {}", features.len(), st.width()));
        }
        st.transform_row(&mut features);
    }
    // Out-of-domain input: degraded answer, no breaker involvement.
    if company >= engine.num_companies() {
        return Ok(degraded_predict(
            engine,
            company,
            &features,
            standardizer,
            "unknown company",
            &shared.metrics,
        ));
    }
    if features.len() != engine.feature_width() {
        return Err(format!(
            "feature width {} != model width {}",
            features.len(),
            engine.feature_width()
        ));
    }
    if features.iter().any(|v| !v.is_finite()) {
        return Ok(degraded_predict(
            engine,
            company,
            &features,
            standardizer,
            "non-finite features",
            &shared.metrics,
        ));
    }
    if deadline_expired(deadline) {
        shared.metrics.record_deadline_exceeded();
        return Err("deadline exceeded".to_string());
    }
    // All validation passed: from here on, every admitted request
    // reports a success or a failure back to the breaker.
    let breaker = shared.registry.breaker(&engine.artifact().name);
    if let Some(b) = &breaker {
        if !b.allow() {
            return Ok(degraded_predict(
                engine,
                company,
                &features,
                standardizer,
                "circuit open",
                &shared.metrics,
            ));
        }
    }
    match engine.predict_company_checked(company, &features) {
        Ok(mut prediction) => {
            if let Some(b) = &breaker {
                b.record_success();
            }
            if let Some(st) = standardizer {
                prediction = st.destandardize_label(prediction);
            }
            Ok(Value::Object(vec![
                ("ok".to_string(), Value::Bool(true)),
                ("model".to_string(), Value::String(engine.artifact().name.clone())),
                ("version".to_string(), Value::Number(engine.artifact().version as f64)),
                ("company".to_string(), Value::Number(company as f64)),
                ("prediction".to_string(), Value::Number(prediction)),
            ]))
        }
        Err(PredictError::Engine(_)) => {
            if let Some(b) = &breaker {
                b.record_failure();
            }
            Ok(degraded_predict(
                engine,
                company,
                &features,
                standardizer,
                "engine error",
                &shared.metrics,
            ))
        }
        // Unreachable after the validation above, but classified
        // defensively: a caller mistake is not an engine failure.
        Err(e) => {
            if let Some(b) = &breaker {
                b.release_probe();
            }
            Err(e.to_string())
        }
    }
}

/// Degraded batch answer: every row through the fallback ladder.
fn degraded_batch(
    engine: &Engine,
    x: &ams_tensor::Matrix,
    standardizer: Option<&ams_data::Standardizer>,
    reason: &str,
    metrics: &Metrics,
) -> Value {
    metrics.record_degraded();
    let out: Vec<Value> = (0..x.rows())
        .map(|i| {
            let mut p = engine.fallback_predict(Some(i), Some(x.row(i)));
            if let Some(st) = standardizer {
                p = st.destandardize_label(p);
            }
            Value::Number(p)
        })
        .collect();
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("degraded".to_string(), Value::Bool(true)),
        ("degraded_reason".to_string(), Value::String(reason.to_string())),
        ("model".to_string(), Value::String(engine.artifact().name.clone())),
        ("version".to_string(), Value::Number(engine.artifact().version as f64)),
        ("predictions".to_string(), Value::Array(out)),
    ])
}

fn handle_batch_predict(
    request: &Value,
    shared: &Shared,
    ws: &mut Workspace,
    ws32: &mut Workspace<f32>,
    deadline: Option<Instant>,
) -> Result<Value, String> {
    let engine = resolve_engine(request, &shared.registry)?;
    let rows_value = request.get("features").ok_or_else(|| "missing `features`".to_string())?;
    let rows: Vec<Vec<f64>> =
        serde::Deserialize::from_value(rows_value).map_err(|e| format!("bad `features`: {e}"))?;
    let n = engine.num_companies();
    if rows.len() != n {
        return Err(format!("batch has {} rows but the model has {n} companies", rows.len()));
    }
    let d = engine.feature_width();
    let raw = request.get("raw").and_then(Value::as_bool).unwrap_or(false);
    let standardizer =
        if raw {
            Some(engine.artifact().standardizer.as_ref().ok_or_else(|| {
                "model has no standardizer; send model-space features".to_string()
            })?)
        } else {
            None
        };
    // The feature matrix comes from (and returns to) the worker's
    // arena: only JSON parsing and response building allocate, the
    // inference path itself is allocation-free once the arena is warm.
    let mut flat = ws.take(n * d);
    flat.clear();
    for (i, mut row) in rows.into_iter().enumerate() {
        if row.len() != d {
            ws.give(flat);
            return Err(format!("row {i} has width {} (expected {d})", row.len()));
        }
        if let Some(st) = standardizer {
            st.transform_row(&mut row);
        }
        flat.extend_from_slice(&row);
    }
    if let Some(FaultAction::FlipNonFinite { flips, kind_seed }) =
        shared.faults.decide(FaultSite::Features)
    {
        flip_non_finite(&mut flat, flips, kind_seed);
    }
    let x = ams_tensor::Matrix::from_vec(n, d, flat);
    // Out-of-domain batch: degraded answer, no breaker involvement.
    if x.as_slice().iter().any(|v| !v.is_finite()) {
        let resp =
            degraded_batch(&engine, &x, standardizer, "non-finite features", &shared.metrics);
        ws.give(x.into_vec());
        return Ok(resp);
    }
    if deadline_expired(deadline) {
        shared.metrics.record_deadline_exceeded();
        ws.give(x.into_vec());
        return Err("deadline exceeded".to_string());
    }
    let breaker = shared.registry.breaker(&engine.artifact().name);
    if let Some(b) = &breaker {
        if !b.allow() {
            let resp = degraded_batch(&engine, &x, standardizer, "circuit open", &shared.metrics);
            ws.give(x.into_vec());
            return Ok(resp);
        }
    }
    // Precision dispatch: the f32 backend (when configured) serves the
    // batch on the quantized plan; otherwise the bit-exact f64 path.
    // Both return f64 predictions, so everything downstream is shared.
    let attempt = match &shared.backend_f32 {
        Some(b32) => engine.predict_batch_f32_deadline(&x, b32.as_ref(), ws32, ws, deadline),
        None => engine.predict_batch_deadline(&x, shared.backend.as_ref(), ws, deadline),
    };
    let pred = match attempt {
        Ok(p) => {
            if let Some(b) = &breaker {
                b.record_success();
            }
            p
        }
        Err(PredictError::DeadlineExceeded) => {
            // The probe (if this was one) ended without a verdict.
            if let Some(b) = &breaker {
                b.release_probe();
            }
            shared.metrics.record_deadline_exceeded();
            ws.give(x.into_vec());
            return Err("deadline exceeded".to_string());
        }
        Err(PredictError::Engine(_)) => {
            if let Some(b) = &breaker {
                b.record_failure();
            }
            let resp = degraded_batch(&engine, &x, standardizer, "engine error", &shared.metrics);
            ws.give(x.into_vec());
            return Ok(resp);
        }
        Err(e @ PredictError::BadRequest(_)) => {
            if let Some(b) = &breaker {
                b.release_probe();
            }
            ws.give(x.into_vec());
            return Err(e.to_string());
        }
    };
    ws.give(x.into_vec());
    let out: Vec<Value> = (0..n)
        .map(|i| {
            let mut p = pred[(i, 0)];
            if let Some(st) = standardizer {
                p = st.destandardize_label(p);
            }
            Value::Number(p)
        })
        .collect();
    ws.give(pred.into_vec());
    Ok(Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("model".to_string(), Value::String(engine.artifact().name.clone())),
        ("version".to_string(), Value::Number(engine.artifact().version as f64)),
        ("predictions".to_string(), Value::Array(out)),
    ]))
}

fn handle_slave_weights(request: &Value, registry: &Registry) -> Result<Value, String> {
    let engine = resolve_engine(request, registry)?;
    let company = company_field(request)?;
    let weights = engine.slave_weights_row(company)?;
    let names = engine.slave_feature_names();
    Ok(Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("company".to_string(), Value::Number(company as f64)),
        ("weights".to_string(), Value::Array(weights.iter().map(|&w| Value::Number(w)).collect())),
        ("feature_names".to_string(), Value::Array(names.into_iter().map(Value::String).collect())),
    ]))
}

fn handle_health(registry: &Registry) -> Value {
    let mut all_healthy = true;
    let models: Vec<Value> = registry
        .list()
        .into_iter()
        .map(|(name, version, retained)| {
            let state = registry.health_state(&name).unwrap_or("healthy");
            all_healthy &= state == "healthy";
            let mut fields = vec![
                ("name".to_string(), Value::String(name.clone())),
                ("version".to_string(), Value::Number(version as f64)),
                ("retained_versions".to_string(), Value::Number(retained as f64)),
                ("state".to_string(), Value::String(state.to_string())),
            ];
            if let Some(engine) = registry.get(&name) {
                fields
                    .push(("companies".to_string(), Value::Number(engine.num_companies() as f64)));
                fields.push((
                    "feature_width".to_string(),
                    Value::Number(engine.feature_width() as f64),
                ));
            }
            Value::Object(fields)
        })
        .collect();
    let status = if all_healthy { "healthy" } else { "degraded" };
    Value::Object(vec![
        ("ok".to_string(), Value::Bool(true)),
        ("status".to_string(), Value::String(status.to_string())),
        ("models".to_string(), Value::Array(models)),
    ])
}
