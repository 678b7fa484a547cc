//! Concurrent TCP prediction server, `std::net` only.
//!
//! Wire protocol: JSON lines. Each request is one JSON object on one
//! line; each response is one JSON object on one line. The grammar,
//! the one-pass parser and the reply writer live in [`crate::protocol`]. Connections are
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
use crate::protocol::{
    self, push_array, push_error, push_f64, push_string, FeatureBuf, FeatureError, JsonStr,
    ParseError, Request, RequestType,
};
use crate::registry::Registry;
use ams_fault::{apply_delay, corrupt_bytes, flip_non_finite, FaultAction, FaultPlan, FaultSite};
use ams_tensor::runtime::{Backend, BackendChoice, Workspace};
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

/// The server's [`LineHandler`]: everything a worker needs per
/// request, shared across the pool.
pub struct Handler {
    registry: Arc<Registry>,
    metrics: Arc<Metrics>,
    backend: Arc<dyn Backend>,
    /// `Some` puts batch prediction on the quantized f32 path, run on
    /// this backend; `None` (the default) keeps the bit-exact f64 path.
    backend_f32: Option<Arc<dyn Backend<f32>>>,
    default_deadline: Option<Duration>,
    faults: Arc<dyn FaultPlan>,
}

/// A worker's scratch, lent to every line it handles: the buffer
/// request features are parsed into, and the engine's arenas. All of
/// it recycles across requests, so the predict and batch paths stop
/// allocating once warm. Request data lands only in `features`; the
/// arenas are sized by the model.
#[derive(Default)]
pub struct Scratch {
    features: FeatureBuf,
    arena: Arena,
}

/// The engine's scratch arenas, one per precision.
#[derive(Default)]
struct Arena {
    ws: Workspace,
    /// Stays empty unless the server runs the mixed-precision path.
    ws32: Workspace<f32>,
}

/// A running prediction server on the [`LineServer`] connection core.
/// Dropping without [`Server::shutdown`] detaches the threads; call
/// `shutdown` for a clean stop.
pub struct Server {
    core: LineServer<Handler>,
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
        let handler = Arc::new(Handler {
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
            handler,
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

    /// The handler the workers answer through, for driving request
    /// lines without a socket.
    pub fn handler(&self) -> &Handler {
        self.core.handler()
    }

    /// Graceful shutdown: stop accepting, let workers finish the
    /// request they are on, join every thread.
    pub fn shutdown(self) {
        self.core.shutdown();
    }
}

impl LineHandler for Handler {
    type Scratch = Scratch;

    const SHED_LINE: &'static [u8] =
        b"{\"ok\":false,\"shed\":true,\"error\":\"server overloaded: connection shed\"}\n";

    fn handle(&self, scratch: &mut Scratch, line: &str, out: &mut String) -> Reply {
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
        let (kind, ok) = handle_request(line, self, scratch, out);
        self.metrics.record(kind, started.elapsed(), !ok);
        if let Some(FaultAction::Truncate) = self.faults.decide(FaultSite::ConnectionTruncate) {
            return Reply::Cut(out.len() / 2);
        }
        Reply::Line
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

/// Every way a request is refused, worded as on the wire. Error replies
/// are `{"ok":false,"error":"<this, escaped>"}`, written straight into
/// the reply buffer.
#[derive(Debug)]
enum ServeError<'a> {
    InvalidJson(ParseError<'a>),
    /// `None`: the request has no `type` string.
    UnknownType(Option<JsonStr<'a>>),
    NoModel(JsonStr<'a>),
    NoModelVersion(JsonStr<'a>, f64),
    NoModels,
    ModelRequired(usize),
    MissingCompany,
    BadCompany(f64),
    MissingFeatures,
    BadFeatures(FeatureError),
    MissingRequests,
    NoStandardizer,
    FeatureWidth {
        got: usize,
        want: usize,
    },
    BatchRows {
        got: usize,
        want: usize,
    },
    RowWidth {
        row: usize,
        got: usize,
        want: usize,
    },
    DeadlineExceeded,
    Predict(PredictError),
    Engine(String),
}

impl std::fmt::Display for ServeError<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::InvalidJson(e) => write!(f, "invalid JSON: {e}"),
            ServeError::UnknownType(Some(t)) => write!(f, "unknown request type `{t}`"),
            ServeError::UnknownType(None) => f.write_str("unknown request type `missing`"),
            ServeError::NoModel(name) => write!(f, "no model `{name}`"),
            ServeError::NoModelVersion(name, v) => write!(f, "no model `{name}` at version {v}"),
            ServeError::NoModels => f.write_str("no models published"),
            ServeError::ModelRequired(n) => write!(f, "`model` required ({n} models published)"),
            ServeError::MissingCompany => f.write_str("missing `company`"),
            ServeError::BadCompany(v) => write!(f, "bad `company` {v}"),
            ServeError::MissingFeatures => f.write_str("missing `features`"),
            ServeError::BadFeatures(e) => write!(f, "bad `features`: {e}"),
            ServeError::MissingRequests => f.write_str("missing `requests`"),
            ServeError::NoStandardizer => {
                f.write_str("model has no standardizer; send model-space features")
            }
            ServeError::FeatureWidth { got, want } => {
                write!(f, "feature width {got} != model width {want}")
            }
            ServeError::BatchRows { got, want } => {
                write!(f, "batch has {got} rows but the model has {want} companies")
            }
            ServeError::RowWidth { row, got, want } => {
                write!(f, "row {row} has width {got} (expected {want})")
            }
            ServeError::DeadlineExceeded => f.write_str("deadline exceeded"),
            ServeError::Predict(e) => write!(f, "{e}"),
            ServeError::Engine(m) => f.write_str(m),
        }
    }
}

type Served<'a> = Result<(), ServeError<'a>>;

/// Dispatch one request line, writing the reply into `out`. Returns the
/// request kind for the metrics and whether the reply is `"ok":true`;
/// every failure path becomes an `{"ok":false,...}` reply.
fn handle_request(
    line: &str,
    shared: &Handler,
    scratch: &mut Scratch,
    out: &mut String,
) -> (&'static str, bool) {
    let Scratch { features, arena } = scratch;
    features.clear();
    let request = match protocol::parse_request(line, Some(features)) {
        Ok(r) => r,
        Err(e) => {
            push_error(out, ServeError::InvalidJson(e));
            return ("invalid", false);
        }
    };
    let kind = request.kind();
    // Per-request deadline: the request's own budget wins over the
    // server default; the clock starts when handling starts.
    let deadline = request
        .deadline_ms()
        .filter(|&ms| ms > 0.0)
        .map(|ms| Duration::from_millis(ms as u64))
        .or(shared.default_deadline)
        .map(|budget| Instant::now() + budget);
    let served = match kind {
        RequestType::Predict => handle_predict(&request, shared, features, deadline, out),
        RequestType::MultiPredict => {
            handle_multi_predict(&request, shared, features, deadline, out)
        }
        RequestType::BatchPredict => {
            handle_batch_predict(&request, shared, features, arena, deadline, out)
        }
        RequestType::SlaveWeights => handle_slave_weights(&request, &shared.registry, out),
        RequestType::Health => {
            handle_health(&shared.registry, out);
            Ok(())
        }
        RequestType::Stats => {
            let stats = serde_json::to_string(&shared.metrics.snapshot()).unwrap_or_default();
            out.push_str("{\"ok\":true,\"stats\":");
            out.push_str(&stats);
            out.push('}');
            Ok(())
        }
        RequestType::Unknown(t) => Err(ServeError::UnknownType(Some(t))),
        RequestType::Missing => Err(ServeError::UnknownType(None)),
    };
    match served {
        Ok(()) => (kind.name(), true),
        Err(e) => {
            out.clear();
            push_error(out, e);
            (kind.name(), false)
        }
    }
}

/// `{"ok":true`, tagged degraded with `reason` when there is one, then
/// the engine's `model` and `version`.
fn open_reply(out: &mut String, engine: &Engine, degraded: Option<&str>) {
    out.push_str("{\"ok\":true");
    if let Some(reason) = degraded {
        out.push_str(",\"degraded\":true,\"degraded_reason\":");
        push_string(out, reason);
    }
    out.push_str(",\"model\":");
    push_string(out, &engine.artifact().name);
    out.push_str(",\"version\":");
    push_f64(out, engine.artifact().version as f64);
}

/// A single-company reply.
fn write_prediction(
    out: &mut String,
    engine: &Engine,
    degraded: Option<&str>,
    company: usize,
    prediction: f64,
) {
    open_reply(out, engine, degraded);
    out.push_str(",\"company\":");
    push_f64(out, company as f64);
    out.push_str(",\"prediction\":");
    push_f64(out, prediction);
    // ams-audit: allow(alloc): reply buffer, reused by the worker; it grows only while warming up (zero per warm request, pinned by handler_allocs)
    out.push('}');
}

/// Resolve the engine a request addresses.
fn resolve_engine<'a>(
    request: &Request<'a>,
    registry: &Registry,
) -> Result<Arc<Engine>, ServeError<'a>> {
    let version = request.version();
    match request.model() {
        Some(name) => {
            let decoded = name.decode();
            match version {
                Some(v) => registry
                    .get_version(&decoded, v as u64)
                    .ok_or(ServeError::NoModelVersion(name, v)),
                None => registry.get(&decoded).ok_or(ServeError::NoModel(name)),
            }
        }
        None => registry.sole_active().map_err(|published| match published {
            0 => ServeError::NoModels,
            n => ServeError::ModelRequired(n),
        }),
    }
}

fn company_field<'a>(request: &Request<'_>) -> Result<usize, ServeError<'a>> {
    let v = request.company().ok_or(ServeError::MissingCompany)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(ServeError::BadCompany(v));
    }
    Ok(v as usize)
}

/// The artifact's standardizer when the request sends raw features.
fn raw_standardizer<'a, 'e>(
    request: &Request<'_>,
    engine: &'e Engine,
) -> Result<Option<&'e ams_data::Standardizer>, ServeError<'a>> {
    if !request.raw().unwrap_or(false) {
        return Ok(None);
    }
    engine.artifact().standardizer.as_ref().map(Some).ok_or(ServeError::NoStandardizer)
}

fn deadline_expired(deadline: Option<Instant>) -> bool {
    matches!(deadline, Some(d) if Instant::now() >= d)
}

/// Write a degraded (`"degraded":true`) single-company reply from the
/// engine's fallback ladder. Infallible by construction.
fn degraded_predict(
    out: &mut String,
    engine: &Engine,
    company: usize,
    features: &[f64],
    standardizer: Option<&ams_data::Standardizer>,
    reason: &str,
    metrics: &Metrics,
) {
    metrics.record_degraded();
    let feats = if features.len() == engine.feature_width() { Some(features) } else { None };
    let mut prediction = engine.fallback_predict(Some(company), feats);
    if let Some(st) = standardizer {
        prediction = st.destandardize_label(prediction);
    }
    write_prediction(out, engine, Some(reason), company, prediction);
}

/// The degradation ladder, in order:
/// 1. malformed request → error response (no health signal);
/// 2. out-of-domain input (non-finite features, unknown company) →
///    fallback, tagged degraded — the *model* is fine;
/// 3. open circuit → fallback, tagged degraded, engine untouched;
/// 4. expired deadline → explicit deadline error;
/// 5. engine failure → breaker takes a failure, request still answered
///    from the fallback, tagged degraded.
fn handle_predict<'a>(
    request: &Request<'a>,
    shared: &Handler,
    features: &mut FeatureBuf,
    deadline: Option<Instant>,
    out: &mut String,
) -> Served<'a> {
    let engine = resolve_engine(request, &shared.registry)?;
    predict_resolved(&engine, request, features, shared, deadline, out)
}

/// Coalesced single predictions: the cluster router's micro-batching
/// endpoint. The engine resolves once per envelope; each element runs
/// the full [`handle_predict`] ladder independently, so one malformed
/// or out-of-domain element degrades (or errors) on its own slot and
/// never poisons its batch-mates. `results[i]` answers `requests[i]`.
fn handle_multi_predict<'a>(
    request: &Request<'a>,
    shared: &Handler,
    features: &mut FeatureBuf,
    deadline: Option<Instant>,
    out: &mut String,
) -> Served<'a> {
    let engine = resolve_engine(request, &shared.registry)?;
    let elements = request.requests().ok_or(ServeError::MissingRequests)?;
    open_reply(out, &engine, None);
    out.push_str(",\"results\":[");
    let mut first = true;
    protocol::for_each_element(elements, |element| {
        if !first {
            out.push(',');
        }
        first = false;
        let mark = out.len();
        features.clear();
        let served = match protocol::parse_request(element, Some(features)) {
            Ok(req) => predict_resolved(&engine, &req, features, shared, deadline, out),
            Err(e) => Err(ServeError::InvalidJson(e)),
        };
        if let Err(e) = served {
            out.truncate(mark);
            push_error(out, e);
        }
    })
    .map_err(ServeError::InvalidJson)?;
    out.push_str("]}");
    Ok(())
}

/// The per-request body of [`handle_predict`], after engine
/// resolution — shared with [`handle_multi_predict`].
fn predict_resolved<'a>(
    engine: &Arc<Engine>,
    request: &Request<'_>,
    buf: &mut FeatureBuf,
    shared: &Handler,
    deadline: Option<Instant>,
    out: &mut String,
) -> Served<'a> {
    let company = company_field(request)?;
    let range = request
        .features()
        .ok_or(ServeError::MissingFeatures)?
        .flat()
        .map_err(ServeError::BadFeatures)?;
    let features = buf.values.get_mut(range).unwrap_or_default();
    // Injected fault: out-of-domain feature values. Exercises the same
    // path a poisoned upstream panel would.
    if let Some(FaultAction::FlipNonFinite { flips, kind_seed }) =
        shared.faults.decide(FaultSite::Features)
    {
        flip_non_finite(features, flips, kind_seed);
    }
    let standardizer = raw_standardizer(request, engine)?;
    if let Some(st) = standardizer {
        if features.len() != st.width() {
            return Err(ServeError::FeatureWidth { got: features.len(), want: st.width() });
        }
        st.transform_row(features);
    }
    let features = &*features;
    let degraded = |out: &mut String, reason: &str| {
        degraded_predict(out, engine, company, features, standardizer, reason, &shared.metrics)
    };
    // Out-of-domain input: degraded answer, no breaker involvement.
    if company >= engine.num_companies() {
        degraded(out, "unknown company");
        return Ok(());
    }
    if features.len() != engine.feature_width() {
        return Err(ServeError::FeatureWidth { got: features.len(), want: engine.feature_width() });
    }
    if features.iter().any(|v| !v.is_finite()) {
        degraded(out, "non-finite features");
        return Ok(());
    }
    if deadline_expired(deadline) {
        shared.metrics.record_deadline_exceeded();
        return Err(ServeError::DeadlineExceeded);
    }
    // All validation passed: from here on, every admitted request
    // reports a success or a failure back to the breaker.
    let breaker = shared.registry.breaker(&engine.artifact().name);
    if let Some(b) = &breaker {
        if !b.allow() {
            degraded(out, "circuit open");
            return Ok(());
        }
    }
    match engine.predict_company_checked(company, features) {
        Ok(mut prediction) => {
            if let Some(b) = &breaker {
                b.record_success();
            }
            if let Some(st) = standardizer {
                prediction = st.destandardize_label(prediction);
            }
            write_prediction(out, engine, None, company, prediction);
            Ok(())
        }
        Err(PredictError::Engine(_)) => {
            if let Some(b) = &breaker {
                b.record_failure();
            }
            degraded(out, "engine error");
            Ok(())
        }
        // Unreachable after the validation above, but classified
        // defensively: a caller mistake is not an engine failure.
        Err(e) => {
            if let Some(b) = &breaker {
                b.release_probe();
            }
            Err(ServeError::Predict(e))
        }
    }
}

/// A batch reply: `predictions[i]` is `prediction(i)`, destandardized
/// for raw requests.
fn write_batch(
    out: &mut String,
    engine: &Engine,
    degraded: Option<&str>,
    n: usize,
    standardizer: Option<&ams_data::Standardizer>,
    prediction: impl Fn(usize) -> f64,
) {
    open_reply(out, engine, degraded);
    out.push_str(",\"predictions\":");
    push_array(out, 0..n, |out, i| {
        let p = prediction(i);
        push_f64(out, standardizer.map_or(p, |st| st.destandardize_label(p)));
    });
    // ams-audit: allow(alloc): reply buffer, reused by the worker; it grows only while warming up (zero per warm request, pinned by handler_allocs)
    out.push('}');
}

/// Degraded batch answer: every row through the fallback ladder.
fn degraded_batch(
    out: &mut String,
    engine: &Engine,
    x: &ams_tensor::Matrix,
    standardizer: Option<&ams_data::Standardizer>,
    reason: &str,
    metrics: &Metrics,
) {
    metrics.record_degraded();
    write_batch(out, engine, Some(reason), x.rows(), standardizer, |i| {
        engine.fallback_predict(Some(i), Some(x.row(i)))
    });
}

fn handle_batch_predict<'a>(
    request: &Request<'a>,
    shared: &Handler,
    features: &mut FeatureBuf,
    arena: &mut Arena,
    deadline: Option<Instant>,
    out: &mut String,
) -> Served<'a> {
    let engine = resolve_engine(request, &shared.registry)?;
    let (values, rows) = request
        .features()
        .ok_or(ServeError::MissingFeatures)?
        .rows()
        .map_err(ServeError::BadFeatures)?;
    let n = engine.num_companies();
    if rows.len() != n {
        return Err(ServeError::BatchRows { got: rows.len(), want: n });
    }
    let d = engine.feature_width();
    let standardizer = raw_standardizer(request, &engine)?;
    let mut start = 0;
    for (row, &end) in features.rows.get(rows).unwrap_or_default().iter().enumerate() {
        if end - start != d {
            return Err(ServeError::RowWidth { row, got: end - start, want: d });
        }
        start = end;
    }
    // The parsed rows become the feature matrix in place: they were
    // read straight into the worker's buffer, which goes back to the
    // scratch after the forward.
    let mut flat = std::mem::take(&mut features.values);
    flat.drain(..values.start.min(flat.len()));
    flat.truncate(values.len());
    if let Some(st) = standardizer {
        for row in flat.chunks_exact_mut(d.max(1)) {
            st.transform_row(row);
        }
    }
    if let Some(FaultAction::FlipNonFinite { flips, kind_seed }) =
        shared.faults.decide(FaultSite::Features)
    {
        flip_non_finite(&mut flat, flips, kind_seed);
    }
    let x = ams_tensor::Matrix::from_vec(n, d, flat);
    let served = batch_resolved(&engine, &x, standardizer, shared, arena, deadline, out);
    features.values = x.into_vec();
    served
}

/// The batch ladder after the features are in a matrix: the same rungs
/// as [`predict_resolved`].
fn batch_resolved<'a>(
    engine: &Engine,
    x: &ams_tensor::Matrix,
    standardizer: Option<&ams_data::Standardizer>,
    shared: &Handler,
    arena: &mut Arena,
    deadline: Option<Instant>,
    out: &mut String,
) -> Served<'a> {
    // Out-of-domain batch: degraded answer, no breaker involvement.
    if x.as_slice().iter().any(|v| !v.is_finite()) {
        degraded_batch(out, engine, x, standardizer, "non-finite features", &shared.metrics);
        return Ok(());
    }
    if deadline_expired(deadline) {
        shared.metrics.record_deadline_exceeded();
        return Err(ServeError::DeadlineExceeded);
    }
    let breaker = shared.registry.breaker(&engine.artifact().name);
    if let Some(b) = &breaker {
        if !b.allow() {
            degraded_batch(out, engine, x, standardizer, "circuit open", &shared.metrics);
            return Ok(());
        }
    }
    // Precision dispatch: the f32 backend (when configured) serves the
    // batch on the quantized plan; otherwise the bit-exact f64 path.
    // Both return f64 predictions, so everything downstream is shared.
    let ws = &mut arena.ws;
    let attempt = match &shared.backend_f32 {
        Some(b32) => {
            engine.predict_batch_f32_deadline(x, b32.as_ref(), &mut arena.ws32, ws, deadline)
        }
        None => engine.predict_batch_deadline(x, shared.backend.as_ref(), ws, deadline),
    };
    match attempt {
        Ok(pred) => {
            if let Some(b) = &breaker {
                b.record_success();
            }
            write_batch(out, engine, None, x.rows(), standardizer, |i| pred[(i, 0)]);
            ws.give(pred.into_vec());
            Ok(())
        }
        Err(PredictError::DeadlineExceeded) => {
            // The probe (if this was one) ended without a verdict.
            if let Some(b) = &breaker {
                b.release_probe();
            }
            shared.metrics.record_deadline_exceeded();
            Err(ServeError::DeadlineExceeded)
        }
        Err(PredictError::Engine(_)) => {
            if let Some(b) = &breaker {
                b.record_failure();
            }
            degraded_batch(out, engine, x, standardizer, "engine error", &shared.metrics);
            Ok(())
        }
        Err(e @ PredictError::BadRequest(_)) => {
            if let Some(b) = &breaker {
                b.release_probe();
            }
            Err(ServeError::Predict(e))
        }
    }
}

fn handle_slave_weights<'a>(
    request: &Request<'a>,
    registry: &Registry,
    out: &mut String,
) -> Served<'a> {
    let engine = resolve_engine(request, registry)?;
    let company = company_field(request)?;
    let weights = engine.slave_weights_row(company).map_err(ServeError::Engine)?;
    out.push_str("{\"ok\":true,\"company\":");
    push_f64(out, company as f64);
    out.push_str(",\"weights\":");
    push_array(out, weights, |out, &w| push_f64(out, w));
    out.push_str(",\"feature_names\":");
    push_array(out, engine.slave_feature_names(), |out, name| push_string(out, &name));
    out.push('}');
    Ok(())
}

fn handle_health(registry: &Registry, out: &mut String) {
    let models: Vec<(String, u64, usize, &str)> = registry
        .list()
        .into_iter()
        .map(|(name, version, retained)| {
            let state = registry.health_state(&name).unwrap_or("healthy");
            (name, version, retained, state)
        })
        .collect();
    let all_healthy = models.iter().all(|m| m.3 == "healthy");
    out.push_str("{\"ok\":true,\"status\":");
    push_string(out, if all_healthy { "healthy" } else { "degraded" });
    out.push_str(",\"models\":");
    push_array(out, &models, |out, (name, version, retained, state)| {
        out.push_str("{\"name\":");
        push_string(out, name);
        out.push_str(",\"version\":");
        push_f64(out, *version as f64);
        out.push_str(",\"retained_versions\":");
        push_f64(out, *retained as f64);
        out.push_str(",\"state\":");
        push_string(out, state);
        if let Some(engine) = registry.get(name) {
            out.push_str(",\"companies\":");
            push_f64(out, engine.num_companies() as f64);
            out.push_str(",\"feature_width\":");
            push_f64(out, engine.feature_width() as f64);
        }
        out.push('}');
    });
    out.push('}');
}
