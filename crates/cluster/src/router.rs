//! The cluster router: one TCP JSONL front door over N shard groups.
//!
//! Topology: each shard group owns the companies the [`ShardMap`]
//! assigns it and runs one or more replica `serve` processes. The
//! router terminates client connections, routes each request to the
//! owning group, and absorbs upstream failure so clients only ever see
//! typed responses:
//!
//! * **connection pooling** — one persistent [`JsonlConn`] per replica
//!   per dispatcher, lazily (re)connected, never shared across threads;
//! * **adaptive micro-batching** — each group has a single dispatcher
//!   thread that drains its bounded work queue and coalesces single
//!   predicts into one `multi_predict` envelope per upstream round
//!   trip ([`coalesce_drain`] / [`adapt_window`]);
//! * **per-upstream circuit breakers** — a [`CircuitBreaker`] per
//!   replica gates dispatch; trips stop hammering a dead process;
//! * **staged hedging** — reads are capped at the hedge threshold when
//!   another admissible replica exists ([`hedge_read_timeout`]); an
//!   expired read abandons the connection and fails over;
//! * **health-probe re-admission** — a prober thread periodically
//!   spends the breaker's half-open probe on a `health` round trip so
//!   recovered replicas rejoin without waiting for live traffic;
//! * **partial degradation** — a group with no usable replica degrades
//!   to the router's local fallback predictor per company
//!   (`{"ok":true,"degraded":true,...}`), never a whole-batch error.
//!
//! The wire protocol is exactly the shard protocol (see
//! `ams_serve::server`), so `loadgen` drives a router unmodified.

use crate::hedge::hedge_read_timeout;
use crate::metrics::RouterMetrics;
use crate::shardmap::ShardMap;
use ams_serve::net::{backoff, JsonlConn, LineHandler, LineServer, Reply, Timeouts, READ_TICK};
use ams_serve::protocol::{self, Request, RequestType};
use ams_serve::{BreakerConfig, BreakerState, CircuitBreaker, Engine, ModelArtifact};
use std::fmt::Write as _;
use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a client worker waits for a dispatcher's reply when the
/// request carries no deadline: covers a full two-cycle failover sweep
/// with margin.
const DEFAULT_REPLY_WAIT: Duration = Duration::from_secs(15);

/// Upper bound for the adaptive coalescing window.
const MAX_WINDOW_US: u64 = 500;

/// Cap on the company count used to pre-size the fan-in response
/// buffer (1M companies ≈ a 24 MB hint). Larger batches still render —
/// the buffer just grows past the hint.
const MAX_FANIN_HINT: usize = 1 << 20;

/// Configuration for [`Router::start`].
#[derive(Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Client worker threads (clamped to `1..=net::MAX_WORKERS`).
    pub workers: usize,
    /// `shards[g]` is the replica address list of shard group `g`.
    /// Group ids are the indexes, hashed by the [`ShardMap`].
    pub shards: Vec<Vec<SocketAddr>>,
    /// The served artifact. Required for batch fan-out and for local
    /// degraded fallbacks; `None` still routes singles but answers
    /// `{"ok":false}` when a whole group is down.
    pub artifact: Option<ModelArtifact>,
    /// Bounded admission queue for client connections (clamped to
    /// `1..=net::MAX_QUEUE`).
    pub queue_capacity: usize,
    /// Bounded per-group dispatch queue (min 1).
    pub dispatch_queue: usize,
    /// Max single predicts coalesced into one upstream envelope.
    pub max_batch: usize,
    /// Health-probe cadence for non-closed upstreams; `0` disables the
    /// prober (re-admission then rides on live traffic only).
    pub probe_interval_ms: u64,
    /// Hedge threshold: cap upstream reads at this when another
    /// admissible replica exists; `0` disables hedging.
    pub hedge_after_ms: u64,
    /// Default per-request deadline; `0` means none. A request's
    /// `deadline_ms` field overrides it.
    pub default_deadline_ms: u64,
    /// Socket budgets for upstream connections.
    pub upstream: Timeouts,
    /// Per-upstream breaker tuning.
    pub breaker: BreakerConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            shards: Vec::new(),
            artifact: None,
            queue_capacity: 64,
            dispatch_queue: 1024,
            max_batch: 32,
            probe_interval_ms: 200,
            hedge_after_ms: 150,
            default_deadline_ms: 0,
            upstream: Timeouts::default(),
            breaker: BreakerConfig::default(),
        }
    }
}

/// One replica endpoint with its breaker and traffic counters.
struct Upstream {
    addr: SocketAddr,
    breaker: CircuitBreaker,
    sent: AtomicU64,
    failed: AtomicU64,
}

/// One shard group: the replicas that can answer for its companies.
struct GroupState {
    id: u32,
    upstreams: Vec<Upstream>,
    /// Round-robin seed so replicas share healthy load.
    rotation: AtomicU64,
}

struct RouterShared {
    map: ShardMap,
    groups: Vec<Arc<GroupState>>,
    queues: Vec<SyncSender<Work>>,
    engine: Option<Arc<Engine>>,
    metrics: RouterMetrics,
    /// Stops the dispatchers and the prober.
    shutdown: AtomicBool,
    upstream_timeouts: Timeouts,
    hedge_after_ms: u64,
    default_deadline_ms: u64,
    max_batch: usize,
    batch_rotation: AtomicU64,
}

/// A unit of routed work handed to a group dispatcher.
pub(crate) enum Work {
    /// A single `predict`, eligible for coalescing.
    Single { line: String, company: u64, deadline: Option<Instant>, reply: SyncSender<String> },
    /// A request forwarded verbatim, alone (e.g. `slave_weights`).
    Passthrough { line: String, deadline: Option<Instant>, reply: SyncSender<String> },
    /// One leg of a full-universe batch fan-out.
    Batch {
        line: Arc<String>,
        deadline: Option<Instant>,
        group_pos: usize,
        reply: SyncSender<(usize, Option<String>)>,
    },
}

/// A running router; dropping it without [`Router::shutdown`] detaches
/// the threads (they exit when the process does).
pub struct Router {
    core: LineServer<RouterShared>,
    dispatchers: Vec<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Bind, spawn workers + dispatchers + prober, and start serving.
    pub fn start(config: RouterConfig) -> std::io::Result<Self> {
        if config.shards.is_empty() || config.shards.iter().any(Vec::is_empty) {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router needs at least one shard group, each with at least one replica",
            ));
        }
        let engine = match config.artifact.clone() {
            None => None,
            Some(a) => Some(Arc::new(
                Engine::new(a).map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e))?,
            )),
        };
        let map = ShardMap::contiguous(config.shards.len())
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidInput, e))?;

        let groups: Vec<Arc<GroupState>> = config
            .shards
            .iter()
            .enumerate()
            .map(|(g, replicas)| {
                Arc::new(GroupState {
                    id: g as u32,
                    upstreams: replicas
                        .iter()
                        .map(|&addr| Upstream {
                            addr,
                            breaker: CircuitBreaker::new(config.breaker),
                            sent: AtomicU64::new(0),
                            failed: AtomicU64::new(0),
                        })
                        .collect(),
                    rotation: AtomicU64::new(g as u64),
                })
            })
            .collect();

        let mut queues = Vec::with_capacity(groups.len());
        let mut dispatch_rxs = Vec::with_capacity(groups.len());
        for _ in &groups {
            let (tx, rx) = mpsc::sync_channel::<Work>(config.dispatch_queue.max(1));
            queues.push(tx);
            dispatch_rxs.push(rx);
        }

        let shared = Arc::new(RouterShared {
            map,
            groups: groups.clone(),
            queues,
            engine,
            metrics: RouterMetrics::new(),
            shutdown: AtomicBool::new(false),
            upstream_timeouts: config.upstream,
            hedge_after_ms: config.hedge_after_ms,
            default_deadline_ms: config.default_deadline_ms,
            max_batch: config.max_batch.max(1),
            batch_rotation: AtomicU64::new(0),
        });

        // Bind first: a taken address fails before any thread exists.
        // Lines the workers route before the dispatchers start wait in
        // the bounded dispatch queues.
        let core = LineServer::start(
            &config.addr,
            config.workers,
            config.queue_capacity,
            None,
            Arc::clone(&shared),
        )?;

        let dispatchers: Vec<JoinHandle<()>> = dispatch_rxs
            .into_iter()
            .zip(groups.iter().cloned())
            .map(|(rx, group)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || dispatcher_loop(&group, &rx, &shared))
            })
            .collect();

        let prober = if config.probe_interval_ms > 0 {
            let interval = Duration::from_millis(config.probe_interval_ms);
            Some(std::thread::spawn(move || prober_loop(&shared, interval)))
        } else {
            None
        };

        Ok(Self { core, dispatchers, prober })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.core.local_addr()
    }

    /// The router's counters.
    pub fn metrics(&self) -> &RouterMetrics {
        &self.core.handler().metrics
    }

    /// Breaker state per upstream, as `(group, addr, state)` — test
    /// and bench observability.
    pub fn upstream_states(&self) -> Vec<(u32, SocketAddr, BreakerState)> {
        self.core
            .handler()
            .groups
            .iter()
            .flat_map(|g| g.upstreams.iter().map(|u| (g.id, u.addr, u.breaker.state())))
            .collect()
    }

    /// Stop accepting, drain workers and dispatchers, join everything.
    pub fn shutdown(self) {
        // Dispatchers and the prober poll this flag on their READ_TICK
        // receive/sleep ticks, so joining them is bounded by one tick.
        self.core.handler().shutdown.store(true, Ordering::SeqCst);
        self.core.shutdown();
        for h in self.dispatchers {
            let _ = h.join();
        }
        if let Some(h) = self.prober {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Request fields the router routes on
// ---------------------------------------------------------------------------

/// A plain run of decimal digits as a `u64`; `None` for anything else
/// (a sign, a fraction, an exponent, overflow).
fn digits_u64(token: &str) -> Option<u64> {
    if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    token.parse().ok()
}

/// The company a `predict` routes to: a digit run exactly, any other
/// non-negative integral number through `f64`.
fn routed_company(request: &Request<'_>) -> Result<u64, &'static str> {
    if let Some(c) = request.company_token().and_then(digits_u64) {
        return Ok(c);
    }
    match request.company() {
        Some(c) if c >= 0.0 && c.fract() == 0.0 => Ok(c as u64),
        Some(_) => Err("`company` must be a non-negative integer"),
        None => Err("missing `company`"),
    }
}

/// The router's per-request routing decision: the line's top-level
/// `company` read by the protocol scanner in validate-only mode, owner
/// position out of the shard map. Panic-, allocation- and block-free
/// (audited as `router-route`).
pub fn route_shard(line: &str, map: &ShardMap) -> Option<usize> {
    let request = protocol::parse_request(line, None).ok()?;
    let company = routed_company(&request).ok()?;
    Some(map.position_of(company))
}

// ---------------------------------------------------------------------------
// Client-facing workers
// ---------------------------------------------------------------------------

impl LineHandler for RouterShared {
    type Scratch = ();

    const SHED_LINE: &'static [u8] =
        b"{\"ok\":false,\"shed\":true,\"error\":\"router overloaded: connection shed\"}\n";

    fn handle(&self, _: &mut (), line: &str, out: &mut String) -> Reply {
        handle_line(line, self, out);
        Reply::Line
    }

    fn on_shed(&self) {
        RouterMetrics::bump(&self.metrics.sheds);
    }
}

/// An error reply as an owned line, for replies that cross a channel.
fn error_line(message: &str) -> String {
    let mut out = String::new();
    protocol::push_error(&mut out, message);
    out
}

/// Route one request line, writing the response line (no newline) into
/// `out`. The line is validated with the shards' own grammar first, so
/// a line the router forwards is one a shard parses.
fn handle_line(line: &str, shared: &RouterShared, out: &mut String) {
    RouterMetrics::bump(&shared.metrics.requests);
    let request = match protocol::parse_request(line, None) {
        Ok(r) => r,
        Err(e) => return protocol::push_error(out, format_args!("invalid JSON: {e}")),
    };
    match request.kind() {
        RequestType::Predict => route_single(line, &request, shared, out),
        RequestType::SlaveWeights => route_slave_weights(line, &request, shared, out),
        RequestType::BatchPredict => route_batch(line, &request, shared, out),
        RequestType::MultiPredict => {
            protocol::push_error(out, "multi_predict is a router-internal envelope")
        }
        RequestType::Health => local_health(shared, out),
        RequestType::Stats => local_stats(shared, out),
        RequestType::Unknown(ty) => {
            protocol::push_error(out, format_args!("unknown request type `{ty}`"))
        }
        RequestType::Missing => protocol::push_error(out, "missing `type`"),
    }
}

/// The request's deadline: a digit-run `deadline_ms` from now, else the
/// router default; `0` means none.
fn request_deadline(request: &Request<'_>, shared: &RouterShared) -> Option<Instant> {
    let ms = request.deadline_token().and_then(digits_u64).unwrap_or(shared.default_deadline_ms);
    if ms == 0 {
        None
    } else {
        Some(Instant::now() + Duration::from_millis(ms))
    }
}

fn reply_budget(deadline: Option<Instant>) -> Duration {
    match deadline {
        Some(d) => d.saturating_duration_since(Instant::now()) + Duration::from_secs(1),
        None => DEFAULT_REPLY_WAIT,
    }
}

/// Queue `work` on shard group `pos` and write the reply that comes
/// back on `rx` into `out`, or the router's refusal when the queue is
/// full or closed or the reply does not come in time.
fn forward(
    work: Work,
    pos: usize,
    rx: &Receiver<String>,
    deadline: Option<Instant>,
    shared: &RouterShared,
    out: &mut String,
) {
    match shared.queues.get(pos).map(|q| q.try_send(work)) {
        Some(Ok(())) => match rx.recv_timeout(reply_budget(deadline)) {
            Ok(resp) => out.push_str(&resp),
            Err(_) => {
                RouterMetrics::bump(&shared.metrics.router_timeouts);
                protocol::push_error(out, "router timeout waiting for shard");
            }
        },
        Some(Err(TrySendError::Full(_))) => {
            RouterMetrics::bump(&shared.metrics.sheds);
            out.push_str(
                "{\"ok\":false,\"shed\":true,\"error\":\"router overloaded: shard queue full\"}",
            );
        }
        _ => protocol::push_error(out, "router shutting down"),
    }
}

fn route_single(line: &str, request: &Request<'_>, shared: &RouterShared, out: &mut String) {
    let company = match routed_company(request) {
        Ok(company) => company,
        Err(message) => return protocol::push_error(out, message),
    };
    let deadline = request_deadline(request, shared);
    let (tx, rx) = mpsc::sync_channel::<String>(1);
    let work = Work::Single { line: line.to_string(), company, deadline, reply: tx };
    forward(work, shared.map.position_of(company), &rx, deadline, shared, out);
}

fn route_slave_weights(line: &str, request: &Request<'_>, shared: &RouterShared, out: &mut String) {
    let Some(company) = request.company_token().and_then(digits_u64) else {
        return protocol::push_error(out, "missing `company`");
    };
    let deadline = request_deadline(request, shared);
    let (tx, rx) = mpsc::sync_channel::<String>(1);
    let work = Work::Passthrough { line: line.to_string(), deadline, reply: tx };
    forward(work, shared.map.position_of(company), &rx, deadline, shared, out);
}

fn route_batch(line: &str, request: &Request<'_>, shared: &RouterShared, out: &mut String) {
    let deadline = request_deadline(request, shared);
    let Some(engine) = shared.engine.as_ref() else {
        // Without a local artifact the router can't merge partial
        // answers; any single shard serves the full universe, so
        // rotate whole batches across groups as passthroughs.
        let pos = (shared.batch_rotation.fetch_add(1, Ordering::Relaxed) as usize)
            % shared.groups.len().max(1);
        let (tx, rx) = mpsc::sync_channel::<String>(1);
        let work = Work::Passthrough { line: line.to_string(), deadline, reply: tx };
        return forward(work, pos, &rx, deadline, shared, out);
    };

    RouterMetrics::bump(&shared.metrics.batch_fanouts);
    let arc_line = Arc::new(line.to_string());
    let (tx, rx) = mpsc::sync_channel::<(usize, Option<String>)>(shared.groups.len().max(1));
    let mut outstanding = 0usize;
    let mut responses: Vec<Option<String>> = (0..shared.groups.len()).map(|_| None).collect();
    for pos in 0..shared.groups.len() {
        let work = Work::Batch {
            line: Arc::clone(&arc_line),
            deadline,
            group_pos: pos,
            reply: tx.clone(),
        };
        // A full or closed queue leaves `responses[pos]` empty: that
        // group's companies degrade, the batch still answers.
        if let Some(Ok(())) = shared.queues.get(pos).map(|q| q.try_send(work)) {
            outstanding += 1;
        }
    }
    drop(tx);
    let budget = reply_budget(deadline);
    let collect_deadline = Instant::now() + budget;
    for _ in 0..outstanding {
        let left = collect_deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((pos, resp)) => {
                if let Some(slot) = responses.get_mut(pos) {
                    *slot = resp;
                }
            }
            Err(_) => {
                RouterMetrics::bump(&shared.metrics.router_timeouts);
                break;
            }
        }
    }

    let n = engine.num_companies();
    // Read each group's verdict and prediction spans; groups that failed
    // or answered malformed get `None` and degrade per company.
    let mut upstream_degraded = false;
    let spans: Vec<Option<Vec<(usize, usize)>>> = responses
        .iter()
        .map(|r| {
            let resp = r.as_deref()?;
            let mut spans = Vec::with_capacity(n.min(MAX_FANIN_HINT));
            let status = protocol::scan_reply(resp, Some(("predictions", &mut spans)))?;
            upstream_degraded |= status.degraded;
            (status.ok && spans.len() == n).then_some(spans)
        })
        .collect();

    // Pre-render local fallbacks only for companies owned by a group
    // with no usable response.
    let mut fallback_text: Vec<Option<String>> = (0..n).map(|_| None).collect();
    let mut degraded_companies: Vec<usize> = Vec::new();
    for (c, slot) in fallback_text.iter_mut().enumerate() {
        let owner = shared.map.position_of(c as u64);
        if spans.get(owner).map(Option::is_none).unwrap_or(true) {
            let p = engine.fallback_predict(Some(c), None);
            *slot = Some(fmt_num(p));
            degraded_companies.push(c);
        }
    }
    if !degraded_companies.is_empty() {
        RouterMetrics::bump(&shared.metrics.degraded);
    }

    fanin_merge(
        n,
        &shared.map,
        &responses,
        &spans,
        &fallback_text,
        &degraded_companies,
        upstream_degraded,
        out,
    );
}

/// Write the merged batch response from per-group prediction spans plus
/// pre-rendered local fallbacks into `out`. Panic-free (audited as
/// `router-fanin`): every access is checked, every gap has a fallback.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fanin_merge(
    n: usize,
    map: &ShardMap,
    responses: &[Option<String>],
    spans: &[Option<Vec<(usize, usize)>>],
    fallback_text: &[Option<String>],
    degraded_companies: &[usize],
    upstream_degraded: bool,
    out: &mut String,
) {
    out.push_str("{\"ok\":true");
    if !degraded_companies.is_empty() || upstream_degraded {
        out.push_str(",\"degraded\":true,\"degraded_reason\":\"");
        if degraded_companies.is_empty() {
            out.push_str("upstream degraded");
        } else {
            out.push_str("shard unavailable");
        }
        out.push_str("\",\"degraded_companies\":[");
        let mut first = true;
        let mut i = 0;
        while i < degraded_companies.len() {
            if !first {
                out.push(',');
            }
            first = false;
            if let Some(c) = degraded_companies.get(i) {
                push_usize(out, *c);
            }
            i += 1;
        }
        out.push(']');
    }
    out.push_str(",\"predictions\":[");
    let mut c = 0usize;
    while c < n {
        if c > 0 {
            out.push(',');
        }
        let owner = map.position_of(c as u64);
        let served = match (
            responses.get(owner).and_then(Option::as_deref),
            spans.get(owner).and_then(Option::as_ref),
        ) {
            (Some(resp), Some(sp)) => match sp.get(c) {
                Some(&(a, b)) => match resp.get(a..b) {
                    Some(text) => {
                        out.push_str(text.trim());
                        true
                    }
                    None => false,
                },
                None => false,
            },
            _ => false,
        };
        if !served {
            match fallback_text.get(c).and_then(Option::as_deref) {
                Some(text) => out.push_str(text),
                // Unreachable: fallbacks were rendered exactly for the
                // gaps. `null` keeps the output well-formed regardless.
                None => out.push_str("null"),
            }
        }
        c += 1;
    }
    out.push_str("]}");
}

/// Decimal-format a usize without `format!` (keeps [`fanin_merge`]
/// simple for the audit).
fn push_usize(out: &mut String, v: usize) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 || i == 0 {
            break;
        }
    }
    if let Ok(s) = std::str::from_utf8(&buf[i..]) {
        out.push_str(s);
    }
}

/// Shortest-round-trip float text, matching the shard's serializer
/// bit-for-bit (`vendor/serde_json` uses the same `{}` display).
fn fmt_num(p: f64) -> String {
    if p.is_finite() {
        format!("{p}")
    } else {
        "null".to_string()
    }
}

fn local_health(shared: &RouterShared, out: &mut String) {
    let mut all_groups_up = true;
    let mut upstreams = String::new();
    for g in &shared.groups {
        let mut group_up = false;
        for u in &g.upstreams {
            let state = u.breaker.state();
            if state == BreakerState::Closed {
                group_up = true;
            }
            if !upstreams.is_empty() {
                upstreams.push(',');
            }
            let _ = write!(
                upstreams,
                "{{\"group\":{},\"addr\":\"{}\",\"state\":\"{}\"}}",
                g.id,
                u.addr,
                state_name(state)
            );
        }
        all_groups_up &= group_up;
    }
    out.push_str("{\"ok\":true,\"role\":\"router\",\"status\":\"");
    out.push_str(if all_groups_up { "healthy" } else { "degraded" });
    out.push_str("\",\"groups\":");
    push_usize(out, shared.groups.len());
    out.push_str(",\"upstreams\":[");
    out.push_str(&upstreams);
    out.push_str("],\"models\":[");
    if let Some(engine) = shared.engine.as_ref() {
        let a = engine.artifact();
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"version\":{},\"companies\":{},\"feature_width\":{}}}",
            a.name,
            a.version,
            a.num_companies(),
            a.feature_width()
        );
    }
    out.push_str("]}");
}

fn local_stats(shared: &RouterShared, out: &mut String) {
    out.push_str("{\"ok\":true,\"role\":\"router\",\"stats\":{");
    for (i, (name, value)) in shared.metrics.snapshot().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{name}\":{value}");
    }
    out.push_str("},\"upstreams\":[");
    let mut first = true;
    for g in &shared.groups {
        for u in &g.upstreams {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "{{\"group\":{},\"addr\":\"{}\",\"state\":\"{}\",\"sent\":{},\"failed\":{}}}",
                g.id,
                u.addr,
                state_name(u.breaker.state()),
                u.sent.load(Ordering::Relaxed),
                u.failed.load(Ordering::Relaxed)
            );
        }
    }
    out.push_str("]}");
}

fn state_name(s: BreakerState) -> &'static str {
    match s {
        BreakerState::Closed => "closed",
        BreakerState::Open => "open",
        BreakerState::HalfOpen => "half-open",
    }
}

// ---------------------------------------------------------------------------
// Per-group dispatchers: coalescing, failover, hedging
// ---------------------------------------------------------------------------

/// Drain up to `slots.len()` works from the queue: everything already
/// waiting, then at most one bounded wait of `window` to let a partial
/// batch fill. `slots[0]` is pre-filled by the caller; returns the
/// number of filled slots. Panic-, allocation-free after warm-up
/// (audited as `router-coalesce`): slot assignment only, one
/// `recv_timeout` as the single bounded wait.
pub(crate) fn coalesce_drain(
    rx: &Receiver<Work>,
    slots: &mut [Option<Work>],
    window: Duration,
) -> usize {
    let mut n = 1usize;
    while n < slots.len() {
        match rx.try_recv() {
            Ok(w) => {
                slots[n] = Some(w);
                n += 1;
            }
            Err(_) => break,
        }
    }
    if n < slots.len() && window > Duration::ZERO {
        if let Ok(w) = rx.recv_timeout(window) {
            slots[n] = Some(w);
            n += 1;
            while n < slots.len() {
                match rx.try_recv() {
                    Ok(w) => {
                        slots[n] = Some(w);
                        n += 1;
                    }
                    Err(_) => break,
                }
            }
        }
    }
    n
}

/// Adapt the coalescing window to observed batch fill: a lone request
/// or a saturated queue needs no waiting; partial batches earn a
/// slightly longer window (capped at [`MAX_WINDOW_US`]).
pub(crate) fn adapt_window(window_us: u64, flushed: usize, cap: usize) -> u64 {
    if flushed <= 1 || flushed >= cap {
        window_us / 2
    } else {
        (window_us.saturating_mul(2)).clamp(50, MAX_WINDOW_US)
    }
}

fn dispatcher_loop(group: &Arc<GroupState>, rx: &Receiver<Work>, shared: &RouterShared) {
    let mut conns: Vec<Option<JsonlConn>> = group.upstreams.iter().map(|_| None).collect();
    let mut slots: Vec<Option<Work>> = (0..shared.max_batch).map(|_| None).collect();
    let mut window_us = 0u64;
    let mut env_buf = String::new();
    let mut resp_buf = String::new();
    loop {
        match rx.recv_timeout(READ_TICK) {
            Ok(first) => {
                slots[0] = Some(first);
                // `coalesce_drain` never fills past the slot vec, but
                // the slice below is taken on that contract — restate
                // it as a bound rather than trusting the count.
                let n = coalesce_drain(rx, &mut slots, Duration::from_micros(window_us))
                    .min(slots.len());
                flush_slots(
                    group,
                    &mut conns,
                    &mut slots[..n],
                    shared,
                    &mut env_buf,
                    &mut resp_buf,
                );
                window_us = adapt_window(window_us, n, shared.max_batch);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Dispatch a filled slot range: consecutive singles coalesce into one
/// `multi_predict` envelope; passthroughs and batch legs flush the
/// pending envelope and go out alone, preserving arrival order.
fn flush_slots(
    group: &Arc<GroupState>,
    conns: &mut [Option<JsonlConn>],
    slots: &mut [Option<Work>],
    shared: &RouterShared,
    env_buf: &mut String,
    resp_buf: &mut String,
) {
    let mut pending: Vec<(String, u64, Option<Instant>, SyncSender<String>)> = Vec::new();
    for slot in slots.iter_mut() {
        match slot.take() {
            None => {}
            Some(Work::Single { line, company, deadline, reply }) => {
                pending.push((line, company, deadline, reply));
            }
            Some(Work::Passthrough { line, deadline, reply }) => {
                flush_singles(group, conns, &mut pending, shared, env_buf, resp_buf);
                let ok = dispatch_line(shared, group, conns, &line, deadline, resp_buf);
                let response =
                    if ok { resp_buf.trim().to_string() } else { error_line("shard unavailable") };
                let _ = reply.send(response);
            }
            Some(Work::Batch { line, deadline, group_pos, reply }) => {
                flush_singles(group, conns, &mut pending, shared, env_buf, resp_buf);
                let ok = dispatch_line(shared, group, conns, &line, deadline, resp_buf);
                let resp = if ok { Some(resp_buf.trim().to_string()) } else { None };
                let _ = reply.send((group_pos, resp));
            }
        }
    }
    flush_singles(group, conns, &mut pending, shared, env_buf, resp_buf);
}

/// Send the pending singles as one `multi_predict` envelope; on any
/// upstream failure degrade each to the router's local fallback.
fn flush_singles(
    group: &Arc<GroupState>,
    conns: &mut [Option<JsonlConn>],
    pending: &mut Vec<(String, u64, Option<Instant>, SyncSender<String>)>,
    shared: &RouterShared,
    env_buf: &mut String,
    resp_buf: &mut String,
) {
    if pending.is_empty() {
        return;
    }
    RouterMetrics::bump(&shared.metrics.flushes);
    if pending.len() > 1 {
        shared.metrics.coalesced.fetch_add(pending.len() as u64, Ordering::Relaxed);
    }

    // Envelope deadline: the *max* remaining budget among the batch —
    // a min would let one nearly-expired request poison its
    // batch-mates inside the shard's per-element deadline check (each
    // element still carries its own `deadline_ms` for exactness).
    let deadline = pending.iter().filter_map(|(_, _, d, _)| *d).max();
    let effective = if pending.iter().all(|(_, _, d, _)| d.is_some()) { deadline } else { None };

    env_buf.clear();
    env_buf.push_str("{\"type\":\"multi_predict\"");
    if let Some(d) = effective {
        let ms = d.saturating_duration_since(Instant::now()).as_millis().max(1);
        env_buf.push_str(",\"deadline_ms\":");
        push_usize(env_buf, ms as usize);
    }
    env_buf.push_str(",\"requests\":[");
    for (i, (line, _, _, _)) in pending.iter().enumerate() {
        if i > 0 {
            env_buf.push(',');
        }
        env_buf.push_str(line.trim());
    }
    env_buf.push_str("]}");

    let ok = dispatch_line(shared, group, conns, env_buf, effective, resp_buf);
    if ok {
        let resp = resp_buf.trim();
        let mut spans = Vec::with_capacity(pending.len());
        let status = protocol::scan_reply(resp, Some(("results", &mut spans)));
        if status.is_some_and(|s| s.ok) && spans.len() == pending.len() {
            for (&(a, b), (_, _, _, reply)) in spans.iter().zip(pending.drain(..)) {
                let text = resp
                    .get(a..b)
                    .map_or_else(|| error_line("shard response truncated"), str::to_string);
                let _ = reply.send(text);
            }
            return;
        }
    }
    // Upstream gone or the envelope came back unusable: answer every
    // coalesced request from the local fallback ladder.
    for (_, company, _, reply) in pending.drain(..) {
        let _ = reply.send(degraded_single(shared, company));
    }
}

/// The router's local fallback answer for one company when its shard
/// group has no usable replica — typed, never an error, mirroring the
/// shard's own degradation ladder.
fn degraded_single(shared: &RouterShared, company: u64) -> String {
    RouterMetrics::bump(&shared.metrics.degraded);
    match shared.engine.as_ref() {
        Some(engine) => {
            let c = usize::try_from(company).ok().filter(|&c| c < engine.num_companies());
            let p = engine.fallback_predict(c, None);
            format!(
                "{{\"ok\":true,\"degraded\":true,\"degraded_reason\":\"shard unavailable\",\
                 \"company\":{company},\"prediction\":{}}}",
                fmt_num(p)
            )
        }
        None => error_line("shard unavailable"),
    }
}

enum AttemptOutcome {
    Served,
    HedgeTimeout,
    Failed,
}

/// Send one line to the group with failover and staged hedging: sweep
/// the replicas from a rotating start, honoring breakers; retry the
/// sweep once after a jittered backoff. Returns true with the response
/// in `resp` on success.
fn dispatch_line(
    shared: &RouterShared,
    group: &GroupState,
    conns: &mut [Option<JsonlConn>],
    line: &str,
    deadline: Option<Instant>,
    resp: &mut String,
) -> bool {
    let n = group.upstreams.len();
    if n == 0 {
        return false;
    }
    let start = group.rotation.fetch_add(1, Ordering::Relaxed) as usize % n;
    for cycle in 0..2u32 {
        for k in 0..n {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return false;
                }
            }
            let i = (start + k) % n;
            let Some(up) = group.upstreams.get(i) else { continue };
            if !up.breaker.allow() {
                continue;
            }
            // We hold either normal admission or the half-open probe:
            // every path below records an outcome on the breaker.
            up.sent.fetch_add(1, Ordering::Relaxed);
            let closed_others = (0..n)
                .filter(|&j| j != i)
                .filter(|&j| {
                    group.upstreams.get(j).map(|u| u.breaker.state() == BreakerState::Closed)
                        == Some(true)
                })
                .count() as u32;
            let alternatives = closed_others + (1 - cycle);
            match attempt_upstream(shared, conns, i, up.addr, alternatives, line, deadline, resp) {
                AttemptOutcome::Served => {
                    up.breaker.record_success();
                    if k > 0 || cycle > 0 {
                        RouterMetrics::bump(&shared.metrics.failovers);
                    }
                    return true;
                }
                AttemptOutcome::HedgeTimeout => {
                    up.failed.fetch_add(1, Ordering::Relaxed);
                    up.breaker.record_failure();
                    RouterMetrics::bump(&shared.metrics.hedges);
                }
                AttemptOutcome::Failed => {
                    up.failed.fetch_add(1, Ordering::Relaxed);
                    up.breaker.record_failure();
                }
            }
        }
        if cycle == 0 {
            std::thread::sleep(backoff(0, u64::from(group.id)));
        }
    }
    false
}

/// One send/read attempt against replica `i`, (re)connecting lazily.
/// A read capped below the full budget that times out is a hedge
/// expiry: the connection is dropped (a late response must never be
/// mis-paired with a later request) and the caller fails over.
#[allow(clippy::too_many_arguments)]
fn attempt_upstream(
    shared: &RouterShared,
    conns: &mut [Option<JsonlConn>],
    i: usize,
    addr: SocketAddr,
    alternatives: u32,
    line: &str,
    deadline: Option<Instant>,
    resp: &mut String,
) -> AttemptOutcome {
    if conns.get(i).map(Option::is_none) == Some(true) {
        match JsonlConn::connect(addr, &shared.upstream_timeouts) {
            Ok(c) => {
                if let Some(slot) = conns.get_mut(i) {
                    *slot = Some(c);
                }
            }
            Err(_) => return AttemptOutcome::Failed,
        }
    }
    let Some(Some(conn)) = conns.get_mut(i) else {
        return AttemptOutcome::Failed;
    };
    let remaining_ms = match deadline {
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now()).as_millis();
            u64::try_from(left).unwrap_or(u64::MAX).max(1)
        }
        None => u64::try_from(shared.upstream_timeouts.read.as_millis()).unwrap_or(u64::MAX),
    };
    let cap_ms = hedge_read_timeout(remaining_ms, shared.hedge_after_ms, alternatives);
    let hedge_capped = cap_ms < remaining_ms;
    let _ = conn.set_read_timeout(Duration::from_millis(cap_ms));
    if conn.send_line(line).is_err() {
        if let Some(slot) = conns.get_mut(i) {
            *slot = None;
        }
        return AttemptOutcome::Failed;
    }
    match conn.read_line_into(resp) {
        Ok(0) => {
            if let Some(slot) = conns.get_mut(i) {
                *slot = None;
            }
            AttemptOutcome::Failed
        }
        // A line without its newline is a connection that died
        // mid-response (truncation): a failure, not an answer.
        Ok(_) if !resp.ends_with('\n') => {
            if let Some(slot) = conns.get_mut(i) {
                *slot = None;
            }
            AttemptOutcome::Failed
        }
        Ok(_) => AttemptOutcome::Served,
        Err(e) => {
            let timed_out = e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut;
            if let Some(slot) = conns.get_mut(i) {
                *slot = None;
            }
            if timed_out && hedge_capped {
                AttemptOutcome::HedgeTimeout
            } else {
                AttemptOutcome::Failed
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Health prober: half-open re-admission without waiting for traffic
// ---------------------------------------------------------------------------

fn prober_loop(shared: &RouterShared, interval: Duration) {
    let probe_timeouts = Timeouts::uniform(Duration::from_millis(500));
    loop {
        // Sleep in small ticks so shutdown joins promptly.
        let wake = Instant::now() + interval;
        while Instant::now() < wake {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(READ_TICK.min(wake.saturating_duration_since(Instant::now())));
        }
        for g in &shared.groups {
            for u in &g.upstreams {
                if u.breaker.state() == BreakerState::Closed {
                    continue;
                }
                // `allow()` spends the half-open probe slot; a live
                // dispatcher may win it first — either way exactly one
                // prober records the outcome (modeled in the `conc`
                // explorer as `router_failover`).
                if !u.breaker.allow() {
                    continue;
                }
                RouterMetrics::bump(&shared.metrics.probes);
                if probe_once(u.addr, &probe_timeouts) {
                    u.breaker.record_success();
                    RouterMetrics::bump(&shared.metrics.readmissions);
                } else {
                    u.breaker.record_failure();
                }
            }
        }
    }
}

/// One `health` round trip; true means the replica answered ok.
fn probe_once(addr: SocketAddr, timeouts: &Timeouts) -> bool {
    let Ok(mut conn) = JsonlConn::connect(addr, timeouts) else {
        return false;
    };
    let mut buf = String::new();
    match conn.send_line("{\"type\":\"health\"}").and_then(|()| conn.read_line_into(&mut buf)) {
        // A truncated health response (no newline) is not healthy.
        Ok(n) if n > 0 => {
            buf.ends_with('\n') && protocol::scan_reply(buf.trim(), None).is_some_and(|s| s.ok)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_fields_follow_the_server_grammar() {
        let req = |line| protocol::parse_request(line, None).unwrap();
        let line = r#"{"type":"predict","company":42,"deadline_ms":250}"#;
        assert_eq!(routed_company(&req(line)), Ok(42));
        assert_eq!(req(line).deadline_token().and_then(digits_u64), Some(250));
        assert_eq!(routed_company(&req(r#"{"company":1e3}"#)), Ok(1000));
        assert_eq!(routed_company(&req(r#"{"company":3.0}"#)), Ok(3));
        let bad = Err("`company` must be a non-negative integer");
        assert_eq!(routed_company(&req(r#"{"company":-1}"#)), bad);
        assert_eq!(routed_company(&req(r#"{"company":1.5}"#)), bad);
        assert_eq!(routed_company(&req(r#"{"company":"3"}"#)), Err("missing `company`"));
        // A same-named key in a string or a nested object is not the
        // top-level field.
        assert_eq!(routed_company(&req(r#"{"note":"company","company":7}"#)), Ok(7));
        assert_eq!(routed_company(&req(r#"{"x":{"company":1},"company":7}"#)), Ok(7));
        assert_eq!(digits_u64("18446744073709551616"), None, "overflow is not a digit run");
        assert_eq!(digits_u64("1e3"), None);
    }

    #[test]
    fn a_nested_company_does_not_steer_routing() {
        let map = ShardMap::contiguous(4).unwrap();
        assert_ne!(map.position_of(3), map.position_of(9), "fixture must split 3 and 9");
        let line = r#"{"type":"predict","meta":{"company":3},"company":9,"features":[]}"#;
        assert_eq!(route_shard(line, &map), Some(map.position_of(9)));
        // Invalid JSON routes nowhere, however plausible its prefix.
        assert_eq!(route_shard(r#"{"type":"predict","company":9,"features":[1,,2]}"#, &map), None);
    }

    #[test]
    fn route_shard_agrees_with_the_map() {
        let map = ShardMap::contiguous(3).unwrap();
        for c in 0..50u64 {
            let line = format!(r#"{{"type":"predict","company":{c},"features":[]}}"#);
            assert_eq!(route_shard(&line, &map), Some(map.position_of(c)));
        }
        assert_eq!(route_shard(r#"{"type":"health"}"#, &map), None);
    }

    #[test]
    fn adapt_window_shrinks_and_grows() {
        assert_eq!(adapt_window(400, 1, 32), 200, "lone request shrinks");
        assert_eq!(adapt_window(400, 32, 32), 200, "saturated queue shrinks");
        assert_eq!(adapt_window(100, 8, 32), 200, "partial batch grows");
        assert_eq!(adapt_window(0, 8, 32), 50, "growth starts at the floor");
        assert_eq!(adapt_window(MAX_WINDOW_US, 8, 32), MAX_WINDOW_US, "growth is capped");
    }

    #[test]
    fn coalesce_drain_takes_waiting_work_without_blocking() {
        let (tx, rx) = mpsc::sync_channel::<Work>(16);
        let mk = || {
            let (reply, _keep) = mpsc::sync_channel::<String>(1);
            std::mem::forget(_keep);
            Work::Single { line: String::new(), company: 0, deadline: None, reply }
        };
        for _ in 0..3 {
            tx.send(mk()).unwrap();
        }
        let mut slots: Vec<Option<Work>> = (0..8).map(|_| None).collect();
        slots[0] = Some(mk());
        let started = Instant::now();
        let n = coalesce_drain(&rx, &mut slots, Duration::ZERO);
        assert_eq!(n, 4, "one pre-filled + three waiting");
        assert!(started.elapsed() < Duration::from_millis(50), "zero window must not wait");
        assert!(slots[..4].iter().all(Option::is_some));
    }

    #[test]
    fn fanin_merge_uses_fallbacks_for_missing_groups() {
        let map = ShardMap::contiguous(2).unwrap();
        let n = 4usize;
        // Group 0 answered for everyone; group 1's response is missing.
        let resp0 = r#"{"ok":true,"predictions":[10,11,12,13]}"#.to_string();
        let mut spans0 = Vec::new();
        protocol::scan_reply(&resp0, Some(("predictions", &mut spans0))).unwrap();
        let responses = vec![Some(resp0.clone()), None];
        let spans = vec![Some(spans0), None];
        let mut fallback: Vec<Option<String>> = (0..n).map(|_| None).collect();
        let mut degraded = Vec::new();
        for (c, slot) in fallback.iter_mut().enumerate() {
            if map.position_of(c as u64) == 1 {
                *slot = Some(format!("{}", 90 + c));
                degraded.push(c);
            }
        }
        assert!(!degraded.is_empty(), "fixture must exercise the fallback path");
        let mut out = String::new();
        fanin_merge(n, &map, &responses, &spans, &fallback, &degraded, false, &mut out);
        let v: serde::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v.get("ok").and_then(serde::Value::as_bool), Some(true));
        assert_eq!(v.get("degraded").and_then(serde::Value::as_bool), Some(true));
        let preds = v.get("predictions").and_then(serde::Value::as_array).unwrap();
        assert_eq!(preds.len(), n);
        for (c, pred) in preds.iter().enumerate() {
            let got = pred.as_f64().unwrap();
            let expect =
                if map.position_of(c as u64) == 0 { 10.0 + c as f64 } else { 90.0 + c as f64 };
            assert_eq!(got, expect, "company {c}");
        }
    }

    #[test]
    fn push_usize_matches_format() {
        for v in [0usize, 7, 10, 12345, usize::MAX] {
            let mut s = String::new();
            push_usize(&mut s, v);
            assert_eq!(s, format!("{v}"));
        }
    }
}
