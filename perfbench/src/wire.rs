//! Serving over the wire: an in-process `Server` (or a `Router` over two
//! shard `Server`s) publishing a trained artifact, driven by one
//! closed-loop client on one connection.
//!
//! Every response is checked against predictions computed in-process
//! before timing starts, so a wrong number counts as a failed request.

use crate::host::{self, Probe};
use crate::trace::Tracer;
use ams_cluster::{route_shard, Router, RouterConfig, ShardMap};
use ams_serve::{Engine, ModelArtifact, Registry, Server, ServerConfig};
use ams_tensor::runtime::{Seq, Workspace};
use ams_tensor::Matrix;
use serde::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per timed batch when replaying the single-company engine path,
/// which takes well under a microsecond per call.
const ENGINE_REPS: usize = 100;

/// Worker threads per server: one for the client's connection, one for
/// the router's or a second client's.
const WORKERS: usize = 2;

/// Shard groups behind the router.
const SHARDS: usize = 2;

/// Loop time between host-speed probes (see `host`).
const WINDOW_SECONDS: f64 = 0.1;

/// Which request the stream sends.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `predict` for one company.
    Single,
    /// `batch_predict` of the whole universe on one line.
    Batch,
}

/// The request lines a workload sends, in a seeded order, with the
/// predictions the in-process engine gives for each line.
pub struct Stream {
    pub kind: Kind,
    pub lines: Vec<String>,
    /// Line indices in sending order; the client cycles through them.
    pub order: Vec<usize>,
    /// Expected prediction bits per line.
    pub expect: Vec<Vec<u64>>,
}

fn json_row(row: &[f64]) -> String {
    let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", cells.join(","))
}

/// splitmix64: the benchmark's own seeded generator.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Stream {
    /// The workload's lines over the artifact's reference features (the
    /// standardized test quarter, one row per company).
    pub fn new(kind: Kind, engine: &Engine, seed: u64) -> Result<Self, String> {
        let x = &engine.artifact().reference_features;
        let n = x.rows();
        let lines: Vec<String> = match kind {
            Kind::Single => (0..n)
                .map(|c| {
                    format!(
                        r#"{{"type":"predict","company":{c},"features":{}}}"#,
                        json_row(x.row(c))
                    )
                })
                .collect(),
            Kind::Batch => {
                let rows: Vec<String> = (0..n).map(|c| json_row(x.row(c))).collect();
                vec![format!(r#"{{"type":"batch_predict","features":[{}]}}"#, rows.join(","))]
            }
        };
        let mut expect = Vec::with_capacity(lines.len());
        let mut ws = Workspace::new();
        for line in &lines {
            let request = Request::parse(line)?;
            expect.push(request.predict(engine, &mut ws)?.iter().map(|v| v.to_bits()).collect());
        }
        // Seeded Fisher–Yates visiting order.
        let mut order: Vec<usize> = (0..lines.len()).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            order.swap(i, (mix(&mut state) % (i as u64 + 1)) as usize);
        }
        Ok(Self { kind, lines, order, expect })
    }

    /// Mean request size in bytes, newline included, over the stream's
    /// distinct lines.
    pub fn request_bytes(&self) -> f64 {
        let total: usize = self.lines.iter().map(|l| l.len() + 1).sum();
        total as f64 / self.lines.len() as f64
    }
}

/// A request line as the server reads it: what the replay spans time.
struct Request {
    company: usize,
    features: Vec<Vec<f64>>,
}

impl Request {
    fn parse(line: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(line).map_err(|e| format!("bad line: {e}"))?;
        Self::from_value(&value)
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        let company = value.get("company").and_then(Value::as_f64).unwrap_or(0.0) as usize;
        let raw = value.get("features").ok_or("line has no features")?;
        let features: Vec<Vec<f64>> = match serde::Deserialize::from_value(raw) {
            Ok(rows) => rows,
            Err(_) => vec![serde::Deserialize::from_value(raw).map_err(|e| format!("{e}"))?],
        };
        Ok(Self { company, features })
    }

    fn matrix(&self) -> Matrix {
        let cols = self.features.first().map_or(0, Vec::len);
        Matrix::from_vec(self.features.len(), cols, self.features.concat())
    }

    /// The in-process engine's answer to this request.
    fn predict(&self, engine: &Engine, ws: &mut Workspace) -> Result<Vec<f64>, String> {
        if self.features.len() == 1 {
            let p = engine.predict_company_checked(self.company, &self.features[0]);
            return p.map(|p| vec![p]).map_err(|e| e.to_string());
        }
        let pred = engine.predict_batch_with(&self.matrix(), &Seq, ws)?;
        let out = pred.as_slice().to_vec();
        ws.give(pred.into_vec());
        Ok(out)
    }
}

/// Check one response line against the expected prediction bits: it
/// must be `ok`, not degraded, and carry exactly those numbers.
fn check_response(resp: &str, expect: &[u64]) -> Result<(), String> {
    if !resp.contains(r#""ok":true"#) || resp.contains(r#""degraded":true"#) {
        return Err(format!("not a healthy answer: {}", resp.trim()));
    }
    let got: Vec<u64> = if let Some(at) = resp.find(r#""predictions":["#) {
        let rest = &resp[at + r#""predictions":["#.len()..];
        let body = &rest[..rest.find(']').ok_or("unterminated predictions")?];
        body.split(',').map(parse_bits).collect::<Result<_, _>>()?
    } else if let Some(at) = resp.find(r#""prediction":"#) {
        let rest = &resp[at + r#""prediction":"#.len()..];
        let end = rest.find([',', '}']).ok_or("unterminated prediction")?;
        vec![parse_bits(&rest[..end])?]
    } else {
        return Err(format!("no prediction in {}", resp.trim()));
    };
    if got != expect {
        return Err("prediction bits differ from the in-process engine".to_string());
    }
    Ok(())
}

fn parse_bits(s: &str) -> Result<u64, String> {
    s.trim().parse::<f64>().map(f64::to_bits).map_err(|e| format!("bad number `{s}`: {e}"))
}

/// Socket budget of the benchmark's client: far above any healthy
/// answer, so only a hung server trips it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The benchmark's own client: one persistent connection, each request
/// written with its newline in a single write.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let fail = |e: std::io::Error| format!("connect {addr}: {e}");
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(fail)?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(fail)?;
        stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(fail)?;
        stream.set_nodelay(true).map_err(fail)?;
        let reader = BufReader::new(stream.try_clone().map_err(fail)?);
        Ok(Self { stream, reader, out: Vec::new() })
    }

    /// Send one request line and read its one-line answer into `resp`.
    pub fn round_trip(&mut self, line: &str, resp: &mut String) -> Result<(), String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream.write_all(&self.out).map_err(|e| format!("send: {e}"))?;
        resp.clear();
        match self.reader.read_line(resp) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

fn start_server(artifact: &ModelArtifact) -> Result<Server, String> {
    let registry = Arc::new(Registry::new());
    registry.publish(artifact.clone())?;
    let config = ServerConfig { workers: WORKERS, ..ServerConfig::default() };
    Server::start(config, registry).map_err(|e| format!("server start: {e}"))
}

/// What a serving workload runs against: one server, or a router over
/// [`SHARDS`] shard servers.
pub struct Deployment {
    servers: Vec<Server>,
    router: Option<Router>,
    map: Option<ShardMap>,
}

impl Deployment {
    pub fn start(artifact: &ModelArtifact, routed: bool) -> Result<Self, String> {
        let n = if routed { SHARDS } else { 1 };
        let servers = (0..n).map(|_| start_server(artifact)).collect::<Result<Vec<_>, _>>()?;
        if !routed {
            return Ok(Self { servers, router: None, map: None });
        }
        let router = Router::start(RouterConfig {
            workers: WORKERS,
            shards: servers.iter().map(|s| vec![s.local_addr()]).collect(),
            artifact: Some(artifact.clone()),
            ..RouterConfig::default()
        })
        .map_err(|e| format!("router start: {e}"))?;
        Ok(Self { servers, router: Some(router), map: Some(ShardMap::contiguous(SHARDS)?) })
    }

    /// The address the workload's client talks to.
    pub fn front(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.servers[0].local_addr(),
        }
    }

    /// Shard position that owns a line (batches go to shard 0, which
    /// holds the whole model).
    fn owner(&self, line: &str) -> usize {
        self.map.as_ref().and_then(|m| route_shard(line, m)).unwrap_or(0)
    }

    /// `(requests, total handle µs)` summed over the shard servers.
    fn server_totals(&self) -> (f64, f64) {
        self.servers.iter().fold((0.0, 0.0), |(n, us), s| {
            let snap = s.metrics().snapshot();
            (n + snap.requests as f64, us + snap.mean_latency_us * snap.requests as f64)
        })
    }

    /// `(requests, flushes, retries)` from the router's counters.
    fn router_totals(&self) -> (u64, u64, u64) {
        match &self.router {
            None => (0, 0, 0),
            Some(r) => {
                let m = r.metrics();
                let get = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);
                let retries = get(&m.hedges) + get(&m.failovers) + get(&m.router_timeouts);
                (get(&m.requests), get(&m.flushes), retries)
            }
        }
    }

    pub fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        for s in self.servers {
            s.shutdown();
        }
    }
}

/// Send every distinct line once, check the answers and return the mean
/// response size in bytes, newline included. Behind a router each line
/// also goes straight to its owning shard, and the routed answer must
/// match the shard's bit for bit.
pub fn preflight(dep: &Deployment, stream: &Stream) -> Result<f64, String> {
    let mut front = Client::connect(dep.front())?;
    let mut shards = dep
        .servers
        .iter()
        .map(|s| Client::connect(s.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut resp = String::new();
    let mut direct = String::new();
    let mut bytes = 0usize;
    for (i, line) in stream.lines.iter().enumerate() {
        front.round_trip(line, &mut resp)?;
        check_response(&resp, &stream.expect[i])?;
        bytes += resp.len();
        if dep.router.is_some() {
            shards[dep.owner(line)].round_trip(line, &mut direct)?;
            check_response(&direct, &stream.expect[i])?;
        }
    }
    Ok(bytes as f64 / stream.lines.len() as f64)
}

/// Operations attempted and failed, with the first failure's reason.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Tally {
    pub fn add<T>(&mut self, outcome: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_error.get_or_insert_with(|| e.clone());
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

/// What one client loop measured.
#[derive(Default)]
pub struct LoopOut {
    /// Round-trip latency of every checked operation, µs.
    pub lat_us: Vec<f64>,
    /// The latencies of the operations timed on a fast host (see `host`),
    /// µs, and the loop seconds their windows took.
    pub fast_lat_us: Vec<f64>,
    pub fast_secs: f64,
    /// Probe windows in the loop, and how many of them the host ran fast.
    pub windows: usize,
    pub fast_windows: usize,
    /// Latency of the same lines sent straight to the owning shard
    /// (traced routed loops only), µs.
    pub direct_us: Vec<f64>,
    pub tally: Tally,
    /// Mean server handle time over the loop, µs.
    pub handle_mean_us: f64,
    /// Router flushes per routed request.
    pub round_trips_per_req: f64,
    /// Router hedges, failovers and timeouts during the loop.
    pub retries: u64,
    /// Fresh `Workspace` allocations per replayed engine call.
    pub allocs_per_req: f64,
}

/// Options of a traced loop: replay each line through the serve layer
/// in process, and (behind a router) send each line straight to its
/// shard too.
pub struct Tracing<'a> {
    pub tr: &'a mut Tracer,
    pub engine: &'a Engine,
    pub replay: bool,
    pub direct: bool,
}

/// One probe window of a loop: the host probe taken as it opened, when
/// it opened, and the index of its first operation.
struct Window {
    probe_us: f64,
    opened: Instant,
    first_op: usize,
}

/// The closed loop: one client, one connection, next request only after
/// the previous answer, for `seconds`. `start` offsets into the
/// stream's order. Every [`WINDOW_SECONDS`] the loop probes the host's
/// speed, and keeps apart the operations timed on a fast host.
pub fn drive(
    dep: &Deployment,
    stream: &Stream,
    seconds: f64,
    start: usize,
    mut tracing: Option<Tracing<'_>>,
) -> Result<LoopOut, String> {
    let mut conn = Client::connect(dep.front())?;
    let mut shards = match &tracing {
        Some(t) if t.direct => dep
            .servers
            .iter()
            .map(|s| Client::connect(s.local_addr()))
            .collect::<Result<Vec<_>, _>>()?,
        _ => Vec::new(),
    };
    let mut ws = Workspace::new();
    let mut resp = String::new();
    let mut direct = String::new();
    let mut out = LoopOut::default();
    let (srv_n0, srv_us0) = dep.server_totals();
    let (rt_req0, rt_flush0, rt_retry0) = dep.router_totals();
    let mut allocs_after_first = None;
    let mut probe = Probe::new();
    let open = |probe: &mut Probe, first_op| Window {
        probe_us: probe.time_us(),
        opened: Instant::now(),
        first_op,
    };
    // Each closed window with its loop seconds.
    let mut windows: Vec<(Window, f64)> = Vec::new();
    let began = Instant::now();
    let mut window = open(&mut probe, 0);
    for k in 0.. {
        let done = began.elapsed().as_secs_f64() >= seconds;
        let secs = window.opened.elapsed().as_secs_f64();
        if done || secs >= WINDOW_SECONDS {
            windows.push((window, secs));
            if done {
                break;
            }
            window = open(&mut probe, out.lat_us.len());
        }
        let idx = stream.order[(start + k) % stream.order.len()];
        let line = &stream.lines[idx];
        let t0 = Instant::now();
        let sent = conn.round_trip(line, &mut resp);
        let lat = t0.elapsed().as_secs_f64() * 1e6;
        let outcome = sent.and_then(|()| check_response(&resp, &stream.expect[idx]));
        out.tally.add(&outcome);
        if outcome.is_err() {
            // The connection may be out of step after a failure.
            conn = Client::connect(dep.front())?;
            continue;
        }
        out.lat_us.push(lat);
        let Some(t) = tracing.as_mut() else { continue };
        if t.direct {
            let owner = dep.owner(line);
            let t0 = Instant::now();
            let sent = shards[owner].round_trip(line, &mut direct);
            let lat = t0.elapsed().as_secs_f64() * 1e6;
            let outcome = sent.and_then(|()| check_response(&direct, &stream.expect[idx]));
            out.tally.add(&outcome);
            match outcome {
                Ok(()) => out.direct_us.push(lat),
                Err(_) => shards[owner] = Client::connect(dep.servers[owner].local_addr())?,
            }
        }
        if t.replay {
            replay(t, line, &resp, stream.kind, &mut ws)?;
            allocs_after_first.get_or_insert(ws.counters().0);
        }
    }
    let fast = host::fast(&windows.iter().map(|(w, _)| w.probe_us).collect::<Vec<_>>());
    for (i, (w, secs)) in windows.iter().enumerate() {
        if fast[i] {
            let end = windows.get(i + 1).map_or(out.lat_us.len(), |(n, _)| n.first_op);
            out.fast_lat_us.extend_from_slice(&out.lat_us[w.first_op..end]);
            out.fast_secs += secs;
            out.fast_windows += 1;
        }
    }
    out.windows = windows.len();
    let (srv_n1, srv_us1) = dep.server_totals();
    if srv_n1 > srv_n0 {
        out.handle_mean_us = (srv_us1 - srv_us0) / (srv_n1 - srv_n0);
    }
    let (rt_req1, rt_flush1, rt_retry1) = dep.router_totals();
    if rt_req1 > rt_req0 {
        out.round_trips_per_req = (rt_flush1 - rt_flush0) as f64 / (rt_req1 - rt_req0) as f64;
    }
    out.retries = rt_retry1 - rt_retry0;
    if let Some(first) = allocs_after_first {
        let replays = out.lat_us.len().saturating_sub(1).max(1);
        out.allocs_per_req = (ws.counters().0 - first) as f64 / replays as f64;
    }
    Ok(out)
}

/// Replay one answered line through the serve layer in process, with a
/// span around each public call the server makes for it: parse the
/// line, run the engine on a persistent workspace, serialize the answer.
fn replay(
    t: &mut Tracing<'_>,
    line: &str,
    resp: &str,
    kind: Kind,
    ws: &mut Workspace,
) -> Result<(), String> {
    let s = t.tr.enter("serve.parse");
    let parsed: Result<Value, _> = serde_json::from_str(line);
    t.tr.exit(s);
    let request = Request::from_value(&parsed.map_err(|e| format!("replay parse: {e}"))?)?;
    match kind {
        Kind::Single => {
            let row = &request.features[0];
            let t0 = Instant::now();
            for _ in 0..ENGINE_REPS {
                std::hint::black_box(t.engine.predict_company_checked(
                    std::hint::black_box(request.company),
                    std::hint::black_box(row),
                ))
                .map_err(|e| e.to_string())?;
            }
            t.tr.record("serve.engine", t0.elapsed().as_secs_f64() * 1e6 / ENGINE_REPS as f64);
        }
        Kind::Batch => {
            let x = request.matrix();
            let s = t.tr.enter("serve.engine");
            let pred = t.engine.predict_batch_with(&x, &Seq, ws);
            t.tr.exit(s);
            ws.give(pred?.into_vec());
        }
    }
    let answer: Value = serde_json::from_str(resp.trim()).map_err(|e| format!("{e}"))?;
    let s = t.tr.enter("serve.serialize");
    let encoded = serde_json::to_string(&answer);
    t.tr.exit(s);
    std::hint::black_box(encoded.map_err(|e| format!("{e}"))?);
    Ok(())
}
