//! The JSONL connection layer, both ends of the socket.
//!
//! **Server side.** [`LineServer`] is the one connection core behind
//! every front door (the `serve` shard server and the cluster router):
//! bind, an acceptor with bounded admission that answers a full queue
//! with the caller's shed line, a fixed worker pool, the
//! [`READ_TICK`]-driven bounded read loop with an optional idle
//! timeout, the [`MAX_LINE_BYTES`] refusal-then-close, one write per
//! reply, and a graceful shutdown. What a front door *answers* is its
//! [`LineHandler`]; everything about the connection lives here, so a
//! fix to admission, shedding or framing lands once.
//!
//! **Client side.** Every component that *talks to* a prediction
//! server — the `loadgen` binary, the cluster router's upstream pool,
//! the health prober, the chaos benches — needs a TCP connection whose
//! connect/read/write are all bounded by explicit timeouts, one-line
//! request/response framing, and jittered backoff for reconnects:
//! [`JsonlConn`], [`Timeouts`] and [`backoff`].
//!
//! Policy (enforced by the `no-connect-without-timeout` lint): no
//! request-path socket may be created without a connect timeout, and
//! every connection sets read + write timeouts immediately. A hung
//! upstream must cost a bounded wait, never a pinned thread.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on one JSONL request/response line, shared by every tier
/// that reads framed lines off a socket (serve's request loop, the
/// router's client loop, the upstream pool). A peer that streams an
/// endless line must cost at most this much memory, then get a typed
/// refusal — never an unbounded `String`.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Outcome of [`read_line_bounded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundedLine {
    /// A full newline-terminated line is in the buffer; total buffered
    /// bytes (newline included).
    Line(usize),
    /// The peer closed — at a line boundary (empty buffer) or mid-line
    /// (partial bytes remain, never newline-terminated).
    Closed,
    /// The line hit the byte cap before a newline arrived. The stream
    /// cannot be re-synchronized mid-line; the caller should send a
    /// typed refusal and close.
    TooLarge,
}

/// Read one `\n`-terminated line into `buf`, never growing `buf` past
/// `max` bytes. The buffer is *not* cleared: a read interrupted by a
/// timeout (`WouldBlock`/`TimedOut` propagate as errors) keeps its
/// partial bytes, so tick-loop callers just call again and the budget
/// shrinks accordingly. The `take` budget and the read share one
/// statement so the cap is evident at the call site (and to the taint
/// audit).
pub fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    buf: &mut String,
    max: usize,
) -> std::io::Result<BoundedLine> {
    let budget = max.saturating_sub(buf.len());
    let n = reader.by_ref().take(budget as u64).read_line(buf)?;
    if n == 0 && buf.is_empty() {
        return Ok(BoundedLine::Closed);
    }
    if !buf.ends_with('\n') {
        // No newline: either the budget ran out (oversized line) or
        // the peer closed mid-line.
        return Ok(if buf.len() >= max { BoundedLine::TooLarge } else { BoundedLine::Closed });
    }
    Ok(BoundedLine::Line(buf.len()))
}

/// How often a blocked read or an idle worker wakes to check shutdown
/// and idle time (the router's dispatchers and prober tick on it too).
pub const READ_TICK: Duration = Duration::from_millis(100);

/// Ceiling on a front door's worker count: one thread per worker.
pub const MAX_WORKERS: usize = 1024;

/// Ceiling on a front door's admission queue: each slot holds a
/// pending connection.
pub const MAX_QUEUE: usize = 1 << 16;

/// Write budget for a shed line, so a refused client that does not
/// read cannot stall the acceptor.
const SHED_WRITE_TIMEOUT: Duration = Duration::from_millis(250);

/// What the core does with the reply a [`LineHandler`] wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    /// The buffer holds one response line; the core appends the
    /// newline, writes both with one send, and keeps reading.
    Line,
    /// Write the buffer's first `n` bytes verbatim with no newline,
    /// then close: a response cut off mid-line.
    Cut(usize),
}

/// What a front door does with its lines; [`LineServer`] owns the
/// connections. The core is generic over the handler, so the per-line
/// call is static. The event hooks default to no-ops.
pub trait LineHandler: Send + Sync + 'static {
    /// Per-worker scratch, created once on each worker thread and lent
    /// to every line that worker handles.
    type Scratch: Default;

    /// The whole line (newline included) a connection refused at
    /// admission receives before it is closed.
    const SHED_LINE: &'static [u8];

    /// Answer one request line (trimmed, never empty) by writing the
    /// response into `out`, which the core owns, reuses across lines
    /// and hands over empty.
    fn handle(&self, scratch: &mut Self::Scratch, line: &str, out: &mut String) -> Reply;

    /// A connection was shed at admission.
    fn on_shed(&self) {}

    /// A connection idled past the idle timeout and was closed.
    fn on_idle(&self) {}

    /// A connection sent a line past [`MAX_LINE_BYTES`]; it got the
    /// typed refusal and was closed.
    fn on_oversize(&self) {}

    /// A socket option on an accepted connection could not be set.
    fn on_config_error(&self) {}
}

/// A running front door: one acceptor thread feeding a bounded queue
/// drained by a fixed worker pool, each worker serving one connection
/// at a time through `H`. Dropping it without [`LineServer::shutdown`]
/// detaches the threads.
pub struct LineServer<H: LineHandler> {
    local_addr: SocketAddr,
    handler: Arc<H>,
    shutdown: Arc<AtomicBool>,
    /// The acceptor, then the workers.
    threads: Vec<JoinHandle<()>>,
}

impl<H: LineHandler> LineServer<H> {
    /// Bind `addr` and start serving. `workers` is clamped to
    /// `1..=MAX_WORKERS` and `queue_capacity` to `1..=MAX_QUEUE`; beyond
    /// `queue_capacity` waiting connections, new ones get
    /// [`LineHandler::SHED_LINE`] and are closed. `idle_timeout` closes
    /// a connection that sends nothing for that long; `None` never
    /// does.
    pub fn start(
        addr: &str,
        workers: usize,
        queue_capacity: usize,
        idle_timeout: Option<Duration>,
        handler: Arc<H>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Bounded admission: a burst degrades into fast, explicit
        // refusals instead of unbounded memory and queueing delay.
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(queue_capacity.clamp(1, MAX_QUEUE));
        let rx = Arc::new(Mutex::new(rx));
        let acceptor = {
            let (handler, shutdown) = (Arc::clone(&handler), Arc::clone(&shutdown));
            std::thread::spawn(move || accept_loop(&listener, &tx, &*handler, &shutdown))
        };
        let workers = (0..workers.clamp(1, MAX_WORKERS)).map(|_| {
            let (rx, handler, shutdown) =
                (Arc::clone(&rx), Arc::clone(&handler), Arc::clone(&shutdown));
            std::thread::spawn(move || worker_loop(&rx, &*handler, idle_timeout, &shutdown))
        });
        let threads = std::iter::once(acceptor).chain(workers).collect();
        Ok(Self { local_addr, handler, shutdown, threads })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The handler every worker answers through.
    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Graceful shutdown: stop accepting, let each worker finish the
    /// line it is on, join every thread.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the acceptor with a throwaway connection — connected
        // then dropped, never read from, so only the connect is bounded.
        // ams-lint: allow(no-connect-without-timeout) — write-less nudge, no read to time out
        let _ = TcpStream::connect_timeout(&self.local_addr, READ_TICK);
        for h in self.threads {
            let _ = h.join();
        }
    }
}

/// Admit each accepted connection into the bounded queue, or shed it
/// when the queue is full. Exits on shutdown (after the nudge
/// connection) and drops `tx`, so the workers drain and exit.
fn accept_loop<H: LineHandler>(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    handler: &H,
    shutdown: &AtomicBool,
) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(s) => match tx.try_send(s) {
                Ok(()) => {}
                Err(TrySendError::Full(mut s)) => {
                    // The client learns *why* it was refused instead of
                    // seeing a silent hang or close.
                    handler.on_shed();
                    let _ = s.set_nodelay(true);
                    let _ = s.set_write_timeout(Some(SHED_WRITE_TIMEOUT));
                    let _ = s.write_all(H::SHED_LINE);
                }
                Err(TrySendError::Disconnected(_)) => break,
            },
            Err(_) => continue,
        }
    }
}

fn worker_loop<H: LineHandler>(
    rx: &Mutex<Receiver<TcpStream>>,
    handler: &H,
    idle_timeout: Option<Duration>,
    shutdown: &AtomicBool,
) {
    let mut scratch = H::Scratch::default();
    // The reply buffer lives as long as the worker: once it has grown
    // to the largest reply, writing a reply allocates nothing.
    let mut reply = String::new();
    loop {
        // Hold the queue lock only while dequeuing. A poisoned lock
        // means a sibling panicked while dequeuing; the receiver is
        // still usable, so recover instead of taking the pool down.
        let conn = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv_timeout(READ_TICK)
        };
        match conn {
            Ok(stream) => {
                serve_connection(stream, handler, &mut scratch, &mut reply, idle_timeout, shutdown)
            }
            Err(RecvTimeoutError::Timeout) if shutdown.load(Ordering::SeqCst) => return,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Serve one connection until the peer closes, the idle timeout or
/// shutdown ends it, or a write fails.
fn serve_connection<H: LineHandler>(
    stream: TcpStream,
    handler: &H,
    scratch: &mut H::Scratch,
    reply: &mut String,
    idle_timeout: Option<Duration>,
    shutdown: &AtomicBool,
) {
    if stream.set_nodelay(true).is_err() {
        handler.on_config_error();
    }
    // The read tick keeps an idle connection from pinning its worker
    // past shutdown and drives the idle accounting. A refused timeout
    // means this connection can pin its worker, so it is counted.
    if stream.set_read_timeout(Some(READ_TICK)).is_err() {
        handler.on_config_error();
    }
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut idle = Duration::ZERO;
    loop {
        // The buffer is cleared after each handled line, not here: a
        // timeout tick leaves partial bytes that the next call resumes.
        match read_line_bounded(&mut reader, &mut line, MAX_LINE_BYTES) {
            Ok(BoundedLine::Line(_)) => idle = Duration::ZERO,
            Ok(BoundedLine::Closed) => return,
            Ok(BoundedLine::TooLarge) => {
                // Past the cap there is no line boundary to resync on
                // (the rest would parse as garbage requests): refuse
                // with a typed error, then close.
                handler.on_oversize();
                let refusal = format!(
                    "{{\"ok\":false,\"error\":\"request line exceeded {MAX_LINE_BYTES} bytes\"}}\n"
                );
                let _ = writer.write_all(refusal.as_bytes());
                return;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                idle += READ_TICK;
                if idle_timeout.is_some_and(|limit| idle >= limit) {
                    handler.on_idle();
                    return;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        let request = line.trim();
        if !request.is_empty() {
            reply.clear();
            match handler.handle(scratch, request, reply) {
                Reply::Line => {
                    // ams-lint: allow(no-unbounded-queue-in-serve) — one newline per reply
                    reply.push('\n');
                    if writer.write_all(reply.as_bytes()).is_err()
                        || shutdown.load(Ordering::SeqCst)
                    {
                        return;
                    }
                }
                Reply::Cut(n) => {
                    let _ = writer.write_all(reply.as_bytes().get(..n).unwrap_or_default());
                    return;
                }
            }
        }
        line.clear();
    }
}

/// Explicit bounds on every socket operation of a [`JsonlConn`].
#[derive(Debug, Clone, Copy)]
pub struct Timeouts {
    /// TCP connect budget.
    pub connect: Duration,
    /// Per-`read_line` budget (also the failover detection latency).
    pub read: Duration,
    /// Per-write budget.
    pub write: Duration,
}

impl Timeouts {
    /// The same budget for connect, read and write.
    pub fn uniform(d: Duration) -> Self {
        Self { connect: d, read: d, write: d }
    }
}

impl Default for Timeouts {
    fn default() -> Self {
        Self {
            connect: Duration::from_millis(500),
            read: Duration::from_secs(2),
            write: Duration::from_secs(2),
        }
    }
}

/// Resolve `host:port` to the first socket address. `connect_timeout`
/// needs a concrete [`SocketAddr`], so resolution is a separate,
/// fallible step.
pub fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))
}

/// Jittered exponential backoff for attempt `k` (0-based): base
/// `10·2^k` ms plus up to that much deterministic jitter, so clients
/// that were shed together do not reconnect in lockstep.
pub fn backoff(attempt: u32, salt: u64) -> Duration {
    let base = 10u64 << attempt.min(10);
    let jitter = ams_fault::mix64(salt ^ u64::from(attempt).wrapping_mul(0x9E37_79B9)) % base;
    Duration::from_millis(base + jitter)
}

/// One persistent JSON-lines client connection with every socket
/// operation bounded: requests go out as single lines, responses come
/// back as single lines.
pub struct JsonlConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    addr: SocketAddr,
    /// Reused outgoing buffer: a request and its newline leave in one
    /// send.
    out: Vec<u8>,
}

impl JsonlConn {
    /// Connect with explicit timeouts on connect, read and write.
    pub fn connect(addr: SocketAddr, timeouts: &Timeouts) -> std::io::Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, timeouts.connect)?;
        stream.set_read_timeout(Some(timeouts.read))?;
        stream.set_write_timeout(Some(timeouts.write))?;
        let _ = stream.set_nodelay(true);
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self { writer: stream, reader, addr, out: Vec::new() })
    }

    /// [`JsonlConn::connect`] by hostname, resolving first.
    pub fn connect_str(addr: &str, timeouts: &Timeouts) -> Result<Self, String> {
        let sockaddr = resolve(addr)?;
        Self::connect(sockaddr, timeouts).map_err(|e| format!("connect {addr}: {e}"))
    }

    /// The upstream this connection talks to.
    pub fn peer(&self) -> SocketAddr {
        self.addr
    }

    /// Re-bound the read budget (the write/connect budgets are fixed at
    /// connect time). The underlying socket is shared with the buffered
    /// reader, so this takes effect on the next read.
    pub fn set_read_timeout(&self, d: Duration) -> std::io::Result<()> {
        self.writer.set_read_timeout(Some(d))
    }

    /// Write one request line and its newline with a single send.
    pub fn send_line(&mut self, request: &str) -> std::io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(request.as_bytes());
        self.out.push(b'\n');
        self.writer.write_all(&self.out)
    }

    /// Read one response line into `buf` (cleared first), capped at
    /// [`MAX_LINE_BYTES`]. `Ok(0)` means the peer closed; an oversized
    /// response is `InvalidData` (a server that streams an endless
    /// line is as broken as one that closes mid-response); a timeout
    /// surfaces as `WouldBlock`/`TimedOut`.
    pub fn read_line_into(&mut self, buf: &mut String) -> std::io::Result<usize> {
        buf.clear();
        match read_line_bounded(&mut self.reader, buf, MAX_LINE_BYTES)? {
            BoundedLine::Line(n) => Ok(n),
            BoundedLine::Closed => Ok(0),
            BoundedLine::TooLarge => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("response line exceeded {MAX_LINE_BYTES} bytes"),
            )),
        }
    }

    /// One request/response round trip; the response line lands in
    /// `buf`. A closed connection is an error, not an empty line.
    pub fn round_trip_into(&mut self, request: &str, buf: &mut String) -> Result<(), String> {
        self.send_line(request).map_err(|e| format!("send to {}: {e}", self.addr))?;
        let n = self.read_line_into(buf).map_err(|e| format!("read from {}: {e}", self.addr))?;
        if n == 0 {
            return Err(format!("{} closed the connection", self.addr));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::server::{Server, ServerConfig};
    use std::sync::Arc;

    #[test]
    fn round_trip_against_a_live_server() {
        let registry = Arc::new(Registry::new());
        let server = Server::start(
            ServerConfig { addr: "127.0.0.1:0".into(), workers: 1, ..Default::default() },
            registry,
        )
        .unwrap();
        let mut conn = JsonlConn::connect(server.local_addr(), &Timeouts::default()).unwrap();
        let mut buf = String::new();
        conn.round_trip_into(r#"{"type":"health"}"#, &mut buf).unwrap();
        let health: serde::Value = serde_json::from_str(buf.trim()).unwrap();
        assert_eq!(health.get("ok").and_then(serde::Value::as_bool), Some(true));
        server.shutdown();
    }

    #[test]
    fn connect_to_a_dead_port_fails_within_the_budget() {
        // Bind-then-drop: nobody is listening on this port right after.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t = Timeouts::uniform(Duration::from_millis(200));
        let started = std::time::Instant::now();
        assert!(JsonlConn::connect(addr, &t).is_err());
        assert!(started.elapsed() < Duration::from_secs(5), "connect did not bound its wait");
    }

    #[test]
    fn read_timeout_surfaces_instead_of_hanging() {
        // A listener that accepts and never answers.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
        let t = Timeouts::uniform(Duration::from_millis(100));
        let mut conn = JsonlConn::connect(addr, &t).unwrap();
        let mut buf = String::new();
        let err = conn.round_trip_into(r#"{"type":"health"}"#, &mut buf).unwrap_err();
        assert!(err.contains("read from"), "{err}");
        drop(hold.join());
    }

    #[test]
    fn resolve_and_backoff_are_sane() {
        assert!(resolve("127.0.0.1:80").is_ok());
        assert!(resolve("definitely not an address").is_err());
        let mut prev = Duration::ZERO;
        for attempt in 0..6 {
            let d = backoff(attempt, 42);
            let base = 10u64 << attempt;
            assert!(d >= Duration::from_millis(base));
            assert!(d <= Duration::from_millis(2 * base));
            assert!(d >= prev / 4, "backoff collapsed at attempt {attempt}");
            prev = d;
        }
    }
}
