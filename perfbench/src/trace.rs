//! Spans recorded by the benchmark around the public layer calls it
//! makes. Nothing here reaches inside the program: a span covers one
//! call from the outside, so a layer's time includes everything that
//! call does.
//!
//! Spans stay in memory for the whole run and are aggregated into the
//! per-layer metrics at the end. With tracing off, `enter`/`exit`
//! record nothing and the clock is never read.

use std::time::Instant;

/// One closed span: which layer call, the span that caused it, and its
/// interval in nanoseconds since the tracer started.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A handle returned by [`Tracer::enter`]; pass it to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<usize>);

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, parent, start_ns, end_ns: start_ns });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must close in LIFO order");
        }
    }

    /// Record a span of a known duration (a measurement taken by the
    /// caller, e.g. a batch of sub-microsecond calls divided by its
    /// count), attached to the currently open span.
    pub fn record(&mut self, name: &'static str, micros: f64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let start_ns = end_ns.saturating_sub((micros * 1e3) as u64);
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, parent, start_ns, end_ns });
    }

    /// Durations (µs) of every span with this name.
    pub fn micros_of(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::micros).collect()
    }

    /// Share of each `parent_name` span covered by its direct children,
    /// summed over all such spans.
    pub fn child_coverage(&self, parent_name: &str) -> f64 {
        let mut parent_ns = 0u64;
        let mut child_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != parent_name {
                continue;
            }
            parent_ns += s.end_ns - s.start_ns;
            child_ns += self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_ns - c.start_ns)
                .sum::<u64>();
        }
        if parent_ns == 0 {
            return 0.0;
        }
        child_ns as f64 / parent_ns as f64
    }
}
