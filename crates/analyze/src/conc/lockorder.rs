//! Static lock-order analysis.
//!
//! Runs on the per-function model and call graph the audit and taint
//! passes share ([`crate::audit::model`], [`crate::audit::graph`]), so
//! it sees the same functions, receiver types and calls. It extracts
//! which `Mutex` / `RwLock` objects each function acquires and in what
//! nesting order, then:
//!
//! * builds the global acquisition-order graph (an edge `A → B` means
//!   some function acquires `B` while holding `A`) and reports every
//!   cycle as a `lock-order-cycle` error — two functions taking the
//!   same pair of locks in opposite orders is the classic deadlock;
//! * reports a guard held across a blocking I/O call
//!   (`no-lock-across-io`): a stalled peer must never pin a lock.
//!
//! What counts as a lock object: a struct field of `Mutex`/`RwLock`
//! type (identified as `Struct.field`), or a lock-typed function
//! parameter (identified as `fn.param`). A receiver chain resolves
//! through typed params, locals and field maps
//! ([`graph::chain_type`]); when the owner's type is unknown, a field
//! name that exactly one struct declares as a lock still resolves.
//! Direct acquisitions are `chain.lock()`, and `chain.read()` /
//! `chain.write()` on an `RwLock`. Receivers that cannot be resolved
//! are skipped (conservative: this pass under-reports rather than
//! inventing edges).
//!
//! Calls are followed to any depth and across files by a bottom-up
//! summary over the call graph's SCC condensation: the locks a function
//! acquires and whether it reaches blocking I/O, each with its shortest
//! call chain. One rule covers guard helpers (`breaker`'s `self.lock()`,
//! `pool`'s free `lock(&m)`): a call to a guard-returning fn acquires
//! what that fn acquires, with a lock parameter replaced by the
//! caller's argument, and the guard stays held like a direct one. Any
//! other callee releases its locks before returning: they order after
//! everything held at the call, but are not held afterwards.
//!
//! Guard liveness is indentation-scoped: a `let`-bound guard lives
//! until the surrounding block dedents below its binding, a
//! block-opening acquisition (`match x.lock() {`) until its block
//! closes, anything else for its own statement; `drop(guard)` ends a
//! binding early. Findings are suppressed by `// ams-lint:
//! allow(rule)` on the line or the line above, exactly like the lint
//! engine.

use crate::audit::graph::{self, CallGraph};
use crate::audit::model::{self, BodyLine, FnModel, LockKind, WorkspaceModel};
use crate::diagnostic::{Diagnostic, Location};
use crate::source::{self, balanced, ident, is_ident_byte, split_args, token_positions};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::path::Path;

/// Blocking I/O calls a live guard must not span. `.read()`/`.write()`
/// are deliberately absent (they are RwLock acquisitions here);
/// `recv_timeout` is excluded because a *bounded* wait under the queue
/// lock is the pool's designed dequeue idiom.
const IO_CALLS: [&str; 10] = [
    ".read_line(",
    ".read_to_string(",
    ".read_exact(",
    ".read_until(",
    ".write_all(",
    ".write_fmt(",
    ".flush()",
    ".accept()",
    ".connect(",
    ".recv()",
];

/// One acquisition-order observation: `to` acquired while `from` held.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub line: usize,
    /// The acquiring function, or the call chain `f → g → h` down to
    /// the function that takes `to`.
    pub function: String,
    /// An `ams-lint: allow(lock-order-cycle)` sat on the acquisition
    /// line; the edge is kept for provenance but removed from the
    /// cycle graph.
    pub suppressed: bool,
}

/// Run statistics, recorded into `results/BENCH_check.json` by the
/// `--bench` flag.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConcStats {
    pub files: usize,
    pub functions: usize,
    /// Acquisition sites resolved to a named lock, guard-helper calls
    /// included.
    pub acquisitions: usize,
    /// Acquisition-order observations ([`Edge`]s).
    pub edges: usize,
}

/// A lock as a summary records it: a named object, or whatever the
/// caller passes as lock parameter `k`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum Lock {
    Named(String),
    Param(usize),
}

/// What calling a function does, transitively. Each entry carries its
/// call chain below the function (callee first, ending at the function
/// that acts; empty when it acts itself).
#[derive(Debug, Clone, Default, PartialEq)]
struct Summary {
    locks: BTreeMap<Lock, Vec<String>>,
    io: Option<(&'static str, Vec<String>)>,
}

/// A lock taken on a body line, at byte `at`.
struct Taken {
    at: usize,
    lock: Lock,
    chain: Vec<String>,
    /// The guard outlives the expression: a direct acquisition or a
    /// guard-returning callee.
    holds: bool,
}

/// Blocking I/O on a body line, at byte `at`.
struct Io {
    at: usize,
    token: &'static str,
    chain: Vec<String>,
}

/// A guard currently live during the replay of one function body.
struct Held {
    lock: String,
    /// The guard dies when a line's indent drops below this.
    kill_below: usize,
    binding: Option<String>,
    line: usize,
}

/// Everything one run of the pass finds.
#[derive(Default)]
struct Found {
    edges: Vec<Edge>,
    diags: Vec<Diagnostic>,
    /// `(file, line, lock)` of every resolved acquisition site.
    acquisitions: Vec<(String, usize, String)>,
}

/// `f` followed by the call chain below it: `f → g → h`.
fn via(f: &FnModel, chain: &[String]) -> String {
    chain.iter().fold(f.name.clone(), |acc, callee| format!("{acc} → {callee}"))
}

/// The resolution context: the model, its unbound call graph and the
/// indexes lock resolution and suppression need.
struct Pass<'m> {
    model: &'m WorkspaceModel,
    graph: CallGraph,
    /// Lock field name → every `(struct, kind)` declaring it.
    by_field: BTreeMap<&'m str, Vec<(&'m str, LockKind)>>,
    /// `(file, line)` → rules of the `ams-lint` mark there.
    allows: BTreeMap<(&'m str, usize), &'m [String]>,
}

impl<'m> Pass<'m> {
    fn new(model: &'m WorkspaceModel) -> Self {
        let mut by_field: BTreeMap<&str, Vec<(&str, LockKind)>> = BTreeMap::new();
        for (s, fields) in &model.locks {
            for (field, kind) in fields {
                by_field.entry(field).or_default().push((s, *kind));
            }
        }
        let allows = model
            .marks
            .iter()
            .filter(|(_, m)| m.tool == "lint")
            .map(|(file, m)| ((file.as_str(), m.line), m.rules.as_slice()))
            .collect();
        Pass { model, graph: graph::build(model, &BTreeMap::new()), by_field, allows }
    }

    /// A `// ams-lint: allow(rule)` on `line` of `file` or the line above.
    fn allowed(&self, file: &'m str, line: usize, rule: &str) -> bool {
        [line, line.saturating_sub(1)].iter().any(|&l| {
            self.allows.get(&(file, l)).is_some_and(|rules| rules.iter().any(|r| r == rule))
        })
    }

    /// Resolve a receiver chain in `f` to a lock and its kind.
    fn resolve(&self, f: &FnModel, segs: &[String]) -> Option<(Lock, LockKind)> {
        let (last, owner) = segs.split_last()?;
        if owner.is_empty() {
            if let Some(k) = f.params.iter().position(|p| &p.name == last && p.lock.is_some()) {
                return Some((Lock::Param(k), f.params[k].lock?));
            }
        } else if let Some(ty) = graph::chain_type(f, self.model, owner) {
            if self.model.fields.contains_key(&ty) || self.model.locks.contains_key(&ty) {
                let kind = *self.model.locks.get(&ty)?.get(last)?;
                return Some((Lock::Named(format!("{ty}.{last}")), kind));
            }
        }
        match self.by_field.get(last.as_str())?.as_slice() {
            [(s, kind)] => Some((Lock::Named(format!("{s}.{last}")), *kind)),
            _ => None, // ambiguous across structs: skip rather than guess
        }
    }

    /// Bind a callee's summarized lock at a call in `f`: a lock
    /// parameter becomes whatever the argument resolves to.
    fn bind(&self, f: &FnModel, args: &[&str], lock: &Lock) -> Option<Lock> {
        let Lock::Param(k) = lock else { return Some(lock.clone()) };
        let arg = args.get(*k)?.trim_start_matches('&').trim_start_matches("mut ").trim();
        if arg.is_empty() || !arg.bytes().all(|b| is_ident_byte(b) || b == b'.') {
            return None;
        }
        let segs: Vec<String> = arg.split('.').map(str::to_string).collect();
        self.resolve(f, &segs).map(|(lock, _)| lock)
    }

    /// The locks taken and the first blocking I/O on one body line of
    /// fn `i`, left to right, given the callees' summaries.
    fn effects(&self, i: usize, bl: &BodyLine, summaries: &[Summary]) -> (Vec<Taken>, Option<Io>) {
        let f = &self.model.fns[i];
        let code = bl.code.as_str();
        let mut taken = Vec::new();
        for (needle, rw_only) in [(".lock()", false), (".read()", true), (".write()", true)] {
            for (at, _) in code.match_indices(needle) {
                let resolved = graph::receiver_chain(code, at).and_then(|s| self.resolve(f, &s));
                if let Some((lock, kind)) = resolved {
                    if !rw_only || kind == LockKind::RwLock {
                        taken.push(Taken { at, lock, chain: Vec::new(), holds: true });
                    }
                }
            }
        }
        let mut io = IO_CALLS
            .iter()
            .find_map(|&token| code.find(token).map(|at| Io { at, token, chain: Vec::new() }));
        let direct: Vec<usize> = taken.iter().map(|t| t.at + 1).collect();
        for site in self.graph.edges[i].iter().filter(|e| e.line == bl.line_no) {
            let callee = &self.model.fns[site.callee];
            let below = |chain: &[String]| {
                std::iter::once(callee.name.clone()).chain(chain.iter().cloned()).collect()
            };
            let summary = &summaries[site.callee];
            for at in token_positions(code, &callee.name) {
                let open = at + callee.name.len();
                // `m.lock()` on a resolved lock is that acquisition, not a call.
                if !code[open..].starts_with('(') || direct.contains(&at) {
                    continue;
                }
                let args: Vec<&str> = balanced(code, open).map_or(Vec::new(), |(lo, hi)| {
                    split_args(&code[lo..hi]).into_iter().map(|(_, arg)| arg).collect()
                });
                for (lock, chain) in &summary.locks {
                    if let Some(lock) = self.bind(f, &args, lock) {
                        let holds = callee.guard_returning;
                        taken.push(Taken { at, lock, chain: below(chain), holds });
                    }
                }
                if let (None, Some((token, chain))) = (&io, &summary.io) {
                    io = Some(Io { at, token, chain: below(chain) });
                }
            }
        }
        taken.sort_by_key(|t| t.at);
        (taken, io)
    }

    /// Summarize fn `i` from its body and its callees' summaries.
    fn summarize(&self, i: usize, summaries: &[Summary]) -> Summary {
        let mut s = Summary::default();
        for bl in &self.model.fns[i].body {
            let (taken, io) = self.effects(i, bl, summaries);
            // The shortest chain wins (the first on a tie), so
            // recursive components settle.
            for t in taken {
                let chain = s.locks.entry(t.lock).or_insert_with(|| t.chain.clone());
                if t.chain.len() < chain.len() {
                    *chain = t.chain;
                }
            }
            if let Some(io) =
                io.filter(|io| s.io.as_ref().is_none_or(|(_, c)| io.chain.len() < c.len()))
            {
                s.io = Some((io.token, io.chain));
            }
        }
        s
    }

    /// Replay fn `i`'s body, emitting order edges, guard-across-io
    /// findings and resolved acquisition sites.
    fn replay(&self, i: usize, summaries: &[Summary], found: &mut Found) {
        let f = &self.model.fns[i];
        let name = |lock: &Lock| match lock {
            Lock::Named(n) => n.clone(),
            Lock::Param(k) => format!("{}.{}", f.name, f.params[*k].name),
        };
        let mut held: Vec<Held> = Vec::new();
        for bl in &f.body {
            let trimmed = bl.code.trim_start();
            let indent = bl.code.len() - trimmed.len();
            held.retain(|h| indent >= h.kill_below);
            if let Some(rest) = trimmed.strip_prefix("drop(") {
                held.retain(|h| h.binding.as_deref() != Some(ident(rest)));
            }
            let suppressed = self.allowed(&f.file, bl.line_no, "lock-order-cycle");
            let kill_below = if trimmed.starts_with("let ") {
                Some(indent)
            } else if trimmed.trim_end().ends_with('{') {
                Some(indent + 1)
            } else {
                None // transient: acquired and released within the statement
            };
            let (taken, io) = self.effects(i, bl, summaries);
            for t in taken {
                let lock = name(&t.lock);
                // A self-edge (re-acquiring a held lock) is kept: it
                // forms a length-1 cycle, which is exactly what
                // re-entrant `lock()` on a std Mutex is — a deadlock.
                for h in &held {
                    found.edges.push(Edge {
                        from: h.lock.clone(),
                        to: lock.clone(),
                        file: f.file.clone(),
                        line: bl.line_no,
                        function: via(f, &t.chain),
                        suppressed,
                    });
                }
                if !t.holds {
                    continue;
                }
                found.acquisitions.push((f.file.clone(), bl.line_no, lock.clone()));
                if let Some(kill_below) = kill_below {
                    let binding = model::let_bound(trimmed).map(|(name, _)| name.to_string());
                    held.push(Held { lock, kill_below, binding, line: bl.line_no });
                }
            }
            let (Some(h), Some(io)) = (held.last(), io) else { continue };
            if self.allowed(&f.file, bl.line_no, "no-lock-across-io") {
                continue;
            }
            let through = if io.chain.is_empty() {
                String::new()
            } else {
                format!(" via `{}`", via(f, &io.chain))
            };
            found.diags.push(
                Diagnostic::error(
                    "no-lock-across-io",
                    Location::Source { file: f.file.clone(), line: bl.line_no, col: io.at + 1 },
                    format!(
                        "guard on `{}` (taken line {}) is live across blocking `{}`{through} — \
                         a stalled peer pins the lock",
                        h.lock,
                        h.line,
                        io.token.trim_end_matches('(')
                    ),
                )
                .with_hint(
                    "scope the guard (inner block or `drop(guard)`) so it is released before any \
                     socket/file operation"
                        .to_string(),
                ),
            );
        }
    }
}

/// Parse, summarize and replay `files`.
fn run(files: &[(String, String)]) -> (Found, ConcStats) {
    let mut model = WorkspaceModel::default();
    for (label, content) in files {
        model::parse_file(label, content, &mut model);
    }
    let pass = Pass::new(&model);
    let summaries = graph::bottom_up(&pass.graph.edges, |i, s| pass.summarize(i, s), PartialEq::eq);
    let mut found = Found::default();
    for i in 0..model.fns.len() {
        pass.replay(i, &summaries, &mut found);
    }
    let stats = ConcStats {
        files: model.files,
        functions: model.fns.len(),
        acquisitions: found.acquisitions.len(),
        edges: found.edges.len(),
    };
    (found, stats)
}

/// Extract the global acquisition-order graph and guard-across-io
/// findings from `(label, content)` sources.
pub fn extract_edges(files: &[(String, String)]) -> (Vec<Edge>, Vec<Diagnostic>) {
    let (found, _) = run(files);
    (found.edges, found.diags)
}

/// Cycles in the acquisition-order graph, as node lists (`[A, B]`
/// means `A → B → A`). One cycle is reported per back edge found by a
/// deterministic DFS — enough to make any cyclic graph non-silent,
/// and exactly the planted cycle when there is only one.
pub fn find_cycles(edges: &[Edge]) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
        adj.entry(&e.to).or_default();
    }
    fn dfs<'a>(
        node: &'a str,
        adj: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        gray: &mut Vec<&'a str>,
        black: &mut HashSet<&'a str>,
        found: &mut BTreeSet<Vec<String>>,
    ) {
        gray.push(node);
        for &next in adj.get(node).into_iter().flatten() {
            if let Some(pos) = gray.iter().position(|&g| g == next) {
                let cycle: Vec<String> = gray[pos..].iter().map(|s| s.to_string()).collect();
                found.insert(canonical(cycle));
            } else if !black.contains(next) {
                dfs(next, adj, gray, black, found);
            }
        }
        gray.pop();
        black.insert(node);
    }
    let mut found = BTreeSet::new();
    let mut black = HashSet::new();
    let nodes: Vec<&str> = adj.keys().copied().collect();
    for node in nodes {
        if !black.contains(node) {
            dfs(node, &adj, &mut Vec::new(), &mut black, &mut found);
        }
    }
    found.into_iter().collect()
}

/// Rotate a cycle so its smallest node comes first (dedup form).
fn canonical(cycle: Vec<String>) -> Vec<String> {
    let min = cycle.iter().enumerate().min_by_key(|&(_, s)| s).map(|(i, _)| i).unwrap_or(0);
    let mut out = cycle[min..].to_vec();
    out.extend_from_slice(&cycle[..min]);
    out
}

/// Render the cycle set of the (unsuppressed) graph as diagnostics,
/// each naming the full cycle, the call chain of every acquisition
/// taken through calls, and every acquisition site on it.
pub fn cycle_diagnostics(edges: &[Edge]) -> Vec<Diagnostic> {
    let live: Vec<Edge> = edges.iter().filter(|e| !e.suppressed).cloned().collect();
    let mut out = Vec::new();
    for cycle in find_cycles(&live) {
        let on_cycle: Vec<&Edge> = cycle
            .iter()
            .enumerate()
            .filter_map(|(i, from)| {
                let to = &cycle[(i + 1) % cycle.len()];
                live.iter().find(|e| &e.from == from && &e.to == to)
            })
            .collect();
        let Some(first) = on_cycle.first() else { continue };
        let mut chain = cycle.clone();
        chain.push(cycle[0].clone());
        let calls: String = on_cycle
            .iter()
            .filter(|e| e.function.contains(" → "))
            .map(|e| format!(" ({} taken via `{}`)", e.to, e.function))
            .collect();
        let sites: Vec<String> = on_cycle
            .iter()
            .map(|e| {
                format!("{} → {} at {}:{} (in `{}`)", e.from, e.to, e.file, e.line, e.function)
            })
            .collect();
        out.push(
            Diagnostic::error(
                "lock-order-cycle",
                Location::Source { file: first.file.clone(), line: first.line, col: 1 },
                format!("lock acquisition order cycle: {}{calls}", chain.join(" → ")),
            )
            .with_hint(format!(
                "two paths take these locks in conflicting orders — a deadlock window; \
                 pick one global order. Sites: {}",
                sites.join("; ")
            )),
        );
    }
    out
}

/// Run the full pass over in-memory sources: order cycles plus
/// guard-across-io findings.
pub fn analyze(files: &[(String, String)]) -> (Vec<Diagnostic>, ConcStats) {
    let (found, stats) = run(files);
    let mut diags = found.diags;
    diags.extend(cycle_diagnostics(&found.edges));
    (diags, stats)
}

/// [`analyze`] without the statistics.
pub fn analyze_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    analyze(files).0
}

/// Run the pass over the production sources of the workspace at
/// `root` — the file set the taint pass reads.
pub fn check_workspace(root: &Path) -> Result<(Vec<Diagnostic>, ConcStats), String> {
    Ok(analyze(&source::load(root, &source::production_sources(root)?)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(label: &str, src: &str) -> Vec<(String, String)> {
        vec![(label.to_string(), src.to_string())]
    }

    const INVERSION: &str = "pub struct Pair {\n\
                             \x20   a: Mutex<u64>,\n\
                             \x20   b: Mutex<u64>,\n\
                             }\n\
                             pub fn forward(p: &Pair) {\n\
                             \x20   let ga = p.a.lock().unwrap();\n\
                             \x20   let gb = p.b.lock().unwrap();\n\
                             \x20   *gb += *ga;\n\
                             }\n\
                             fn backward(p: &Pair) {\n\
                             \x20   let gb = p.b.lock().unwrap();\n\
                             \x20   let ga = p.a.lock().unwrap();\n\
                             \x20   *ga += *gb;\n\
                             }\n";

    #[test]
    fn inversion_pair_yields_a_named_cycle() {
        let diags = analyze_files(&one("crates/x/src/inv.rs", INVERSION));
        let cycles: Vec<_> = diags.iter().filter(|d| d.rule == "lock-order-cycle").collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(cycles[0].message.contains("Pair.a"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("Pair.b"), "{}", cycles[0].message);
        let hint = cycles[0].hint.as_deref().unwrap_or("");
        assert!(hint.contains("`forward`") && hint.contains("`backward`"), "{hint}");
    }

    #[test]
    fn consistent_order_and_scoped_guards_are_clean() {
        let src = "struct Pair {\n\
                   \x20   a: Mutex<u64>,\n\
                   \x20   b: Mutex<u64>,\n\
                   }\n\
                   fn forward(p: &Pair) {\n\
                   \x20   let ga = p.a.lock().unwrap();\n\
                   \x20   let gb = p.b.lock().unwrap();\n\
                   \x20   *gb += *ga;\n\
                   }\n\
                   fn also_forward(p: &Pair) {\n\
                   \x20   {\n\
                   \x20       let ga = p.a.lock().unwrap();\n\
                   \x20       *ga += 1;\n\
                   \x20   }\n\
                   \x20   let gb = p.b.lock().unwrap();\n\
                   \x20   let ga = p.a.lock().unwrap();\n\
                   \x20   *gb += *ga;\n\
                   }\n";
        // `also_forward` scopes its first `a` guard, so only the
        // b→a edge inside it exists… which inverts forward's a→b.
        let diags = analyze_files(&one("crates/x/src/fwd.rs", src));
        assert_eq!(diags.iter().filter(|d| d.rule == "lock-order-cycle").count(), 1);
        // With the second function taking them in the same order, the
        // graph is a DAG: clean.
        let same = src.replace(
            "let gb = p.b.lock().unwrap();\n\
             \x20   let ga = p.a.lock().unwrap();",
            "let ga = p.a.lock().unwrap();\n\
             \x20   let gb = p.b.lock().unwrap();",
        );
        assert!(analyze_files(&one("crates/x/src/fwd.rs", &same)).is_empty());
    }

    #[test]
    fn suppression_marker_removes_the_cycle() {
        let suppressed = INVERSION.replace(
            "fn backward(p: &Pair) {\n\x20   let gb",
            "fn backward(p: &Pair) {\n\
             \x20   // ams-lint: allow(lock-order-cycle) — fixture-documented exception\n\
             \x20   let gb",
        );
        // The allow sits above b's acquisition; the a-acquisition edge
        // (b → a) one line below is the one that closes the cycle.
        let suppressed = suppressed.replace(
            "\x20   let ga = p.a.lock().unwrap();\n\x20   *ga += *gb;",
            "\x20   // ams-lint: allow(lock-order-cycle)\n\
             \x20   let ga = p.a.lock().unwrap();\n\x20   *ga += *gb;",
        );
        let diags = analyze_files(&one("crates/x/src/inv.rs", &suppressed));
        assert!(
            diags.iter().all(|d| d.rule != "lock-order-cycle"),
            "suppressed edges must not report: {diags:?}"
        );
    }

    #[test]
    fn guard_returning_helper_and_wrapper_resolve() {
        // The breaker shape: a `self.lock()` helper returning a guard.
        let helper = "struct Breaker {\n\
                      \x20   inner: Mutex<u32>,\n\
                      }\n\
                      struct Other {\n\
                      \x20   extra: Mutex<u32>,\n\
                      }\n\
                      impl Breaker {\n\
                      \x20   fn lock(&self) -> std::sync::MutexGuard<'_, u32> {\n\
                      \x20       self.inner.lock().unwrap()\n\
                      \x20   }\n\
                      \x20   fn cross(&self, o: &Other) {\n\
                      \x20       let g = self.lock();\n\
                      \x20       let e = o.extra.lock().unwrap();\n\
                      \x20       let _ = (*g, *e);\n\
                      \x20   }\n\
                      }\n";
        let (edges, _) = extract_edges(&one("crates/x/src/b.rs", helper));
        assert!(
            edges.iter().any(|e| e.from == "Breaker.inner" && e.to == "Other.extra"),
            "helper acquisition must register as holding Breaker.inner: {edges:?}"
        );
        // The pool shape: a free `lock(&mutex)` guard-returning wrapper.
        let wrapper = "struct Shared {\n\
                       \x20   queue: Mutex<u32>,\n\
                       }\n\
                       struct Batch {\n\
                       \x20   done: Mutex<bool>,\n\
                       }\n\
                       fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {\n\
                       \x20   m.lock().unwrap()\n\
                       }\n\
                       fn nested(s: &Shared, b: &Batch) {\n\
                       \x20   let q = lock(&s.queue);\n\
                       \x20   let d = lock(&b.done);\n\
                       \x20   let _ = (*q, *d);\n\
                       }\n";
        let (edges, _) = extract_edges(&one("crates/x/src/p.rs", wrapper));
        assert!(
            edges.iter().any(|e| e.from == "Shared.queue" && e.to == "Batch.done"),
            "wrapper acquisitions must resolve through the argument chain: {edges:?}"
        );
    }

    #[test]
    fn rwlock_reads_count_only_for_declared_rwlocks() {
        // `.read()` on a BufReader-ish receiver must not register; on a
        // declared RwLock field it must.
        let src = "struct Reg {\n\
                   \x20   map: RwLock<u32>,\n\
                   \x20   gate: Mutex<u32>,\n\
                   }\n\
                   fn readers(r: &Reg, sock: &mut TcpStream) {\n\
                   \x20   let g = r.gate.lock().unwrap();\n\
                   \x20   let m = r.map.read().unwrap();\n\
                   \x20   let _ = sock.read();\n\
                   \x20   let _ = (*g, *m);\n\
                   }\n";
        let (edges, _) = extract_edges(&one("crates/x/src/r.rs", src));
        assert!(edges.iter().any(|e| e.from == "Reg.gate" && e.to == "Reg.map"), "{edges:?}");
        assert!(
            edges.iter().all(|e| !e.to.contains("sock") && !e.from.contains("sock")),
            "an unresolvable receiver must not become a lock: {edges:?}"
        );
    }

    #[test]
    fn guard_across_io_flagged_and_scoping_clears_it() {
        let bad = "struct Conn {\n\
                   \x20   out: Mutex<Vec<u8>>,\n\
                   }\n\
                   fn respond(c: &Conn, stream: &mut TcpStream) {\n\
                   \x20   let g = c.out.lock().unwrap();\n\
                   \x20   stream.write_all(&g).unwrap();\n\
                   }\n";
        let diags = analyze_files(&one("crates/serve/src/conn.rs", bad));
        let hits: Vec<_> = diags.iter().filter(|d| d.rule == "no-lock-across-io").collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert!(hits[0].message.contains("Conn.out"), "{}", hits[0].message);

        let good = "struct Conn {\n\
                    \x20   out: Mutex<Vec<u8>>,\n\
                    }\n\
                    fn respond(c: &Conn, stream: &mut TcpStream) {\n\
                    \x20   let bytes = {\n\
                    \x20       let g = c.out.lock().unwrap();\n\
                    \x20       g.clone()\n\
                    \x20   };\n\
                    \x20   stream.write_all(&bytes).unwrap();\n\
                    }\n";
        assert!(analyze_files(&one("crates/serve/src/conn.rs", good)).is_empty());

        let dropped =
            bad.replace("\x20   stream.write_all", "\x20   drop(g);\n\x20   stream.write_all");
        assert!(analyze_files(&one("crates/serve/src/conn.rs", &dropped)).is_empty());
    }

    #[test]
    fn param_locks_and_bounded_recv_are_clean() {
        // The server worker_loop shape: the queue lock is a parameter,
        // held only across a *bounded* recv_timeout.
        let src = "fn worker_loop(rx: &Arc<Mutex<Receiver<TcpStream>>>, n: &u32) {\n\
                   \x20   loop {\n\
                   \x20       let conn = {\n\
                   \x20           let guard = rx.lock().unwrap();\n\
                   \x20           guard.recv_timeout(TICK)\n\
                   \x20       };\n\
                   \x20       drop(conn);\n\
                   \x20   }\n\
                   }\n";
        assert!(analyze_files(&one("crates/serve/src/server.rs", src)).is_empty());
        // An unbounded `.recv()` under the same guard is flagged.
        let blocking = src.replace("guard.recv_timeout(TICK)", "guard.recv()");
        let diags = analyze_files(&one("crates/serve/src/server.rs", &blocking));
        assert_eq!(diags.iter().filter(|d| d.rule == "no-lock-across-io").count(), 1);
        assert!(diags[0].message.contains("worker_loop.rx"), "{}", diags[0].message);
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "struct Pair {\n\
                   \x20   a: Mutex<u64>,\n\
                   \x20   b: Mutex<u64>,\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   \x20   fn t(p: &Pair) {\n\
                   \x20       let gb = p.b.lock().unwrap();\n\
                   \x20       let ga = p.a.lock().unwrap();\n\
                   \x20   }\n\
                   }\n";
        let (edges, diags) = extract_edges(&one("crates/x/src/t.rs", src));
        assert!(edges.is_empty(), "{edges:?}");
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn planted_self_edge_is_a_length_one_cycle() {
        let src = "struct S {\n\
                   \x20   m: Mutex<u64>,\n\
                   }\n\
                   fn reenter(s: &S) {\n\
                   \x20   let g1 = s.m.lock().unwrap();\n\
                   \x20   let g2 = s.m.lock().unwrap();\n\
                   \x20   let _ = (*g1, *g2);\n\
                   }\n";
        let diags = analyze_files(&one("crates/x/src/s.rs", src));
        let cycles: Vec<_> = diags.iter().filter(|d| d.rule == "lock-order-cycle").collect();
        assert_eq!(cycles.len(), 1, "{diags:?}");
        assert!(cycles[0].message.contains("S.m → S.m"), "{}", cycles[0].message);
    }

    #[test]
    fn cycle_finder_handles_dags_and_long_cycles() {
        let edge = |from: &str, to: &str| Edge {
            from: from.to_string(),
            to: to.to_string(),
            file: "synthetic.rs".to_string(),
            line: 1,
            function: "f".to_string(),
            suppressed: false,
        };
        let dag = [edge("a", "b"), edge("b", "c"), edge("a", "c"), edge("d", "a")];
        assert!(find_cycles(&dag).is_empty());
        let ring = [edge("a", "b"), edge("b", "c"), edge("c", "a"), edge("c", "d")];
        let cycles = find_cycles(&ring);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert_eq!(cycles[0], vec!["a".to_string(), "b".to_string(), "c".to_string()]);
    }

    #[test]
    fn every_live_acquisition_site_resolves_to_a_named_lock() {
        // The clean workspace verdict is only worth something if the
        // resolver sees the real locks: every line of the serving and
        // runtime concurrency files that takes a lock — directly or
        // through a guard helper — must resolve on the production run.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let sources = source::load(&root, &source::production_sources(&root).unwrap()).unwrap();
        let (found, _) = run(&sources);
        let files = [
            "crates/serve/src/breaker.rs",
            "crates/serve/src/registry.rs",
            "crates/runtime/src/pool.rs",
            "crates/serve/src/net.rs",
        ];
        let mut sites = 0;
        for (label, content) in sources.iter().filter(|(l, _)| files.contains(&l.as_str())) {
            let lines = source::clean(content);
            for line in lines.iter().take_while(|l| !l.code.trim_start().starts_with("#[cfg(test)"))
            {
                let takes = [".lock()", ".read().", ".write().", "lock(&"];
                if line.code.contains("fn lock") || !takes.iter().any(|t| line.code.contains(t)) {
                    continue;
                }
                sites += 1;
                assert!(
                    found
                        .acquisitions
                        .iter()
                        .any(|(f, l, lock)| { f == label && *l == line.no && lock.contains('.') }),
                    "{label}:{} takes an unresolved lock: {}",
                    line.no,
                    line.raw.trim()
                );
            }
        }
        assert_eq!(sites, 21);
    }
}
