//! Dependency-free source lint engine.
//!
//! No `syn`, no parsing: rules are line/token matchers, which is
//! exactly enough for the repo-specific policies we enforce and keeps
//! the analyzer buildable in the network-isolated environment. Rules
//! are path-scoped by suffix (`serve/src/engine.rs`) or substring
//! (`tensor/src/`) so the same engine lints both the real workspace
//! and seeded fixture trees.
//!
//! Rules match the cleaned code of [`crate::source::clean`] (string
//! literals blanked, comments cut); only `todo-without-issue` reads the
//! raw line. Conventions the matcher relies on (true throughout this
//! repo): `#[cfg(test)]` modules are the last item of a file, so
//! everything from that attribute to EOF is test code and exempt from
//! the production-path rules. A finding on line N is suppressed by
//! `// ams-lint: allow(rule-id)` on line N or N-1.

use crate::diagnostic::{Diagnostic, Location};
use crate::source::{self, Line};
use std::path::Path;

/// Files where `.unwrap()` / `.expect(` are denied outright: the
/// serving hot path, where a panic kills a worker thread mid-request.
const NO_UNWRAP_FILES: [&str; 3] =
    ["serve/src/engine.rs", "serve/src/registry.rs", "serve/src/server.rs"];

/// Panic-family macros denied anywhere under `serve/src/`.
const PANIC_MACROS: [&str; 4] = ["panic!(", "todo!(", "unimplemented!(", "unreachable!("];

/// Unwrap-family method calls denied on hot and untrusted-input paths.
const UNWRAP_NEEDLES: [&str; 2] = [".unwrap()", ".expect("];

/// Socket calls denied on request paths unless time-bounded: a raw
/// `connect` waits on the OS default (minutes on most stacks), and
/// clearing a timeout re-introduces the unbounded wait the serving
/// stack is built to avoid.
const UNBOUNDED_SOCKET_NEEDLES: [&str; 3] =
    ["TcpStream::connect(", "set_read_timeout(None)", "set_write_timeout(None)"];

/// One parameterized token-deny rule: the same matcher drives all
/// four per-crate unwrap/panic policies, which used to be four
/// copy-pasted blocks. `macro_family` switches on the
/// identifier-boundary check (so `debug_assert!` never matches
/// `assert!`-like needles) and the `…)` ellipsis in the message.
struct DenyRule {
    rule: &'static str,
    in_scope: fn(&str) -> bool,
    needles: &'static [&'static str],
    macro_family: bool,
    /// Message context after the backquoted token.
    context: &'static str,
    hint: &'static str,
}

/// Deny-rule table, in output order per line.
static DENY_RULES: [DenyRule; 5] = [
    DenyRule {
        rule: "no-unwrap-in-serve",
        in_scope: in_no_unwrap_scope,
        needles: &UNWRAP_NEEDLES,
        macro_family: false,
        context: "in a serving hot path: a panic here kills a worker mid-request",
        hint: "propagate a Result (or recover, e.g. PoisonError::into_inner for locks)",
    },
    // The store's decoders run on untrusted on-disk bytes: a
    // malformed segment must surface as a `StoreError`, never take
    // the process down. Same unwrap/panic discipline as the serving
    // hot path, under store-specific rule names.
    DenyRule {
        rule: "no-unwrap-in-store",
        in_scope: in_store_scope,
        needles: &UNWRAP_NEEDLES,
        macro_family: false,
        context: "in the feature store: decoders consume untrusted bytes",
        hint: "return a StoreError so corrupt files are rejected, not fatal",
    },
    DenyRule {
        rule: "no-panic-in-store",
        in_scope: in_store_scope,
        needles: &PANIC_MACROS,
        macro_family: true,
        context: "in the feature store",
        hint: "return a StoreError variant instead of panicking on bad data",
    },
    DenyRule {
        rule: "no-panic-in-inference",
        in_scope: in_serve_scope,
        needles: &PANIC_MACROS,
        macro_family: true,
        context: "on an inference path",
        hint: "return an error variant instead of panicking in the serving stack",
    },
    // One slow or dead peer must cost a bounded slice of a worker's
    // time, never the OS connect default or an indefinite read. The
    // router's whole failover design (breakers, hedged retries,
    // deadline budgets) assumes every socket wait is explicit.
    DenyRule {
        rule: "no-connect-without-timeout",
        in_scope: in_request_path_scope,
        needles: &UNBOUNDED_SOCKET_NEEDLES,
        macro_family: false,
        context: "on a request path: an unbounded socket wait wedges a worker until the \
                  peer's stack gives up",
        hint: "connect with `TcpStream::connect_timeout` and keep explicit read/write \
               timeouts (`serve::net::JsonlConn` does both)",
    },
];

/// How many lines after a `connect_timeout` the read/write-timeout
/// evidence search covers.
const CONNECT_WINDOW: usize = 3;

/// Integer target types for the float-truncation rule.
const INT_CASTS: [&str; 8] =
    ["as usize", "as isize", "as i32", "as i64", "as u32", "as u64", "as u8", "as u16"];

/// Rounding calls that make a float→int cast intentional.
const ROUNDERS: [&str; 4] = [".floor()", ".ceil()", ".round()", ".trunc()"];

/// Evidence (on the push line or a few lines above) that a growing
/// collection on a serving path is explicitly bounded.
const CAPACITY_GUARDS: [&str; 8] = [
    "len() <",
    "len() >=",
    "len() ==",
    ".capacity()",
    "with_capacity",
    "truncate(",
    "is_full",
    "try_send",
];

/// How many preceding lines the capacity-guard search covers.
const GUARD_WINDOW: usize = 5;

fn normalized(path: &str) -> String {
    path.replace('\\', "/")
}

fn in_no_unwrap_scope(path: &str) -> bool {
    let p = normalized(path);
    NO_UNWRAP_FILES.iter().any(|suffix| p.ends_with(suffix))
}

fn in_serve_scope(path: &str) -> bool {
    normalized(path).contains("serve/src/")
}

fn in_store_scope(path: &str) -> bool {
    normalized(path).contains("store/src/")
}

fn in_request_path_scope(path: &str) -> bool {
    let p = normalized(path);
    p.contains("serve/src/") || p.contains("cluster/src/")
}

fn in_tensor_scope(path: &str) -> bool {
    normalized(path).contains("tensor/src/")
}

fn in_runtime_scope(path: &str) -> bool {
    normalized(path).contains("runtime/src/")
}

/// Rules allowed on line index `idx` of `lines` by an `ams-lint` mark on that
/// line or the one above it.
fn allowed_rules(lines: &[Line], idx: usize) -> Vec<String> {
    let above = idx.checked_sub(1).and_then(|i| lines.get(i));
    [lines.get(idx), above]
        .into_iter()
        .flatten()
        .filter_map(Line::mark)
        .filter(|m| m.tool == "lint")
        .flat_map(|m| m.rules)
        .collect()
}

fn finding(
    severity_error: bool,
    rule: &str,
    file: &str,
    line_no: usize,
    col: usize,
    message: String,
    hint: &str,
) -> Diagnostic {
    let loc = Location::Source { file: file.to_string(), line: line_no, col };
    let d = if severity_error {
        Diagnostic::error(rule, loc, message)
    } else {
        Diagnostic::warn(rule, loc, message)
    };
    d.with_hint(hint.to_string())
}

/// Lint one file's content. `path` is the label used for rule scoping
/// and in diagnostics — callers pass a repo-relative path.
pub fn lint_source(path: &str, content: &str) -> Vec<Diagnostic> {
    let lines: Vec<Line> = source::clean(content);
    let mut out = Vec::new();
    let mut in_tests = false;
    // Indentation stack of enclosing `for` loops, for the naive-matmul
    // rule: an entry is the indent column of an open `for`.
    let mut for_stack: Vec<usize> = Vec::new();
    // Indentation stack of enclosing loops of any kind (`for`, `while`,
    // `loop`), for the unbounded-queue rule: a push inside a loop can
    // grow without limit; a push in straight-line code cannot.
    let mut loop_stack: Vec<usize> = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let (line_no, raw, code) = (line.no, line.raw, line.code.as_str());
        let allowed = allowed_rules(&lines, idx);
        let allowed = |rule: &str| allowed.iter().any(|r| r == rule);

        if code.trim_start().starts_with("#[cfg(test)") {
            in_tests = true;
        }

        // todo-without-issue looks at the whole line including comments
        // and applies everywhere, tests included.
        if !allowed("todo-without-issue") {
            // ams-lint: allow(todo-without-issue) — the rule's own marker list
            for marker in ["TODO", "FIXME"] {
                if let Some(col) = raw.find(marker) {
                    let has_issue_ref = raw[col..]
                        .split('#')
                        .skip(1)
                        .any(|s| s.starts_with(|c: char| c.is_ascii_digit()));
                    if !has_issue_ref {
                        out.push(finding(
                            false,
                            "todo-without-issue",
                            path,
                            line_no,
                            col + 1,
                            format!("{marker} without an issue reference"),
                            "tag it `TODO(#123)` so the debt is trackable, or resolve it",
                        ));
                    }
                    break; // one finding per line is enough
                }
            }
        }

        if in_tests {
            continue;
        }

        // no-naive-matmul-outside-runtime: a multiply-accumulate inside
        // three (or more) nested `for` loops is a hand-rolled O(n³)
        // kernel; outside the runtime crate those belong on the shared
        // blocked kernels. Loop nesting is tracked by indentation,
        // which rustfmt makes reliable in this repo.
        {
            let trimmed = code.trim_start();
            if !trimmed.is_empty() {
                let indent = code.len() - trimmed.len();
                while for_stack.last().is_some_and(|&open| open >= indent) {
                    for_stack.pop();
                }
                if !in_runtime_scope(path)
                    && !allowed("no-naive-matmul-outside-runtime")
                    && for_stack.len() >= 3
                {
                    if let Some(pos) = trimmed.find("+=") {
                        if trimmed[pos..].contains('*') {
                            out.push(finding(
                                true,
                                "no-naive-matmul-outside-runtime",
                                path,
                                line_no,
                                indent + pos + 1,
                                "multiply-accumulate in a triple `for` nest: a naive O(n³) kernel \
                                 outside ams-runtime"
                                    .to_string(),
                                "use the shared blocked kernels (`Backend::matmul` or \
                                 `ams_runtime::kernels`) instead of a hand-rolled loop",
                            ));
                        }
                    }
                }
                if trimmed.starts_with("for ") {
                    for_stack.push(indent);
                }
                while loop_stack.last().is_some_and(|&open| open >= indent) {
                    loop_stack.pop();
                }
                // no-unbounded-queue-in-serve: a `push`/`push_back`
                // inside a loop on a serving path is an unbounded
                // queue unless a capacity guard sits on the line or
                // just above it. Unbounded `mpsc::channel()` is the
                // same defect at the admission layer.
                if in_serve_scope(path) && !allowed("no-unbounded-queue-in-serve") {
                    if let Some(pos) = code.find("mpsc::channel()") {
                        out.push(finding(
                            true,
                            "no-unbounded-queue-in-serve",
                            path,
                            line_no,
                            pos + 1,
                            "unbounded `mpsc::channel()` on a serving path: a burst queues \
                             without limit"
                                .to_string(),
                            "use `mpsc::sync_channel(capacity)` and shed on `try_send` Full",
                        ));
                    }
                    if !loop_stack.is_empty() {
                        let pushes = [".push(", ".push_back(", ".push_front("];
                        if let Some(pos) = pushes.iter().filter_map(|p| code.find(p)).min() {
                            let guarded = (idx.saturating_sub(GUARD_WINDOW)..=idx)
                                .any(|j| CAPACITY_GUARDS.iter().any(|g| lines[j].code.contains(g)));
                            if !guarded {
                                out.push(finding(
                                    true,
                                    "no-unbounded-queue-in-serve",
                                    path,
                                    line_no,
                                    pos + 1,
                                    "push into a collection inside a loop on a serving path \
                                     with no capacity check in sight"
                                        .to_string(),
                                    "bound the collection (check `len()` against a capacity, or \
                                     use a bounded queue) before pushing on a request path",
                                ));
                            }
                        }
                    }
                }
                if trimmed.starts_with("for ")
                    || trimmed.starts_with("while ")
                    || trimmed.starts_with("loop ")
                    || trimmed == "loop {"
                {
                    loop_stack.push(indent);
                }
            }
        }

        // no-connect-without-timeout, part two: `connect_timeout`
        // bounds only the handshake. Unless the stream's read/write
        // timeouts are set within the next few lines, a later read
        // blocks indefinitely. Write-less uses (e.g. the shutdown
        // nudge connections) carry a justified allow marker.
        if in_request_path_scope(path) && !allowed("no-connect-without-timeout") {
            if let Some(pos) = code.find("TcpStream::connect_timeout(") {
                let window_end = (idx + CONNECT_WINDOW).min(lines.len().saturating_sub(1));
                let configured = (idx..=window_end).any(|j| {
                    let c = &lines[j].code;
                    c.contains("set_read_timeout(") || c.contains("set_write_timeout(")
                });
                if !configured {
                    out.push(finding(
                        true,
                        "no-connect-without-timeout",
                        path,
                        line_no,
                        pos + 1,
                        "`TcpStream::connect_timeout` bounds only the handshake: the stream's \
                         read/write timeouts are never set"
                            .to_string(),
                        "call `set_read_timeout(Some(..))` / `set_write_timeout(Some(..))` right \
                         after connecting, or route through `serve::net::JsonlConn::connect`",
                    ));
                }
            }
        }

        for dr in &DENY_RULES {
            if !(dr.in_scope)(path) || allowed(dr.rule) {
                continue;
            }
            for needle in dr.needles {
                if let Some(col) = code.find(needle) {
                    // For macro needles, make sure the match is the
                    // macro itself (`panic!`), not a suffix of a
                    // longer identifier — `debug_assert!` stays fine.
                    if dr.macro_family {
                        let pre_ok = col == 0
                            || !code.as_bytes()[col - 1].is_ascii_alphanumeric()
                                && code.as_bytes()[col - 1] != b'_';
                        if !pre_ok {
                            continue;
                        }
                    }
                    let token = needle.trim_end_matches('(');
                    let message = if dr.macro_family {
                        format!("`{token}...)` {}", dr.context)
                    } else {
                        format!("`{token}` {}", dr.context)
                    };
                    out.push(finding(true, dr.rule, path, line_no, col + 1, message, dr.hint));
                }
            }
        }

        if in_tensor_scope(path) && !allowed("no-float-cast-truncation") {
            for needle in INT_CASTS {
                if let Some(col) = code.find(needle) {
                    let before = &code[..col];
                    let float_evidence = before.contains("f64")
                        || before.contains("f32")
                        || before.contains("sqrt")
                        || before.contains("powf");
                    let rounded = ROUNDERS.iter().any(|r| before.contains(r));
                    if float_evidence && !rounded {
                        out.push(finding(
                            false,
                            "no-float-cast-truncation",
                            path,
                            line_no,
                            col + 1,
                            format!("float value cast with `{needle}` truncates toward zero"),
                            "make the rounding explicit: `.floor()`, `.round()` or `.ceil()` \
                             before the cast",
                        ));
                    }
                    break;
                }
            }
        }
    }
    out
}

/// Lint every workspace source under `root`, labelling diagnostics
/// with root-relative paths.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let sources = source::load(root, &source::workspace_sources(root)?)?;
    Ok(sources.iter().flat_map(|(label, content)| lint_source(label, content)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_decoders_cannot_unwrap_or_panic() {
        let src = "fn f() {\n    let x = y.unwrap();\n    panic!(\"bad block\");\n}\n";
        let diags = lint_source("crates/store/src/encoding.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].rule, "no-unwrap-in-store");
        assert_eq!(diags[1].rule, "no-panic-in-store");
        // Tests inside the store crate keep their unwraps.
        let in_tests = "#[cfg(test)]\nmod tests {\nfn t() { z.unwrap(); panic!(\"fine\"); }\n}\n";
        assert!(lint_source("crates/store/src/reader.rs", in_tests).is_empty());
        // Suppression markers work per line.
        let allowed = "let v = x.unwrap(); // ams-lint: allow(no-unwrap-in-store)\n";
        assert!(lint_source("crates/store/src/writer.rs", allowed).is_empty());
        // assert!/debug_assert! stay allowed.
        assert!(lint_source("crates/store/src/skeleton.rs", "assert!(ok);\n").is_empty());
    }

    #[test]
    fn unwrap_denied_only_in_serve_hot_paths() {
        let src = "fn f() {\n    let x = y.unwrap();\n    let z = q.expect(\"msg\");\n}\n";
        let diags = lint_source("crates/serve/src/engine.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "no-unwrap-in-serve"));
        match &diags[0].location {
            Location::Source { line, col, .. } => {
                assert_eq!(*line, 2);
                assert_eq!(*col, 14);
            }
            other => panic!("wrong location {other:?}"),
        }
        // Same content elsewhere: clean.
        assert!(lint_source("crates/core/src/ams.rs", src).is_empty());
        // Recovery combinators are not unwraps.
        let ok = "let g = l.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n";
        assert!(lint_source("crates/serve/src/registry.rs", ok).is_empty());
    }

    #[test]
    fn test_modules_and_suppressions_are_exempt() {
        let src = "fn f() {\n\
                   // ams-lint: allow(no-unwrap-in-serve)\n\
                   let x = y.unwrap();\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                   fn t() { z.unwrap(); panic!(\"in tests is fine\"); }\n\
                   }\n";
        assert!(lint_source("crates/serve/src/server.rs", src).is_empty());
    }

    #[test]
    fn panic_macros_flagged_assert_allowed() {
        let src = "fn f() {\n    assert!(ok);\n    debug_assert!(ok);\n    panic!(\"boom\");\n    unreachable!();\n}\n";
        let diags = lint_source("crates/serve/src/snapshot.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "no-panic-in-inference"));
    }

    #[test]
    fn float_cast_needs_evidence_and_respects_rounding() {
        let flagged = "let n = (x_f64 * scale_f64) as usize;\n";
        let diags = lint_source("crates/tensor/src/kernel.rs", flagged);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-float-cast-truncation");
        // Integer→integer cast: no float evidence, no finding.
        assert!(lint_source("crates/tensor/src/optim.rs", "let t = self.t as i32;\n").is_empty());
        // Explicit rounding: intentional, no finding.
        let rounded = "let n = (x_f64 * scale_f64).round() as usize;\n";
        assert!(lint_source("crates/tensor/src/kernel.rs", rounded).is_empty());
        // Outside tensor kernels the rule does not apply.
        assert!(lint_source("crates/core/src/data.rs", flagged).is_empty());
    }

    #[test]
    fn naive_matmul_flagged_outside_runtime_only() {
        let naive = "fn matmul(a: &M, b: &M) -> M {\n\
                     \x20   for i in 0..m {\n\
                     \x20       for j in 0..n {\n\
                     \x20           for kk in 0..k {\n\
                     \x20               out[(i, j)] += a[(i, kk)] * b[(kk, j)];\n\
                     \x20           }\n\
                     \x20       }\n\
                     \x20   }\n\
                     }\n";
        let diags = lint_source("crates/core/src/thing.rs", naive);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-naive-matmul-outside-runtime");
        match &diags[0].location {
            Location::Source { line, .. } => assert_eq!(*line, 5),
            other => panic!("wrong location {other:?}"),
        }
        // The runtime crate is where those kernels are allowed to live.
        assert!(lint_source("crates/runtime/src/kernels.rs", naive).is_empty());
        // A suppression marker works as for every other rule.
        let allowed = naive.replace(
            "out[(i, j)] +=",
            "// ams-lint: allow(no-naive-matmul-outside-runtime)\n                out[(i, j)] +=",
        );
        assert!(lint_source("crates/core/src/thing.rs", &allowed).is_empty());
    }

    #[test]
    fn double_loop_accumulate_is_not_a_matmul() {
        // Two nested loops (row sums, dot products) are fine; so is a
        // triple nest without a multiply-accumulate.
        let dot = "fn f() {\n\
                   \x20   for i in 0..m {\n\
                   \x20       for j in 0..n {\n\
                   \x20           acc += a[(i, j)] * b[(i, j)];\n\
                   \x20       }\n\
                   \x20   }\n\
                   }\n";
        assert!(lint_source("crates/stats/src/corr.rs", dot).is_empty());
        let copy = "fn f() {\n\
                    \x20   for i in 0..m {\n\
                    \x20       for j in 0..n {\n\
                    \x20           for kk in 0..k {\n\
                    \x20               out[(i, j, kk)] = a[(i, kk)];\n\
                    \x20           }\n\
                    \x20       }\n\
                    \x20   }\n\
                    }\n";
        assert!(lint_source("crates/stats/src/corr.rs", copy).is_empty());
        // Sibling loops at the same indent do not stack.
        let siblings = "fn f() {\n\
                        \x20   for i in 0..m {\n\
                        \x20       x += 1.0 * 2.0;\n\
                        \x20   }\n\
                        \x20   for j in 0..n {\n\
                        \x20       y += 1.0 * 2.0;\n\
                        \x20   }\n\
                        \x20   for kk in 0..k {\n\
                        \x20       z += 1.0 * 2.0;\n\
                        \x20   }\n\
                        }\n";
        assert!(lint_source("crates/stats/src/corr.rs", siblings).is_empty());
    }

    #[test]
    fn unbounded_queue_flagged_on_serve_request_paths() {
        // A push inside a loop with no capacity check: flagged.
        let hot = "fn f() {\n\
                   \x20   loop {\n\
                   \x20       queue.push_back(conn);\n\
                   \x20   }\n\
                   }\n";
        let diags = lint_source("crates/serve/src/server.rs", hot);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-unbounded-queue-in-serve");
        // The same push outside serve: clean.
        assert!(lint_source("crates/core/src/ams.rs", hot).is_empty());
        // A capacity guard right above the push: clean.
        let guarded = "fn f() {\n\
                       \x20   while run {\n\
                       \x20       if queue.len() < cap {\n\
                       \x20           queue.push_back(conn);\n\
                       \x20       }\n\
                       \x20   }\n\
                       }\n";
        assert!(lint_source("crates/serve/src/server.rs", guarded).is_empty());
        // Straight-line pushes (response building) are not queues.
        let flat = "fn f() {\n    fields.push(x);\n    fields.push(y);\n}\n";
        assert!(lint_source("crates/serve/src/server.rs", flat).is_empty());
        // Unbounded channels are the same defect at the admission layer.
        let chan = "let (tx, rx) = mpsc::channel();\n";
        let diags = lint_source("crates/serve/src/server.rs", chan);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-unbounded-queue-in-serve");
        let bounded = "let (tx, rx) = mpsc::sync_channel(64);\n";
        assert!(lint_source("crates/serve/src/server.rs", bounded).is_empty());
    }

    #[test]
    fn raw_connect_and_cleared_timeouts_flagged_on_request_paths() {
        let raw = "let s = TcpStream::connect(addr)?;\n";
        let diags = lint_source("crates/cluster/src/router.rs", raw);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-connect-without-timeout");
        // serve request paths are covered the same way.
        assert_eq!(lint_source("crates/serve/src/bin/loadgen.rs", raw).len(), 1);
        // Outside the serving stack (bench drivers, tests) the rule
        // does not apply.
        assert!(lint_source("crates/bench/src/bin/chaos_bench.rs", raw).is_empty());
        // Clearing a timeout re-introduces the unbounded wait.
        let cleared = "stream.set_read_timeout(None)?;\n";
        let diags = lint_source("crates/serve/src/server.rs", cleared);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-connect-without-timeout");
    }

    #[test]
    fn connect_timeout_needs_read_write_timeouts_nearby() {
        // The JsonlConn pattern — connect, then bound reads and
        // writes — is the sanctioned shape.
        let good = "let s = TcpStream::connect_timeout(&addr, t)?;\n\
                    s.set_read_timeout(Some(t))?;\n\
                    s.set_write_timeout(Some(t))?;\n";
        assert!(lint_source("crates/serve/src/net.rs", good).is_empty());
        // A bare connect_timeout bounds the handshake only.
        let naked = "let s = TcpStream::connect_timeout(&addr, t)?;\n\
                     let n = s.read(&mut buf)?;\n";
        let diags = lint_source("crates/cluster/src/router.rs", naked);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "no-connect-without-timeout");
        assert!(diags[0].message.contains("handshake"), "{diags:?}");
        // A justified write-less nudge carries the allow marker.
        let nudge = "// ams-lint: allow(no-connect-without-timeout) — write-less nudge\n\
                     let _ = TcpStream::connect_timeout(&addr, t);\n";
        assert!(lint_source("crates/serve/src/server.rs", nudge).is_empty());
    }

    #[test]
    fn todo_needs_an_issue_reference() {
        // ams-lint: allow(todo-without-issue) — markers below are test data
        let src =
            "// TODO: make this faster\n// TODO(#42): blocked on upstream\n// FIXME see notes\n";
        let diags = lint_source("crates/core/src/lib.rs", src);
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().all(|d| d.rule == "todo-without-issue"));
        assert!(diags[0].message.contains("TODO")); // ams-lint: allow(todo-without-issue)
        assert!(diags[1].message.contains("FIXME")); // ams-lint: allow(todo-without-issue)
    }
}
