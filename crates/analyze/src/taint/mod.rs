//! Untrusted-input taint audit.
//!
//! The whole-program audit ([`crate::audit`]) proves hot paths
//! panic/alloc/block-free but is blind to *where sizes come from*: a
//! `Vec::with_capacity(n)` is invisible to it when `n` was read off a
//! socket. This module closes that hole with an interprocedural
//! source→sanitizer→sink dataflow over the same per-function models
//! and call graph: sources (socket reads, framed-file bytes, store
//! segment directories, CLI args) are declared in `taint.toml`, sinks
//! are tainted-size allocation, tainted slice indexing and tainted
//! arithmetic used as a length, and sanitizers — explicit bound
//! checks against declared limit names, `checked_*` chains,
//! `try_into` — kill taint down to `Bounded`. The lattice is
//! `Clean < Bounded < Tainted` ([`local::Taint`]), mirroring the
//! audit's `Free < Guarded < May`; only `Tainted` at a sink is a
//! violation, and every violation carries a full source→sink witness
//! chain (`read_line (net.rs:131) → handle_connection (server.rs:304)
//! → … → Vec::with_capacity (…)`).
//!
//! Propagation is bottom-up over the Tarjan SCC condensation
//! ([`crate::audit::graph::condense`]): each function gets a summary
//! (return taint, per-parameter flow caps, out-parameter taint,
//! parameter-reaches-sink paths), cyclic components iterate to a
//! fixpoint (the lattice is finite and updates are monotone), and
//! findings are emitted in the function where the taint *originates*,
//! so each defect is reported exactly once with its true source site.
//!
//! Suppression policy matches the audit: only an adjacent
//! `// ams-taint: allow(rule): justification` comment excuses a sink,
//! and a bare allow is itself a `taint-bad-suppression` error. Marks
//! are parsed by the shared [`crate::source`] front end, so one quoted
//! in a string literal or a doc comment is never a suppression.

pub mod config;
pub mod local;

use crate::audit::graph;
use crate::audit::model::{self, WorkspaceModel};
use crate::diagnostic::{Diagnostic, Location, Report};
use crate::source;
use config::TaintConfig;
use local::{AllowIndex, Finding, Summary};
use std::collections::BTreeMap;
use std::path::Path;

/// Run statistics, recorded into `results/BENCH_check.json` by the
/// `--bench` flag.
#[derive(Debug, Clone, Copy, Default)]
pub struct TaintStats {
    pub files: usize,
    pub functions: usize,
    /// Edges of the unbound call graph the taint flows over.
    pub edges: usize,
    /// Source sites that introduced taint somewhere in the workspace.
    pub sources: usize,
    /// Tainted-sink violations (unsuppressed).
    pub violations: usize,
}

/// Tiers-only fingerprint of a summary, for fixpoint convergence.
fn fingerprint(s: &Summary) -> (u8, Vec<u8>, Vec<u8>, Vec<bool>) {
    (
        s.ret as u8,
        s.param_ret.iter().map(|&t| t as u8).collect(),
        s.param_out.iter().map(|&t| t as u8).collect(),
        s.param_sink.iter().map(Option::is_some).collect(),
    )
}

/// Run the taint audit over in-memory sources. Infallible: every
/// problem is a diagnostic, not an `Err`.
pub fn taint_sources(sources: &[(String, String)], cfg: &TaintConfig) -> (Report, TaintStats) {
    let mut model = WorkspaceModel::default();
    for (label, content) in sources {
        model::parse_file(label, content, &mut model);
    }
    let mut report = Report::new();

    // Suppressions must justify themselves.
    report.extend(model.unjustified("taint"));
    let mut allows = AllowIndex::new();
    for (file, mark) in model.marks.iter().filter(|(_, m)| m.tool == "taint" && m.justified) {
        allows.entry((file.clone(), mark.line)).or_default().extend(mark.rules.iter().cloned());
    }

    let g = graph::build(&model, &BTreeMap::new());
    let mut stats = TaintStats {
        files: model.files,
        functions: model.fns.len(),
        edges: g.edge_count(),
        sources: 0,
        violations: 0,
    };

    // Bottom-up summaries; a cycle settles once no tier moves.
    let summaries = graph::bottom_up(
        &g.edges,
        |i, sums| local::analyze_fn(&model.fns[i], &model, cfg, &g.edges[i], sums, &allows).0,
        |a, b| fingerprint(a) == fingerprint(b),
    );

    // Final sweep with converged summaries collects the findings.
    let mut findings: Vec<Finding> = Vec::new();
    let mut source_sites: std::collections::BTreeSet<(String, usize)> =
        std::collections::BTreeSet::new();
    for (i, fun) in model.fns.iter().enumerate() {
        let (_, fnd) = local::analyze_fn(fun, &model, cfg, &g.edges[i], &summaries, &allows);
        for f in &fnd {
            if let Some(first) = f.chain.first() {
                source_sites.insert((first.file.clone(), first.line));
            }
        }
        findings.extend(fnd);
    }
    stats.sources = source_sites.len();

    // One defect can surface through several units of the same
    // origin function; report each sink site once.
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, &a.rule).cmp(&(&b.file, b.line, b.col, &b.rule)));
    findings.dedup_by(|a, b| {
        a.rule == b.rule && a.file == b.file && a.line == b.line && a.col == b.col
    });

    stats.violations = findings.len();
    for f in &findings {
        let chain = f
            .chain
            .iter()
            .map(|h| format!("{} ({}:{})", h.label, h.file, h.line))
            .collect::<Vec<_>>()
            .join(" → ");
        report.extend(vec![Diagnostic::error(
            &f.rule,
            Location::Source { file: f.file.clone(), line: f.line, col: f.col },
            format!("`{}` sized by untrusted input via {}", f.sink_label, chain),
        )
        .with_hint(
            "bound the value against a declared limit before the sink, or — if provably \
             benign — suppress at the site with an `ams-taint` allow comment carrying a \
             justification",
        )]);
    }
    if findings.is_empty() {
        report.extend(vec![Diagnostic::info(
            "taint-clean",
            Location::Global,
            format!(
                "taint: {} function(s) / {} edge(s) analyzed, {} source(s) declared — no \
                 unsanitized source→sink flow",
                stats.functions,
                stats.edges,
                cfg.sources.len()
            ),
        )]);
    }
    report.sort();
    (report, stats)
}

/// Taint-audit every production workspace source under `root`
/// ([`source::production_sources`]) against the `taint.toml` at
/// `config`.
pub fn taint_workspace(root: &Path, config: &Path) -> Result<(Report, TaintStats), String> {
    let text = std::fs::read_to_string(config)
        .map_err(|e| format!("cannot read {}: {e}", config.display()))?;
    let cfg = config::parse(&text)?;
    let sources = source::load(root, &source::production_sources(root)?)?;
    Ok(taint_sources(&sources, &cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TaintConfig {
        config::parse(
            "[[source]]\n\
             name = \"read_line\"\n\
             token = \".read_line(\"\n\
             \n\
             [[sink]]\n\
             rule = \"tainted-alloc\"\n\
             token = \"Vec::with_capacity(\"\n\
             \n\
             [[sanitizer]]\n\
             token = \".min(\"\n\
             \n\
             [limits]\n\
             names = [\"MAX_\"]\n",
        )
        .unwrap()
    }

    fn run(src: &str) -> (Report, TaintStats) {
        taint_sources(&[("crates/x/src/a.rs".to_string(), src.to_string())], &cfg())
    }

    #[test]
    fn interprocedural_finding_renders_the_full_chain() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   mid(n)\n\
                   }\n\
                   fn mid(n: usize) -> usize {\n\
                   \x20   grow(n)\n\
                   }\n\
                   fn grow(n: usize) -> usize {\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (report, stats) = run(src);
        assert_eq!(stats.violations, 1, "{}", report.render_text());
        let v = report.diagnostics.iter().find(|d| d.rule == "tainted-alloc").unwrap();
        assert!(v.message.contains("read_line (crates/x/src/a.rs:3)"), "{}", v.message);
        assert!(v.message.contains("outer (crates/x/src/a.rs:4)"), "{}", v.message);
        assert!(v.message.contains("mid (crates/x/src/a.rs:7)"), "{}", v.message);
        assert!(v.message.contains("grow (crates/x/src/a.rs:10)"), "{}", v.message);
        assert!(v.message.contains("Vec::with_capacity"), "{}", v.message);
        match &v.location {
            Location::Source { file, line, .. } => {
                assert_eq!(file, "crates/x/src/a.rs");
                assert_eq!(*line, 10);
            }
            other => panic!("wrong location {other:?}"),
        }
    }

    #[test]
    fn sanitizer_on_the_path_and_clean_info() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   grow(n.min(MAX_REQ))\n\
                   }\n\
                   fn grow(n: usize) -> usize {\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (report, stats) = run(src);
        assert_eq!(stats.violations, 0, "{}", report.render_text());
        assert!(report.diagnostics.iter().any(|d| d.rule == "taint-clean"));
    }

    #[test]
    fn recursion_converges_and_still_reports() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   ping(n)\n\
                   }\n\
                   fn ping(n: usize) -> usize {\n\
                   \x20   pong(n)\n\
                   }\n\
                   fn pong(n: usize) -> usize {\n\
                   \x20   if n == 0 {\n\
                   \x20       return ping(n);\n\
                   \x20   }\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n";
        let (report, stats) = run(src);
        assert_eq!(stats.violations, 1, "{}", report.render_text());
    }

    #[test]
    fn justified_allow_suppresses_and_bare_allow_errors() {
        let src = "fn outer(r: &mut Reader) -> usize {\n\
                   \x20   let mut line = String::new();\n\
                   \x20   let n = r.read_line(&mut line);\n\
                   \x20   // ams-taint: allow(tainted-alloc): counter-tested, capped by caller\n\
                   \x20   let v: Vec<u8> = Vec::with_capacity(n);\n\
                   \x20   v.len()\n\
                   }\n\
                   fn other(r: &mut Reader) -> usize {\n\
                   \x20   // ams-taint: allow(tainted-alloc)\n\
                   \x20   0\n\
                   }\n";
        let (report, stats) = run(src);
        assert_eq!(stats.violations, 0, "{}", report.render_text());
        let bad = report.diagnostics.iter().find(|d| d.rule == "taint-bad-suppression").unwrap();
        assert!(bad.message.contains("without a justification"));
        match &bad.location {
            Location::Source { line, .. } => assert_eq!(*line, 9),
            other => panic!("wrong location {other:?}"),
        }
    }

    #[test]
    fn a_mark_inside_a_string_literal_is_not_a_suppression() {
        // A mark quoted in a string (a test fixture, a rendered hint)
        // must neither suppress nor trip a bad-suppression rule — only
        // real comments count — and a `//` inside a literal must not
        // hide the code after it. Every row runs lint, audit and taint.
        let rows: [(&str, &str, &[&str]); 4] = [
            (
                "lint",
                "let _s = \"// ams-lint: allow(no-unwrap-in-serve)\";\n    x.unwrap();",
                &["no-unwrap-in-serve"],
            ),
            (
                "audit",
                "let _s = \"// ams-audit: allow(panic)\";\n    x.unwrap();",
                &["hot-path-panic"],
            ),
            (
                "taint",
                "let n = r.read_line(&mut String::new());\n    \
                 let _s = \"// ams-taint: allow(tainted-alloc)\";\n    \
                 let _v: Vec<u8> = Vec::with_capacity(n);",
                &["tainted-alloc"],
            ),
            ("//", "let _u = \"http://x\"; x.unwrap();", &["no-unwrap-in-serve", "hot-path-panic"]),
        ];
        let roots = crate::audit::config::parse(
            "[[root]]\nname = \"r\"\nfunction = \"hot\"\ndeny = [\"panic\"]\n",
        )
        .unwrap();
        for (tag, body, want) in rows {
            let label = "crates/serve/src/engine.rs".to_string();
            let src = format!("pub fn hot(r: &mut Reader, x: Option<u8>) {{\n    {body}\n}}\n");
            let sources = [(label.clone(), src.clone())];
            let mut diags = crate::lint::lint_source(&label, &src);
            diags.extend(crate::audit::audit_sources(&sources, &roots).0.diagnostics);
            diags.extend(taint_sources(&sources, &cfg()).0.diagnostics);
            let rules: Vec<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
            for rule in want {
                assert!(rules.contains(rule), "{tag}: `{rule}` suppressed or hidden: {rules:?}");
            }
            assert!(!rules.iter().any(|r| r.ends_with("-bad-suppression")), "{tag}: {rules:?}");
        }
    }
}
