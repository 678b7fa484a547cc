//! Whole-program hot-path audit.
//!
//! The per-file lints in [`crate::lint`] catch a literal `.unwrap()`
//! typed into `engine.rs`, but nothing stopped a helper *called from*
//! the hot path from smuggling a panic, an allocation or a lock back
//! in. This module closes that hole: it parses the workspace into a
//! per-function model ([`model`]), builds a call graph with method
//! resolution and a one-level trait fallback ([`graph`]), propagates
//! three fact lattices bottom-up over SCCs ([`facts`]), and checks
//! the declared roots of `audit.toml` ([`config`]) — producing a
//! full root-to-site call chain for every violation.
//!
//! Suppression policy: a site is excused only by an adjacent
//! `ams-audit` `allow(fact)` comment **with a justification** after
//! the closing paren. A bare allow is itself reported as
//! `audit-bad-suppression` — silent waivers are how guarantees rot.
//! Unknown fact names in a marker simply suppress nothing.
//!
//! The static alloc verdict for the serve root is cross-checked
//! against the dynamic [`Workspace`] allocation counters in
//! `tests/audit_cross.rs`: the analysis says the steady-state hot
//! path cannot allocate, the counter test proves one real execution
//! does not — the two oracles must agree, and either one failing
//! breaks CI.
//!
//! [`Workspace`]: ../../ams_tensor/runtime/struct.Workspace.html

pub mod config;
pub mod facts;
pub mod graph;
pub mod model;

use crate::diagnostic::{Diagnostic, Location, Report};
use crate::source;
use config::RootSpec;
use facts::{Fact, Tier};
use graph::{fact_index, CallGraph, Levels};
use model::WorkspaceModel;
use std::collections::BTreeMap;
use std::path::Path;

/// Run statistics, recorded into `results/BENCH_check.json` by the
/// `--bench` flag.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditStats {
    pub files: usize,
    pub functions: usize,
    /// Edges of the unbound (no devirtualization) call graph.
    pub edges: usize,
    pub roots: usize,
    /// Hot-path violations (unsuppressed `May` on a denied fact).
    pub violations: usize,
}

/// Locate a root's function in the model. `function` is
/// `Type::method` or a free-fn name; `file` (optional) is a suffix
/// pin for duplicates.
fn locate(model: &WorkspaceModel, spec: &RootSpec) -> Result<usize, Box<Diagnostic>> {
    let (impl_ty, name) = match spec.function.split_once("::") {
        Some((t, n)) => (Some(t), n),
        None => (None, spec.function.as_str()),
    };
    let matches: Vec<usize> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.name == name
                && match impl_ty {
                    Some(t) => f.impl_type.as_deref() == Some(t),
                    None => f.impl_type.is_none(),
                }
                && spec.file.as_deref().is_none_or(|suffix| f.file.ends_with(suffix))
        })
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [i] => Ok(*i),
        [] => Err(Box::new(
            Diagnostic::error(
                "audit-root-missing",
                Location::Global,
                format!(
                    "root `{}`: function `{}` not found in the workspace",
                    spec.name, spec.function
                ),
            )
            .with_hint(
                "check audit.toml — the scanner skips fixtures/vendor/target, and methods need \
             their `Type::` qualifier",
            ),
        )),
        _ => Err(Box::new(
            Diagnostic::error(
                "audit-root-missing",
                Location::Global,
                format!(
                    "root `{}`: `{}` matches {} functions — ambiguous",
                    spec.name,
                    spec.function,
                    matches.len()
                ),
            )
            .with_hint("pin the root with `file = \"crates/…\"` in audit.toml"),
        )),
    }
}

/// The functions reachable from `root` (root included).
fn closure(root: usize, g: &CallGraph) -> Vec<usize> {
    let mut seen = vec![false; g.edges.len()];
    seen[root] = true;
    let mut stack = vec![root];
    let mut out = Vec::new();
    while let Some(u) = stack.pop() {
        out.push(u);
        for e in &g.edges[u] {
            if !seen[e.callee] {
                seen[e.callee] = true;
                stack.push(e.callee);
            }
        }
    }
    out
}

fn fact_free(f: Fact) -> &'static str {
    match f {
        Fact::Panic => "panic-free",
        Fact::Alloc => "alloc-free",
        Fact::Block => "block-free",
    }
}

/// Audit in-memory sources against declared roots. Infallible: every
/// problem (including a missing root) is a diagnostic, not an `Err`.
pub fn audit_sources(sources: &[(String, String)], roots: &[RootSpec]) -> (Report, AuditStats) {
    let mut model = WorkspaceModel::default();
    for (label, content) in sources {
        model::parse_file(label, content, &mut model);
    }
    let mut report = Report::new();

    // Suppressions must justify themselves.
    report.extend(model.unjustified("audit"));

    let intrinsic: Vec<Levels> = model.fns.iter().map(graph::intrinsic_levels).collect();
    // Call graphs are cached per bind environment; the unbound graph
    // always exists (it feeds the stats).
    type GraphCache = BTreeMap<Vec<(String, String)>, (CallGraph, Vec<Levels>)>;
    let mut graphs: GraphCache = BTreeMap::new();
    let unbound_key: Vec<(String, String)> = Vec::new();
    let g0 = graph::build(&model, &BTreeMap::new());
    let l0 = graph::propagate(&intrinsic, &g0.edges);
    let mut stats = AuditStats {
        files: model.files,
        functions: model.fns.len(),
        edges: g0.edge_count(),
        roots: roots.len(),
        violations: 0,
    };
    graphs.insert(unbound_key, (g0, l0));

    for spec in roots {
        let idx = match locate(&model, spec) {
            Ok(i) => i,
            Err(d) => {
                report.extend(vec![*d]);
                continue;
            }
        };
        let key: Vec<(String, String)> =
            spec.bind.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        if !graphs.contains_key(&key) {
            let g = graph::build(&model, &spec.bind);
            let l = graph::propagate(&intrinsic, &g.edges);
            graphs.insert(key.clone(), (g, l));
        }
        let (g, levels) = &graphs[&key];
        let mut clean = true;
        for &fact in &spec.deny {
            if levels[idx][fact_index(fact)] != Tier::May {
                continue;
            }
            clean = false;
            stats.violations += 1;
            let rule = format!("hot-path-{}", fact.as_str());
            let diag = match graph::witness(idx, fact, &model, &g.edges, levels) {
                Some(hops) => {
                    let last = &model.fns[hops.last().expect("non-empty chain").fn_idx];
                    let site = last
                        .sites
                        .iter()
                        .filter(|s| !s.suppressed && s.fact == fact && s.tier == Tier::May)
                        .min_by_key(|s| (s.line, s.col))
                        .expect("witness endpoint has a site");
                    let chain = hops
                        .iter()
                        .map(|h| {
                            let f = &model.fns[h.fn_idx];
                            let line = h.call_line.unwrap_or(site.line);
                            format!("{} ({}:{})", f.name, f.file, line)
                        })
                        .collect::<Vec<_>>()
                        .join(" → ");
                    Diagnostic::error(
                        &rule,
                        Location::Source {
                            file: last.file.clone(),
                            line: site.line,
                            col: site.col,
                        },
                        format!(
                            "root `{}`: `{}` may {} — `{}` via {}",
                            spec.name,
                            spec.function,
                            fact.as_str(),
                            site.token,
                            chain
                        ),
                    )
                }
                None => Diagnostic::error(
                    &rule,
                    Location::Global,
                    format!(
                        "root `{}`: `{}` may {} (no witness chain reconstructed)",
                        spec.name,
                        spec.function,
                        fact.as_str()
                    ),
                ),
            };
            report.extend(vec![diag.with_hint(format!(
                "fix the chain, or — if provably benign — suppress at the site with an \
                 `ams-audit` allow({}) comment carrying a justification",
                fact.as_str()
            ))]);
        }
        if clean {
            let verdicts = spec.deny.iter().map(|&f| fact_free(f)).collect::<Vec<_>>().join(", ");
            let f = &model.fns[idx];
            report.extend(vec![Diagnostic::info(
                "audit-root-clean",
                Location::Source { file: f.file.clone(), line: f.decl_line, col: 1 },
                format!(
                    "root `{}`: `{}` verified {} across a closure of {} function(s)",
                    spec.name,
                    spec.function,
                    verdicts,
                    closure(idx, g).len()
                ),
            )]);
        }
    }
    report.sort();
    (report, stats)
}

/// The call closure of the `config` root named `name` over the
/// workspace under `root`, under that root's binds: `Type::method` (or
/// free fn) names, sorted.
pub fn root_closure(root: &Path, config: &Path, name: &str) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(config)
        .map_err(|e| format!("cannot read {}: {e}", config.display()))?;
    let roots = config::parse(&text)?;
    let spec = roots.iter().find(|r| r.name == name).ok_or(format!("no root `{name}`"))?;
    let mut model = WorkspaceModel::default();
    for (label, content) in source::load(root, &source::workspace_sources(root)?)? {
        model::parse_file(&label, &content, &mut model);
    }
    let idx = locate(&model, spec).map_err(|d| d.message)?;
    let g = graph::build(&model, &spec.bind);
    let mut names: Vec<String> =
        closure(idx, &g).into_iter().map(|i| model.fns[i].qualified()).collect();
    names.sort();
    Ok(names)
}

/// Audit every workspace source under `root` against `config`.
pub fn audit_workspace(root: &Path, config: &Path) -> Result<(Report, AuditStats), String> {
    let text = std::fs::read_to_string(config)
        .map_err(|e| format!("cannot read {}: {e}", config.display()))?;
    let roots = config::parse(&text)?;
    let sources = source::load(root, &source::workspace_sources(root)?)?;
    Ok(audit_sources(&sources, &roots))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roots(text: &str) -> Vec<RootSpec> {
        config::parse(text).unwrap()
    }

    #[test]
    fn clean_root_reports_info_with_closure_size() {
        let src = "pub struct Engine;\n\
                   impl Engine {\n\
                   \x20   pub fn hot(&self, x: usize) -> usize {\n\
                   \x20       step(x)\n\
                   \x20   }\n\
                   }\n\
                   fn step(x: usize) -> usize {\n\
                   \x20   x + 1\n\
                   }\n";
        let spec = "[[root]]\n\
                    name = \"r\"\n\
                    function = \"Engine::hot\"\n\
                    deny = [\"panic\", \"alloc\", \"block\"]\n";
        let (report, stats) =
            audit_sources(&[("crates/x/src/a.rs".to_string(), src.to_string())], &roots(spec));
        assert!(!report.has_errors(), "{}", report.render_text());
        let info = &report.diagnostics[0];
        assert_eq!(info.rule, "audit-root-clean");
        assert!(info.message.contains("panic-free, alloc-free, block-free"));
        assert!(info.message.contains("closure of 2"));
        assert_eq!(stats.violations, 0);
        assert_eq!(stats.functions, 2);
    }

    #[test]
    fn transitive_violation_carries_the_chain() {
        let src = "pub fn outer(x: usize) -> usize {\n\
                   \x20   mid(x)\n\
                   }\n\
                   fn mid(x: usize) -> usize {\n\
                   \x20   inner(x)\n\
                   }\n\
                   fn inner(x: usize) -> usize {\n\
                   \x20   maybe(x).unwrap()\n\
                   }\n\
                   fn maybe(x: usize) -> Option<usize> {\n\
                   \x20   Some(x)\n\
                   }\n";
        let spec = "[[root]]\nname = \"r\"\nfunction = \"outer\"\ndeny = [\"panic\"]\n";
        let (report, stats) =
            audit_sources(&[("crates/x/src/a.rs".to_string(), src.to_string())], &roots(spec));
        assert_eq!(stats.violations, 1);
        let v = report.diagnostics.iter().find(|d| d.rule == "hot-path-panic").unwrap();
        assert!(v.message.contains("outer (crates/x/src/a.rs:2)"), "{}", v.message);
        assert!(v.message.contains("mid (crates/x/src/a.rs:5)"), "{}", v.message);
        assert!(v.message.contains("inner (crates/x/src/a.rs:8)"), "{}", v.message);
        assert!(v.message.contains(".unwrap()"), "{}", v.message);
        match &v.location {
            Location::Source { line, .. } => assert_eq!(*line, 8),
            other => panic!("wrong location {other:?}"),
        }
    }

    #[test]
    fn missing_root_and_bare_allow_are_errors() {
        let src = "fn f() {\n\
                   \x20   // ams-audit: allow(panic)\n\
                   \x20   x.unwrap();\n\
                   }\n";
        let spec = "[[root]]\nname = \"r\"\nfunction = \"ghost\"\ndeny = [\"panic\"]\n";
        let (report, _) =
            audit_sources(&[("crates/x/src/a.rs".to_string(), src.to_string())], &roots(spec));
        let rules: Vec<&str> = report.diagnostics.iter().map(|d| d.rule.as_str()).collect();
        assert!(rules.contains(&"audit-root-missing"), "{rules:?}");
        assert!(rules.contains(&"audit-bad-suppression"), "{rules:?}");
    }

    #[test]
    fn justified_allow_clears_the_root() {
        let src = "pub fn hot(ws: &mut Pool) -> usize {\n\
                   \x20   grow(ws)\n\
                   }\n\
                   fn grow(ws: &mut Pool) -> usize {\n\
                   \x20   // ams-audit: allow(alloc): arena warm-up, counter-tested steady state\n\
                   \x20   ws.buf.push(1);\n\
                   \x20   7\n\
                   }\n\
                   pub struct Pool {\n\
                   \x20   pub buf: Vec<usize>,\n\
                   }\n";
        let spec = "[[root]]\nname = \"r\"\nfunction = \"hot\"\ndeny = [\"alloc\"]\n";
        let (report, stats) =
            audit_sources(&[("crates/x/src/a.rs".to_string(), src.to_string())], &roots(spec));
        assert!(!report.has_errors(), "{}", report.render_text());
        assert_eq!(stats.violations, 0);
    }
}
