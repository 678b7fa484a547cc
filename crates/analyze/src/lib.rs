//! # ams-analyze — static analysis for the AMS stack
//!
//! Five layers behind one structured [`Diagnostic`] type and one
//! binary (`ams-check`). The four source passes (lint, lock-order,
//! audit, taint) share one front end ([`source`]): one workspace walk
//! and loader, one line cleaner and one suppression-mark grammar; the
//! last three also share one per-function model and call graph
//! ([`audit::model`], [`audit::graph`]).
//!
//! 1. **Tape-IR analysis** — replays a recorded [`Plan`]
//!    (`Graph::plan()`) without data: symbolic shape inference
//!    ([`shape`]), gradient reachability from the loss ([`reach`]),
//!    dead-node and duplicate-subgraph detection, and numerical-risk
//!    rules ([`numeric`]).
//! 2. **Source lint engine** — a dependency-free (no `syn`)
//!    line/token linter ([`lint`]) with repo-specific rules such as
//!    `no-unwrap-in-serve`, inline `// ams-lint: allow(rule)`
//!    suppressions, and `--format json` output.
//! 3. **Concurrency layer** ([`conc`]) — interprocedural lock-order
//!    analysis over the production sources (`ams-check conc`) plus a
//!    deterministic interleaving explorer with vector-clock race
//!    checking for protocol models.
//! 4. **Whole-program audit** ([`audit`]) — interprocedural
//!    panic/alloc/block propagation over a workspace call graph
//!    (`ams-check audit`), gating the declared hot-path roots of
//!    `audit.toml` with full root-to-site call-chain provenance.
//! 5. **Taint audit** ([`taint`]) — interprocedural untrusted-input
//!    dataflow (`ams-check taint`) from the sources of `taint.toml`
//!    (socket reads, store file bytes, CLI args) to tainted-size
//!    allocation/indexing sinks, with sanitizer kills and full
//!    source→sink witness chains.
//!
//! CI runs `ams-check` and fails on any `error`-severity finding;
//! `warn`/`info` are reported but do not gate. Exit codes are stable:
//! 0 clean (or warnings only), 1 at least one error diagnostic,
//! 2 internal failure (bad arguments, unreadable file, invalid plan).

pub mod audit;
pub mod conc;
pub mod diagnostic;
pub mod lint;
pub mod numeric;
pub mod plan_io;
pub mod reach;
pub mod shape;
pub mod source;
pub mod taint;

use ams_tensor::plan::{Plan, PlanOp};
pub use diagnostic::{Diagnostic, Location, Report, Severity};

/// Render the provenance chain of a node for human-facing output,
/// e.g. `#12 matmul ← #7 relu ← #3 leaf(4×3)`. Capped at eight
/// entries; deeper chains end with `← …`.
pub fn describe_chain(plan: &Plan, node: usize) -> String {
    const LIMIT: usize = 8;
    let ids = plan.provenance(node, LIMIT + 1);
    let truncated = ids.len() > LIMIT;
    let mut parts: Vec<String> = ids
        .iter()
        .take(LIMIT)
        .map(|&id| {
            let n = &plan.nodes[id];
            match (&n.op, n.shape) {
                (PlanOp::Leaf, Some((r, c))) => format!("#{id} leaf({r}×{c})"),
                _ => format!("#{id} {}", n.op.name()),
            }
        })
        .collect();
    if truncated {
        parts.push("…".to_string());
    }
    parts.join(" ← ")
}

/// A plan plus the training metadata the reachability pass needs:
/// which nodes are trainable parameters (with human names) and which
/// node is the loss. Built by `AmsModel::training_audit` for the real
/// model, or parsed from a JSON audit spec by [`plan_io`].
#[derive(Debug, Clone)]
pub struct PlanAudit {
    pub plan: Plan,
    /// `(node id, name)` for every trainable parameter.
    pub params: Vec<(usize, String)>,
    /// The loss node, when the plan is a training graph.
    pub loss: Option<usize>,
}

impl PlanAudit {
    /// Audit a bare plan with no training metadata — shape, numeric
    /// and duplicate passes only.
    pub fn bare(plan: Plan) -> Self {
        Self { plan, params: Vec::new(), loss: None }
    }
}

/// Run every tape-IR pass over an audit and collect one [`Report`].
pub fn analyze(audit: &PlanAudit) -> Report {
    let mut report = Report::new();
    let shape_analysis = shape::check_shapes(&audit.plan);
    report.extend(shape_analysis.diagnostics);
    report.extend(numeric::check_numerics(&audit.plan, &shape_analysis.shapes));
    if let Some(loss) = audit.loss {
        report.extend(reach::check_reachability(&audit.plan, &audit.params, loss));
        report.extend(reach::check_dead_nodes(&audit.plan, &[loss]));
    }
    report.extend(reach::check_duplicates(&audit.plan));
    report.sort();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_tensor::{Graph, Matrix};

    #[test]
    fn chain_renders_ops_and_leaf_shapes() {
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(4, 3));
        let w = g.input(Matrix::ones(3, 2));
        let y = g.matmul(x, w);
        let r = g.relu(y);
        let chain = describe_chain(&g.plan(), r.index());
        assert!(chain.starts_with(&format!("#{} relu", r.index())), "{chain}");
        assert!(chain.contains("matmul"), "{chain}");
        assert!(chain.contains("leaf(4×3)"), "{chain}");
    }

    #[test]
    fn full_pipeline_over_a_clean_training_graph() {
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(4, 3));
        let w = g.input(Matrix::ones(3, 1));
        let y = g.matmul(x, w);
        let target = g.input(Matrix::ones(4, 1));
        let loss = g.mse(y, target);
        let audit = PlanAudit {
            plan: g.plan(),
            params: vec![(w.index(), "w".to_string())],
            loss: Some(loss.index()),
        };
        let report = analyze(&audit);
        assert!(!report.has_errors(), "{}", report.render_text());
    }

    #[test]
    fn full_pipeline_flags_a_detached_param_as_error() {
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(4, 3));
        let w = g.input(Matrix::ones(3, 1));
        let dead_w = g.input(Matrix::ones(3, 1));
        let y = g.matmul(x, w);
        let loss = g.sq_frobenius(y);
        let audit = PlanAudit {
            plan: g.plan(),
            params: vec![(w.index(), "w".to_string()), (dead_w.index(), "dead_w".to_string())],
            loss: Some(loss.index()),
        };
        let report = analyze(&audit);
        assert!(report.has_errors());
        assert!(report.diagnostics.iter().any(|d| d.rule == "detached-param"));
    }
}
