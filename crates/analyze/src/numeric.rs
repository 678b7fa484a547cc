//! Numerical-risk pass over the tape IR.
//!
//! Flags graph patterns that are numerically fragile even when every
//! shape is right: `log`/`div` fed by unclamped inputs (the classic
//! NaN factories), reductions over zero-element matrices (division by
//! zero sample count), graph nodes attention cannot see past (no edges
//! at all), and —
//! for plans exported from a live tape — the earliest node whose
//! recorded value already contained a NaN/∞, which is exactly the
//! provenance the debug-only `all_finite` assert used to give only in
//! debug builds.

use crate::describe_chain;
use crate::diagnostic::{Diagnostic, Location};
use ams_tensor::plan::{Plan, PlanOp};

fn node_location(plan: &Plan, id: usize) -> Location {
    Location::Node {
        node: id,
        op: plan.nodes[id].op.name().to_string(),
        chain: describe_chain(plan, id),
    }
}

/// Ops whose output is guaranteed bounded away from the values that
/// break `log` (non-positive) and `div` (zero): an explicit clamp.
fn is_clamped(plan: &Plan, id: usize) -> bool {
    matches!(plan.nodes[id].op, PlanOp::ClampMin(..))
}

/// Run the numerical-risk rules. `shapes` comes from the shape pass so
/// empty-reduction checks see inferred shapes even on symbolic plans.
pub fn check_numerics(plan: &Plan, shapes: &[Option<(usize, usize)>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, node) in plan.nodes.iter().enumerate() {
        match &node.op {
            PlanOp::Log(a) if !is_clamped(plan, *a) => {
                out.push(
                    Diagnostic::warn(
                        "unclamped-log",
                        node_location(plan, id),
                        format!(
                            "log fed by `{}` with no clamp: a non-positive input produces NaN/-∞",
                            plan.nodes[*a].op.name()
                        ),
                    )
                    .with_hint("insert clamp_min(x, ε) in front of the log"),
                );
            }
            PlanOp::Div(_, b) if !is_clamped(plan, *b) => {
                out.push(
                    Diagnostic::warn(
                        "unclamped-div",
                        node_location(plan, id),
                        format!(
                            "division by `{}` with no clamp: a zero denominator produces ±∞",
                            plan.nodes[*b].op.name()
                        ),
                    )
                    .with_hint("insert clamp_min(denominator, ε) in front of the division"),
                );
            }
            PlanOp::MeanAll(a) | PlanOp::Mse(a, _) => {
                if let Some((r, c)) = shapes.get(*a).copied().flatten() {
                    if r * c == 0 {
                        out.push(
                            Diagnostic::error(
                                "empty-reduction",
                                node_location(plan, id),
                                format!(
                                    "{} over a {r}×{c} input divides by a zero element count",
                                    node.op.name()
                                ),
                            )
                            .with_hint("guard the reduction behind a non-empty batch check"),
                        );
                    }
                }
            }
            PlanOp::GraphAttention { isolated, .. } if *isolated > 0 => {
                out.push(Diagnostic::info(
                    "graph-isolated-nodes",
                    node_location(plan, id),
                    format!(
                        "{isolated} graph node(s) with no edges, not even a self-loop: \
                         they attend to nothing and output zeros"
                    ),
                ));
            }
            _ => {}
        }
    }

    // NaN provenance: flag every node whose recorded value is
    // non-finite while all of its inputs were finite — the op that
    // *created* the damage, not the thousands downstream of it.
    for (id, node) in plan.nodes.iter().enumerate() {
        if node.finite {
            continue;
        }
        let inputs = node.op.inputs();
        if inputs.iter().all(|&i| plan.nodes[i].finite) {
            out.push(
                Diagnostic::error(
                    "non-finite",
                    node_location(plan, id),
                    format!("first non-finite value produced by node #{id} ({})", node.op.name()),
                )
                .with_hint(
                    "enable Graph::set_finite_checks(true) on a release run to panic at \
                     exactly this op with live values",
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::check_shapes;
    use ams_tensor::runtime::EdgeList;
    use ams_tensor::{Graph, Matrix, Plan};

    fn analyze(plan: &Plan) -> Vec<Diagnostic> {
        let shapes = check_shapes(plan).shapes;
        check_numerics(plan, &shapes)
    }

    #[test]
    fn unclamped_log_and_div_warn_clamped_pass() {
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(2, 2));
        let y = g.input(Matrix::ones(2, 2));
        let q = g.div(x, y); // unclamped denominator
        let _l = g.log(q); // unclamped log
        let diags = analyze(&g.plan());
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert!(diags.iter().any(|d| d.rule == "unclamped-log"));
        assert!(diags.iter().any(|d| d.rule == "unclamped-div"));

        let mut g = Graph::new();
        let x = g.input(Matrix::ones(2, 2));
        let y = g.input(Matrix::ones(2, 2));
        let safe = g.clamp_min(y, 1e-9);
        let q = g.div(x, safe);
        let qc = g.clamp_min(q, 1e-9);
        let _l = g.log(qc);
        assert!(analyze(&g.plan()).is_empty());
    }

    #[test]
    fn empty_reduction_is_an_error() {
        let mut p = Plan::new();
        let a = p.leaf(0, 3);
        p.push(ams_tensor::PlanOp::MeanAll(a), None);
        let diags = analyze(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "empty-reduction");
        assert_eq!(diags[0].severity, crate::Severity::Error);
    }

    #[test]
    fn isolated_graph_nodes_are_informational() {
        let rows: [&[u32]; 2] = [&[0, 1], &[]];
        let edges = std::sync::Arc::new(EdgeList::from_rows(rows).unwrap());
        let mut g = Graph::new();
        let s = g.input(Matrix::zeros(2, 1));
        let wh = g.input(Matrix::zeros(2, 3));
        let _h = g.graph_attention(s, s, wh, &edges, 0.2);
        let diags = analyze(&g.plan());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "graph-isolated-nodes");
        assert_eq!(diags[0].severity, crate::Severity::Info);
        assert!(diags[0].message.starts_with("1 graph node(s)"), "{}", diags[0].message);
        // Self-loops alone are edges: no finding.
        let loops: [&[u32]; 2] = [&[0], &[1]];
        let edges = std::sync::Arc::new(EdgeList::from_rows(loops).unwrap());
        let mut g = Graph::new();
        let s = g.input(Matrix::zeros(2, 1));
        let wh = g.input(Matrix::zeros(2, 3));
        let _h = g.graph_attention(s, s, wh, &edges, 0.2);
        assert!(analyze(&g.plan()).is_empty());
    }

    #[test]
    fn non_finite_provenance_points_at_the_producer() {
        // Symbolic plan standing in for a tape recorded in release
        // mode: node 2 went NaN, node 3 inherited it. Only node 2 is
        // the producer.
        let mut p = Plan::new();
        let a = p.leaf(1, 1);
        let bad = p.push(ams_tensor::PlanOp::Tanh(a), Some((1, 1)));
        p.nodes[bad].finite = false;
        let downstream = p.push(ams_tensor::PlanOp::Relu(bad), Some((1, 1)));
        p.nodes[downstream].finite = false;
        let diags = analyze(&p);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "non-finite");
        assert!(diags[0].message.contains(&format!("#{bad}")));
    }
}
