//! Symbolic shape inference over the tape IR.
//!
//! Replays a [`Plan`]'s op list propagating `(rows, cols)` without
//! touching any data. Every op's input constraints are checked before
//! its output shape is derived; a violation produces one
//! `shape-mismatch` diagnostic carrying the full op chain, and the
//! violating node's shape becomes unknown so downstream ops do not
//! cascade into noise.
//!
//! On a tape exported by `Graph::plan()` the recorded shapes are also
//! cross-checked against the inferred ones (`shape-divergence`); on a
//! symbolically built plan only leaves need declared shapes.

use crate::describe_chain;
use crate::diagnostic::{Diagnostic, Location};
use ams_tensor::plan::{Plan, PlanOp};

/// Result of the shape pass: per-node inferred shapes (`None` where
/// inference was poisoned by an upstream violation) plus diagnostics.
pub struct ShapeAnalysis {
    pub shapes: Vec<Option<(usize, usize)>>,
    pub diagnostics: Vec<Diagnostic>,
}

fn node_location(plan: &Plan, id: usize) -> Location {
    Location::Node {
        node: id,
        op: plan.nodes[id].op.name().to_string(),
        chain: describe_chain(plan, id),
    }
}

/// Run shape inference over the whole plan.
pub fn check_shapes(plan: &Plan) -> ShapeAnalysis {
    let mut shapes: Vec<Option<(usize, usize)>> = Vec::with_capacity(plan.len());
    let mut diagnostics = Vec::new();

    for (id, node) in plan.nodes.iter().enumerate() {
        let fail = |msg: String, hint: &str, diagnostics: &mut Vec<Diagnostic>| {
            diagnostics.push(
                Diagnostic::error("shape-mismatch", node_location(plan, id), msg)
                    .with_hint(hint.to_string()),
            );
            None
        };

        // Gather input shapes; if any is unknown the upstream violation
        // was already reported — propagate silently.
        let input_ids = node.op.inputs();
        let input_shapes: Vec<Option<(usize, usize)>> =
            input_ids.iter().map(|&i| shapes[i]).collect();
        let poisoned = input_shapes.iter().any(Option::is_none);

        let inferred: Option<(usize, usize)> = if poisoned {
            None
        } else {
            let dim = |k: usize| input_shapes[k].expect("checked not poisoned");
            match &node.op {
                PlanOp::Leaf => match node.shape {
                    Some(s) => Some(s),
                    None => fail(
                        "leaf without a declared shape".to_string(),
                        "declare (rows, cols) on every leaf of a symbolic plan",
                        &mut diagnostics,
                    ),
                },
                PlanOp::Add(..) | PlanOp::Sub(..) | PlanOp::Mul(..) | PlanOp::Div(..) => {
                    let (a, b) = (dim(0), dim(1));
                    if a != b {
                        fail(
                            format!(
                                "{}: operands must have equal shapes, got {}×{} vs {}×{}",
                                node.op.name(),
                                a.0,
                                a.1,
                                b.0,
                                b.1
                            ),
                            "element-wise ops require identical shapes; check which operand was built wrong upstream",
                            &mut diagnostics,
                        )
                    } else {
                        Some(a)
                    }
                }
                PlanOp::MatMul(..) => {
                    let (a, b) = (dim(0), dim(1));
                    if a.1 != b.0 {
                        fail(
                            format!(
                                "matmul: inner dimensions disagree, {}×{} · {}×{}",
                                a.0, a.1, b.0, b.1
                            ),
                            "left.cols must equal right.rows; a transposed weight is the usual culprit",
                            &mut diagnostics,
                        )
                    } else {
                        Some((a.0, b.1))
                    }
                }
                PlanOp::Affine(..)
                | PlanOp::Relu(..)
                | PlanOp::LeakyRelu(..)
                | PlanOp::Sigmoid(..)
                | PlanOp::Tanh(..)
                | PlanOp::Log(..)
                | PlanOp::ClampMin(..) => Some(dim(0)),
                PlanOp::Transpose(..) => {
                    let a = dim(0);
                    Some((a.1, a.0))
                }
                PlanOp::AddRowBroadcast(..) => {
                    let (x, bias) = (dim(0), dim(1));
                    if bias.0 != 1 || bias.1 != x.1 {
                        fail(
                            format!(
                                "add_row_broadcast: bias must be 1×{} to broadcast over a {}×{} input, got {}×{}",
                                x.1, x.0, x.1, bias.0, bias.1
                            ),
                            "the bias of a dense layer is a 1×out row vector",
                            &mut diagnostics,
                        )
                    } else {
                        Some(x)
                    }
                }
                PlanOp::GraphAttention { nodes, .. } => {
                    let (n, sl, sr, wh) = (*nodes, dim(0), dim(1), dim(2));
                    if sl != (n, 1) || sr != (n, 1) || wh.0 != n {
                        fail(
                            format!(
                                "graph_attention: a {n}-node graph needs {n}×1 scores and \
                                 {n}-row features, got s_l {}×{}, s_r {}×{}, wh {}×{}",
                                sl.0, sl.1, sr.0, sr.1, wh.0, wh.1
                            ),
                            "the scores are Wh·a_l and Wh·a_r: one row per graph node",
                            &mut diagnostics,
                        )
                    } else {
                        Some(wh)
                    }
                }
                PlanOp::ConcatCols(parts) => {
                    if parts.is_empty() {
                        fail(
                            "concat_cols: empty input list".to_string(),
                            "concatenation needs at least one operand",
                            &mut diagnostics,
                        )
                    } else {
                        let first = dim(0);
                        let mut cols = 0;
                        let mut ok = true;
                        for (k, s) in input_shapes.iter().enumerate() {
                            let s = s.expect("checked not poisoned");
                            if s.0 != first.0 {
                                diagnostics.push(
                                    Diagnostic::error(
                                        "shape-mismatch",
                                        node_location(plan, id),
                                        format!(
                                            "concat_cols: part {k} has {} rows but part 0 has {}",
                                            s.0, first.0
                                        ),
                                    )
                                    .with_hint("all concatenated parts must share the row count"),
                                );
                                ok = false;
                            }
                            cols += s.1;
                        }
                        if ok {
                            Some((first.0, cols))
                        } else {
                            None
                        }
                    }
                }
                PlanOp::SumAll(..) | PlanOp::MeanAll(..) | PlanOp::SqFrobenius(..) => Some((1, 1)),
                PlanOp::Mse(..) => {
                    let (a, b) = (dim(0), dim(1));
                    if a != b {
                        fail(
                            format!(
                                "mse: prediction is {}×{} but target is {}×{}",
                                a.0, a.1, b.0, b.1
                            ),
                            "predictions and labels must align row-for-row",
                            &mut diagnostics,
                        )
                    } else {
                        Some((1, 1))
                    }
                }
                PlanOp::RowwiseDot(..) => {
                    let (a, b) = (dim(0), dim(1));
                    if a != b {
                        fail(
                            format!(
                                "rowwise_dot: operands must have equal shapes, got {}×{} vs {}×{}",
                                a.0, a.1, b.0, b.1
                            ),
                            "the slave-LR evaluation needs features and β row-aligned",
                            &mut diagnostics,
                        )
                    } else {
                        Some((a.0, 1))
                    }
                }
                PlanOp::SelectRows { n_ids, max_id, .. } => {
                    let x = dim(0);
                    match max_id {
                        Some(m) if *m >= x.0 => fail(
                            format!("select_rows: id {m} out of range for a {}×{} input", x.0, x.1),
                            "row ids must be < input rows",
                            &mut diagnostics,
                        ),
                        _ => Some((*n_ids, x.1)),
                    }
                }
                PlanOp::Dropout(_, mask_shape) => {
                    let x = dim(0);
                    if *mask_shape != x {
                        fail(
                            format!(
                                "dropout: mask is {}×{} but the input is {}×{}",
                                mask_shape.0, mask_shape.1, x.0, x.1
                            ),
                            "build the dropout mask from the input's shape",
                            &mut diagnostics,
                        )
                    } else {
                        Some(x)
                    }
                }
            }
        };

        // Cross-check against the recorded shape, when both are known.
        if let (Some(inf), Some(rec)) = (inferred, node.shape) {
            if !matches!(node.op, PlanOp::Leaf) && inf != rec {
                diagnostics.push(
                    Diagnostic::error(
                        "shape-divergence",
                        node_location(plan, id),
                        format!(
                            "recorded shape {}×{} disagrees with inferred {}×{}",
                            rec.0, rec.1, inf.0, inf.1
                        ),
                    )
                    .with_hint("either the plan was edited by hand or the inference rules drifted from the tape ops"),
                );
            }
        }

        shapes.push(inferred);
    }

    ShapeAnalysis { shapes, diagnostics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_tensor::{Graph, Matrix};

    #[test]
    fn clean_recorded_tape_has_no_findings() {
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(4, 3));
        let w = g.input(Matrix::ones(3, 2));
        let y = g.matmul(x, w);
        let b = g.input(Matrix::ones(1, 2));
        let z = g.add_row_broadcast(y, b);
        let r = g.relu(z);
        let _ = g.sq_frobenius(r);
        let analysis = check_shapes(&g.plan());
        assert!(analysis.diagnostics.is_empty(), "{:?}", analysis.diagnostics);
        assert_eq!(analysis.shapes.last().copied().flatten(), Some((1, 1)));
    }

    #[test]
    fn symbolic_matmul_mismatch_is_reported_with_chain() {
        let mut p = Plan::new();
        let a = p.leaf(2, 3);
        let b = p.leaf(4, 5);
        let m = p.push(PlanOp::MatMul(a, b), None);
        let _ = p.push(PlanOp::SumAll(m), None);
        let analysis = check_shapes(&p);
        assert_eq!(analysis.diagnostics.len(), 1, "{:?}", analysis.diagnostics);
        let d = &analysis.diagnostics[0];
        assert_eq!(d.rule, "shape-mismatch");
        assert!(d.message.contains("2×3 · 4×5"), "{}", d.message);
        match &d.location {
            Location::Node { node, chain, .. } => {
                assert_eq!(*node, m);
                assert!(chain.contains("leaf"), "{chain}");
            }
            other => panic!("wrong location {other:?}"),
        }
        // Downstream of the violation is poisoned, not re-reported.
        assert_eq!(analysis.shapes[m], None);
        assert_eq!(analysis.shapes[m + 1], None);
    }

    #[test]
    fn broadcast_and_graph_attention_constraints() {
        let mut p = Plan::new();
        let x = p.leaf(4, 3);
        let bad_bias = p.leaf(2, 3);
        p.push(PlanOp::AddRowBroadcast(x, bad_bias), None);
        let attention = |s_l, s_r, wh| PlanOp::GraphAttention {
            s_l,
            s_r,
            wh,
            slope: 0.2,
            nodes: 4,
            edges: 9,
            isolated: 0,
        };
        let sl = p.leaf(4, 2); // not a column vector
        let sr = p.leaf(4, 1);
        p.push(attention(sl, sr, x), None);
        let short = p.leaf(3, 3); // one row short of the graph
        p.push(attention(sr, sr, short), None);
        let ok = p.push(attention(sr, sr, x), None);
        let analysis = check_shapes(&p);
        assert_eq!(analysis.diagnostics.len(), 3, "{:?}", analysis.diagnostics);
        assert!(analysis.diagnostics.iter().all(|d| d.rule == "shape-mismatch"));
        assert_eq!(analysis.shapes[ok], Some((4, 3)));
    }

    #[test]
    fn select_rows_out_of_range_is_flagged() {
        let mut p = Plan::new();
        let x = p.leaf(3, 2);
        p.push(PlanOp::SelectRows { x, n_ids: 4, max_id: Some(3) }, None);
        let analysis = check_shapes(&p);
        assert_eq!(analysis.diagnostics.len(), 1);
        assert!(analysis.diagnostics[0].message.contains("id 3 out of range"));
    }

    #[test]
    fn concat_infers_summed_width() {
        let mut p = Plan::new();
        let a = p.leaf(4, 2);
        let b = p.leaf(4, 5);
        let c = p.push(PlanOp::ConcatCols(vec![a, b]), None);
        let analysis = check_shapes(&p);
        assert!(analysis.diagnostics.is_empty());
        assert_eq!(analysis.shapes[c], Some((4, 7)));
    }
}
