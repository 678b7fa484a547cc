//! Gradient reachability, dead-node and duplicate-subgraph passes.
//!
//! Reverse-mode autodiff only deposits gradients on ancestors of the
//! loss node. A trainable parameter that the loss graph never touches
//! — a layer silently dropped from an objective, the exact bug class
//! behind a miswired ablation — trains as pure noise: its gradient is
//! identically zero, Adam never moves it, and nothing panics. This
//! pass turns that silence into a `detached-param` error before a
//! single optimizer step runs.

use crate::describe_chain;
use crate::diagnostic::{Diagnostic, Location};
use ams_tensor::plan::{Plan, PlanOp};
use std::collections::HashMap;

/// Node ids that are `root` or an ancestor of it (i.e. everything the
/// backward sweep from `root` can reach).
pub fn ancestors_of(plan: &Plan, root: usize) -> Vec<bool> {
    let mut reach = vec![false; plan.len()];
    if root >= plan.len() {
        return reach;
    }
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if reach[id] {
            continue;
        }
        reach[id] = true;
        stack.extend(plan.nodes[id].op.inputs());
    }
    reach
}

/// Verify every registered trainable parameter is reachable from the
/// loss. `params` pairs each parameter's node id with its human name
/// (e.g. `gat[0].head[2].a_left`).
pub fn check_reachability(plan: &Plan, params: &[(usize, String)], loss: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if loss >= plan.len() {
        out.push(Diagnostic::error(
            "bad-loss-node",
            Location::Global,
            format!("loss node #{loss} is out of range for a {}-node plan", plan.len()),
        ));
        return out;
    }
    let reach = ancestors_of(plan, loss);
    for (id, name) in params {
        if *id >= plan.len() {
            out.push(Diagnostic::error(
                "bad-param-node",
                Location::Global,
                format!("parameter `{name}` points at node #{id}, out of range"),
            ));
            continue;
        }
        if !matches!(plan.nodes[*id].op, PlanOp::Leaf) {
            out.push(Diagnostic::warn(
                "param-not-leaf",
                Location::Node {
                    node: *id,
                    op: plan.nodes[*id].op.name().to_string(),
                    chain: describe_chain(plan, *id),
                },
                format!("parameter `{name}` is a derived node, not a leaf"),
            ));
        }
        if !reach[*id] {
            out.push(
                Diagnostic::error(
                    "detached-param",
                    Location::Node {
                        node: *id,
                        op: plan.nodes[*id].op.name().to_string(),
                        chain: String::new(),
                    },
                    format!(
                        "parameter `{name}` (node #{id}) is unreachable from the loss \
                         (node #{loss}): its gradient is identically zero and it will never train"
                    ),
                )
                .with_hint(
                    "every parameter Var must feed the loss term; check the forward wiring \
                     and any regularizer that was meant to include it",
                ),
            );
        }
    }
    out
}

/// Flag non-leaf nodes that nothing consumes and that are not the
/// root: recorded, computed, and thrown away.
pub fn check_dead_nodes(plan: &Plan, roots: &[usize]) -> Vec<Diagnostic> {
    let mut consumed = vec![false; plan.len()];
    for node in &plan.nodes {
        for input in node.op.inputs() {
            consumed[input] = true;
        }
    }
    let mut out = Vec::new();
    for (id, node) in plan.nodes.iter().enumerate() {
        if consumed[id] || roots.contains(&id) || matches!(node.op, PlanOp::Leaf) {
            continue;
        }
        out.push(
            Diagnostic::warn(
                "dead-node",
                Location::Node {
                    node: id,
                    op: node.op.name().to_string(),
                    chain: describe_chain(plan, id),
                },
                format!("node #{id} ({}) is computed but never used", node.op.name()),
            )
            .with_hint("drop the computation or wire it into the objective/output"),
        );
    }
    out
}

/// Whether an op is a pure function of its inputs *as recorded in the
/// plan* — i.e. every constant that affects the value is part of the
/// [`PlanOp`]. Ops carrying data the plan reduces to a summary
/// (dropout masks, graph edges, selected ids) are excluded: two such
/// nodes with identical plan records can still compute different
/// values.
fn deduplicatable(op: &PlanOp) -> bool {
    !matches!(
        op,
        PlanOp::Leaf
            | PlanOp::Dropout(..)
            | PlanOp::GraphAttention { .. }
            | PlanOp::SelectRows { .. }
    )
}

/// Detect structurally identical subgraphs: two nodes computing the
/// same pure op over the same (canonicalized) inputs. The second
/// occurrence is wasted compute — on an eager tape nothing shares it.
pub fn check_duplicates(plan: &Plan) -> Vec<Diagnostic> {
    // Canonical representative per node; leaves are their own class.
    let mut rep: Vec<usize> = (0..plan.len()).collect();
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut out = Vec::new();
    for (id, node) in plan.nodes.iter().enumerate() {
        if !deduplicatable(&node.op) {
            continue;
        }
        let inputs: Vec<String> =
            node.op.inputs().iter().map(|&i| format!("#{}", rep[i])).collect();
        let consts = match &node.op {
            PlanOp::Affine(_, alpha) | PlanOp::LeakyRelu(_, alpha) => format!("{alpha:?}"),
            PlanOp::ClampMin(_, lo) => format!("{lo:?}"),
            _ => String::new(),
        };
        let key = format!("{}({})[{}]", node.op.name(), inputs.join(","), consts);
        match seen.get(&key) {
            Some(&first) => {
                rep[id] = rep[first];
                out.push(
                    Diagnostic::warn(
                        "duplicate-subgraph",
                        Location::Node {
                            node: id,
                            op: node.op.name().to_string(),
                            chain: describe_chain(plan, id),
                        },
                        format!(
                            "node #{id} recomputes node #{first}: identical `{}` over identical inputs",
                            node.op.name()
                        ),
                    )
                    .with_hint("hoist the shared subexpression and reuse its Var"),
                );
            }
            None => {
                seen.insert(key, id);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_tensor::runtime::EdgeList;
    use ams_tensor::{Graph, Matrix};
    use std::sync::Arc;

    #[test]
    fn attached_params_pass_detached_param_fails() {
        // w1 feeds the loss; w2 is recorded on the tape but never used
        // by it — the reachability pass must name w2 and only w2.
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(2, 3));
        let w1 = g.input(Matrix::ones(3, 1));
        let w2 = g.input(Matrix::ones(3, 1));
        let y = g.matmul(x, w1);
        let loss = g.sq_frobenius(y);
        let plan = g.plan();
        let params = vec![(w1.index(), "w1".to_string()), (w2.index(), "w2".to_string())];
        let diags = check_reachability(&plan, &params, loss.index());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "detached-param");
        assert!(diags[0].message.contains("`w2`"));
        // And the very gradient the pass predicts: zero for w2.
        let grads = g.backward(loss, &[w1, w2]);
        assert!(grads[0].as_slice().iter().any(|&v| v != 0.0));
        assert!(grads[1].as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn dead_node_found_duplicates_found() {
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(2, 2));
        let t1 = g.transpose(x);
        let t2 = g.transpose(x); // duplicate of t1
        let s = g.add(t1, t2);
        let loss = g.sq_frobenius(s);
        let _orphan = g.tanh(x); // computed, never used
        let plan = g.plan();
        let dead = check_dead_nodes(&plan, &[loss.index()]);
        assert_eq!(dead.len(), 1, "{dead:?}");
        assert!(dead[0].message.contains("tanh"));
        let dups = check_duplicates(&plan);
        assert_eq!(dups.len(), 1, "{dups:?}");
        assert_eq!(dups[0].rule, "duplicate-subgraph");
        assert!(dups[0].message.contains("transpose"));
    }

    #[test]
    fn dropout_and_attention_are_never_deduplicated() {
        // Same inputs, different masks or graphs — the plan only
        // records shapes and counts, so claiming these are duplicates
        // would be wrong.
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(2, 2));
        let m1 = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]);
        let m2 = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0]]);
        let _d1 = g.dropout(x, m1);
        let _d2 = g.dropout(x, m2);
        let s = g.input(Matrix::ones(2, 1));
        let first: [&[u32]; 2] = [&[0], &[0, 1]];
        let second: [&[u32]; 2] = [&[1], &[0, 1]];
        for rows in [first, second] {
            let edges = Arc::new(EdgeList::from_rows(rows).unwrap());
            let _h = g.graph_attention(s, s, x, &edges, 0.2);
        }
        assert!(check_duplicates(&g.plan()).is_empty());
    }

    #[test]
    fn graph_attention_reaches_all_three_inputs() {
        // One GAT head: the loss must reach W and both attention
        // vectors through the attention node, and nothing else.
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(3, 2));
        let w = g.input(Matrix::ones(2, 2));
        let a_l = g.input(Matrix::ones(2, 1));
        let a_r = g.input(Matrix::ones(2, 1));
        let unused = g.input(Matrix::ones(2, 1));
        let wx = g.matmul(x, w);
        let s_l = g.matmul(wx, a_l);
        let s_r = g.matmul(wx, a_r);
        let rows: [&[u32]; 3] = [&[0, 1], &[0, 1, 2], &[1, 2]];
        let edges = Arc::new(EdgeList::from_rows(rows).unwrap());
        let h = g.graph_attention(s_l, s_r, wx, &edges, 0.2);
        let loss = g.sq_frobenius(h);
        let names = ["w", "a_left", "a_right", "unused"];
        let params: Vec<(usize, String)> =
            [w, a_l, a_r, unused].iter().zip(names).map(|(v, n)| (v.index(), n.into())).collect();
        let diags = check_reachability(&g.plan(), &params, loss.index());
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`unused`"));
    }

    #[test]
    fn duplicate_detection_is_transitive_through_reps() {
        // b duplicates a; c = tanh(b) duplicates d = tanh(a) because b
        // canonicalizes to a.
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(2, 2));
        let a = g.relu(x);
        let b = g.relu(x);
        let _d = g.tanh(a);
        let _c = g.tanh(b);
        let dups = check_duplicates(&g.plan());
        assert_eq!(dups.len(), 2, "{dups:?}");
    }
}
