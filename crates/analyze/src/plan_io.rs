//! JSON (de)serialization of audit specs.
//!
//! An *audit spec* is a [`crate::PlanAudit`] as JSON: the node list in
//! tape order plus optional training metadata. It is how defect
//! fixtures are stored (a shape-mismatched graph cannot be recorded on
//! the eager tape — its asserts fire first) and how external tools can
//! feed graphs to `ams-check plan`.
//!
//! ```json
//! {
//!   "nodes": [
//!     {"op": "leaf", "shape": [2, 3]},
//!     {"op": "leaf", "shape": [3, 1]},
//!     {"op": "matmul", "inputs": [0, 1]},
//!     {"op": "sq_frobenius", "inputs": [2]}
//!   ],
//!   "params": [{"node": 1, "name": "w"}],
//!   "loss": 3
//! }
//! ```
//!
//! Per-op extras: `alpha` (`affine`, `leaky_relu`), `lo` (`clamp_min`),
//! `mask_shape` (`dropout`), `slope`/`nodes`/`edges`/`isolated`
//! (`graph_attention`, whose inputs are `[s_l, s_r, wh]`; `isolated`
//! defaults to 0), `n_ids`/`max_id` (`select_rows`), `finite` (any
//! node, default `true`), `shape` (any node; required on leaves). The vendored `serde_derive` cannot
//! derive data-carrying enums, so everything here is hand-rolled over
//! `serde_json::Value`.

use crate::PlanAudit;
use ams_tensor::plan::{Plan, PlanNode, PlanOp};
use serde_json::Value;

fn get_usize(obj: &Value, key: &str) -> Option<usize> {
    obj.get(key).and_then(Value::as_f64).map(|f| f as usize)
}

fn get_f64(obj: &Value, key: &str) -> Option<f64> {
    obj.get(key).and_then(Value::as_f64)
}

fn get_pair(obj: &Value, key: &str) -> Option<(usize, usize)> {
    let arr = obj.get(key)?.as_array()?;
    match arr {
        [a, b] => Some((a.as_f64()? as usize, b.as_f64()? as usize)),
        _ => None,
    }
}

/// Parse one node object. `id` is the node's position (for error
/// messages and input-range validation).
fn parse_node(spec: &Value, id: usize) -> Result<PlanNode, String> {
    let op_name = spec
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("node #{id}: missing `op`"))?;

    let inputs: Vec<usize> = match spec.get("inputs").and_then(Value::as_array) {
        Some(arr) => {
            let mut out = Vec::with_capacity(arr.len());
            for v in arr {
                let f = v.as_f64().ok_or_else(|| format!("node #{id}: non-numeric input id"))?;
                out.push(f as usize);
            }
            out
        }
        None => Vec::new(),
    };
    for &input in &inputs {
        if input >= id {
            return Err(format!("node #{id} ({op_name}): input #{input} does not precede the op"));
        }
    }
    let arity = |n: usize| -> Result<(), String> {
        if inputs.len() == n {
            Ok(())
        } else {
            Err(format!("node #{id} ({op_name}): expected {n} input(s), got {}", inputs.len()))
        }
    };
    let missing = |key: &str| format!("node #{id} ({op_name}): missing `{key}`");

    let op = match op_name {
        "leaf" => {
            arity(0)?;
            PlanOp::Leaf
        }
        "add" => {
            arity(2)?;
            PlanOp::Add(inputs[0], inputs[1])
        }
        "sub" => {
            arity(2)?;
            PlanOp::Sub(inputs[0], inputs[1])
        }
        "mul" => {
            arity(2)?;
            PlanOp::Mul(inputs[0], inputs[1])
        }
        "div" => {
            arity(2)?;
            PlanOp::Div(inputs[0], inputs[1])
        }
        "matmul" => {
            arity(2)?;
            PlanOp::MatMul(inputs[0], inputs[1])
        }
        "affine" => {
            arity(1)?;
            PlanOp::Affine(inputs[0], get_f64(spec, "alpha").ok_or_else(|| missing("alpha"))?)
        }
        "relu" => {
            arity(1)?;
            PlanOp::Relu(inputs[0])
        }
        "leaky_relu" => {
            arity(1)?;
            PlanOp::LeakyRelu(inputs[0], get_f64(spec, "alpha").ok_or_else(|| missing("alpha"))?)
        }
        "sigmoid" => {
            arity(1)?;
            PlanOp::Sigmoid(inputs[0])
        }
        "tanh" => {
            arity(1)?;
            PlanOp::Tanh(inputs[0])
        }
        "log" => {
            arity(1)?;
            PlanOp::Log(inputs[0])
        }
        "clamp_min" => {
            arity(1)?;
            PlanOp::ClampMin(inputs[0], get_f64(spec, "lo").ok_or_else(|| missing("lo"))?)
        }
        "transpose" => {
            arity(1)?;
            PlanOp::Transpose(inputs[0])
        }
        "add_row_broadcast" => {
            arity(2)?;
            PlanOp::AddRowBroadcast(inputs[0], inputs[1])
        }
        "graph_attention" => {
            arity(3)?;
            PlanOp::GraphAttention {
                s_l: inputs[0],
                s_r: inputs[1],
                wh: inputs[2],
                slope: get_f64(spec, "slope").ok_or_else(|| missing("slope"))?,
                nodes: get_usize(spec, "nodes").ok_or_else(|| missing("nodes"))?,
                edges: get_usize(spec, "edges").ok_or_else(|| missing("edges"))?,
                isolated: get_usize(spec, "isolated").unwrap_or(0),
            }
        }
        "concat_cols" => PlanOp::ConcatCols(inputs.clone()),
        "sum_all" => {
            arity(1)?;
            PlanOp::SumAll(inputs[0])
        }
        "mean_all" => {
            arity(1)?;
            PlanOp::MeanAll(inputs[0])
        }
        "mse" => {
            arity(2)?;
            PlanOp::Mse(inputs[0], inputs[1])
        }
        "rowwise_dot" => {
            arity(2)?;
            PlanOp::RowwiseDot(inputs[0], inputs[1])
        }
        "select_rows" => {
            arity(1)?;
            PlanOp::SelectRows {
                x: inputs[0],
                n_ids: get_usize(spec, "n_ids").ok_or_else(|| missing("n_ids"))?,
                max_id: get_usize(spec, "max_id"),
            }
        }
        "dropout" => {
            arity(1)?;
            PlanOp::Dropout(
                inputs[0],
                get_pair(spec, "mask_shape").ok_or_else(|| missing("mask_shape"))?,
            )
        }
        "sq_frobenius" => {
            arity(1)?;
            PlanOp::SqFrobenius(inputs[0])
        }
        other => return Err(format!("node #{id}: unknown op `{other}`")),
    };

    Ok(PlanNode {
        op,
        shape: get_pair(spec, "shape"),
        finite: spec.get("finite").and_then(Value::as_bool).unwrap_or(true),
    })
}

/// Parse a JSON audit spec into a [`PlanAudit`]. All structural
/// invariants the analysis passes rely on (tape ordering, id ranges)
/// are validated here so a malformed spec is an `Err`, never a panic.
pub fn parse_audit(json: &str) -> Result<PlanAudit, String> {
    let root: Value = serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let node_specs = root
        .get("nodes")
        .and_then(Value::as_array)
        .ok_or("audit spec must have a `nodes` array")?;

    let mut plan = Plan::new();
    for (id, spec) in node_specs.iter().enumerate() {
        plan.nodes.push(parse_node(spec, id)?);
    }

    let mut params = Vec::new();
    if let Some(list) = root.get("params").and_then(Value::as_array) {
        for (k, p) in list.iter().enumerate() {
            let node =
                get_usize(p, "node").ok_or_else(|| format!("params[{k}]: missing `node`"))?;
            let name = p
                .get("name")
                .and_then(Value::as_str)
                .map(str::to_string)
                .unwrap_or_else(|| format!("param[{k}]"));
            params.push((node, name));
        }
    }

    Ok(PlanAudit { plan, params, loss: get_usize(&root, "loss") })
}

/// Serialize an audit back to the spec format (round-trips through
/// [`parse_audit`]). Used by tooling that wants to snapshot a live
/// training tape for offline analysis.
pub fn audit_to_json(audit: &PlanAudit) -> Value {
    let nodes: Vec<Value> = audit
        .plan
        .nodes
        .iter()
        .map(|node| {
            let mut fields = vec![("op".to_string(), Value::String(node.op.name().to_string()))];
            let inputs = node.op.inputs();
            if !inputs.is_empty() {
                fields.push((
                    "inputs".to_string(),
                    Value::Array(inputs.iter().map(|&i| Value::Number(i as f64)).collect()),
                ));
            }
            match &node.op {
                PlanOp::Affine(_, alpha) | PlanOp::LeakyRelu(_, alpha) => {
                    fields.push(("alpha".to_string(), Value::Number(*alpha)));
                }
                PlanOp::ClampMin(_, lo) => {
                    fields.push(("lo".to_string(), Value::Number(*lo)));
                }
                PlanOp::GraphAttention { slope, nodes, edges, isolated, .. } => {
                    fields.push(("slope".to_string(), Value::Number(*slope)));
                    for (key, v) in [("nodes", nodes), ("edges", edges), ("isolated", isolated)] {
                        fields.push((key.to_string(), Value::Number(*v as f64)));
                    }
                }
                PlanOp::Dropout(_, mask_shape) => {
                    fields.push(("mask_shape".to_string(), pair_json(*mask_shape)));
                }
                PlanOp::SelectRows { n_ids, max_id, .. } => {
                    fields.push(("n_ids".to_string(), Value::Number(*n_ids as f64)));
                    if let Some(m) = max_id {
                        fields.push(("max_id".to_string(), Value::Number(*m as f64)));
                    }
                }
                _ => {}
            }
            if let Some(shape) = node.shape {
                fields.push(("shape".to_string(), pair_json(shape)));
            }
            if !node.finite {
                fields.push(("finite".to_string(), Value::Bool(false)));
            }
            Value::Object(fields)
        })
        .collect();

    let mut fields = vec![("nodes".to_string(), Value::Array(nodes))];
    if !audit.params.is_empty() {
        fields.push((
            "params".to_string(),
            Value::Array(
                audit
                    .params
                    .iter()
                    .map(|(node, name)| {
                        Value::Object(vec![
                            ("node".to_string(), Value::Number(*node as f64)),
                            ("name".to_string(), Value::String(name.clone())),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    if let Some(loss) = audit.loss {
        fields.push(("loss".to_string(), Value::Number(loss as f64)));
    }
    Value::Object(fields)
}

fn pair_json((a, b): (usize, usize)) -> Value {
    Value::Array(vec![Value::Number(a as f64), Value::Number(b as f64)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_tensor::{Graph, Matrix};

    #[test]
    fn parses_a_minimal_training_spec() {
        let spec = r#"{
            "nodes": [
                {"op": "leaf", "shape": [2, 3]},
                {"op": "leaf", "shape": [3, 1]},
                {"op": "matmul", "inputs": [0, 1]},
                {"op": "sq_frobenius", "inputs": [2]}
            ],
            "params": [{"node": 1, "name": "w"}],
            "loss": 3
        }"#;
        let audit = parse_audit(spec).unwrap();
        assert_eq!(audit.plan.len(), 4);
        assert_eq!(audit.plan.nodes[2].op, PlanOp::MatMul(0, 1));
        assert_eq!(audit.params, vec![(1, "w".to_string())]);
        assert_eq!(audit.loss, Some(3));
        assert!(!crate::analyze(&audit).has_errors());
    }

    #[test]
    fn forward_references_and_bad_ops_are_errors_not_panics() {
        let forward = r#"{"nodes": [{"op": "relu", "inputs": [2]}]}"#;
        assert!(parse_audit(forward).unwrap_err().contains("does not precede"));
        let unknown = r#"{"nodes": [{"op": "conv2d", "inputs": []}]}"#;
        assert!(parse_audit(unknown).unwrap_err().contains("unknown op"));
        let bad_arity = r#"{"nodes": [{"op": "leaf"}, {"op": "matmul", "inputs": [0]}]}"#;
        assert!(parse_audit(bad_arity).unwrap_err().contains("expected 2 input(s)"));
        assert!(parse_audit("not json").is_err());
    }

    #[test]
    fn real_tape_round_trips_through_the_spec_format() {
        let mut g = Graph::new();
        let x = g.input(Matrix::ones(3, 2));
        let w = g.input(Matrix::ones(2, 1));
        let y = g.matmul(x, w);
        let s = g.sigmoid(y);
        let rows: [&[u32]; 3] = [&[0, 1], &[], &[0, 1, 2]];
        let edges = std::sync::Arc::new(ams_tensor::runtime::EdgeList::from_rows(rows).unwrap());
        let wh = g.input(Matrix::zeros(3, 2));
        let _att = g.graph_attention(y, y, wh, &edges, 0.2);
        let loss = g.sq_frobenius(s);
        let audit = crate::PlanAudit {
            plan: g.plan(),
            params: vec![(w.index(), "w".to_string())],
            loss: Some(loss.index()),
        };
        let json = serde_json::to_string(&audit_to_json(&audit)).unwrap();
        let back = parse_audit(&json).unwrap();
        assert_eq!(back.plan.len(), audit.plan.len());
        for (a, b) in back.plan.nodes.iter().zip(audit.plan.nodes.iter()) {
            assert_eq!(a.op, b.op);
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.finite, b.finite);
        }
        assert_eq!(back.params, audit.params);
        assert_eq!(back.loss, audit.loss);
    }
}
