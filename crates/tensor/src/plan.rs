//! Read-only tape IR for static analysis.
//!
//! [`crate::Graph`] is an eager define-by-run tape: by the time an op
//! is recorded its value has already been computed, so a shape bug
//! surfaces as a runtime panic deep inside the op that tripped over
//! it. A [`Plan`] is the same op list *without the data*: every node
//! carries its op kind, its input node ids, the constants that matter
//! for shape/structure reasoning (graph sizes, mask shapes, selected
//! row ids, concat arity) and the shape the tape recorded for it.
//!
//! Plans serve two audiences:
//!
//! * [`Graph::plan`](crate::Graph::plan) exports the tape of a real
//!   training/eval graph so `ams-analyze` can replay shape inference,
//!   gradient reachability and numerical-risk checks over it;
//! * a plan can also be built symbolically ([`Plan::leaf`] /
//!   [`Plan::push`]) with *claimed* shapes that never touched data —
//!   which is how defect fixtures (a shape-mismatched graph, a
//!   detached parameter) are constructed without having to defeat the
//!   tape's own eager asserts.

use crate::graph::Graph;

/// Structural description of one tape op. Input operands are node ids
/// into the owning [`Plan`]; constants are reduced to what static
/// analysis needs (shapes and index ranges, never element data).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Leaf: an input, parameter snapshot, or constant.
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    /// Element-wise (Hadamard) product.
    Mul(usize, usize),
    /// Element-wise division `a / b`.
    Div(usize, usize),
    MatMul(usize, usize),
    /// `alpha * x + beta` element-wise (only the multiplier is kept).
    Affine(usize, f64),
    Relu(usize),
    LeakyRelu(usize, f64),
    Sigmoid(usize),
    Tanh(usize),
    /// Natural logarithm, element-wise.
    Log(usize),
    /// `max(x, lo)` element-wise.
    ClampMin(usize, f64),
    Transpose(usize),
    /// `(n×d) + (1×d)` bias-style broadcast over rows.
    AddRowBroadcast(usize, usize),
    /// One GAT head's attention over a graph's edge list: score
    /// columns `s_l`, `s_r` (`n×1`) and features `wh` (`n×f`) → `n×f`.
    /// Carries the LeakyReLU slope and the graph's size: its node and
    /// edge counts and how many nodes have no edges at all.
    GraphAttention {
        s_l: usize,
        s_r: usize,
        wh: usize,
        slope: f64,
        nodes: usize,
        edges: usize,
        isolated: usize,
    },
    /// Horizontal concatenation.
    ConcatCols(Vec<usize>),
    SumAll(usize),
    MeanAll(usize),
    /// Mean squared error → 1×1.
    Mse(usize, usize),
    /// Row-wise dot product → n×1.
    RowwiseDot(usize, usize),
    /// Row gather; carries the selected ids' count and max.
    SelectRows {
        x: usize,
        n_ids: usize,
        max_id: Option<usize>,
    },
    /// Element-wise multiply by a fixed dropout mask of the given shape.
    Dropout(usize, (usize, usize)),
    /// Squared Frobenius norm → 1×1.
    SqFrobenius(usize),
}

impl PlanOp {
    /// Short stable name used in diagnostics and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            PlanOp::Leaf => "leaf",
            PlanOp::Add(..) => "add",
            PlanOp::Sub(..) => "sub",
            PlanOp::Mul(..) => "mul",
            PlanOp::Div(..) => "div",
            PlanOp::MatMul(..) => "matmul",
            PlanOp::Affine(..) => "affine",
            PlanOp::Relu(..) => "relu",
            PlanOp::LeakyRelu(..) => "leaky_relu",
            PlanOp::Sigmoid(..) => "sigmoid",
            PlanOp::Tanh(..) => "tanh",
            PlanOp::Log(..) => "log",
            PlanOp::ClampMin(..) => "clamp_min",
            PlanOp::Transpose(..) => "transpose",
            PlanOp::AddRowBroadcast(..) => "add_row_broadcast",
            PlanOp::GraphAttention { .. } => "graph_attention",
            PlanOp::ConcatCols(..) => "concat_cols",
            PlanOp::SumAll(..) => "sum_all",
            PlanOp::MeanAll(..) => "mean_all",
            PlanOp::Mse(..) => "mse",
            PlanOp::RowwiseDot(..) => "rowwise_dot",
            PlanOp::SelectRows { .. } => "select_rows",
            PlanOp::Dropout(..) => "dropout",
            PlanOp::SqFrobenius(..) => "sq_frobenius",
        }
    }

    /// Input node ids in operand order.
    pub fn inputs(&self) -> Vec<usize> {
        match self {
            PlanOp::Leaf => vec![],
            PlanOp::Add(a, b)
            | PlanOp::Sub(a, b)
            | PlanOp::Mul(a, b)
            | PlanOp::Div(a, b)
            | PlanOp::MatMul(a, b)
            | PlanOp::AddRowBroadcast(a, b)
            | PlanOp::Mse(a, b)
            | PlanOp::RowwiseDot(a, b) => vec![*a, *b],
            PlanOp::Affine(a, _)
            | PlanOp::Relu(a)
            | PlanOp::LeakyRelu(a, _)
            | PlanOp::Sigmoid(a)
            | PlanOp::Tanh(a)
            | PlanOp::Log(a)
            | PlanOp::ClampMin(a, _)
            | PlanOp::Transpose(a)
            | PlanOp::SumAll(a)
            | PlanOp::MeanAll(a)
            | PlanOp::SqFrobenius(a)
            | PlanOp::Dropout(a, _)
            | PlanOp::SelectRows { x: a, .. } => vec![*a],
            PlanOp::GraphAttention { s_l, s_r, wh, .. } => vec![*s_l, *s_r, *wh],
            PlanOp::ConcatCols(parts) => parts.clone(),
        }
    }
}

/// One node of a [`Plan`].
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// The op and its structural constants.
    pub op: PlanOp,
    /// The shape the tape recorded — or, for symbolically built plans,
    /// the shape the author *claims*. `None` for symbolic non-leaf
    /// nodes whose shape is left to inference.
    pub shape: Option<(usize, usize)>,
    /// Whether every element of the recorded value was finite. Always
    /// `true` for symbolic plans (there is no data to inspect).
    pub finite: bool,
}

/// A data-free snapshot of a computation tape.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Nodes in tape order; an op's inputs always precede it.
    pub nodes: Vec<PlanNode>,
}

impl Plan {
    /// Empty plan (for symbolic construction).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Append a leaf with a declared shape; returns its node id.
    pub fn leaf(&mut self, rows: usize, cols: usize) -> usize {
        self.push(PlanOp::Leaf, Some((rows, cols)))
    }

    /// Append an op; returns its node id. Inputs must refer to earlier
    /// nodes (tape order), which is asserted here so analysis passes
    /// can rely on it.
    pub fn push(&mut self, op: PlanOp, shape: Option<(usize, usize)>) -> usize {
        let id = self.nodes.len();
        for input in op.inputs() {
            assert!(input < id, "plan op inputs must precede the op (input {input} >= {id})");
        }
        self.nodes.push(PlanNode { op, shape, finite: true });
        id
    }

    /// The op chain that produced `node`: the node itself followed by
    /// its ancestors in reverse-discovery order, capped at `limit`
    /// entries. This is what diagnostics print so a shape violation
    /// deep in a 5k-node training tape is traceable to its leaves.
    pub fn provenance(&self, node: usize, limit: usize) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut stack = vec![node];
        let mut seen = vec![false; self.nodes.len()];
        while let Some(id) = stack.pop() {
            if id >= self.nodes.len() || seen[id] {
                continue;
            }
            seen[id] = true;
            chain.push(id);
            if chain.len() >= limit {
                break;
            }
            let mut inputs = self.nodes[id].op.inputs();
            inputs.reverse();
            stack.extend(inputs);
        }
        chain
    }
}

impl Graph {
    /// Export the recorded tape as a data-free [`Plan`]. Shapes are
    /// the actual recorded shapes; `finite` reflects whether each
    /// node's value contained only finite elements at record time
    /// (the release-mode counterpart of the tape's debug-only
    /// `all_finite` assert, and the input to the analyzer's NaN
    /// provenance pass).
    pub fn plan(&self) -> Plan {
        Plan { nodes: (0..self.len()).map(|i| self.plan_node(i)).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn graph_plan_mirrors_tape_structure() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
        let w = g.input(Matrix::from_rows(&[&[0.5], &[-1.0]]));
        let y = g.matmul(x, w);
        let loss = g.sq_frobenius(y);
        let plan = g.plan();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.nodes[x.index()].op, PlanOp::Leaf);
        assert_eq!(plan.nodes[y.index()].op, PlanOp::MatMul(x.index(), w.index()));
        assert_eq!(plan.nodes[y.index()].shape, Some((1, 1)));
        assert_eq!(plan.nodes[loss.index()].op, PlanOp::SqFrobenius(y.index()));
        assert!(plan.nodes.iter().all(|n| n.finite));
    }

    #[test]
    fn plan_records_graph_structure() {
        let rows: [&[u32]; 3] = [&[0, 2], &[], &[2]];
        let edges = std::sync::Arc::new(ams_runtime::EdgeList::from_rows(rows).unwrap());
        let mut g = Graph::new();
        let sl = g.input(Matrix::zeros(3, 1));
        let sr = g.input(Matrix::zeros(3, 1));
        let wh = g.input(Matrix::zeros(3, 2));
        let out = g.graph_attention(sl, sr, wh, &edges, 0.2);
        let plan = g.plan();
        let want = PlanOp::GraphAttention {
            s_l: sl.index(),
            s_r: sr.index(),
            wh: wh.index(),
            slope: 0.2,
            nodes: 3,
            edges: 3,
            isolated: 1,
        };
        assert_eq!(plan.nodes[out.index()].op, want);
        assert_eq!(plan.nodes[out.index()].op.inputs(), vec![sl.index(), sr.index(), wh.index()]);
        assert_eq!(plan.nodes[out.index()].shape, Some((3, 2)));
    }

    #[test]
    fn provenance_walks_ancestors_first() {
        let mut g = Graph::new();
        let a = g.input(Matrix::scalar(1.0));
        let b = g.input(Matrix::scalar(2.0));
        let s = g.add(a, b);
        let t = g.tanh(s);
        let plan = g.plan();
        let chain = plan.provenance(t.index(), 10);
        assert_eq!(chain, vec![t.index(), s.index(), a.index(), b.index()]);
        assert_eq!(plan.provenance(t.index(), 2).len(), 2);
    }

    #[test]
    #[should_panic(expected = "inputs must precede")]
    fn symbolic_plan_rejects_forward_references() {
        let mut p = Plan::new();
        p.push(PlanOp::Relu(3), None);
    }
}
