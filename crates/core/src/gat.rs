//! Graph attention layers (Veličković et al., the paper's ref. [17]).
//!
//! Each head computes attention logits with the standard decomposition
//! `e_ij = LeakyReLU(a_lᵀ W x_i + a_rᵀ W x_j)` (equivalent to the
//! original `a^T [Wx_i ‖ Wx_j]` form), softmaxes them over each node's
//! neighbourhood in the company correlation graph, and aggregates
//! `x'_i = φ(Σ_j α_ij W x_j)` (Eq. 2). The last three steps are one op,
//! [`ForwardOps::graph_attention`], which walks the graph's CSR edge
//! list: O(E·F) work per head, where a dense `n×n` logit matrix would
//! cost O(n²·F) for a graph that is ~90% non-edges at k = 5. Hidden layers
//! concatenate `H` heads (Eq. 3); per the paper, "the final output
//! layer of GAT is a single attention head layer".

use crate::forward::{ForwardOps, GatSpec};
use ams_graph::CompanyGraph;
use ams_tensor::init::xavier_uniform;
use ams_tensor::runtime::EdgeList;
use ams_tensor::Matrix;
use rand::Rng;

/// The edge list attention walks, derived from a company graph's CSR
/// rows (which `CompanyGraph` keeps sorted and deduplicated).
pub fn edge_list(graph: &CompanyGraph) -> EdgeList {
    EdgeList::from_rows((0..graph.num_nodes()).map(|i| graph.neighbors(i)))
        .expect("CompanyGraph rows are sorted, deduplicated and in range")
}

/// One attention head's parameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GatHead {
    /// Shared transform `W^g` (stored input×output so features multiply
    /// on the left).
    pub w: Matrix,
    /// Left attention vector (out×1).
    pub a_left: Matrix,
    /// Right attention vector (out×1).
    pub a_right: Matrix,
}

impl GatHead {
    /// Xavier-initialized head.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self {
            w: xavier_uniform(in_dim, out_dim, rng),
            a_left: xavier_uniform(out_dim, 1, rng),
            a_right: xavier_uniform(out_dim, 1, rng),
        }
    }

    /// The head's parameters in canonical order.
    pub fn params(&self) -> Vec<&Matrix> {
        vec![&self.w, &self.a_left, &self.a_right]
    }

    /// Number of parameter matrices per head.
    pub const N_PARAMS: usize = 3;

    /// Forward for one head, whose `[w, a_left, a_right]` are
    /// parameters `first..first + 3`; returns the aggregated (pre-
    /// activation) node features.
    pub fn forward<O: ForwardOps>(
        ops: &mut O,
        x: &O::Value,
        first: usize,
        leaky_slope: O::Scalar,
    ) -> Result<O::Value, O::Error> {
        let wx = ops.matmul(x, &ops.param(first)?)?; // n×out
        let s_l = ops.matmul(&wx, &ops.param(first + 1)?)?; // n×1
        let s_r = ops.matmul(&wx, &ops.param(first + 2)?)?; // n×1
        let out = ops.graph_attention(s_l, s_r, &wx, leaky_slope)?; // Σ_j α_ij W x_j
        ops.free(wx);
        Ok(out)
    }
}

/// A multi-head graph attention layer.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct GatLayer {
    /// The attention heads.
    pub heads: Vec<GatHead>,
    /// Concatenate heads (hidden layers) or rely on a single head
    /// (output layer).
    pub concat: bool,
    /// Negative slope of the attention LeakyReLU.
    pub leaky_slope: f64,
}

impl GatLayer {
    /// Hidden layer: `n_heads` heads of width `out_dim` each,
    /// concatenated (total output `n_heads * out_dim`).
    pub fn hidden(in_dim: usize, out_dim: usize, n_heads: usize, rng: &mut impl Rng) -> Self {
        assert!(n_heads >= 1, "gat layer needs at least one head");
        Self {
            heads: (0..n_heads).map(|_| GatHead::new(in_dim, out_dim, rng)).collect(),
            concat: true,
            leaky_slope: 0.2,
        }
    }

    /// Output layer: a single head of width `out_dim`.
    pub fn output(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Self { heads: vec![GatHead::new(in_dim, out_dim, rng)], concat: false, leaky_slope: 0.2 }
    }

    /// Output width of the layer.
    pub fn out_dim(&self) -> usize {
        let per_head = self.heads[0].w.cols();
        if self.concat {
            per_head * self.heads.len()
        } else {
            per_head
        }
    }

    /// All parameter matrices in canonical order (head-major).
    pub fn params(&self) -> Vec<&Matrix> {
        self.heads.iter().flat_map(|h| h.params()).collect()
    }

    /// Forward pass with ReLU activation (Eqs. 2–3) for a layer of
    /// shape `spec` whose parameters start at `first`, in
    /// [`GatLayer::params`] order.
    pub fn forward<O: ForwardOps>(
        ops: &mut O,
        x: &O::Value,
        spec: &GatSpec<O::Scalar>,
        first: usize,
    ) -> Result<O::Value, O::Error> {
        let mut cat = O::Concat::default();
        for h in 0..spec.heads {
            let agg = GatHead::forward(ops, x, first + h * GatHead::N_PARAMS, spec.leaky_slope)?;
            let act = ops.relu(agg);
            ops.concat_push(&mut cat, act)?;
        }
        ops.concat_cols(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward::Tape;
    use ams_tensor::gradcheck::{check_gradients, check_gradients_with};
    use ams_tensor::init::xavier_uniform;
    use ams_tensor::{Graph, Var};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// `layer` recorded on the tape, its parameters `pv`.
    fn layer_on_tape(
        g: &mut Graph,
        layer: &GatLayer,
        x: Var,
        edges: &Arc<EdgeList>,
        pv: &[Var],
    ) -> Var {
        let spec = GatSpec { heads: layer.heads.len(), leaky_slope: layer.leaky_slope };
        let Ok(y) = GatLayer::forward(&mut Tape::new(g, edges, pv), &x, &spec, 0);
        y
    }

    /// One head recorded on the tape, its parameters `pv`.
    fn head_on_tape(g: &mut Graph, x: Var, edges: &Arc<EdgeList>, pv: &[Var]) -> Var {
        let Ok(y) = GatHead::forward(&mut Tape::new(g, edges, pv), &x, 0, 0.2);
        y
    }

    fn line_graph(n: usize) -> Arc<EdgeList> {
        // Path graph with self loops.
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let mut v = vec![i as u32];
                if i > 0 {
                    v.push(i as u32 - 1);
                }
                if i + 1 < n {
                    v.push(i as u32 + 1);
                }
                v
            })
            .collect();
        Arc::new(edge_list(&CompanyGraph::from_adjacency(adj)))
    }

    #[test]
    fn output_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = GatLayer::hidden(6, 4, 3, &mut rng);
        assert_eq!(layer.out_dim(), 12);
        assert_eq!(layer.params().len(), 9);
        let edges = line_graph(5);
        let mut g = Graph::new();
        let x = g.input(xavier_uniform(5, 6, &mut rng));
        let pv: Vec<Var> = layer.params().iter().map(|p| g.input((*p).clone())).collect();
        let y = layer_on_tape(&mut g, &layer, x, &edges, &pv);
        assert_eq!(g.value(y).shape(), (5, 12));
    }

    #[test]
    fn isolated_node_gets_zero_features() {
        // A node with no edges at all (not even a self-loop) must output
        // zeros: it has no neighbour to attend to.
        let mut rng = StdRng::seed_from_u64(2);
        let layer = GatLayer::output(3, 2, &mut rng);
        // The 0-1-2-3 path, except that node 3 attends to nothing.
        let rows: [&[u32]; 4] = [&[0, 1], &[0, 1, 2], &[1, 2, 3], &[]];
        let edges = Arc::new(EdgeList::from_rows(rows).unwrap());
        let mut g = Graph::new();
        let x = g.input(xavier_uniform(4, 3, &mut rng));
        let pv: Vec<Var> = layer.params().iter().map(|p| g.input((*p).clone())).collect();
        let y = layer_on_tape(&mut g, &layer, x, &edges, &pv);
        assert_eq!(g.value(y).row(3), &[0.0, 0.0]);
    }

    #[test]
    fn attention_respects_graph_structure() {
        // Changing a non-neighbour's features must not change a node's
        // output; changing a neighbour's features must. Uses the raw
        // head (no ReLU) so a zeroed activation can't mask the effect.
        let mut rng = StdRng::seed_from_u64(3);
        let head = GatHead::new(3, 2, &mut rng);
        let edges = line_graph(4); // 0-1-2-3 path
        let base = xavier_uniform(4, 3, &mut rng);

        let run = |xm: &Matrix| {
            let mut g = Graph::new();
            let x = g.input(xm.clone());
            let pv: Vec<Var> = head.params().iter().map(|p| g.input((*p).clone())).collect();
            let y = head_on_tape(&mut g, x, &edges, &pv);
            g.value(y).clone()
        };
        let y0 = run(&base);

        // Perturb node 3 (not adjacent to node 0).
        let mut far = base.clone();
        far.row_mut(3)[0] += 1.0;
        let y_far = run(&far);
        for c in 0..2 {
            assert_eq!(y0[(0, c)], y_far[(0, c)], "non-neighbour affected node 0");
        }

        // Perturb node 1 (adjacent to node 0).
        let mut near = base.clone();
        near.row_mut(1)[0] += 1.0;
        let y_near = run(&near);
        assert!(
            (0..2).any(|c| y0[(0, c)] != y_near[(0, c)]),
            "neighbour change did not affect node 0"
        );
    }

    #[test]
    fn gat_layer_gradcheck() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = GatLayer::hidden(4, 3, 2, &mut rng);
        let edges = line_graph(5);
        let x0 = xavier_uniform(5, 4, &mut rng);
        let mut params: Vec<Matrix> = vec![x0];
        params.extend(layer.params().into_iter().cloned());
        check_gradients(
            &move |g, vars| {
                let y = layer_on_tape(g, &layer, vars[0], &edges, &vars[1..]);
                g.sq_frobenius(y)
            },
            &params,
            1e-5,
        );
    }

    #[test]
    fn gat_layer_gradcheck_on_par_backend() {
        // Same finite-difference check, but with every tape op running
        // on the parallel backend: the analytic gradients must stay
        // correct (and, by the runtime's determinism guarantee,
        // bit-identical to the sequential ones).
        let mut rng = StdRng::seed_from_u64(4);
        let layer = GatLayer::hidden(4, 3, 2, &mut rng);
        let edges = line_graph(5);
        let x0 = xavier_uniform(5, 4, &mut rng);
        let mut params: Vec<Matrix> = vec![x0];
        params.extend(layer.params().into_iter().cloned());
        let backend: std::sync::Arc<dyn ams_tensor::Backend> =
            std::sync::Arc::new(ams_tensor::runtime::Par::new(4));
        check_gradients_with(
            &move |g, vars| {
                let y = layer_on_tape(g, &layer, vars[0], &edges, &vars[1..]);
                g.sq_frobenius(y)
            },
            &params,
            1e-5,
            &backend,
        );
    }

    #[test]
    fn attention_rows_sum_to_one_over_neighbours() {
        // Reconstruct the attention matrix indirectly: with W = I and
        // identical node features, attention must be uniform over the
        // neighbourhood, so the output equals the neighbourhood mean.
        let n = 4;
        let edges = line_graph(n);
        let head = GatHead {
            w: Matrix::eye(2),
            a_left: Matrix::zeros(2, 1),
            a_right: Matrix::zeros(2, 1),
        };
        let x0 = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 0.0], &[3.0, 0.0], &[4.0, 0.0]]);
        let mut g = Graph::new();
        let x = g.input(x0);
        let pv: Vec<Var> = head.params().iter().map(|p| g.input((*p).clone())).collect();
        let y = head_on_tape(&mut g, x, &edges, &pv);
        let yv = g.value(y);
        // Node 0 neighbours {0, 1}: mean of 1 and 2 = 1.5.
        assert!((yv[(0, 0)] - 1.5).abs() < 1e-12);
        // Node 1 neighbours {0, 1, 2}: mean 2.
        assert!((yv[(1, 0)] - 2.0).abs() < 1e-12);
    }
}
