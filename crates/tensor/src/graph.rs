//! Tape-based reverse-mode automatic differentiation.
//!
//! This is the substrate that replaces the paper's PaddlePaddle: a
//! dynamically built computation graph over [`Matrix`] values with
//! explicit vector–Jacobian products for every operation. The graph is
//! rebuilt on every forward pass (define-by-run), which keeps recurrent
//! models (LSTM/GRU over k=4 quarters) and the per-fold AMS training
//! loop straightforward.
//!
//! Typical usage:
//! ```
//! use ams_tensor::{Graph, Matrix};
//! let mut g = Graph::new();
//! let x = g.input(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let w = g.input(Matrix::from_rows(&[&[0.5], &[-1.0]]));
//! let y = g.matmul(x, w);
//! let loss = g.sq_frobenius(y);
//! let grads = g.backward(loss, &[w]);
//! assert_eq!(grads[0].rows(), 2);
//! ```

use std::sync::Arc;

use ams_runtime::{kernels, Backend, EdgeList, Workspace};

use crate::matrix::Matrix;
use crate::plan::{PlanNode, PlanOp};

/// Handle to a node in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Raw node index (stable for the life of the graph).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Operations recorded on the tape. Each variant stores the input
/// handles plus whatever constant data its VJP needs.
#[derive(Debug)]
enum Op {
    /// Leaf: an input or parameter.
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    /// Element-wise (Hadamard) product.
    Mul(Var, Var),
    /// Element-wise division `a / b`.
    Div(Var, Var),
    MatMul(Var, Var),
    /// `a * x + b` applied element-wise; only the multiplier matters
    /// for the VJP, so it alone is stored.
    Affine(Var, f64),
    Relu(Var),
    LeakyRelu(Var, f64),
    Sigmoid(Var),
    Tanh(Var),
    /// Natural logarithm, element-wise.
    Log(Var),
    /// `max(x, lo)` element-wise — the numerical guard the analyzer
    /// expects in front of `log`/`div` (see `ams-analyze`).
    ClampMin(Var, f64),
    Transpose(Var),
    /// `(n×d) + (1×d)` bias-style broadcast over rows.
    AddRowBroadcast(Var, Var),
    /// One GAT head's attention over a graph's edges: `LeakyReLU(s_l[i]
    /// + s_r[j])` logits, a softmax over each row's edges and the
    /// `Σ_j α_ij·wh[j]` aggregation. `alpha` holds the forward's
    /// per-edge weights for the VJP; its buffer came from the graph's
    /// [`Workspace`] and goes back on [`Graph::reset`].
    GraphAttention {
        s_l: Var,
        s_r: Var,
        wh: Var,
        edges: Arc<EdgeList>,
        slope: f64,
        alpha: Vec<f64>,
    },
    /// Horizontal concatenation of equal-row-count inputs.
    ConcatCols(Vec<Var>),
    SumAll(Var),
    MeanAll(Var),
    /// Mean squared error between two same-shape matrices → 1×1.
    Mse(Var, Var),
    /// `out[i] = dot(a.row(i), b.row(i))` → n×1. This evaluates every
    /// slave-LR at once: `ÛR_i = X_iᵀ β_v(X_i)` (Eq. 6).
    RowwiseDot(Var, Var),
    /// Select rows by index (repetition allowed); gradient scatter-adds.
    SelectRows(Var, Vec<usize>),
    /// Element-wise multiply by a fixed (inverted-dropout) mask.
    Dropout(Var, Matrix),
    /// Squared Frobenius norm → 1×1 (the `‖·‖²` regularizers of Eq. 11).
    SqFrobenius(Var),
}

impl Op {
    /// Whether `f` holds for any input of the op.
    fn any_input(&self, mut f: impl FnMut(Var) -> bool) -> bool {
        match self {
            Op::Leaf => false,
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::Div(a, b)
            | Op::MatMul(a, b)
            | Op::AddRowBroadcast(a, b)
            | Op::Mse(a, b)
            | Op::RowwiseDot(a, b) => f(*a) || f(*b),
            Op::Affine(a, _)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Log(a)
            | Op::ClampMin(a, _)
            | Op::Transpose(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SelectRows(a, _)
            | Op::Dropout(a, _)
            | Op::SqFrobenius(a) => f(*a),
            Op::GraphAttention { s_l, s_r, wh, .. } => f(*s_l) || f(*s_r) || f(*wh),
            Op::ConcatCols(parts) => parts.iter().any(|&p| f(p)),
        }
    }
}

struct Node {
    op: Op,
    value: Matrix,
    /// The value buffer came from the graph's [`Workspace`]; only such
    /// buffers go back to it on [`Graph::reset`].
    pooled: bool,
}

/// A define-by-run computation tape.
///
/// Heavy forward ops (matmul, bias add, graph attention, row-wise dot)
/// take their buffers from an internal [`Workspace`]; the matmuls, in
/// both passes, execute on the graph's [`Backend`]. The arena is balanced:
/// [`Graph::reset`] returns exactly the buffers the workspace issued,
/// so across a reset/re-run loop (the training epoch loop) its free
/// list keeps a fixed length and those ops stop allocating once warm.
/// The other ops allocate their values and free them on reset.
pub struct Graph {
    nodes: Vec<Node>,
    finite_checks: bool,
    backend: Arc<dyn Backend>,
    ws: Workspace,
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// Empty graph on the sequential reference backend.
    pub fn new() -> Self {
        Self::with_backend(ams_runtime::seq())
    }

    /// Empty graph executing on `backend`. Every backend produces
    /// bit-identical values (see `ams-runtime`), so this is purely an
    /// execution-policy choice.
    pub fn with_backend(backend: Arc<dyn Backend>) -> Self {
        Self { nodes: Vec::new(), finite_checks: false, backend, ws: Workspace::new() }
    }

    /// The graph's execution backend.
    pub fn backend(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend)
    }

    /// Clear the tape, giving the buffers the internal workspace issued
    /// back to it; every other node value is dropped. A define-by-run
    /// training loop calls this between iterations instead of building
    /// a fresh `Graph`, so later passes reuse those buffers. Returning
    /// only what was issued keeps the free list, and so the cost of
    /// each best-fit [`Workspace::take`], from growing with every
    /// iteration.
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            if node.pooled {
                self.ws.give(node.value.into_vec());
            }
            if let Op::GraphAttention { alpha, .. } = node.op {
                self.ws.give(alpha);
            }
        }
    }

    /// `(allocs, reuses)` of the internal workspace — lets tests pin
    /// the steady-state-no-allocation property of reset/re-run loops.
    pub fn workspace_counters(&self) -> (usize, usize) {
        self.ws.counters()
    }

    /// Buffers on the internal workspace's free list. Constant across
    /// warm reset/re-run cycles exactly when the arena is balanced.
    pub fn workspace_pooled(&self) -> usize {
        self.ws.pooled()
    }

    /// Opt into checking every recorded value for NaN/∞ at record time,
    /// in release builds too. Debug builds always check (the historical
    /// `debug_assert`); enabling this lets a release training run get
    /// NaN provenance — the panic names the op that first produced a
    /// non-finite value — without rebuilding in debug.
    pub fn set_finite_checks(&mut self, enabled: bool) {
        self.finite_checks = enabled;
    }

    /// Whether opt-in finite checks are enabled.
    pub fn finite_checks(&self) -> bool {
        self.finite_checks
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Current value of a node.
    pub fn value(&self, var: Var) -> &Matrix {
        &self.nodes[var.0].value
    }

    fn push(&mut self, op: Op, value: Matrix) -> Var {
        if self.finite_checks {
            assert!(value.all_finite(), "non-finite value produced by {op:?}");
        } else {
            debug_assert!(value.all_finite(), "non-finite value produced by {op:?}");
        }
        self.nodes.push(Node { op, value, pooled: false });
        Var(self.nodes.len() - 1)
    }

    /// [`Graph::push`] for a value whose buffer came from `self.ws`.
    fn push_pooled(&mut self, op: Op, value: Matrix) -> Var {
        let var = self.push(op, value);
        self.nodes[var.0].pooled = true;
        var
    }

    /// Record a leaf holding `value` (an input or a parameter snapshot).
    pub fn input(&mut self, value: Matrix) -> Var {
        self.push(Op::Leaf, value)
    }

    /// `a + b` (same shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).add(self.value(b));
        self.push(Op::Add(a, b), v)
    }

    /// `a - b` (same shapes).
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).sub(self.value(b));
        self.push(Op::Sub(a, b), v)
    }

    /// Element-wise product (same shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).hadamard(self.value(b));
        self.push(Op::Mul(a, b), v)
    }

    /// Element-wise division `a / b` (same shapes). The analyzer's
    /// numerical-risk pass expects the denominator to pass through
    /// [`Graph::clamp_min`] (or a bounded-positive activation) first.
    pub fn div(&mut self, a: Var, b: Var) -> Var {
        let v = self.value(a).zip_with(self.value(b), |x, y| x / y);
        self.push(Op::Div(a, b), v)
    }

    /// Natural logarithm, element-wise. Inputs must be positive; guard
    /// with [`Graph::clamp_min`] when they are not positive by
    /// construction.
    pub fn log(&mut self, x: Var) -> Var {
        let v = self.value(x).map(f64::ln);
        self.push(Op::Log(x), v)
    }

    /// `max(x, lo)` element-wise — the clamp that makes `log`/`div`
    /// numerically safe.
    pub fn clamp_min(&mut self, x: Var, lo: f64) -> Var {
        let v = self.value(x).map(|e| e.max(lo));
        self.push(Op::ClampMin(x, lo), v)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.nodes[a.0].value.shape();
        let (k2, n) = self.nodes[b.0].value.shape();
        assert_eq!(k, k2, "matmul: {m}x{k} * {k2}x{n} dimension mismatch");
        let mut data = self.ws.take(m * n);
        self.backend.matmul(
            self.nodes[a.0].value.as_slice(),
            self.nodes[b.0].value.as_slice(),
            &mut data,
            m,
            k,
            n,
        );
        let v = Matrix::from_vec(m, n, data);
        self.push_pooled(Op::MatMul(a, b), v)
    }

    /// `alpha * x + beta` element-wise.
    pub fn affine(&mut self, x: Var, alpha: f64, beta: f64) -> Var {
        let v = self.value(x).map(|e| alpha * e + beta);
        self.push(Op::Affine(x, alpha), v)
    }

    /// `x * alpha`.
    pub fn scale(&mut self, x: Var, alpha: f64) -> Var {
        self.affine(x, alpha, 0.0)
    }

    /// Rectified linear unit (the paper's φ for node transform and GAT).
    pub fn relu(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|e| e.max(0.0));
        self.push(Op::Relu(x), v)
    }

    /// Leaky ReLU with slope `alpha` on the negative side (used inside
    /// the GAT attention mechanism, following Veličković et al.).
    pub fn leaky_relu(&mut self, x: Var, alpha: f64) -> Var {
        let v = self.value(x).map(|e| if e > 0.0 { e } else { alpha * e });
        self.push(Op::LeakyRelu(x, alpha), v)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        let v = self.value(x).map(|e| 1.0 / (1.0 + (-e).exp()));
        self.push(Op::Sigmoid(x), v)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let v = self.value(x).map(f64::tanh);
        self.push(Op::Tanh(x), v)
    }

    /// Transpose.
    pub fn transpose(&mut self, x: Var) -> Var {
        let v = self.value(x).t();
        self.push(Op::Transpose(x), v)
    }

    /// `(n×d) + (1×d)` broadcast, the standard bias add.
    pub fn add_row_broadcast(&mut self, x: Var, bias: Var) -> Var {
        let (rows, cols) = self.nodes[x.0].value.shape();
        let bshape = self.nodes[bias.0].value.shape();
        assert_eq!(bshape.0, 1, "add_row_broadcast: bias must be a row vector");
        assert_eq!(bshape.1, cols, "add_row_broadcast: width mismatch");
        let mut data = self.ws.take(rows * cols);
        data.copy_from_slice(self.nodes[x.0].value.as_slice());
        kernels::add_bias_rows(&mut data, self.nodes[bias.0].value.as_slice(), rows, cols);
        let out = Matrix::from_vec(rows, cols, data);
        self.push_pooled(Op::AddRowBroadcast(x, bias), out)
    }

    /// One GAT head's attention over `edges` (Eqs. 2–3): `s_l`, `s_r`
    /// are the `n×1` score columns `Wh·a_l`, `Wh·a_r` and `wh` the `n×f`
    /// transformed features; returns the `n×f` aggregation
    /// `Σ_j α_ij·wh[j]`, `α` the softmax of `LeakyReLU(s_l[i] + s_r[j])`
    /// over row `i`'s edges. A node with no edges attends to nothing
    /// and outputs zeros. One node on the tape, bit-identical to the
    /// dense outer-sum → LeakyReLU → masked-softmax → `α·Wh` chain (see
    /// [`kernels::graph_attention`]).
    pub fn graph_attention(
        &mut self,
        s_l: Var,
        s_r: Var,
        wh: Var,
        edges: &Arc<EdgeList>,
        slope: f64,
    ) -> Var {
        let (n, f) = (edges.nodes(), self.nodes[wh.0].value.cols());
        assert_eq!(self.value(wh).rows(), n, "graph_attention: wh rows != graph nodes");
        assert_eq!(self.value(s_l).shape(), (n, 1), "graph_attention: s_l must be n×1");
        assert_eq!(self.value(s_r).shape(), (n, 1), "graph_attention: s_r must be n×1");
        let mut alpha = self.ws.take(edges.len());
        let mut data = self.ws.take(n * f);
        kernels::graph_attention(self.attention(s_l, s_r, wh, edges, slope), &mut alpha, &mut data);
        let out = Matrix::from_vec(n, f, data);
        let edges = Arc::clone(edges);
        self.push_pooled(Op::GraphAttention { s_l, s_r, wh, edges, slope, alpha }, out)
    }

    /// The kernel inputs of a graph-attention node.
    fn attention<'a>(
        &'a self,
        s_l: Var,
        s_r: Var,
        wh: Var,
        edges: &'a EdgeList,
        slope: f64,
    ) -> kernels::Attention<'a, f64> {
        let wh = &self.nodes[wh.0].value;
        kernels::Attention {
            edges,
            s_l: self.nodes[s_l.0].value.as_slice(),
            s_r: self.nodes[s_r.0].value.as_slice(),
            wh: wh.as_slice(),
            f: wh.cols(),
            slope,
        }
    }

    /// Horizontal concatenation (multi-head attention outputs, Eq. 3).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: empty input list");
        let mut v = self.value(parts[0]).clone();
        for p in &parts[1..] {
            v = v.hcat(self.value(*p));
        }
        self.push(Op::ConcatCols(parts.to_vec()), v)
    }

    /// Sum of all elements → 1×1.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let v = Matrix::scalar(self.value(x).sum());
        self.push(Op::SumAll(x), v)
    }

    /// Mean of all elements → 1×1.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let v = Matrix::scalar(self.value(x).sum() / self.value(x).len() as f64);
        self.push(Op::MeanAll(x), v)
    }

    /// Mean squared error between same-shape matrices → 1×1.
    pub fn mse(&mut self, pred: Var, target: Var) -> Var {
        let p = self.value(pred);
        let t = self.value(target);
        assert_eq!(p.shape(), t.shape(), "mse: shape mismatch");
        let v = p.sub(t).sq_frobenius() / p.len() as f64;
        self.push(Op::Mse(pred, target), Matrix::scalar(v))
    }

    /// Row-wise dot product of two `n×d` matrices → `n×1`.
    pub fn rowwise_dot(&mut self, a: Var, b: Var) -> Var {
        let (rows, cols) = self.nodes[a.0].value.shape();
        assert_eq!((rows, cols), self.nodes[b.0].value.shape(), "rowwise_dot: shape mismatch");
        let mut data = self.ws.take(rows);
        self.backend.rowwise_dot(
            self.nodes[a.0].value.as_slice(),
            self.nodes[b.0].value.as_slice(),
            &mut data,
            rows,
            cols,
        );
        let out = Matrix::from_vec(rows, 1, data);
        self.push_pooled(Op::RowwiseDot(a, b), out)
    }

    /// Select rows by index (repetition allowed).
    pub fn select_rows(&mut self, x: Var, ids: &[usize]) -> Var {
        let v = self.value(x).select_rows(ids);
        self.push(Op::SelectRows(x, ids.to_vec()), v)
    }

    /// Multiply by a fixed mask. Callers pass an inverted-dropout mask
    /// (entries `0` or `1/keep_prob`), built by
    /// [`crate::init::dropout_mask`].
    pub fn dropout(&mut self, x: Var, mask: Matrix) -> Var {
        let v = self.value(x).hadamard(&mask);
        self.push(Op::Dropout(x, mask), v)
    }

    /// Squared Frobenius norm → 1×1.
    pub fn sq_frobenius(&mut self, x: Var) -> Var {
        let v = Matrix::scalar(self.value(x).sq_frobenius());
        self.push(Op::SqFrobenius(x), v)
    }

    /// Reverse-mode sweep from `output`, seeded with an all-ones
    /// cotangent (so for the usual 1×1 loss the result is the plain
    /// gradient). Returns the gradients of the `wrt` leaves in `wrt`
    /// order; a leaf `output` does not depend on gets zeros.
    ///
    /// Only the work those gradients need is done. A forward sweep marks
    /// the nodes that depend on a `wrt` leaf; the reverse sweep runs a
    /// VJP only at marked nodes and accumulates only into marked inputs,
    /// so data leaves (features, labels, masks, selections) get no
    /// gradient, and each node's gradient is dropped once its VJP has
    /// run. Skipped work reaches no `wrt` leaf, so every requested
    /// gradient is bit for bit what a sweep into every node would give.
    ///
    /// # Panics
    /// Panics if a `wrt` node is not a leaf or is listed twice.
    pub fn backward(&mut self, output: Var, wrt: &[Var]) -> Vec<Matrix> {
        let len = output.0 + 1;
        // need[i]: node i depends on a `wrt` leaf.
        let mut need = vec![false; self.nodes.len()];
        for &v in wrt {
            assert!(
                matches!(self.nodes[v.0].op, Op::Leaf),
                "backward: wrt node {} is not a leaf",
                v.0
            );
            assert!(!need[v.0], "backward: wrt node {} is listed twice", v.0);
            need[v.0] = true;
        }
        for idx in 0..len {
            if !need[idx] {
                need[idx] = self.nodes[idx].op.any_input(|v| need[v.0]);
            }
        }
        let mut grads: Vec<Option<Matrix>> = vec![None; len];
        if need[output.0] {
            let (r, c) = self.value(output).shape();
            grads[output.0] = Some(Matrix::ones(r, c));
        }

        for idx in (0..len).rev() {
            // Leaves keep their gradient for the caller.
            if !need[idx] || matches!(self.nodes[idx].op, Op::Leaf) {
                continue;
            }
            let Some(g) = grads[idx].take() else { continue };
            // The op is moved out for the duration of its VJP (the match
            // arms borrow the graph) and put back afterwards. A unary
            // node is marked only through its input, so only binary and
            // n-ary arms test `need`.
            let op = std::mem::replace(&mut self.nodes[idx].op, Op::Leaf);
            match &op {
                &Op::Leaf => {}
                &Op::Add(a, b) => {
                    if need[a.0] {
                        self.accumulate(&mut grads, a, g.clone());
                    }
                    if need[b.0] {
                        self.accumulate(&mut grads, b, g);
                    }
                }
                &Op::Sub(a, b) => {
                    let gb = need[b.0].then(|| g.scale(-1.0));
                    if need[a.0] {
                        self.accumulate(&mut grads, a, g);
                    }
                    if let Some(gb) = gb {
                        self.accumulate(&mut grads, b, gb);
                    }
                }
                &Op::Mul(a, b) => {
                    if need[a.0] {
                        self.accumulate(&mut grads, a, g.hadamard(self.value(b)));
                    }
                    if need[b.0] {
                        self.accumulate(&mut grads, b, g.hadamard(self.value(a)));
                    }
                }
                &Op::Div(a, b) => {
                    if need[a.0] {
                        self.accumulate(&mut grads, a, g.zip_with(self.value(b), |gi, bi| gi / bi));
                    }
                    if need[b.0] {
                        // d/db (a/b) = -a/b² = -y/b.
                        let y = &self.nodes[idx].value;
                        let gb = g
                            .zip_with(y, |gi, yi| gi * yi)
                            .zip_with(self.value(b), |gy, bi| -gy / bi);
                        self.accumulate(&mut grads, b, gb);
                    }
                }
                &Op::Log(a) => {
                    self.accumulate(&mut grads, a, g.zip_with(self.value(a), |gi, xi| gi / xi));
                }
                &Op::ClampMin(a, lo) => {
                    let gx = g.zip_with(self.value(a), |gi, xi| if xi > lo { gi } else { 0.0 });
                    self.accumulate(&mut grads, a, gx);
                }
                &Op::MatMul(a, b) => {
                    // ga = g·Bᵀ runs the blocked (vectorising) matmul on
                    // Bᵀ copied into an arena buffer; gb = Aᵀ·g reads A's
                    // columns directly. Both keep the historical
                    // accumulation order and zero-skip bit-for-bit.
                    let (m, n) = g.shape();
                    let k = self.nodes[a.0].value.cols();
                    if need[a.0] {
                        let mut bt = self.ws.take(n * k);
                        kernels::transpose(self.nodes[b.0].value.as_slice(), &mut bt, k, n);
                        let mut ga = Matrix::zeros(m, k);
                        self.backend.matmul(g.as_slice(), &bt, ga.as_mut_slice(), m, n, k);
                        self.ws.give(bt);
                        self.accumulate(&mut grads, a, ga);
                    }
                    if need[b.0] {
                        let mut gb = Matrix::zeros(k, n);
                        self.backend.matmul_transa(
                            self.nodes[a.0].value.as_slice(),
                            g.as_slice(),
                            gb.as_mut_slice(),
                            m,
                            k,
                            n,
                        );
                        self.accumulate(&mut grads, b, gb);
                    }
                }
                &Op::Affine(a, alpha) => {
                    self.accumulate(&mut grads, a, g.scale(alpha));
                }
                &Op::Relu(a) => {
                    let gx = g.zip_with(self.value(a), |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                    self.accumulate(&mut grads, a, gx);
                }
                &Op::LeakyRelu(a, alpha) => {
                    let gx =
                        g.zip_with(self.value(a), |gi, xi| if xi > 0.0 { gi } else { alpha * gi });
                    self.accumulate(&mut grads, a, gx);
                }
                &Op::Sigmoid(a) => {
                    let y = &self.nodes[idx].value;
                    let gx = g.zip_with(y, |gi, yi| gi * yi * (1.0 - yi));
                    self.accumulate(&mut grads, a, gx);
                }
                &Op::Tanh(a) => {
                    let y = &self.nodes[idx].value;
                    let gx = g.zip_with(y, |gi, yi| gi * (1.0 - yi * yi));
                    self.accumulate(&mut grads, a, gx);
                }
                &Op::Transpose(a) => {
                    self.accumulate(&mut grads, a, g.t());
                }
                &Op::AddRowBroadcast(x, bias) => {
                    // d/dbias: column sums of g into a 1×d row.
                    let gb = need[bias.0].then(|| {
                        let mut gb = Matrix::zeros(1, g.cols());
                        for r in 0..g.rows() {
                            for c in 0..g.cols() {
                                gb[(0, c)] += g[(r, c)];
                            }
                        }
                        gb
                    });
                    if need[x.0] {
                        self.accumulate(&mut grads, x, g);
                    }
                    if let Some(gb) = gb {
                        self.accumulate(&mut grads, bias, gb);
                    }
                }
                Op::GraphAttention { s_l, s_r, wh, edges, slope, alpha } => {
                    let (n, f) = g.shape();
                    let mut gl = Matrix::zeros(n, 1);
                    let mut gr = Matrix::zeros(n, 1);
                    let mut gw = Matrix::zeros(n, f);
                    kernels::graph_attention_backward(
                        self.attention(*s_l, *s_r, *wh, edges, *slope),
                        alpha,
                        g.as_slice(),
                        gl.as_mut_slice(),
                        gr.as_mut_slice(),
                        gw.as_mut_slice(),
                    );
                    // ∂wh first: the dense chain's `α·Wh` product was
                    // recorded after the outer sum, so its VJP ran first.
                    for (v, gv) in [(*wh, gw), (*s_l, gl), (*s_r, gr)] {
                        if need[v.0] {
                            self.accumulate(&mut grads, v, gv);
                        }
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut offset = 0;
                    for &p in parts {
                        let w = self.value(p).cols();
                        if need[p.0] {
                            let mut gp = Matrix::zeros(g.rows(), w);
                            for r in 0..g.rows() {
                                gp.row_mut(r).copy_from_slice(&g.row(r)[offset..offset + w]);
                            }
                            self.accumulate(&mut grads, p, gp);
                        }
                        offset += w;
                    }
                }
                &Op::SumAll(a) => {
                    let shape = self.value(a).shape();
                    self.accumulate(&mut grads, a, Matrix::full(shape.0, shape.1, g.item()));
                }
                &Op::MeanAll(a) => {
                    let shape = self.value(a).shape();
                    let n = (shape.0 * shape.1) as f64;
                    self.accumulate(&mut grads, a, Matrix::full(shape.0, shape.1, g.item() / n));
                }
                &Op::Mse(pred, target) => {
                    let p = self.value(pred);
                    let t = self.value(target);
                    let n = p.len() as f64;
                    let gp = p.sub(t).scale(2.0 * g.item() / n);
                    let gt = need[target.0].then(|| gp.scale(-1.0));
                    if need[pred.0] {
                        self.accumulate(&mut grads, pred, gp);
                    }
                    if let Some(gt) = gt {
                        self.accumulate(&mut grads, target, gt);
                    }
                }
                &Op::RowwiseDot(a, b) => {
                    // ∂a[r] = g[r]·b[r] and ∂b[r] = g[r]·a[r].
                    let scale_rows = |m: &Matrix| {
                        let mut out = m.clone();
                        for r in 0..out.rows() {
                            let gr = g[(r, 0)];
                            out.row_mut(r).iter_mut().for_each(|v| *v *= gr);
                        }
                        out
                    };
                    if need[a.0] {
                        self.accumulate(&mut grads, a, scale_rows(self.value(b)));
                    }
                    if need[b.0] {
                        self.accumulate(&mut grads, b, scale_rows(self.value(a)));
                    }
                }
                Op::SelectRows(x, ids) => {
                    let shape = self.value(*x).shape();
                    let mut gx = Matrix::zeros(shape.0, shape.1);
                    for (r, &id) in ids.iter().enumerate() {
                        for c in 0..shape.1 {
                            gx[(id, c)] += g[(r, c)];
                        }
                    }
                    self.accumulate(&mut grads, *x, gx);
                }
                Op::Dropout(x, mask) => {
                    self.accumulate(&mut grads, *x, g.hadamard(mask));
                }
                &Op::SqFrobenius(x) => {
                    let gx = self.value(x).scale(2.0 * g.item());
                    self.accumulate(&mut grads, x, gx);
                }
            }
            self.nodes[idx].op = op;
        }

        wrt.iter()
            .map(|v| {
                grads.get_mut(v.0).and_then(Option::take).unwrap_or_else(|| {
                    let (r, c) = self.value(*v).shape();
                    Matrix::zeros(r, c)
                })
            })
            .collect()
    }

    /// Data-free description of node `idx` for [`Graph::plan`]
    /// (defined here because [`Op`] is private to this module).
    pub(crate) fn plan_node(&self, idx: usize) -> PlanNode {
        let node = &self.nodes[idx];
        let op = match &node.op {
            Op::Leaf => PlanOp::Leaf,
            Op::Add(a, b) => PlanOp::Add(a.0, b.0),
            Op::Sub(a, b) => PlanOp::Sub(a.0, b.0),
            Op::Mul(a, b) => PlanOp::Mul(a.0, b.0),
            Op::Div(a, b) => PlanOp::Div(a.0, b.0),
            Op::MatMul(a, b) => PlanOp::MatMul(a.0, b.0),
            Op::Affine(a, alpha) => PlanOp::Affine(a.0, *alpha),
            Op::Relu(a) => PlanOp::Relu(a.0),
            Op::LeakyRelu(a, alpha) => PlanOp::LeakyRelu(a.0, *alpha),
            Op::Sigmoid(a) => PlanOp::Sigmoid(a.0),
            Op::Tanh(a) => PlanOp::Tanh(a.0),
            Op::Log(a) => PlanOp::Log(a.0),
            Op::ClampMin(a, lo) => PlanOp::ClampMin(a.0, *lo),
            Op::Transpose(a) => PlanOp::Transpose(a.0),
            Op::AddRowBroadcast(a, b) => PlanOp::AddRowBroadcast(a.0, b.0),
            Op::GraphAttention { s_l, s_r, wh, edges, slope, .. } => PlanOp::GraphAttention {
                s_l: s_l.0,
                s_r: s_r.0,
                wh: wh.0,
                slope: *slope,
                nodes: edges.nodes(),
                edges: edges.len(),
                isolated: edges.isolated(),
            },
            Op::ConcatCols(parts) => PlanOp::ConcatCols(parts.iter().map(|v| v.0).collect()),
            Op::SumAll(a) => PlanOp::SumAll(a.0),
            Op::MeanAll(a) => PlanOp::MeanAll(a.0),
            Op::Mse(a, b) => PlanOp::Mse(a.0, b.0),
            Op::RowwiseDot(a, b) => PlanOp::RowwiseDot(a.0, b.0),
            Op::SelectRows(a, ids) => {
                PlanOp::SelectRows { x: a.0, n_ids: ids.len(), max_id: ids.iter().copied().max() }
            }
            Op::Dropout(a, mask) => PlanOp::Dropout(a.0, mask.shape()),
            Op::SqFrobenius(a) => PlanOp::SqFrobenius(a.0),
        };
        PlanNode { op, shape: Some(node.value.shape()), finite: node.value.all_finite() }
    }

    fn accumulate(&self, grads: &mut [Option<Matrix>], var: Var, g: Matrix) {
        debug_assert_eq!(
            g.shape(),
            self.value(var).shape(),
            "gradient shape mismatch for node {}",
            var.0
        );
        match &mut grads[var.0] {
            Some(existing) => existing.add_scaled_assign(&g, 1.0),
            slot @ None => *slot = Some(g),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_grads_flow_to_both() {
        let mut g = Graph::new();
        let a = g.input(Matrix::scalar(2.0));
        let b = g.input(Matrix::scalar(3.0));
        let s = g.add(a, b);
        let grads = g.backward(s, &[a, b]);
        assert_eq!(grads[0].item(), 1.0);
        assert_eq!(grads[1].item(), 1.0);
    }

    #[test]
    fn matmul_grad_matches_closed_form() {
        // loss = sum(A B); dA = ones @ B^T, dB = A^T @ ones.
        let mut g = Graph::new();
        let a = g.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.input(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let c = g.matmul(a, b);
        let loss = g.sum_all(c);
        let grads = g.backward(loss, &[a, b]);
        let expected_da = Matrix::ones(2, 2).matmul(&g.value(b).t());
        let expected_db = g.value(a).t().matmul(&Matrix::ones(2, 2));
        assert!(grads[0].max_abs_diff(&expected_da) < 1e-12);
        assert!(grads[1].max_abs_diff(&expected_db) < 1e-12);
    }

    #[test]
    fn relu_gates_gradient() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[-1.0, 2.0]]));
        let y = g.relu(x);
        let loss = g.sum_all(y);
        let grads = g.backward(loss, &[x]);
        assert_eq!(grads[0].as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn sigmoid_grad_at_zero_is_quarter() {
        let mut g = Graph::new();
        let x = g.input(Matrix::scalar(0.0));
        let y = g.sigmoid(x);
        let grads = g.backward(y, &[x]);
        assert!((grads[0].item() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reuse_of_node_accumulates() {
        // loss = x * x (Hadamard with itself); d/dx = 2x.
        let mut g = Graph::new();
        let x = g.input(Matrix::scalar(3.0));
        let y = g.mul(x, x);
        let grads = g.backward(y, &[x]);
        assert!((grads[0].item() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn mse_gradient() {
        let mut g = Graph::new();
        let p = g.input(Matrix::from_rows(&[&[1.0], &[3.0]]));
        let t = g.input(Matrix::from_rows(&[&[0.0], &[0.0]]));
        let l = g.mse(p, t);
        assert!((g.value(l).item() - 5.0).abs() < 1e-12);
        let grads = g.backward(l, &[p, t]);
        // d/dp = 2(p - t)/n = [1, 3], and d/dt = −d/dp.
        assert!(grads[0].max_abs_diff(&Matrix::from_rows(&[&[1.0], &[3.0]])) < 1e-12);
        assert!(grads[1].max_abs_diff(&Matrix::from_rows(&[&[-1.0], &[-3.0]])) < 1e-12);
    }

    #[test]
    fn select_rows_scatter_adds() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]));
        let s = g.select_rows(x, &[1, 1, 2]);
        let loss = g.sum_all(s);
        let grads = g.backward(loss, &[x]);
        // Row 1 selected twice → gradient 2; row 0 unselected → 0.
        assert_eq!(grads[0].as_slice(), &[0.0, 2.0, 1.0]);
    }

    #[test]
    fn rowwise_dot_value_and_grad() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = g.input(Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let d = g.rowwise_dot(a, b);
        assert_eq!(g.value(d).as_slice(), &[17.0, 53.0]);
        let loss = g.sum_all(d);
        let grads = g.backward(loss, &[a, b]);
        assert!(grads[0].max_abs_diff(g.value(b)) < 1e-12);
        assert!(grads[1].max_abs_diff(g.value(a)) < 1e-12);
    }

    #[test]
    fn graph_attention_is_one_node_and_returns_its_buffers() {
        // Path 0–1–2 with self-loops; node 3 has no edges at all.
        let rows: [&[u32]; 4] = [&[0, 1], &[0, 1, 2], &[1, 2], &[]];
        let edges = Arc::new(EdgeList::from_rows(rows).unwrap());
        let mut g = Graph::new();
        for _ in 0..2 {
            g.reset();
            let sl = g.input(Matrix::col_vector(&[0.5, -1.0, 2.0, 0.1]));
            let sr = g.input(Matrix::col_vector(&[1.0, 0.25, -3.0, 0.2]));
            let wh = g.input(Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]));
            let out = g.graph_attention(sl, sr, wh, &edges, 0.2);
            assert_eq!(g.len(), 4, "one node for the whole attention head");
            let v = g.value(out);
            // Node 3 attends to nothing; node 2 mixes wh[1] and wh[2].
            assert_eq!(v[(3, 0)], 0.0);
            assert!(v[(2, 0)] > 2.0 && v[(2, 0)] < 3.0);
            let loss = g.sum_all(out);
            let grads = g.backward(loss, &[wh, sl]);
            // Rows of α sum to one: a uniform shift of wh moves the sum
            // of the three attending rows by exactly three.
            assert!((grads[0].sum() - 3.0).abs() < 1e-12);
            assert_eq!(grads[1][(3, 0)], 0.0);
        }
        // The α buffer goes back to the arena with the value buffer.
        assert_eq!(g.workspace_counters().0, 2);
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let b = g.input(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let c = g.concat_cols(&[a, b]);
        assert_eq!(g.value(c).shape(), (2, 3));
        let scaled = g.scale(c, 2.0);
        let loss = g.sum_all(scaled);
        let grads = g.backward(loss, &[a, b]);
        assert_eq!(grads[0].as_slice(), &[2.0, 2.0]);
        assert_eq!(grads[1].as_slice(), &[2.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn disconnected_var_gets_zero_grad() {
        let mut g = Graph::new();
        let x = g.input(Matrix::scalar(1.0));
        let y = g.input(Matrix::scalar(2.0));
        let loss = g.sq_frobenius(x);
        let grads = g.backward(loss, &[y, x]);
        assert_eq!(grads[0].item(), 0.0);
        assert_eq!(grads[1].item(), 2.0);
    }

    #[test]
    fn sq_frobenius_grad_is_2x() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, -2.0]]));
        let l = g.sq_frobenius(x);
        assert_eq!(g.value(l).item(), 5.0);
        let grads = g.backward(l, &[x]);
        assert_eq!(grads[0].as_slice(), &[2.0, -4.0]);
    }

    #[test]
    fn dropout_mask_scales_grad() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 1.0]]));
        let mask = Matrix::from_rows(&[&[0.0, 2.0]]);
        let y = g.dropout(x, mask);
        let loss = g.sum_all(y);
        let grads = g.backward(loss, &[x]);
        assert_eq!(grads[0].as_slice(), &[0.0, 2.0]);
    }

    #[test]
    fn transpose_grad() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0, 3.0]]));
        let xt = g.transpose(x);
        assert_eq!(g.value(xt).shape(), (3, 1));
        let w = g.input(Matrix::from_rows(&[&[1.0, 0.0, 0.0]]));
        let y = g.matmul(w, xt);
        let grads = g.backward(y, &[x]);
        assert_eq!(grads[0].as_slice(), &[1.0, 0.0, 0.0]);
    }

    #[test]
    fn div_value_and_grad() {
        let mut g = Graph::new();
        let a = g.input(Matrix::from_rows(&[&[6.0, 1.0]]));
        let b = g.input(Matrix::from_rows(&[&[2.0, 4.0]]));
        let q = g.div(a, b);
        assert_eq!(g.value(q).as_slice(), &[3.0, 0.25]);
        let loss = g.sum_all(q);
        let grads = g.backward(loss, &[a, b]);
        // d/da = 1/b; d/db = -a/b².
        assert!(grads[0].max_abs_diff(&Matrix::from_rows(&[&[0.5, 0.25]])) < 1e-12);
        assert!(grads[1].max_abs_diff(&Matrix::from_rows(&[&[-1.5, -0.0625]])) < 1e-12);
    }

    #[test]
    fn log_grad_is_reciprocal() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 4.0]]));
        let y = g.log(x);
        assert!((g.value(y)[(0, 1)] - 4.0f64.ln()).abs() < 1e-12);
        let loss = g.sum_all(y);
        let grads = g.backward(loss, &[x]);
        assert!(grads[0].max_abs_diff(&Matrix::from_rows(&[&[1.0, 0.25]])) < 1e-12);
    }

    #[test]
    fn clamp_min_gates_gradient_like_relu() {
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[0.5, 2.0]]));
        let y = g.clamp_min(x, 1.0);
        assert_eq!(g.value(y).as_slice(), &[1.0, 2.0]);
        let loss = g.sum_all(y);
        let grads = g.backward(loss, &[x]);
        assert_eq!(grads[0].as_slice(), &[0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "non-finite value")]
    fn finite_checks_catch_nan_at_the_producing_op() {
        // `log` of a negative number is NaN; with runtime finite checks
        // enabled the panic names the op, giving NaN provenance even in
        // release builds.
        let mut g = Graph::new();
        g.set_finite_checks(true);
        let x = g.input(Matrix::from_rows(&[&[-1.0]]));
        let _ = g.log(x);
    }

    #[test]
    fn deep_chain_backprop() {
        // y = tanh(relu(2x + 1)); check at x=1: inner = 3, relu passes,
        // dy/dx = (1 - tanh(3)^2) * 2.
        let mut g = Graph::new();
        let x = g.input(Matrix::scalar(1.0));
        let a = g.affine(x, 2.0, 1.0);
        let r = g.relu(a);
        let y = g.tanh(r);
        let grads = g.backward(y, &[x]);
        let expected = (1.0 - (3.0f64).tanh().powi(2)) * 2.0;
        assert!((grads[0].item() - expected).abs() < 1e-12);
    }

    #[test]
    fn backward_skips_what_no_wrt_leaf_needs() {
        // x is data: the product's `g·Wᵀ` into it is never needed, and a
        // data-only subgraph (x·s) is not swept at all.
        let mut g = Graph::new();
        let x = g.input(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let w = g.input(Matrix::from_rows(&[&[0.5], &[-1.0]]));
        let s = g.input(Matrix::eye(2));
        let xs = g.matmul(x, s);
        let y = g.matmul(xs, w);
        let loss = g.sum_all(y);
        let grads = g.backward(loss, &[w]);
        // ∂/∂w = (x·s)ᵀ·1 = column sums of x.
        assert_eq!(grads[0].as_slice(), &[4.0, 6.0]);
        // The same sweep asked for x and s too gives w the same bits.
        let all = g.backward(loss, &[x, w, s]);
        assert_eq!(all[1].as_slice(), grads[0].as_slice());
        // ∂/∂x = 1·wᵀ·sᵀ: every row is wᵀ.
        assert_eq!(all[0].as_slice(), &[0.5, -1.0, 0.5, -1.0]);
    }

    #[test]
    #[should_panic(expected = "is not a leaf")]
    fn backward_wrt_must_name_leaves() {
        let mut g = Graph::new();
        let x = g.input(Matrix::scalar(1.0));
        let y = g.tanh(x);
        let loss = g.sum_all(y);
        g.backward(loss, &[y]);
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn backward_wrt_must_not_repeat() {
        let mut g = Graph::new();
        let x = g.input(Matrix::scalar(1.0));
        let loss = g.sq_frobenius(x);
        g.backward(loss, &[x, x]);
    }
}
