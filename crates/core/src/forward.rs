//! The ops the AMS forward pass is written in, and their tape
//! implementation.
//!
//! [`AmsModel::forward`] (with [`GatLayer::forward`] and
//! [`GatHead::forward`](crate::GatHead::forward)) is written once,
//! generic over [`ForwardOps`]. [`Tape`] records each op on an autodiff
//! [`Graph`] (what `fit` and `predict` run); the serving engine's
//! workspace executor runs each op value-only on the runtime kernels.
//! Both perform the same ops in the same order on the same kernels, so
//! the f64 engine equals the tape bit for bit by construction.
//!
//! An op takes an operand by value when the forward never reads it
//! again (the executor overwrites or recycles that buffer), by
//! reference otherwise; [`ForwardOps::free`] hands back a value the
//! forward is done with. On the tape both are free: values are handles.
//!
//! [`AmsModel::forward`]: crate::AmsModel::forward

use ams_tensor::init::dropout_mask;
use ams_tensor::runtime::EdgeList;
use ams_tensor::{Graph, Matrix, Var};
use rand::rngs::StdRng;
use std::convert::Infallible;
use std::sync::Arc;

use crate::ams::ModelSnapshot;
use crate::gat::GatLayer;

/// The ops of the AMS forward pass.
///
/// Context only one side has lives in the implementor: the company
/// graph's edge list, the parameters (read by `param_list` index), the slave-column
/// selection, the dropout RNG (tape only; dropout is the identity in
/// the engine) and the request deadline (engine only).
pub trait ForwardOps {
    /// The scalar of constants (slopes, γ) in this precision.
    type Scalar: Copy;
    /// A matrix value.
    type Value;
    /// A column concatenation in progress.
    type Concat: Default;
    /// Why the pass stopped (the tape cannot fail).
    type Error;

    /// Parameter `index` in `AmsModel::param_list` order.
    fn param(&self, index: usize) -> Result<Self::Value, Self::Error>;
    /// An `n×1` column of ones, `n` the rows of `like`: a constant leaf.
    fn ones(&mut self, like: &Self::Value) -> Self::Value;
    /// The `d×m` 0/1 slave-column selection, a constant leaf; `None`
    /// when the slave model reads every column.
    fn selection(&mut self) -> Option<Self::Value>;
    /// A second owner of `x`'s value.
    fn dup(&mut self, x: &Self::Value) -> Self::Value;
    /// The forward is done with `x`.
    fn free(&mut self, x: Self::Value);
    /// A stage boundary, where an expired deadline abandons the pass.
    fn stage(&mut self) -> Result<(), Self::Error>;

    /// `a·b`.
    fn matmul(&mut self, a: &Self::Value, b: &Self::Value) -> Result<Self::Value, Self::Error>;
    /// `x + bias`, the `1×c` bias broadcast over rows.
    fn add_row_broadcast(
        &mut self,
        x: Self::Value,
        bias: &Self::Value,
    ) -> Result<Self::Value, Self::Error>;
    /// `max(x, 0)`.
    fn relu(&mut self, x: Self::Value) -> Self::Value;
    /// Inverted dropout while training, the identity otherwise.
    fn dropout(&mut self, x: Self::Value) -> Self::Value;
    /// One attention head over the company graph's edges: the
    /// softmax of `LeakyReLU(s_l[i] + s_r[j])` (negative slope `slope`)
    /// over node `i`'s neighbours `j`, applied to the rows of `wh`:
    /// `out[i] = Σ_j α_ij·wh[j]` (Eq. 2 before its activation).
    fn graph_attention(
        &mut self,
        s_l: Self::Value,
        s_r: Self::Value,
        wh: &Self::Value,
        slope: Self::Scalar,
    ) -> Result<Self::Value, Self::Error>;
    /// Append `part` to a column concatenation.
    fn concat_push(&mut self, cat: &mut Self::Concat, part: Self::Value)
        -> Result<(), Self::Error>;
    /// The finished concatenation (a single part is returned as is).
    fn concat_cols(&mut self, cat: Self::Concat) -> Result<Self::Value, Self::Error>;
    /// `xᵀ`.
    fn transpose(&mut self, x: &Self::Value) -> Self::Value;
    /// `alpha·x + 0` (the `+ 0` normalizes `-0.0`).
    fn scale(&mut self, x: Self::Value, alpha: Self::Scalar) -> Self::Value;
    /// `a + b`.
    fn add(&mut self, a: Self::Value, b: Self::Value) -> Result<Self::Value, Self::Error>;
    /// `out[i] = a.row(i) · b.row(i)`.
    fn rowwise_dot(&mut self, a: &Self::Value, b: &Self::Value)
        -> Result<Self::Value, Self::Error>;
}

/// The data-free shape of an AMS forward pass, with its constants in
/// the scalar the pass runs in.
#[derive(Debug, Clone, PartialEq)]
pub struct Arch<S> {
    /// Node-transform layers (Eq. 1).
    pub nt: usize,
    /// GAT layers (Eqs. 2–3), in forward order.
    pub gat: Vec<GatSpec<S>>,
    /// Concatenate the node-transform output after the GAT stack.
    pub residual: bool,
    /// Generator layers (Eq. 6); the last one is linear.
    pub gen: usize,
    /// Assembly weight γ (Eq. 10).
    pub gamma: S,
    /// `1 − γ`, computed in f64 before narrowing so every precision
    /// scales β_c by the same rounded constant.
    pub gamma_c: S,
}

/// One GAT layer's shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatSpec<S> {
    pub heads: usize,
    /// Negative slope of the attention LeakyReLU.
    pub leaky_slope: S,
}

impl<S> Arch<S> {
    /// The shape of the model `snap` describes, each constant narrowed
    /// once by `narrow`.
    pub fn new(snap: &ModelSnapshot, narrow: impl Fn(f64) -> S) -> Self {
        let heads =
            |l: &GatLayer| GatSpec { heads: l.heads.len(), leaky_slope: narrow(l.leaky_slope) };
        Self {
            nt: snap.nt.len(),
            gat: snap.gat.iter().map(heads).collect(),
            residual: snap.config.residual,
            gen: snap.gen.len(),
            gamma: narrow(snap.config.gamma),
            gamma_c: narrow(1.0 - snap.config.gamma),
        }
    }
}

/// [`ForwardOps`] on the autodiff tape: each op is recorded on `g` in
/// the order the forward calls it.
pub struct Tape<'a> {
    pub(crate) g: &'a mut Graph,
    /// The company graph's edges, shared with every attention node.
    pub(crate) edges: &'a Arc<EdgeList>,
    /// Parameter leaves, in `param_list` order.
    pub(crate) params: &'a [Var],
    /// Slave-column selection, recorded as a leaf where it is used.
    pub(crate) selection: Option<&'a Matrix>,
    /// Dropout rate on the dense hidden layers.
    pub(crate) dropout: f64,
    /// Dropout masks are drawn from here; `None` evaluates.
    pub(crate) rng: Option<&'a mut StdRng>,
}

impl<'a> Tape<'a> {
    /// An evaluation tape: no dropout, every column in the slave.
    pub fn new(g: &'a mut Graph, edges: &'a Arc<EdgeList>, params: &'a [Var]) -> Self {
        Self { g, edges, params, selection: None, dropout: 0.0, rng: None }
    }
}

impl ForwardOps for Tape<'_> {
    type Scalar = f64;
    type Value = Var;
    type Concat = Vec<Var>;
    type Error = Infallible;

    fn param(&self, index: usize) -> Result<Var, Infallible> {
        Ok(self.params[index])
    }

    fn ones(&mut self, like: &Var) -> Var {
        let n = self.g.value(*like).rows();
        self.g.input(Matrix::ones(n, 1))
    }

    fn selection(&mut self) -> Option<Var> {
        self.selection.map(|s| self.g.input(s.clone()))
    }

    fn dup(&mut self, x: &Var) -> Var {
        *x
    }

    fn free(&mut self, _: Var) {}

    fn stage(&mut self) -> Result<(), Infallible> {
        Ok(())
    }

    fn matmul(&mut self, a: &Var, b: &Var) -> Result<Var, Infallible> {
        Ok(self.g.matmul(*a, *b))
    }

    fn add_row_broadcast(&mut self, x: Var, bias: &Var) -> Result<Var, Infallible> {
        Ok(self.g.add_row_broadcast(x, *bias))
    }

    fn relu(&mut self, x: Var) -> Var {
        self.g.relu(x)
    }

    fn dropout(&mut self, x: Var) -> Var {
        match self.rng.as_deref_mut() {
            Some(rng) if self.dropout > 0.0 => {
                let (rows, cols) = self.g.value(x).shape();
                let mask = dropout_mask(rows, cols, self.dropout, rng);
                self.g.dropout(x, mask)
            }
            _ => x,
        }
    }

    fn graph_attention(
        &mut self,
        s_l: Var,
        s_r: Var,
        wh: &Var,
        slope: f64,
    ) -> Result<Var, Infallible> {
        Ok(self.g.graph_attention(s_l, s_r, *wh, self.edges, slope))
    }

    fn concat_push(&mut self, cat: &mut Vec<Var>, part: Var) -> Result<(), Infallible> {
        cat.push(part);
        Ok(())
    }

    fn concat_cols(&mut self, cat: Vec<Var>) -> Result<Var, Infallible> {
        Ok(match cat.as_slice() {
            [one] => *one,
            parts => self.g.concat_cols(parts),
        })
    }

    fn transpose(&mut self, x: &Var) -> Var {
        self.g.transpose(*x)
    }

    fn scale(&mut self, x: Var, alpha: f64) -> Var {
        self.g.scale(x, alpha)
    }

    fn add(&mut self, a: Var, b: Var) -> Result<Var, Infallible> {
        Ok(self.g.add(a, b))
    }

    fn rowwise_dot(&mut self, a: &Var, b: &Var) -> Result<Var, Infallible> {
        Ok(self.g.rowwise_dot(*a, *b))
    }
}
