//! Precision-typed forward plan: the engine's weights, frozen into the
//! scalar they will execute in.
//!
//! [`Engine`](crate::Engine) scores through a [`ForwardPlan`] rather
//! than reading `Matrix` weights out of the snapshot on every request.
//! A plan is the forward's shape ([`Arch`]: layer counts, heads,
//! slopes, γ) plus every weight in `AmsModel::param_list` order — the
//! order the one generic `AmsModel::forward` reads its parameters in —
//! the company graph's edge list and the slave-column selection. The plan
//! for `E = f64` holds exact copies of the snapshot (narrowing is the
//! identity), so the f64 path stays bit-for-bit equal to training-side
//! `AmsModel::predict`. The plan for `E = f32` is the quantized model:
//! every weight and constant rounded once, at load time, to the nearest
//! f32 — the serving-side half of the mixed-precision path described in
//! DESIGN.md §14.

use crate::artifact::ModelArtifact;
use ams_core::{edge_list, Arch};
use ams_tensor::runtime::{EdgeList, Element};
use ams_tensor::Matrix;

/// An owned row-major `rows × cols` buffer of one scalar type — the
/// plan-side analogue of [`Matrix`], generic over the element.
#[derive(Debug, Clone, PartialEq)]
pub struct Plane<E: Element> {
    rows: usize,
    cols: usize,
    data: Vec<E>,
}

impl<E: Element> Plane<E> {
    /// Wrap an existing buffer (`data.len()` must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<E>) -> Self {
        assert_eq!(data.len(), rows * cols, "plane data does not match {rows}x{cols}");
        Self { rows, cols, data }
    }

    /// Narrow (or copy, for `E = f64`) a matrix into a plane.
    pub fn from_matrix(m: &Matrix) -> Self {
        let data = m.as_slice().iter().map(|&v| E::from_f64(v)).collect();
        Self { rows: m.rows(), cols: m.cols(), data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// A borrowed, `Copy` view of the whole plane.
    pub fn view(&self) -> PlaneRef<'_, E> {
        PlaneRef { rows: self.rows, cols: self.cols, data: &self.data }
    }

    /// Surrender the backing buffer (for returning it to a workspace).
    pub fn into_vec(self) -> Vec<E> {
        self.data
    }
}

impl Plane<f64> {
    /// Reinterpret an f64 plane as a [`Matrix`] without copying.
    pub fn into_matrix(self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data)
    }
}

/// A borrowed view of a plane (or of a [`Matrix`], for `E = f64`).
#[derive(Debug, Clone, Copy)]
pub struct PlaneRef<'a, E: Element> {
    pub rows: usize,
    pub cols: usize,
    pub data: &'a [E],
}

impl<'a, E: Element> PlaneRef<'a, E> {
    /// One row as a slice.
    pub fn row(&self, r: usize) -> &'a [E] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }
}

impl<'a> PlaneRef<'a, f64> {
    /// View a matrix as an f64 plane.
    pub fn of_matrix(m: &'a Matrix) -> Self {
        Self { rows: m.rows(), cols: m.cols(), data: m.as_slice() }
    }
}

/// Every parameter the batch forward pass reads, in the scalar it will
/// execute in. Built once per engine (per precision) at load time.
#[derive(Debug, Clone)]
pub struct ForwardPlan<E: Element> {
    /// Full feature width `d` the model consumes.
    pub width: usize,
    /// Companies (graph nodes) `n`.
    pub companies: usize,
    /// The forward's shape, its constants narrowed to `E`.
    pub arch: Arch<E>,
    /// The trained weights in `AmsModel::param_list` order: node
    /// transform, GAT heads, generator, β_c.
    pub weights: Vec<Plane<E>>,
    /// The company graph's edges, which graph attention walks; derived
    /// once, at load time.
    pub edges: EdgeList,
    /// 0/1 projection from full feature space to slave columns
    /// (`d×m`), `None` when the slave model uses every column.
    pub selection: Option<Plane<E>>,
}

impl<E: Element> ForwardPlan<E> {
    /// Freeze an artifact's weights into `E`. For `E = f64` this is an
    /// exact copy; for `E = f32` it is the quantization step.
    pub fn from_artifact(artifact: &ModelArtifact) -> Self {
        let snap = &artifact.snapshot;
        let d = artifact.feature_width();
        Self {
            width: d,
            companies: artifact.num_companies(),
            arch: Arch::new(snap, E::from_f64),
            weights: snap.params().into_iter().map(|(_, w, _)| Plane::from_matrix(w)).collect(),
            edges: edge_list(&artifact.graph),
            selection: snap.config.slave_selection(d).as_ref().map(Plane::from_matrix),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_fixture;

    #[test]
    fn f64_plan_copies_weights_exactly() {
        let fx = trained_fixture(71);
        let plan: ForwardPlan<f64> = ForwardPlan::from_artifact(&fx.artifact);
        let snap = &fx.artifact.snapshot;
        let want: Vec<_> = snap.params().into_iter().map(|(_, w, _)| w).collect();
        assert_eq!(plan.weights.len(), want.len());
        for (pw, w) in plan.weights.iter().zip(want) {
            assert_eq!((pw.rows(), pw.cols()), w.shape());
            assert_eq!(pw.as_slice(), w.as_slice());
        }
        assert_eq!(plan.arch.gamma, snap.config.gamma);
    }

    #[test]
    fn f32_plan_is_nearest_rounding() {
        let fx = trained_fixture(72);
        let p64: ForwardPlan<f64> = ForwardPlan::from_artifact(&fx.artifact);
        let p32: ForwardPlan<f32> = ForwardPlan::from_artifact(&fx.artifact);
        for (a, b) in p64.weights.iter().zip(&p32.weights) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!((*x as f32).to_bits(), y.to_bits());
            }
        }
        assert_eq!(p32.arch.gamma_c.to_bits(), ((1.0 - p64.arch.gamma) as f32).to_bits());
    }
}
