//! Dense row-major `f64` matrix.
//!
//! All model state in this workspace — features, weights, activations,
//! gradients — is a [`Matrix`]. Numeric heavy lifting is delegated to
//! the cache-blocked kernels in `ams-runtime`; those kernels preserve
//! the accumulation order of the original naive loops bit-for-bit, and
//! [`Matrix::matmul_with`]/[`Matrix::try_matmul_with`] let callers pick
//! an execution [`Backend`] (sequential or deterministic row-parallel)
//! without changing a single result bit.

use ams_runtime::{kernels, Backend, RuntimeError, Seq};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Dense row-major matrix of `f64`.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// All-one matrix.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![1.0; rows * cols] }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: {rows}x{cols} needs {} elements, got {}",
            rows * cols,
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Build from nested row slices (mainly for tests and examples).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows: no rows");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// A 1×1 matrix holding a scalar.
    pub fn scalar(v: f64) -> Self {
        Self::from_vec(1, 1, vec![v])
    }

    /// Column vector from a slice.
    pub fn col_vector(xs: &[f64]) -> Self {
        Self::from_vec(xs.len(), 1, xs.to_vec())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable underlying row-major data.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix, yielding its row-major buffer (so callers
    /// can recycle it through a runtime [`ams_runtime::Workspace`]).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// A single row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A single row as a mutable slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of a column.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The single element of a 1×1 matrix.
    ///
    /// # Panics
    /// Panics when the matrix is not 1×1.
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 matrix, got {:?}", self.shape());
        self.data[0]
    }

    /// Transpose.
    pub fn t(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        kernels::transpose(&self.data, &mut out.data, self.rows, self.cols);
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        self.matmul_with(other, &Seq)
    }

    /// Matrix product on an explicit execution backend.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul_with(&self, other: &Matrix, backend: &dyn Backend) -> Matrix {
        self.try_matmul_with(other, backend).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Matrix product returning a typed error instead of panicking on
    /// shape mismatch — what the serve layer's no-panic rule requires.
    pub fn try_matmul(&self, other: &Matrix) -> Result<Matrix, RuntimeError> {
        self.try_matmul_with(other, &Seq)
    }

    /// [`Matrix::try_matmul`] on an explicit execution backend.
    pub fn try_matmul_with(
        &self,
        other: &Matrix,
        backend: &dyn Backend,
    ) -> Result<Matrix, RuntimeError> {
        if self.cols != other.rows {
            return Err(RuntimeError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        backend.matmul(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.cols);
        Ok(out)
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_with(other, |a, b| a * b)
    }

    /// Element-wise combination with shape checking.
    pub fn zip_with(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(
            self.shape(),
            other.shape(),
            "zip_with: shape mismatch {:?} vs {:?}",
            self.shape(),
            other.shape()
        );
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// Multiply every element by a scalar.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha * other` (the axpy of optimizer updates).
    pub fn add_scaled_assign(&mut self, other: &Matrix, alpha: f64) {
        assert_eq!(self.shape(), other.shape(), "add_scaled_assign: shape mismatch");
        kernels::axpy(&mut self.data, &other.data, alpha);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Sum of squared elements (squared Frobenius norm).
    pub fn sq_frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.sq_frobenius().sqrt()
    }

    /// Dot product of two matrices viewed as flat vectors.
    pub fn flat_dot(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "flat_dot: shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat: row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Vertical concatenation.
    pub fn vcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vcat: col mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// New matrix containing the selected rows, in order (repetition
    /// allowed).
    pub fn select_rows(&self, ids: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(ids.len(), self.cols);
        for (r, &id) in ids.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(id));
        }
        out
    }

    /// Maximum absolute difference to another matrix of the same shape.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "max_abs_diff: shape mismatch");
        self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    /// True when every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(8) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

// Serde support (used by model artifacts): `{"rows": r, "cols": c,
// "data": [...]}` with row-major data. Implemented by hand because the
// fields are private and the shape invariant must be revalidated on
// load.
impl serde::Serialize for Matrix {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("rows".to_string(), serde::Serialize::to_value(&self.rows)),
            ("cols".to_string(), serde::Serialize::to_value(&self.cols)),
            ("data".to_string(), serde::Serialize::to_value(&self.data)),
        ])
    }
}

impl serde::Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            v.get(name).ok_or_else(|| serde::Error::custom(format!("Matrix: missing `{name}`")))
        };
        let rows = usize::from_value(field("rows")?)?;
        let cols = usize::from_value(field("cols")?)?;
        let data = Vec::<f64>::from_value(field("data")?)?;
        if data.len() != rows * cols {
            return Err(serde::Error::custom(format!(
                "Matrix: {rows}x{cols} needs {} elements, got {}",
                rows * cols,
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serde_json_round_trip_is_bit_exact() {
        let m = Matrix::from_rows(&[&[1.5, -2.25, 1.0 / 3.0], &[0.0, f64::MIN_POSITIVE, 1e300]]);
        let text = serde_json::to_string(&m).unwrap();
        let back: Matrix = serde_json::from_str(&text).unwrap();
        assert_eq!(back.shape(), m.shape());
        for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn serde_rejects_inconsistent_shape() {
        let text = r#"{"rows": 2, "cols": 2, "data": [1.0, 2.0, 3.0]}"#;
        assert!(serde_json::from_str::<Matrix>(text).is_err());
    }

    #[test]
    fn construction_and_shape() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.len(), 6);
        assert!(!m.is_empty());
        assert!(Matrix::zeros(0, 0).is_empty());
    }

    #[test]
    fn eye_and_identity_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::eye(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_mismatch_panics() {
        Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
    }

    #[test]
    fn try_matmul_returns_typed_shape_error() {
        let err = Matrix::zeros(2, 3).try_matmul(&Matrix::zeros(2, 3)).unwrap_err();
        assert_eq!(err, RuntimeError::ShapeMismatch { op: "matmul", lhs: (2, 3), rhs: (2, 3) });
        assert!(Matrix::zeros(2, 3).try_matmul(&Matrix::zeros(3, 2)).is_ok());
    }

    #[test]
    fn matmul_with_par_backend_is_bit_identical() {
        let a = Matrix::from_vec(33, 40, (0..33 * 40).map(|i| (i % 7) as f64 - 3.0).collect());
        let b = Matrix::from_vec(40, 21, (0..40 * 21).map(|i| (i % 5) as f64 * 0.5).collect());
        let seq = a.matmul(&b);
        let par = ams_runtime::Par::new(4);
        let got = a.matmul_with(&b, &par);
        for (s, p) in seq.as_slice().iter().zip(got.as_slice()) {
            assert_eq!(s.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.t().t(), a);
        assert_eq!(a.t().shape(), (3, 2));
        assert_eq!(a.t()[(2, 1)], 6.0);
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[6.0, 8.0], &[10.0, 12.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[&[4.0, 4.0], &[4.0, 4.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[5.0, 12.0], &[21.0, 32.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]));
    }

    #[test]
    fn reductions() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, -4.0]]);
        assert_eq!(a.sum(), -2.0);
        assert_eq!(a.sq_frobenius(), 30.0);
        assert!((a.frobenius() - 30.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn hcat_vcat() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        assert_eq!(a.hcat(&b), Matrix::from_rows(&[&[1.0, 3.0], &[2.0, 4.0]]));
        assert_eq!(a.vcat(&b), Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]));
    }

    #[test]
    fn select_rows_with_repetition() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let s = a.select_rows(&[2, 0, 2]);
        assert_eq!(s, Matrix::from_rows(&[&[3.0, 3.0], &[1.0, 1.0], &[3.0, 3.0]]));
    }

    #[test]
    fn add_scaled_assign_is_axpy() {
        let mut a = Matrix::ones(2, 2);
        let g = Matrix::full(2, 2, 4.0);
        a.add_scaled_assign(&g, -0.25);
        assert_eq!(a, Matrix::zeros(2, 2));
    }

    #[test]
    fn item_scalar_roundtrip() {
        assert_eq!(Matrix::scalar(3.5).item(), 3.5);
    }

    #[test]
    #[should_panic(expected = "1x1")]
    fn item_rejects_non_scalar() {
        Matrix::zeros(2, 1).item();
    }

    #[test]
    fn row_col_access() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn max_abs_diff_and_finiteness() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[1.5, 1.0]]);
        assert_eq!(a.max_abs_diff(&b), 1.0);
        assert!(a.all_finite());
        assert!(!Matrix::scalar(f64::NAN).all_finite());
    }

    #[test]
    fn flat_dot_matches_manual() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, 1.0]]);
        assert_eq!(a.flat_dot(&b), 1.0 * 2.0 + 2.0 * 0.5 + 3.0 + 4.0);
    }
}
