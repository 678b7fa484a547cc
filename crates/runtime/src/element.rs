//! Scalar element trait for the precision-generic runtime.
//!
//! [`Element`] abstracts the two floating-point widths the runtime
//! supports: `f64` (the training and default serving precision, whose
//! kernels are bit-reproducible) and `f32` (the quantized inference
//! precision served by the vectorized fast path). Every kernel in
//! [`crate::kernels`], the [`crate::Workspace`] arena and the
//! [`crate::Backend`] trait are generic over it, with `f64` as the
//! default type parameter so all pre-existing call sites compile —
//! and behave — exactly as before.
//!
//! The trait deliberately exposes only the operations the kernels
//! use: constants, conversion through `f64`, `exp`/`max` for the
//! attention softmax, and finiteness checks for output validation.
//! Keeping the surface minimal is what lets the f64 path stay
//! bit-identical under the refactor — there is no room for a generic
//! implementation to pick a different instruction.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A scalar the runtime kernels can compute with.
///
/// Implemented for `f64` and `f32` only. The arithmetic operator
/// bounds mirror exactly what the kernels perform; `from_f64`/`to_f64`
/// are the sanctioned narrowing/widening points (quantization happens
/// there and nowhere else).
pub trait Element:
    Copy
    + PartialEq
    + PartialOrd
    + Debug
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Negative infinity — the attention softmax's "no logit yet" sentinel.
    const NEG_INFINITY: Self;
    /// Short dtype tag used in artifacts, logs and benchmarks.
    const DTYPE: &'static str;

    /// Narrow (or pass through) an `f64` value.
    fn from_f64(v: f64) -> Self;
    /// Widen (or pass through) to `f64`.
    fn to_f64(self) -> f64;
    /// `e^self`, in this precision.
    fn exp(self) -> Self;
    /// IEEE-754 maximum (NaN-ignoring, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// Neither NaN nor infinite.
    fn is_finite(self) -> bool;
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;
    const DTYPE: &'static str = "f64";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }

    #[inline(always)]
    fn exp(self) -> Self {
        f64::exp(self)
    }

    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;
    const DTYPE: &'static str = "f32";

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }

    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }

    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }

    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum<E: Element>(xs: &[f64]) -> f64 {
        let mut acc = E::ZERO;
        for &x in xs {
            acc += E::from_f64(x);
        }
        acc.to_f64()
    }

    #[test]
    fn f64_round_trip_is_identity() {
        for v in [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, -7.25e300] {
            assert_eq!(f64::from_f64(v).to_bits(), v.to_bits());
            assert_eq!(Element::to_f64(v).to_bits(), v.to_bits());
        }
    }

    #[test]
    fn f32_narrowing_rounds_to_nearest() {
        let v = 0.1_f64;
        let narrowed = <f32 as Element>::from_f64(v);
        assert_eq!(narrowed, 0.1_f32);
        assert!((narrowed.to_f64() - v).abs() < 1e-8);
    }

    #[test]
    fn generic_sum_matches_concrete() {
        let xs = [1.0, 2.5, -0.5, 3.25];
        assert_eq!(sum::<f64>(&xs), 6.25);
        assert_eq!(sum::<f32>(&xs), 6.25);
    }

    #[test]
    fn constants_and_predicates() {
        assert_eq!(f64::NEG_INFINITY, <f64 as Element>::NEG_INFINITY);
        assert!(!<f32 as Element>::NEG_INFINITY.is_finite());
        assert!(<f32 as Element>::ONE.is_finite());
        assert_eq!(<f32 as Element>::DTYPE, "f32");
        assert_eq!(<f64 as Element>::DTYPE, "f64");
    }
}
