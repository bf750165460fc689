//! Precision-generic scalar element trait.

use std::fmt::Debug;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};
use vpu_num::f16;

/// A scalar element a tensor can hold and the kernels can compute on.
///
/// Implemented for `f32` (host reference devices) and the software
/// [`vpu_num::f16`] (simulated VPU). Every arithmetic op on `f16` rounds to
/// binary16, so running the same kernel with `E = f16` reproduces the
/// device's numerics.
pub trait Element:
    Copy
    + Debug
    + Default
    + Send
    + Sync
    + PartialOrd
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + 'static
{
    const ZERO: Self;
    const ONE: Self;

    /// Lossy conversion from f32 (rounds for f16).
    fn from_f32(v: f32) -> Self;
    /// Widening conversion to f32 (exact for both implementations).
    fn to_f32(self) -> f32;
    /// `from_f32(v).to_f32()`: round to this type, stay in f32.
    fn round_f32(v: f32) -> f32;
    /// IEEE maxNum semantics (NaN loses to a number).
    fn maximum(self, other: Self) -> Self;
    /// Bytes per element as stored on the device.
    fn width() -> usize;
    /// Short precision label used in reports ("fp32" / "fp16").
    fn precision_name() -> &'static str;
    fn is_nan_e(self) -> bool;
    fn exp_e(self) -> Self;
    fn powf_e(self, p: f32) -> Self;
    /// `s` as binary16 values when `Self` is [`struct@f16`], for the kernels
    /// that compute on the host's own binary16 units.
    fn as_f16(_s: &[Self]) -> Option<&[f16]> {
        None
    }
    /// [`Element::as_f16`], writable.
    fn as_f16_mut(_s: &mut [Self]) -> Option<&mut [f16]> {
        None
    }
    /// `s` as f32 values when `Self` is `f32`, so a kernel that widens
    /// its operands can read them in place.
    fn as_f32(_s: &[Self]) -> Option<&[f32]> {
        None
    }
}

impl Element for f32 {
    const ZERO: f32 = 0.0;
    const ONE: f32 = 1.0;

    #[inline]
    fn from_f32(v: f32) -> f32 {
        v
    }

    #[inline]
    fn to_f32(self) -> f32 {
        self
    }

    #[inline]
    fn round_f32(v: f32) -> f32 {
        v
    }

    #[inline]
    fn maximum(self, other: f32) -> f32 {
        self.max(other)
    }

    #[inline]
    fn width() -> usize {
        4
    }

    fn precision_name() -> &'static str {
        "fp32"
    }

    #[inline]
    fn is_nan_e(self) -> bool {
        self.is_nan()
    }

    #[inline]
    fn exp_e(self) -> f32 {
        self.exp()
    }

    #[inline]
    fn powf_e(self, p: f32) -> f32 {
        self.powf(p)
    }

    fn as_f32(s: &[f32]) -> Option<&[f32]> {
        Some(s)
    }
}

impl Element for f16 {
    const ZERO: f16 = f16::ZERO;
    const ONE: f16 = f16::ONE;

    #[inline]
    fn from_f32(v: f32) -> f16 {
        f16::from_f32(v)
    }

    #[inline]
    fn to_f32(self) -> f32 {
        f16::to_f32(self)
    }

    #[inline]
    fn round_f32(v: f32) -> f32 {
        f16::round_f32(v)
    }

    #[inline]
    fn maximum(self, other: f16) -> f16 {
        self.max(other)
    }

    #[inline]
    fn width() -> usize {
        2
    }

    fn precision_name() -> &'static str {
        "fp16"
    }

    #[inline]
    fn is_nan_e(self) -> bool {
        self.is_nan()
    }

    #[inline]
    fn exp_e(self) -> f16 {
        self.exp()
    }

    #[inline]
    fn powf_e(self, p: f32) -> f16 {
        self.powf(p)
    }

    fn as_f16(s: &[f16]) -> Option<&[f16]> {
        Some(s)
    }

    fn as_f16_mut(s: &mut [f16]) -> Option<&mut [f16]> {
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::eq_op)] // x/x and x*x are the point of the smoke test
    fn generic_smoke<E: Element>() {
        let two = E::ONE + E::ONE;
        assert_eq!(two.to_f32(), 2.0);
        assert_eq!((two * two).to_f32(), 4.0);
        assert_eq!((two - E::ONE).to_f32(), 1.0);
        assert_eq!((two / two).to_f32(), 1.0);
        assert_eq!((-E::ONE).to_f32(), -1.0);
        assert_eq!(E::ZERO.maximum(E::ONE).to_f32(), 1.0);
        assert!(!E::ONE.is_nan_e());
        assert_eq!(E::ZERO.exp_e().to_f32(), 1.0);
        assert_eq!(two.powf_e(2.0).to_f32(), 4.0);
    }

    #[test]
    fn f32_element() {
        generic_smoke::<f32>();
        assert_eq!(f32::width(), 4);
        assert_eq!(f32::precision_name(), "fp32");
    }

    #[test]
    fn f16_element() {
        generic_smoke::<f16>();
        assert_eq!(f16::width(), 2);
        assert_eq!(f16::precision_name(), "fp16");
    }

    #[test]
    fn f16_element_rounds() {
        // 1 + 2^-11 rounds back to 1 in fp16 but not fp32 — the trait
        // preserves the per-type numerics.
        let small = 2.0f32.powi(-11);
        let h = <f16 as Element>::from_f32(1.0) + <f16 as Element>::from_f32(small);
        assert_eq!(h.to_f32(), 1.0);
        let s = <f32 as Element>::from_f32(1.0) + small;
        assert!(s > 1.0);
    }
}
