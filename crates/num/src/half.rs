//! Software IEEE-754 binary16 ("half precision").
//!
//! The Myriad 2 SHAVE processors operate on 128-bit vectors of eight FP16
//! lanes. This module reproduces that arithmetic on the host: every binary
//! operation converts to f32, computes exactly (f32 is wide enough to hold
//! any product/sum of two binary16 values exactly up to rounding), and
//! rounds the result back to binary16 with round-to-nearest-even — the
//! same behaviour as a hardware FP16 FMA-free ALU performing one rounding
//! per operation.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Rem, Sub, SubAssign};

/// IEEE-754 binary16 floating point number.
///
/// Stored as its raw bit pattern. Conversions implement round-to-nearest,
/// ties-to-even, matching both x86 `vcvtps2ph` and the Myriad 2 VAU.
///
/// ```
/// use vpu_num::f16;
/// let a = f16::from_f32(1.5);
/// let b = f16::from_f32(0.25);
/// assert_eq!((a + b).to_f32(), 1.75);
/// // Per-operation rounding: 2048 + 1 stagnates in binary16.
/// assert_eq!((f16::from_f32(2048.0) + f16::ONE).to_f32(), 2048.0);
/// ```
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct f16(pub u16);

/// All exponent bits set (Inf/NaN marker).
const EXP_MASK: u16 = 0x7C00;
/// Mantissa bits.
const MAN_MASK: u16 = 0x03FF;
/// Sign bit.
const SIGN_MASK: u16 = 0x8000;

impl f16 {
    pub const ZERO: f16 = f16(0x0000);
    pub const NEG_ZERO: f16 = f16(0x8000);
    pub const ONE: f16 = f16(0x3C00);
    pub const NEG_ONE: f16 = f16(0xBC00);
    pub const TWO: f16 = f16(0x4000);
    pub const INFINITY: f16 = f16(0x7C00);
    pub const NEG_INFINITY: f16 = f16(0xFC00);
    pub const NAN: f16 = f16(0x7E00);
    /// Largest finite value: 65504.
    pub const MAX: f16 = f16(0x7BFF);
    /// Most negative finite value: -65504.
    pub const MIN: f16 = f16(0xFBFF);
    /// Smallest positive normal value: 2^-14.
    pub const MIN_POSITIVE: f16 = f16(0x0400);
    /// Smallest positive subnormal value: 2^-24.
    pub const MIN_POSITIVE_SUBNORMAL: f16 = f16(0x0001);
    /// Machine epsilon: 2^-10.
    pub const EPSILON: f16 = f16(0x1400);
    /// Number of significand digits (including the implicit bit).
    pub const MANTISSA_DIGITS: u32 = 11;

    /// Reinterpret raw bits as an `f16`.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        f16(bits)
    }

    /// Raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert from `f32` with round-to-nearest-even.
    ///
    /// Branch-free: the result for every input class (normal, subnormal,
    /// zero, overflow, Inf, NaN) is computed and the right one selected, so
    /// a loop of conversions vectorizes. A NaN keeps the top ten bits of
    /// its payload and gets the quiet bit.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let x = value.to_bits();
        let sign = (x >> 16) & 0x8000;
        let a = x & 0x7FFF_FFFF;
        // Normal: rebias the exponent (127 -> 15) and round the 13 dropped
        // mantissa bits to nearest even. A carry moves into the exponent,
        // which is also how 65520 and up become Inf.
        let odd = (a >> 13) & 1;
        let normal = a.wrapping_sub((127 - 15) << 23).wrapping_add(0xFFF + odd) >> 13;
        // |x| < 2^-14: adding 0.5 puts the binary16 quantum 2^-24 at the
        // f32 ulp, so the FPU's own round-to-nearest-even does the work.
        let subnormal = (f32::from_bits(a) + 0.5).to_bits().wrapping_sub(0x3F00_0000);
        let nan = 0x7E00 | ((a >> 13) & 0x03FF);
        let bits = if a > 0x7F80_0000 {
            nan
        } else if a >= 0x4780_0000 {
            0x7C00 // 2^16 and up, Inf included
        } else if a < 0x3880_0000 {
            subnormal
        } else {
            normal
        };
        f16((sign | bits) as u16)
    }

    /// Exact widening conversion to `f32` (every binary16 value is
    /// representable in binary32). Branch-free, like [`Self::from_f32`]; a
    /// NaN keeps its payload and gets the quiet bit.
    #[inline]
    pub fn to_f32(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        // Exponent and mantissa moved to their f32 positions.
        let a = (h & 0x7FFF) << 13;
        let exp = a & 0x0F80_0000;
        let normal = a + ((127 - 15) << 23);
        // Subnormal or zero: read the mantissa as 2^-14 * (1 + m/1024) and
        // subtract the 2^-14, leaving m * 2^-24 exactly.
        let min_normal = f32::from_bits(113 << 23);
        let subnormal = (f32::from_bits(a + (113 << 23)) - min_normal).to_bits();
        let quiet = if a & 0x007F_FFFF != 0 { 0x0040_0000 } else { 0 };
        let bits = if exp == 0x0F80_0000 {
            0x7F80_0000 | a | quiet
        } else if exp == 0 {
            subnormal
        } else {
            normal
        };
        f32::from_bits(sign | bits)
    }

    /// Round an f32 to the nearest binary16 value and return it widened:
    /// `f16::from_f32(value).to_f32()` in one step, bit for bit.
    ///
    /// This is how kernels keep an FP16 accumulator in f32 registers. f32
    /// carries 24 >= 2 * 11 + 2 significand bits, so rounding the f32 sum
    /// or product of two binary16 values once more, here, gives the
    /// correctly rounded binary16 result: what a non-fused FP16 ALU yields.
    #[inline]
    pub fn round_f32(value: f32) -> f32 {
        let x = value.to_bits();
        let sign = x & 0x8000_0000;
        // The magnitude's bits, compared as i32 (cheaper in SIMD than u32).
        let a = (x & 0x7FFF_FFFF) as i32;
        // Adding C = 2^(e + 13), for the binade 2^e of |x|, leaves the
        // binary16 quantum 2^(e - 10) as the f32 ulp of the sum, so the
        // FPU rounds to nearest even and subtracting C is exact. Below
        // 2^-14 the quantum stays 2^-24, the ulp of C = 0.5: the subnormals.
        let c = f32::from_bits((a as u32 & 0x7F80_0000) + (13 << 23));
        let c = if c < 0.5 { 0.5 } else { c };
        let rounded = ((f32::from_bits(a as u32) + c) - c).to_bits();
        let bits = if a > 0x7F80_0000 {
            (a as u32 & !0x1FFF) | 0x0040_0000 // NaN: truncated payload, quiet bit
        } else if a >= 0x477F_F000 {
            0x7F80_0000 // 65520 and up round to Inf
        } else {
            rounded
        };
        f32::from_bits(sign | bits)
    }

    /// Exact widening conversion to `f64`.
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) == 0
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }

    #[inline]
    pub fn is_sign_negative(self) -> bool {
        (self.0 & SIGN_MASK) != 0
    }

    #[inline]
    pub fn is_sign_positive(self) -> bool {
        !self.is_sign_negative()
    }

    #[inline]
    pub fn abs(self) -> Self {
        f16(self.0 & !SIGN_MASK)
    }

    #[inline]
    pub fn max(self, other: Self) -> Self {
        // IEEE maxNum: ignore a NaN operand if the other is a number.
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self.to_f32() >= other.to_f32() {
            self
        } else {
            other
        }
    }

    #[inline]
    pub fn min(self, other: Self) -> Self {
        if self.is_nan() {
            return other;
        }
        if other.is_nan() {
            return self;
        }
        if self.to_f32() <= other.to_f32() {
            self
        } else {
            other
        }
    }

    /// Square root, rounded once (correct because sqrt in f32 followed by
    /// a binary16 rounding is exactly rounded for binary16 inputs).
    #[inline]
    pub fn sqrt(self) -> Self {
        Self::from_f32(self.to_f32().sqrt())
    }

    /// e^self with one final rounding (transcendental, faithfully rounded).
    #[inline]
    pub fn exp(self) -> Self {
        Self::from_f32(self.to_f32().exp())
    }

    /// Natural logarithm with one final rounding.
    #[inline]
    pub fn ln(self) -> Self {
        Self::from_f32(self.to_f32().ln())
    }

    /// self^p with one final rounding.
    #[inline]
    pub fn powf(self, p: f32) -> Self {
        Self::from_f32(self.to_f32().powf(p))
    }

    /// Units-in-the-last-place distance to another value of the same sign;
    /// used by tests to assert rounding quality.
    pub fn ulp_distance(self, other: Self) -> u32 {
        fn key(h: f16) -> i32 {
            let b = h.0;
            if b & SIGN_MASK == 0 {
                b as i32
            } else {
                -((b & !SIGN_MASK) as i32)
            }
        }
        (key(self) - key(other)).unsigned_abs()
    }
}

impl From<f32> for f16 {
    #[inline]
    fn from(v: f32) -> Self {
        f16::from_f32(v)
    }
}

impl From<f16> for f32 {
    #[inline]
    fn from(v: f16) -> Self {
        v.to_f32()
    }
}

impl From<f16> for f64 {
    #[inline]
    fn from(v: f16) -> Self {
        v.to_f64()
    }
}

impl From<i8> for f16 {
    #[inline]
    fn from(v: i8) -> Self {
        f16::from_f32(v as f32)
    }
}

impl From<u8> for f16 {
    #[inline]
    fn from(v: u8) -> Self {
        f16::from_f32(v as f32)
    }
}

macro_rules! binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for f16 {
            type Output = f16;
            #[inline]
            fn $method(self, rhs: f16) -> f16 {
                f16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

binop!(Add, add, +);
binop!(Sub, sub, -);
binop!(Mul, mul, *);
binop!(Div, div, /);
binop!(Rem, rem, %);

impl AddAssign for f16 {
    #[inline]
    fn add_assign(&mut self, rhs: f16) {
        *self = *self + rhs;
    }
}

impl SubAssign for f16 {
    #[inline]
    fn sub_assign(&mut self, rhs: f16) {
        *self = *self - rhs;
    }
}

impl MulAssign for f16 {
    #[inline]
    fn mul_assign(&mut self, rhs: f16) {
        *self = *self * rhs;
    }
}

impl DivAssign for f16 {
    #[inline]
    fn div_assign(&mut self, rhs: f16) {
        *self = *self / rhs;
    }
}

impl Neg for f16 {
    type Output = f16;
    #[inline]
    fn neg(self) -> f16 {
        f16(self.0 ^ SIGN_MASK)
    }
}

impl Sum for f16 {
    fn sum<I: Iterator<Item = f16>>(iter: I) -> f16 {
        iter.fold(f16::ZERO, |a, b| a + b)
    }
}

impl Product for f16 {
    fn product<I: Iterator<Item = f16>>(iter: I) -> f16 {
        iter.fold(f16::ONE, |a, b| a * b)
    }
}

impl PartialEq for f16 {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        // +0 == -0
        if (self.0 | other.0) & !SIGN_MASK == 0 {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for f16 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}f16", self.to_f32())
    }
}

impl fmt::Display for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

/// The scalar, branchy conversions the fast ones replaced: the oracle the
/// differential tests hold them to, bit for bit.
#[cfg(test)]
mod reference {
    use super::{EXP_MASK, MAN_MASK, SIGN_MASK};

    /// Exponent bias of binary16.
    const EXP_BIAS: i32 = 15;

    pub fn from_f32(value: f32) -> u16 {
        let x = value.to_bits();
        let sign = (x >> 16) & 0x8000;
        let exp = x & 0x7F80_0000;
        let man = x & 0x007F_FFFF;

        // Inf or NaN: all f32 exponent bits set.
        if exp == 0x7F80_0000 {
            let nan_bit = if man == 0 { 0 } else { 0x0200 };
            // Preserve the top mantissa bits of a NaN payload; force the
            // quiet bit so a signalling payload that shifts to zero does
            // not collapse into an infinity.
            return (sign | 0x7C00 | nan_bit | (man >> 13)) as u16;
        }

        let unbiased = ((exp >> 23) as i32) - 127;
        let half_exp = unbiased + EXP_BIAS;

        // Overflow to infinity.
        if half_exp >= 0x1F {
            return (sign | 0x7C00) as u16;
        }

        // Underflow: subnormal or zero.
        if half_exp <= 0 {
            // Values below 2^-25 round to zero (2^-25 itself ties to even
            // = zero as well; the guard below handles it).
            if 14 - half_exp > 24 {
                return sign as u16;
            }
            let man = man | 0x0080_0000; // restore the implicit bit
            let shift = (14 - half_exp) as u32;
            let mut half_man = man >> shift;
            // Round to nearest even on the bits shifted out.
            let round_bit = 1u32 << (shift - 1);
            if (man & round_bit) != 0 && (man & (3 * round_bit - 1)) != 0 {
                half_man += 1;
            }
            return (sign | half_man) as u16;
        }

        let half_exp = (half_exp as u32) << 10;
        let half_man = man >> 13;
        let round_bit = 0x0000_1000u32;
        let mut bits = sign | half_exp | half_man;
        if (man & round_bit) != 0 && (man & (3 * round_bit - 1)) != 0 {
            // A mantissa carry propagates into the exponent correctly,
            // including the 65504 -> Inf transition.
            bits += 1;
        }
        bits as u16
    }

    pub fn to_f32(i: u16) -> f32 {
        // Signed zero.
        if i & 0x7FFF == 0 {
            return f32::from_bits((i as u32) << 16);
        }
        let half_sign = (i & SIGN_MASK) as u32;
        let half_exp = (i & EXP_MASK) as u32;
        let half_man = (i & MAN_MASK) as u32;

        if half_exp == 0x7C00 {
            if half_man == 0 {
                return f32::from_bits((half_sign << 16) | 0x7F80_0000);
            }
            // NaN: keep payload, force quiet bit.
            return f32::from_bits((half_sign << 16) | 0x7FC0_0000 | (half_man << 13));
        }

        let sign = half_sign << 16;
        if half_exp == 0 {
            // Subnormal: normalize by shifting the mantissa up.
            let e = half_man.leading_zeros() - 22; // payload MSB (bit 9) has 22 leading zeros in a u32
            let exp = (127 - 15 - e) << 23;
            let man = (half_man << (14 + e)) & 0x007F_FFFF;
            return f32::from_bits(sign | exp | man);
        }

        let unbiased = ((half_exp >> 10) as i32) - EXP_BIAS;
        let exp = ((unbiased + 127) as u32) << 23;
        let man = half_man << 13;
        f32::from_bits(sign | exp | man)
    }
}

/// Every fast conversion against [`reference`], compared as bits.
#[cfg(test)]
mod differential {
    use super::*;

    /// One f32 input through all three fast paths, against the oracle.
    fn check(x: u32) {
        let v = f32::from_bits(x);
        let want = reference::from_f32(v);
        let got = f16::from_f32(v).to_bits();
        assert_eq!(got, want, "from_f32({x:#010x}): {got:#06x} != {want:#06x}");
        let want = reference::to_f32(want).to_bits();
        let got = f16::round_f32(v).to_bits();
        assert_eq!(got, want, "round_f32({x:#010x}): {got:#010x} != {want:#010x}");
    }

    #[test]
    fn to_f32_matches_reference_on_every_input() {
        for bits in 0..=u16::MAX {
            let got = f16::from_bits(bits).to_f32().to_bits();
            let want = reference::to_f32(bits).to_bits();
            assert_eq!(got, want, "to_f32({bits:#06x}): {got:#010x} != {want:#010x}");
        }
    }

    /// Every f32 sign and exponent, with mantissas at and around each
    /// rounding boundary (bit 12 for normals, bits 13..=23 for the
    /// subnormal shifts), plus random fill.
    #[test]
    fn from_f32_matches_reference_on_a_stratified_sweep() {
        use rand::Rng;
        let mut mantissas = vec![0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x3000, 0x7F_FFFF];
        for shift in 13..=24 {
            let round = 1u32 << (shift - 1);
            for m in [round - 1, round, round + 1, 2 * round - 1, 2 * round, 3 * round] {
                mantissas.extend([m, m.wrapping_sub(1), m + 1]);
            }
        }
        let mut rng = crate::rng::seeded(0xF16);
        for sign in [0, 0x8000_0000u32] {
            for exp in 0..=0xFFu32 {
                for &m in &mantissas {
                    check(sign | exp << 23 | (m & 0x7F_FFFF));
                }
                for _ in 0..64 {
                    check(sign | exp << 23 | rng.gen_range(0..0x80_0000u32));
                }
            }
        }
    }

    /// All 2^32 inputs; ~40 s in release:
    /// `cargo test --release -p vpu-num -- --ignored`.
    #[test]
    #[ignore]
    fn from_f32_matches_reference_on_every_input() {
        for x in 0..=u32::MAX {
            check(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(f16::ONE.to_f32(), 1.0);
        assert_eq!(f16::TWO.to_f32(), 2.0);
        assert_eq!(f16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(f16::MAX.to_f32(), 65504.0);
        assert_eq!(f16::MIN.to_f32(), -65504.0);
        assert_eq!(f16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(f16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(f16::EPSILON.to_f32(), 2.0f32.powi(-10));
    }

    #[test]
    fn zero_signs() {
        assert_eq!(f16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(f16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(f16::ZERO, f16::NEG_ZERO);
        assert!(f16::NEG_ZERO.is_sign_negative());
    }

    #[test]
    fn infinity_and_nan() {
        assert_eq!(f16::from_f32(f32::INFINITY), f16::INFINITY);
        assert_eq!(f16::from_f32(f32::NEG_INFINITY), f16::NEG_INFINITY);
        assert!(f16::from_f32(f32::NAN).is_nan());
        assert!(f16::NAN.to_f32().is_nan());
        assert!(f16::INFINITY.is_infinite());
        assert!(!f16::INFINITY.is_nan());
        // Overflow saturates to infinity.
        assert_eq!(f16::from_f32(1e9), f16::INFINITY);
        assert_eq!(f16::from_f32(-1e9), f16::NEG_INFINITY);
        // 65520 is the rounding boundary: ties to even = infinity.
        assert_eq!(f16::from_f32(65520.0), f16::INFINITY);
        assert_eq!(f16::from_f32(65519.0), f16::MAX);
    }

    #[test]
    fn subnormal_conversion() {
        let tiny = 2.0f32.powi(-24);
        assert_eq!(f16::from_f32(tiny).to_bits(), 0x0001);
        assert_eq!(f16::from_f32(tiny * 3.0).to_bits(), 0x0003);
        // Below half the smallest subnormal rounds to zero.
        assert_eq!(f16::from_f32(2.0f32.powi(-26)).to_bits(), 0x0000);
        // Exactly half the smallest subnormal ties to even = zero.
        assert_eq!(f16::from_f32(2.0f32.powi(-25)).to_bits(), 0x0000);
        // Just above half rounds up.
        assert_eq!(f16::from_f32(2.0f32.powi(-25) * 1.0001).to_bits(), 0x0001);
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly between 1.0 and 1+2^-10; ties to even = 1.0.
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(tie), f16::ONE);
        // 1 + 3*2^-11 ties between 1+2^-10 and 1+2^-9; even mantissa wins.
        let tie2 = 1.0 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(tie2).to_bits(), 0x3C02);
        // Slightly above the tie rounds up.
        assert_eq!(f16::from_f32(tie + 1e-6).to_bits(), 0x3C01);
    }

    #[test]
    fn exhaustive_round_trip_through_f32() {
        // Every finite f16 must survive f16 -> f32 -> f16 exactly.
        for bits in 0..=u16::MAX {
            let h = f16::from_bits(bits);
            if h.is_nan() {
                assert!(f16::from_f32(h.to_f32()).is_nan(), "bits {bits:#06x}");
                continue;
            }
            let rt = f16::from_f32(h.to_f32());
            assert_eq!(rt.to_bits(), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn arithmetic_basics() {
        let a = f16::from_f32(1.5);
        let b = f16::from_f32(2.25);
        assert_eq!((a + b).to_f32(), 3.75);
        assert_eq!((b - a).to_f32(), 0.75);
        assert_eq!((a * b).to_f32(), 3.375);
        assert_eq!((b / f16::from_f32(0.75)).to_f32(), 3.0);
        assert_eq!((-a).to_f32(), -1.5);
    }

    #[test]
    fn arithmetic_rounds_per_operation() {
        // 2048 + 1 is not representable in binary16 (ulp at 2048 is 2),
        // so FP16 accumulation silently drops the increment — the classic
        // "stagnation" effect the paper's FP16 experiments probe.
        let big = f16::from_f32(2048.0);
        let one = f16::ONE;
        assert_eq!((big + one).to_f32(), 2048.0);
        // But 2048 + 2 works.
        assert_eq!((big + f16::TWO).to_f32(), 2050.0);
    }

    #[test]
    fn nan_propagates_through_ops() {
        assert!((f16::NAN + f16::ONE).is_nan());
        assert!((f16::NAN * f16::ZERO).is_nan());
        assert!((f16::INFINITY - f16::INFINITY).is_nan());
        assert!((f16::ZERO / f16::ZERO).is_nan());
    }

    #[test]
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN incomparability is what's under test
    fn comparisons() {
        assert!(f16::ONE < f16::TWO);
        assert!(f16::NEG_ONE < f16::ZERO);
        assert!(f16::NEG_INFINITY < f16::MIN);
        assert!(!(f16::NAN < f16::ONE));
        assert!(!(f16::NAN == f16::NAN));
        assert_eq!(f16::ONE.max(f16::TWO), f16::TWO);
        assert_eq!(f16::ONE.min(f16::NEG_ONE), f16::NEG_ONE);
        assert_eq!(f16::NAN.max(f16::ONE), f16::ONE);
        assert_eq!(f16::ONE.max(f16::NAN), f16::ONE);
    }

    #[test]
    fn sum_and_product() {
        let v = [1.0f32, 2.0, 3.0, 4.0].map(f16::from_f32);
        let s: f16 = v.iter().copied().sum();
        let p: f16 = v.iter().copied().product();
        assert_eq!(s.to_f32(), 10.0);
        assert_eq!(p.to_f32(), 24.0);
    }

    #[test]
    fn ulp_distance_is_metric_like() {
        assert_eq!(f16::ONE.ulp_distance(f16::ONE), 0);
        assert_eq!(f16::ONE.ulp_distance(f16::from_bits(0x3C01)), 1);
        assert_eq!(f16::from_f32(1.0).ulp_distance(f16::from_f32(-1.0)), 2 * 0x3C00);
    }

    #[test]
    fn abs_and_signs() {
        assert_eq!(f16::NEG_ONE.abs(), f16::ONE);
        assert_eq!(f16::NEG_ZERO.abs().to_bits(), 0);
        assert!(f16::from_f32(-3.5).is_sign_negative());
        assert!(f16::from_f32(3.5).is_sign_positive());
    }

    #[test]
    fn sqrt_exp_ln() {
        assert_eq!(f16::from_f32(4.0).sqrt().to_f32(), 2.0);
        assert_eq!(f16::ZERO.exp(), f16::ONE);
        assert!((f16::ONE.exp().to_f32() - std::f32::consts::E).abs() < 2e-3);
        assert!((f16::from_f32(std::f32::consts::E).ln().to_f32() - 1.0).abs() < 1e-3);
        assert!(f16::NEG_ONE.sqrt().is_nan());
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", f16::from_f32(1.5)), "1.5");
        assert_eq!(format!("{:?}", f16::from_f32(1.5)), "1.5f16");
    }

    #[test]
    fn from_small_ints() {
        assert_eq!(f16::from(3u8).to_f32(), 3.0);
        assert_eq!(f16::from(-7i8).to_f32(), -7.0);
    }

    #[test]
    fn serde_round_trip() {
        let h = f16::from_f32(0.333);
        let json = serde_json::to_string(&h).unwrap();
        let back: f16 = serde_json::from_str(&json).unwrap();
        assert_eq!(h.to_bits(), back.to_bits());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// f32 -> f16 must be monotone on finite inputs.
        #[test]
        fn conversion_is_monotone(a in -70000.0f32..70000.0, b in -70000.0f32..70000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let hlo = f16::from_f32(lo);
            let hhi = f16::from_f32(hi);
            prop_assert!(hlo.to_f32() <= hhi.to_f32());
        }

        /// Rounding error is bounded by half a ulp of the result.
        #[test]
        fn rounding_error_within_half_ulp(x in -60000.0f32..60000.0) {
            let h = f16::from_f32(x);
            let back = h.to_f32();
            // ulp at the magnitude of x (normal range only)
            let mag = x.abs().max(2.0f32.powi(-14));
            let ulp = 2.0f32.powi(mag.log2().floor() as i32 - 10);
            prop_assert!((back - x).abs() <= ulp / 2.0 + f32::EPSILON,
                "x={x} back={back} ulp={ulp}");
        }

        /// Addition is commutative in FP16 (it rounds the same f32 result).
        #[test]
        fn addition_commutes(a in -1000.0f32..1000.0, b in -1000.0f32..1000.0) {
            let (x, y) = (f16::from_f32(a), f16::from_f32(b));
            prop_assert_eq!((x + y).to_bits(), (y + x).to_bits());
        }

        /// Multiplication is commutative in FP16.
        #[test]
        fn multiplication_commutes(a in -100.0f32..100.0, b in -100.0f32..100.0) {
            let (x, y) = (f16::from_f32(a), f16::from_f32(b));
            prop_assert_eq!((x * y).to_bits(), (y * x).to_bits());
        }

        /// Negation is an exact involution on every bit pattern.
        #[test]
        fn negation_involution(bits in any::<u16>()) {
            let h = f16::from_bits(bits);
            prop_assert_eq!((-(-h)).to_bits(), bits);
        }

        /// x - x is exactly +0 for finite x (basic cancellation sanity).
        #[test]
        fn self_subtraction_is_zero(a in -60000.0f32..60000.0) {
            let x = f16::from_f32(a);
            prop_assert_eq!((x - x).to_f32(), 0.0);
        }

        /// abs strips the sign on all finite patterns.
        #[test]
        fn abs_is_nonnegative(bits in any::<u16>()) {
            let h = f16::from_bits(bits);
            if !h.is_nan() {
                prop_assert!(h.abs().is_sign_positive());
            }
        }

        /// ulp distance of adjacent bit patterns of the same sign is 1.
        #[test]
        fn adjacent_ulp(bits in 0u16..0x7BFF) {
            let a = f16::from_bits(bits);
            let b = f16::from_bits(bits + 1);
            prop_assert_eq!(a.ulp_distance(b), 1);
        }
    }
}
