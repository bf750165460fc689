//! NCHW tensor shapes and index arithmetic.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense NCHW shape (batch, channels, height, width).
///
/// All layers in the reproduction use the Caffe memory layout: the W axis
/// is contiguous, then H, then C, then N.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    pub n: usize,
    pub c: usize,
    pub h: usize,
    pub w: usize,
}

impl Shape {
    pub const fn new(n: usize, c: usize, h: usize, w: usize) -> Self {
        Shape { n, c, h, w }
    }

    /// Shape of a single feature-map stack (batch of one).
    pub const fn chw(c: usize, h: usize, w: usize) -> Self {
        Shape::new(1, c, h, w)
    }

    /// Flat vector shape (e.g. classifier logits).
    pub const fn vector(n: usize, len: usize) -> Self {
        Shape::new(n, len, 1, 1)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.n * self.c * self.h * self.w
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Elements per batch item.
    pub fn item_len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Flat offset of (n, c, h, w).
    #[inline]
    pub fn index(&self, n: usize, c: usize, h: usize, w: usize) -> usize {
        debug_assert!(
            n < self.n && c < self.c && h < self.h && w < self.w,
            "index ({n},{c},{h},{w}) out of {self}"
        );
        ((n * self.c + c) * self.h + h) * self.w + w
    }

    /// Same spatial/channel extents with a different batch size.
    pub fn with_batch(&self, n: usize) -> Shape {
        Shape { n, ..*self }
    }

    /// Spatial output extent of a conv/pool window: floor or ceil mode.
    ///
    /// Caffe uses floor for convolution and ceil for pooling; both layers
    /// in this repo call through here so the two modes share one tested
    /// implementation. Panics on a window that does not fit.
    pub fn conv_extent(
        input: usize,
        kernel: usize,
        pad: usize,
        stride: usize,
        ceil: bool,
    ) -> usize {
        Shape::try_conv_extent(input, kernel, pad, stride, ceil).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Shape::conv_extent`] for windows read from outside the program:
    /// a zero stride or kernel, a kernel larger than the padded input, or
    /// padding that overflows is an error instead of a panic.
    pub(crate) fn try_conv_extent(
        input: usize,
        kernel: usize,
        pad: usize,
        stride: usize,
        ceil: bool,
    ) -> Result<usize, String> {
        if stride == 0 {
            return Err("stride must be positive".into());
        }
        if kernel == 0 {
            return Err("kernel must be positive".into());
        }
        let padded = pad
            .checked_mul(2)
            .and_then(|p| p.checked_add(input))
            .ok_or_else(|| format!("pad {pad} overflows the input extent {input}"))?;
        if padded < kernel {
            return Err(format!("kernel {kernel} larger than padded input {padded}"));
        }
        let num = padded - kernel;
        Ok(if ceil { num.div_ceil(stride) + 1 } else { num / stride + 1 })
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}x{}", self.n, self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basics() {
        let s = Shape::new(2, 3, 4, 5);
        assert_eq!(s.len(), 120);
        assert_eq!(s.item_len(), 60);
        assert!(!s.is_empty());
        assert_eq!(Shape::new(0, 3, 4, 5).len(), 0);
        assert!(Shape::new(0, 3, 4, 5).is_empty());
    }

    #[test]
    fn indexing_is_nchw_row_major() {
        let s = Shape::new(2, 3, 4, 5);
        assert_eq!(s.index(0, 0, 0, 0), 0);
        assert_eq!(s.index(0, 0, 0, 1), 1);
        assert_eq!(s.index(0, 0, 1, 0), 5);
        assert_eq!(s.index(0, 1, 0, 0), 20);
        assert_eq!(s.index(1, 0, 0, 0), 60);
        assert_eq!(s.index(1, 2, 3, 4), 119);
    }

    #[test]
    fn helpers() {
        assert_eq!(Shape::chw(3, 224, 224), Shape::new(1, 3, 224, 224));
        assert_eq!(Shape::vector(8, 1000), Shape::new(8, 1000, 1, 1));
        assert_eq!(Shape::new(1, 3, 4, 5).with_batch(7), Shape::new(7, 3, 4, 5));
    }

    #[test]
    fn conv_extent_floor_vs_ceil() {
        // GoogLeNet conv1: 224, k=7, p=3, s=2 -> 112 (floor).
        assert_eq!(Shape::conv_extent(224, 7, 3, 2, false), 112);
        // GoogLeNet pool1: 112, k=3, p=0, s=2 -> ceil((112-3)/2)+1 = 56.
        assert_eq!(Shape::conv_extent(112, 3, 0, 2, true), 56);
        // floor mode on the same geometry gives 55.
        assert_eq!(Shape::conv_extent(112, 3, 0, 2, false), 55);
        // 1x1 conv preserves extent.
        assert_eq!(Shape::conv_extent(28, 1, 0, 1, false), 28);
        // Same padding 3x3.
        assert_eq!(Shape::conv_extent(28, 3, 1, 1, false), 28);
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn conv_extent_rejects_oversized_kernel() {
        Shape::conv_extent(2, 5, 0, 1, false);
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(8, 3, 224, 224).to_string(), "8x3x224x224");
    }
}
