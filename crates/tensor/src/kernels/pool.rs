//! Spatial pooling (max / average) with Caffe's ceil-mode geometry.

use crate::element::Element;
use crate::shape::Shape;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Pooling operator kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PoolKind {
    Max,
    Avg,
}

/// Static pooling parameters.
///
/// Caffe computes pooled extents in **ceil** mode (windows may start inside
/// the image and hang off the end); windows are then clipped to the image.
/// Average pooling divides by the clipped window size (padding excluded),
/// matching Caffe's behaviour for the GoogLeNet geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolParams {
    pub kind: PoolKind,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl PoolParams {
    pub fn new(kind: PoolKind, kernel: usize, stride: usize, pad: usize) -> Self {
        PoolParams { kind, kernel, stride, pad }
    }

    /// Global pooling: one output pixel per channel.
    pub fn global(kind: PoolKind, extent: usize) -> Self {
        PoolParams { kind, kernel: extent, stride: 1, pad: 0 }
    }

    pub fn out_shape(&self, input: Shape) -> Shape {
        self.try_out_shape(input).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`PoolParams::out_shape`], with a window that does not fit the
    /// input (a zero stride or kernel, a kernel larger than the padded
    /// input, padding that overflows) as an error.
    pub fn try_out_shape(&self, input: Shape) -> Result<Shape, String> {
        let oh = Shape::try_conv_extent(input.h, self.kernel, self.pad, self.stride, true)?;
        let ow = Shape::try_conv_extent(input.w, self.kernel, self.pad, self.stride, true)?;
        Ok(Shape::new(input.n, input.c, oh, ow))
    }

    /// Comparison/add operations per batch item (for the cost models).
    pub fn ops(&self, input: Shape) -> u64 {
        let out = self.out_shape(input.with_batch(1));
        out.len() as u64 * (self.kernel * self.kernel) as u64
    }
}

/// Apply pooling over a whole batch.
pub fn pool2d<E: Element>(input: &Tensor<E>, params: &PoolParams) -> Tensor<E> {
    let ishape = input.shape();
    let oshape = params.out_shape(ishape);
    let mut out = Tensor::<E>::zeros(oshape);
    let (ih, iw) = (ishape.h as isize, ishape.w as isize);
    for n in 0..ishape.n {
        for c in 0..ishape.c {
            for oy in 0..oshape.h {
                for ox in 0..oshape.w {
                    let y0 = (oy * params.stride) as isize - params.pad as isize;
                    let x0 = (ox * params.stride) as isize - params.pad as isize;
                    let y1 = (y0 + params.kernel as isize).min(ih);
                    let x1 = (x0 + params.kernel as isize).min(iw);
                    let y0 = y0.max(0);
                    let x0 = x0.max(0);
                    let v = match params.kind {
                        PoolKind::Max => {
                            let mut m = f32::NEG_INFINITY;
                            for y in y0..y1 {
                                for x in x0..x1 {
                                    m = m.max(input.at(n, c, y as usize, x as usize).to_f32());
                                }
                            }
                            E::from_f32(m)
                        }
                        PoolKind::Avg => {
                            let mut s = 0.0f32;
                            for y in y0..y1 {
                                for x in x0..x1 {
                                    s += input.at(n, c, y as usize, x as usize).to_f32();
                                }
                            }
                            let count = ((y1 - y0) * (x1 - x0)).max(1) as f32;
                            E::from_f32(s / count)
                        }
                    };
                    out.set(n, c, oy, ox, v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn googlenet_pool_geometries() {
        // pool1: 112 -> 56 (k3 s2 ceil)
        let p = PoolParams::new(PoolKind::Max, 3, 2, 0);
        assert_eq!(p.out_shape(Shape::new(1, 64, 112, 112)), Shape::new(1, 64, 56, 56));
        // pool5: global 7x7 avg -> 1x1
        let g = PoolParams::global(PoolKind::Avg, 7);
        assert_eq!(g.out_shape(Shape::new(1, 1024, 7, 7)), Shape::new(1, 1024, 1, 1));
        // inception in-module pool: k3 s1 p1 keeps extent
        let ip = PoolParams::new(PoolKind::Max, 3, 1, 1);
        assert_eq!(ip.out_shape(Shape::new(1, 192, 28, 28)), Shape::new(1, 192, 28, 28));
    }

    #[test]
    fn max_pool_values() {
        let t = Tensor::<f32>::from_f32_slice(
            Shape::new(1, 1, 4, 4),
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10., 11., 12., 13., 14., 15., 16.],
        );
        let p = PoolParams::new(PoolKind::Max, 2, 2, 0);
        let out = pool2d(&t, &p);
        assert_eq!(out.as_slice(), &[6., 8., 14., 16.]);
    }

    #[test]
    fn avg_pool_values() {
        let t = Tensor::<f32>::from_f32_slice(Shape::new(1, 1, 2, 2), &[1., 3., 5., 7.]);
        let p = PoolParams::new(PoolKind::Avg, 2, 2, 0);
        let out = pool2d(&t, &p);
        assert_eq!(out.as_slice(), &[4.0]);
    }

    #[test]
    fn ceil_mode_creates_partial_windows() {
        // 5 wide, k2 s2: ceil -> 3 outputs, last window has one column.
        let t = Tensor::<f32>::from_f32_slice(
            Shape::new(1, 1, 2, 5),
            &[1., 2., 3., 4., 10., 1., 2., 3., 4., 10.],
        );
        let p = PoolParams::new(PoolKind::Max, 2, 2, 0);
        let out = pool2d(&t, &p);
        assert_eq!(out.shape().w, 3);
        assert_eq!(out.as_slice(), &[2., 4., 10.]);
        // Average over the clipped (2-element) last window divides by 2.
        let pa = PoolParams::new(PoolKind::Avg, 2, 2, 0);
        let oa = pool2d(&t, &pa);
        assert_eq!(oa.as_slice(), &[1.5, 3.5, 10.0]);
    }

    #[test]
    fn padding_is_neutral_for_max() {
        // With pad 1, border windows see out-of-image cells; max must not
        // treat them as zero when all values are negative.
        let t = Tensor::<f32>::from_f32_slice(Shape::new(1, 1, 2, 2), &[-5., -6., -7., -8.]);
        let p = PoolParams::new(PoolKind::Max, 3, 1, 1);
        let out = pool2d(&t, &p);
        assert_eq!(out.at(0, 0, 0, 0), -5.0);
        assert_eq!(out.at(0, 0, 1, 1), -5.0);
    }

    #[test]
    fn padding_excluded_from_avg_denominator() {
        let t = Tensor::<f32>::from_f32_slice(Shape::new(1, 1, 2, 2), &[2., 2., 2., 2.]);
        let p = PoolParams::new(PoolKind::Avg, 3, 1, 1);
        let out = pool2d(&t, &p);
        // Corner window covers 2x2 real cells -> average is 2, not 8/9.
        assert_eq!(out.at(0, 0, 0, 0), 2.0);
    }

    #[test]
    fn channels_pool_independently() {
        let t = Tensor::<f32>::from_fn(Shape::new(1, 2, 2, 2), |_, c, h, w| {
            (c * 100 + h * 2 + w) as f32
        });
        let p = PoolParams::new(PoolKind::Max, 2, 2, 0);
        let out = pool2d(&t, &p);
        assert_eq!(out.as_slice(), &[3.0, 103.0]);
    }

    #[test]
    fn ops_count() {
        let p = PoolParams::new(PoolKind::Max, 3, 2, 0);
        let s = Shape::new(1, 64, 112, 112);
        assert_eq!(p.ops(s), (64 * 56 * 56 * 9) as u64);
    }

    #[test]
    fn fp16_pooling() {
        use vpu_num::f16;
        let t = Tensor::<f16>::from_f32_slice(Shape::new(1, 1, 2, 2), &[1., 2., 3., 4.]);
        let p = PoolParams::new(PoolKind::Avg, 2, 2, 0);
        let out = pool2d(&t, &p);
        assert_eq!(out.as_slice()[0].to_f32(), 2.5);
    }
}
