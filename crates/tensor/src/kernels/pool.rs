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
    /// input, padding that overflows, padding not below the kernel) as an
    /// error.
    ///
    /// As in Caffe's `PoolingLayer`, a padded pooling drops the last
    /// ceil-mode window when it would start in the padding, so every
    /// window covers some of the input.
    pub fn try_out_shape(&self, input: Shape) -> Result<Shape, String> {
        let extent = |len: usize| -> Result<usize, String> {
            let out = Shape::try_conv_extent(len, self.kernel, self.pad, self.stride, true)?;
            let start = (out - 1).checked_mul(self.stride);
            let starts_in_padding = start.is_none_or(|start| start >= len + self.pad);
            Ok(if self.pad > 0 && starts_in_padding { out - 1 } else { out })
        };
        let (oh, ow) = (extent(input.h)?, extent(input.w)?);
        if self.pad >= self.kernel {
            return Err(format!("pad {} must be below kernel {}", self.pad, self.kernel));
        }
        Ok(Shape::new(input.n, input.c, oh, ow))
    }

    /// Comparison/add operations per batch item (for the cost models).
    pub fn ops(&self, input: Shape) -> u64 {
        let out = self.out_shape(input.with_batch(1));
        out.len() as u64 * (self.kernel * self.kernel) as u64
    }
}

/// Apply pooling over a whole batch.
///
/// Each `(n, c)` plane is widened to f32 once. Every output folds its
/// window's taps in row-major order from the same seed as the per-tap
/// loop kept in the tests (`reference::pool2d`), so every output bit is
/// the same.
pub fn pool2d<E: Element>(input: &Tensor<E>, params: &PoolParams) -> Tensor<E> {
    match params.kind {
        PoolKind::Max => max_pool(input, params),
        PoolKind::Avg => avg_pool(input, params),
    }
}

/// Max pooling, one pass over the whole output plane per tap `(dy, dx)`,
/// taps in row-major order.
///
/// The widened plane is padded with −inf to span every tap of every
/// window, so clipped, ceil-mode and all-padding windows need no bounds
/// test: the fold starts at −inf and never holds a NaN (`max` returns the
/// other operand), so a −inf tap leaves it as it is. The padded plane is
/// stored as `stride²` phase planes: padded row `py` and column `px` sit
/// at `(py / stride, px / stride)` of phase `(py % stride, px % stride)`.
/// Output `(oy, ox)` accumulates at `oy · phase_w + ox`, so each tap reads
/// one run of consecutive values of one phase, at every stride; the
/// accumulators between `out_w` and `phase_w` are never read out.
fn max_pool<E: Element>(input: &Tensor<E>, params: &PoolParams) -> Tensor<E> {
    let ishape = input.shape();
    let oshape = params.out_shape(ishape);
    let (kernel, stride, pad) = (params.kernel, params.stride, params.pad);
    let (ih, iw, oh, ow) = (ishape.h, ishape.w, oshape.h, oshape.w);
    // The padded extent `(o - 1) * stride + kernel`, divided into phases.
    let phase_h = oh - 1 + kernel.div_ceil(stride);
    let phase_w = ow - 1 + kernel.div_ceil(stride);
    let phase_len = phase_h * phase_w;
    let mut padded = vec![f32::NEG_INFINITY; stride * stride * phase_len];
    let mut acc = vec![f32::NEG_INFINITY; (oh - 1) * phase_w + ow];
    let mut out = Vec::with_capacity(oshape.len());
    // The first phase index whose padded index `q * stride + r` is in the
    // input, and that input index.
    let first = |r: usize| {
        let q = pad.saturating_sub(r).div_ceil(stride);
        (q, q * stride + r - pad)
    };
    let mut plane = vec![0.0f32; ih * iw];
    for src in (0..ishape.n * ishape.c).map(|p| &input.as_slice()[p * ih * iw..][..ih * iw]) {
        for (d, &v) in plane.iter_mut().zip(src) {
            *d = v.to_f32();
        }
        for (p, phase) in padded.chunks_exact_mut(phase_len).enumerate() {
            let ((qy, y0), (qx, x0)) = (first(p / stride), first(p % stride));
            let ys = (y0..ih).step_by(stride);
            for (dst, y) in phase.chunks_exact_mut(phase_w).skip(qy).zip(ys) {
                let row = plane[y * iw..(y + 1) * iw].get(x0..).unwrap_or_default();
                let dst = &mut dst[qx..];
                if stride == 1 {
                    dst[..row.len()].copy_from_slice(row);
                } else {
                    for (d, &v) in dst.iter_mut().zip(row.iter().step_by(stride)) {
                        *d = v;
                    }
                }
            }
        }
        acc.fill(f32::NEG_INFINITY);
        for dy in 0..kernel {
            for dx in 0..kernel {
                let phase = &padded[((dy % stride) * stride + dx % stride) * phase_len..];
                let taps = &phase[(dy / stride) * phase_w + dx / stride..][..acc.len()];
                for (m, &v) in acc.iter_mut().zip(taps) {
                    *m = m.max(v);
                }
            }
        }
        for row in acc.chunks(phase_w) {
            out.extend(row[..ow].iter().map(|&v| E::from_f32(v)));
        }
    }
    Tensor::from_vec(oshape, out)
}

/// Average pooling: each window reads its rows as contiguous slices of
/// the widened plane and divides by its clipped size. It keeps one fold
/// per output: vectorized adds may swap operands, and which NaN an add
/// of two NaNs returns (an `Inf + -Inf` meeting a NaN tap) follows the
/// operand order.
fn avg_pool<E: Element>(input: &Tensor<E>, params: &PoolParams) -> Tensor<E> {
    let ishape = input.shape();
    let oshape = params.out_shape(ishape);
    // The window of output row/column `o`, clipped to `0..extent`; empty
    // (`hi <= lo`) when it lies wholly outside the input.
    let window = |o: usize, extent: usize| {
        let lo = (o * params.stride) as isize - params.pad as isize;
        (lo.max(0), (lo + params.kernel as isize).min(extent as isize))
    };
    let rows: Vec<(isize, isize)> = (0..oshape.h).map(|oy| window(oy, ishape.h)).collect();
    let cols: Vec<(isize, isize)> = (0..oshape.w).map(|ox| window(ox, ishape.w)).collect();
    let (iw, plane_len) = (ishape.w, ishape.h * ishape.w);
    let mut plane = vec![0.0f32; plane_len];
    let mut out = Vec::with_capacity(oshape.len());
    for src in (0..ishape.n * ishape.c).map(|p| &input.as_slice()[p * plane_len..][..plane_len]) {
        for (dst, &v) in plane.iter_mut().zip(src) {
            *dst = v.to_f32();
        }
        for &(y0, y1) in &rows {
            for &(x0, x1) in &cols {
                let b = x1.max(0) as usize;
                let a = (x0 as usize).min(b);
                let taps = (y0..y1).flat_map(|y| &plane[y as usize * iw..][a..b]);
                let s = taps.fold(0.0f32, |s, &v| s + v);
                out.push(E::from_f32(s / ((y1 - y0) * (x1 - x0)).max(1) as f32));
            }
        }
    }
    Tensor::from_vec(oshape, out)
}

/// The reference [`pool2d`] must match bit for bit: every tap read
/// through [`Tensor::at`], every output written through [`Tensor::set`].
#[cfg(test)]
mod reference {
    use super::*;

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vpu_num::f16;

    /// Bits of every output, so NaN payloads and signed zeros count.
    fn bits<E: Element>(t: &Tensor<E>) -> Vec<u32> {
        t.as_slice().iter().map(|v| v.to_f32().to_bits()).collect()
    }

    /// Values for `shape` drawn from `seed`: signed zeros, infinities and
    /// NaNs mixed into random values.
    fn values(shape: Shape, seed: &[(u32, u8)]) -> Vec<f32> {
        (0..shape.len())
            .map(|i| match seed[i % seed.len()] {
                (_, 0) => 0.0,
                (_, 1) => -0.0,
                (_, 2) => f32::INFINITY,
                (_, 3) => f32::NEG_INFINITY,
                (_, 4) => f32::NAN,
                (r, _) => (r as f32 / u32::MAX as f32 - 0.5) * 200.0 + i as f32 * 0.37,
            })
            .collect()
    }

    /// Output bits equal to the reference's. Max pooling is held to every
    /// bit with no exception (its `f32::max` fold skips NaN taps in the
    /// kernel and the reference alike). In average pooling any NaN will do
    /// where the reference is NaN: which NaN an `Inf + -Inf` meeting a NaN
    /// tap returns is left to code generation (it differs between the
    /// debug and release builds of the fold), as in the GEMM proptests.
    fn same<E: Element>(kind: PoolKind, got: &Tensor<E>, want: &Tensor<E>) -> bool {
        let (got, want) = (bits(got), bits(want));
        let nan = |b: u32| f32::from_bits(b).is_nan();
        let any_nan = kind == PoolKind::Avg;
        got.len() == want.len()
            && got.iter().zip(&want).all(|(&g, &w)| g == w || any_nan && nan(g) && nan(w))
    }

    /// `pool2d` and the per-tap loop agree on `values`, in f32 and in f16,
    /// as [`same`] compares them.
    fn agree(shape: Shape, params: &PoolParams, values: &[f32]) -> Result<(), String> {
        let t32 = Tensor::<f32>::from_f32_slice(shape, values);
        if !same(params.kind, &pool2d(&t32, params), &reference::pool2d(&t32, params)) {
            return Err(format!("f32 {shape} {params:?}"));
        }
        let t16 = Tensor::<f16>::from_f32_slice(shape, values);
        if !same(params.kind, &pool2d(&t16, params), &reference::pool2d(&t16, params)) {
            return Err(format!("f16 {shape} {params:?}"));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random shapes, kernels, strides and paddings, ceil-mode partial
        /// windows included; inputs mix signed zeros, infinities and NaNs
        /// into random values. Padding not below the kernel is an error,
        /// so those draws are skipped.
        #[test]
        fn matches_the_per_tap_loop(
            (n, c, h, w) in (1usize..3, 1usize..4, 1usize..12, 1usize..12),
            (kernel, stride, pad) in (1usize..6, 1usize..4, 0usize..4),
            avg in any::<bool>(),
            seed in prop::collection::vec((any::<u32>(), 0u8..12), 1..64),
        ) {
            let shape = Shape::new(n, c, h, w);
            let kind = if avg { PoolKind::Avg } else { PoolKind::Max };
            let params = PoolParams::new(kind, kernel, stride, pad);
            prop_assume!(params.try_out_shape(shape).is_ok());
            prop_assert_eq!(agree(shape, &params, &values(shape, &seed)), Ok(()));
        }
    }

    /// The network planes the proptest's extents cannot reach: Tiny's
    /// 16×16 s2 ceil-mode and 8×8 s1 p1 pools, and the Mini and Full
    /// GoogLeNet extents up to 112×112 s2.
    #[test]
    fn max_pool_matches_the_per_tap_loop_on_network_planes() {
        use rand::Rng;
        let mut rng = vpu_num::rng::seeded(28);
        let seed: Vec<(u32, u8)> = (0..997).map(|_| (rng.gen(), rng.gen_range(0..12))).collect();
        for (hw, kernel, stride, pad) in [
            (16, 3, 2, 0),
            (8, 3, 1, 1),
            (112, 3, 2, 0),
            (56, 3, 2, 0),
            (28, 3, 1, 1),
            (14, 3, 2, 0),
            (7, 3, 1, 1),
        ] {
            let shape = Shape::new(1, 2, hw, hw);
            let params = PoolParams::new(PoolKind::Max, kernel, stride, pad);
            assert_eq!(agree(shape, &params, &values(shape, &seed)), Ok(()));
        }
    }

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

    /// Caffe's `PoolingLayer` geometry: with padding, a last ceil-mode
    /// window that would start in the padding is dropped, and padding
    /// must be below the kernel.
    #[test]
    fn padded_pooling_follows_caffe() {
        let s = Shape::new(1, 1, 5, 5);
        // Windows start at -1, 1, 3; a fourth would start at 5 = in + pad - 1.
        assert_eq!(PoolParams::new(PoolKind::Max, 2, 2, 1).out_shape(s), Shape::new(1, 1, 3, 3));
        // Unpadded, the ceil-mode window at 4 stays.
        assert_eq!(PoolParams::new(PoolKind::Max, 2, 2, 0).out_shape(s), Shape::new(1, 1, 3, 3));
        assert_eq!(PoolParams::new(PoolKind::Avg, 3, 2, 1).out_shape(s), Shape::new(1, 1, 3, 3));
        assert_eq!(
            PoolParams::new(PoolKind::Max, 2, 1, 2).try_out_shape(s),
            Err("pad 2 must be below kernel 2".to_string())
        );
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
