//! im2col unrolling: convolution as matrix multiplication.
//!
//! Caffe (and the NCSDK graph compiler) lower spatial convolution to GEMM
//! by unrolling every receptive field into a column. For one batch item of
//! shape `C×H×W`, a `kh×kw` kernel with padding `p` and stride `s` yields a
//! matrix of shape `(C·kh·kw) × (OH·OW)`; multiplying the `(OC) × (C·kh·kw)`
//! weight matrix by it produces the `OC × (OH·OW)` output feature map.

use crate::element::Element;
use crate::shape::Shape;

/// Geometry of one im2col unroll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Im2ColGeom {
    pub channels: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub kernel_h: usize,
    pub kernel_w: usize,
    pub pad: usize,
    pub stride: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl Im2ColGeom {
    /// Derive the output geometry (floor mode, as Caffe convolution does).
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        pad: usize,
        stride: usize,
    ) -> Self {
        let out_h = Shape::conv_extent(in_h, kernel, pad, stride, false);
        let out_w = Shape::conv_extent(in_w, kernel, pad, stride, false);
        Im2ColGeom {
            channels,
            in_h,
            in_w,
            kernel_h: kernel,
            kernel_w: kernel,
            pad,
            stride,
            out_h,
            out_w,
        }
    }

    /// Rows of the unrolled matrix: one per (channel, ky, kx).
    pub fn rows(&self) -> usize {
        self.channels * self.kernel_h * self.kernel_w
    }

    /// Columns of the unrolled matrix: one per output pixel.
    pub fn cols(&self) -> usize {
        self.out_h * self.out_w
    }
}

/// Unroll one batch item (`input` of length `C·H·W`) into `out`
/// (length `rows() · cols()`). Out-of-image taps read as zero.
///
/// Each channel is copied once into a plane with `pad` zeros on every
/// side, so every tap of every window is in bounds: row `oy` of the row
/// for `(c, ky, kx)` is `out_w` values of padded row `oy·stride + ky`,
/// from column `kx`, every `stride`-th one.
pub fn im2col<E: Element>(geom: &Im2ColGeom, input: &[E], out: &mut [E]) {
    assert_eq!(input.len(), geom.channels * geom.in_h * geom.in_w, "input length");
    assert_eq!(out.len(), geom.rows() * geom.cols(), "output length");
    let (ih, iw, pad, stride) = (geom.in_h, geom.in_w, geom.pad, geom.stride);
    let (ow, pw) = (geom.out_w, iw + 2 * pad);
    let mut padded = vec![E::ZERO; (ih + 2 * pad) * pw];
    let mut row = 0usize;
    for plane in (0..geom.channels).map(|c| &input[c * ih * iw..(c + 1) * ih * iw]) {
        for y in 0..ih {
            padded[(y + pad) * pw + pad..][..iw].copy_from_slice(&plane[y * iw..(y + 1) * iw]);
        }
        for ky in 0..geom.kernel_h {
            for kx in 0..geom.kernel_w {
                let dst = &mut out[row * geom.cols()..(row + 1) * geom.cols()];
                for oy in 0..geom.out_h {
                    let src = &padded[(oy * stride + ky) * pw + kx..];
                    let dst = &mut dst[oy * ow..(oy + 1) * ow];
                    if stride == 1 {
                        dst.copy_from_slice(&src[..ow]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *d = v;
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// The reference [`im2col`] must match: a bounds test on every tap.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn im2col<E: Element>(geom: &Im2ColGeom, input: &[E], out: &mut [E]) {
        let cols = geom.cols();
        let mut row = 0usize;
        for c in 0..geom.channels {
            let plane = &input[c * geom.in_h * geom.in_w..(c + 1) * geom.in_h * geom.in_w];
            for ky in 0..geom.kernel_h {
                for kx in 0..geom.kernel_w {
                    let dst = &mut out[row * cols..(row + 1) * cols];
                    let mut col = 0usize;
                    for oy in 0..geom.out_h {
                        let iy = (oy * geom.stride + ky) as isize - geom.pad as isize;
                        if iy < 0 || iy >= geom.in_h as isize {
                            for _ in 0..geom.out_w {
                                dst[col] = E::ZERO;
                                col += 1;
                            }
                            continue;
                        }
                        let src_row =
                            &plane[iy as usize * geom.in_w..(iy as usize + 1) * geom.in_w];
                        for ox in 0..geom.out_w {
                            let ix = (ox * geom.stride + kx) as isize - geom.pad as isize;
                            dst[col] = if ix < 0 || ix >= geom.in_w as isize {
                                E::ZERO
                            } else {
                                src_row[ix as usize]
                            };
                            col += 1;
                        }
                    }
                    row += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use vpu_num::f16;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random channel counts, extents, kernels, paddings and strides,
        /// strides past the kernel included: the padded-plane copy and the
        /// per-element loop write the same bits, in f32 and in f16.
        #[test]
        fn matches_the_per_element_loop(
            (channels, h, w) in (1usize..4, 1usize..14, 1usize..14),
            (kernel, pad, stride) in (1usize..6, 0usize..4, 1usize..5),
            seed in any::<u64>(),
        ) {
            prop_assume!(Shape::try_conv_extent(h, kernel, pad, stride, false).is_ok());
            prop_assume!(Shape::try_conv_extent(w, kernel, pad, stride, false).is_ok());
            let geom = Im2ColGeom::new(channels, h, w, kernel, pad, stride);
            let mut rng = vpu_num::rng::seeded(seed);
            let input: Vec<u32> = (0..channels * h * w).map(|_| rng.gen()).collect();
            let x32: Vec<f32> = input.iter().map(|&b| f32::from_bits(b)).collect();
            let x16: Vec<f16> = input.iter().map(|&b| f16::from_bits(b as u16)).collect();
            let b32 = |f| unroll(&geom, &x32, f).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let b16 = |f| unroll(&geom, &x16, f).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(b32(im2col), b32(reference::im2col));
            prop_assert_eq!(b16(im2col), b16(reference::im2col));
        }
    }

    /// What `f` writes for `input`, into a buffer that starts as NaN so
    /// an element left unwritten shows.
    fn unroll<E: Element>(
        geom: &Im2ColGeom,
        input: &[E],
        f: fn(&Im2ColGeom, &[E], &mut [E]),
    ) -> Vec<E> {
        let mut out = vec![E::from_f32(f32::NAN); geom.rows() * geom.cols()];
        f(geom, input, &mut out);
        out
    }

    #[test]
    fn geometry() {
        let g = Im2ColGeom::new(3, 224, 224, 7, 3, 2);
        assert_eq!((g.out_h, g.out_w), (112, 112));
        assert_eq!(g.rows(), 3 * 49);
        assert_eq!(g.cols(), 112 * 112);
    }

    #[test]
    fn identity_1x1() {
        // A 1x1 kernel with no padding unrolls to the input itself.
        let g = Im2ColGeom::new(2, 2, 2, 1, 0, 1);
        let input: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; g.rows() * g.cols()];
        im2col(&g, &input, &mut out);
        assert_eq!(out, input);
    }

    #[test]
    fn three_by_three_padded_center() {
        // 1 channel, 3x3 input, 3x3 kernel, pad 1, stride 1 -> 9 rows x 9 cols.
        let g = Im2ColGeom::new(1, 3, 3, 3, 1, 1);
        let input: Vec<f32> = (1..=9).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; g.rows() * g.cols()];
        im2col(&g, &input, &mut out);
        // Row for (ky=1, kx=1) — the kernel centre — must equal the input.
        let centre = 4; // ky * 3 + kx with ky = kx = 1
        assert_eq!(&out[centre * 9..(centre + 1) * 9], input.as_slice());
        // Row for (ky=0, kx=0): the up-left shifted image, zero padded.
        assert_eq!(&out[0..9], &[0., 0., 0., 0., 1., 2., 0., 4., 5.]);
        // Row for (ky=2, kx=2): down-right shifted.
        let dr = 2 * 3 + 2;
        assert_eq!(&out[dr * 9..(dr + 1) * 9], &[5., 6., 0., 8., 9., 0., 0., 0., 0.]);
    }

    #[test]
    fn stride_two_subsamples() {
        let g = Im2ColGeom::new(1, 4, 4, 1, 0, 2);
        assert_eq!((g.out_h, g.out_w), (2, 2));
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; g.rows() * g.cols()];
        im2col(&g, &input, &mut out);
        assert_eq!(out, vec![0., 2., 8., 10.]);
    }

    #[test]
    fn channels_stack_as_row_blocks() {
        let g = Im2ColGeom::new(2, 2, 2, 1, 0, 1);
        let input: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; g.rows() * g.cols()];
        im2col(&g, &input, &mut out);
        assert_eq!(&out[0..4], &[0., 1., 2., 3.]);
        assert_eq!(&out[4..8], &[4., 5., 6., 7.]);
    }

    #[test]
    #[should_panic(expected = "input length")]
    fn rejects_bad_input_len() {
        let g = Im2ColGeom::new(1, 3, 3, 3, 1, 1);
        let mut out = vec![0.0f32; g.rows() * g.cols()];
        im2col(&g, &[0.0f32; 5], &mut out);
    }
}
