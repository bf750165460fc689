//! 2-D convolution: im2col + GEMM (production path) and a direct
//! reference implementation used to cross-validate it.

use crate::element::Element;
use crate::kernels::gemm::{gemm_bias, AccumMode};
use crate::kernels::im2col::{im2col, Im2ColGeom};
use crate::shape::Shape;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Static parameters of a convolution layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvParams {
    pub out_channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub pad: usize,
}

impl ConvParams {
    pub fn new(out_channels: usize, kernel: usize, stride: usize, pad: usize) -> Self {
        ConvParams { out_channels, kernel, stride, pad }
    }

    /// Output shape for a given input shape.
    pub fn out_shape(&self, input: Shape) -> Shape {
        self.try_out_shape(input).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`ConvParams::out_shape`], with a window that does not fit the
    /// input (a zero stride or kernel, a kernel larger than the padded
    /// input, padding that overflows) as an error.
    pub fn try_out_shape(&self, input: Shape) -> Result<Shape, String> {
        let oh = Shape::try_conv_extent(input.h, self.kernel, self.pad, self.stride, false)?;
        let ow = Shape::try_conv_extent(input.w, self.kernel, self.pad, self.stride, false)?;
        Ok(Shape::new(input.n, self.out_channels, oh, ow))
    }

    /// Multiply-accumulate count for one batch item.
    pub fn macs(&self, input: Shape) -> u64 {
        let out = self.out_shape(input.with_batch(1));
        (out.c * out.h * out.w) as u64 * (input.c * self.kernel * self.kernel) as u64
    }

    /// Weight tensor element count: `OC · C · k · k`.
    pub fn weight_len(&self, in_channels: usize) -> usize {
        self.out_channels * in_channels * self.kernel * self.kernel
    }
}

/// im2col + GEMM convolution over a whole batch.
///
/// `weights` is `OC × (C·k·k)` row-major, `bias` has `OC` entries.
/// The optional fused ReLU mirrors how both Caffe and the NCSDK graph
/// compiler fold activation into the preceding convolution.
pub fn conv2d<E: Element>(
    input: &Tensor<E>,
    weights: &[E],
    bias: &[E],
    params: &ConvParams,
    mode: AccumMode,
    fuse_relu: bool,
) -> Tensor<E> {
    let ishape = input.shape();
    assert_eq!(weights.len(), params.weight_len(ishape.c), "weight length");
    assert_eq!(bias.len(), params.out_channels, "bias length");
    let oshape = params.out_shape(ishape);
    let geom =
        Im2ColGeom::new(ishape.c, ishape.h, ishape.w, params.kernel, params.pad, params.stride);
    let (rows, cols) = (geom.rows(), geom.cols());

    // A 1x1, stride-1, unpadded window unrolls each item to itself.
    let pointwise = params.kernel == 1 && params.stride == 1 && params.pad == 0;
    let mut out = Tensor::<E>::zeros(oshape);
    let mut scratch = vec![E::ZERO; if pointwise { 0 } else { rows * cols }];
    for n in 0..ishape.n {
        let unrolled = if pointwise {
            input.item(n)
        } else {
            im2col(&geom, input.item(n), &mut scratch);
            &scratch
        };
        let dst = out.item_mut(n);
        gemm_bias(params.out_channels, rows, cols, weights, unrolled, dst, mode, bias, fuse_relu);
    }
    out
}

/// Naive direct convolution, accumulating in f64. Slow; only used by tests
/// as an independent oracle for `conv2d`.
pub fn conv2d_direct_reference<E: Element>(
    input: &Tensor<E>,
    weights: &[E],
    bias: &[E],
    params: &ConvParams,
) -> Tensor<f32> {
    let ishape = input.shape();
    let oshape = params.out_shape(ishape);
    let mut out = Tensor::<f32>::zeros(oshape);
    let k = params.kernel;
    for n in 0..ishape.n {
        for oc in 0..oshape.c {
            for oy in 0..oshape.h {
                for ox in 0..oshape.w {
                    let mut acc = bias[oc].to_f32() as f64;
                    for ic in 0..ishape.c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * params.stride + ky) as isize - params.pad as isize;
                                let ix = (ox * params.stride + kx) as isize - params.pad as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy >= ishape.h as isize
                                    || ix >= ishape.w as isize
                                {
                                    continue;
                                }
                                let w = weights[((oc * ishape.c + ic) * k + ky) * k + kx].to_f32()
                                    as f64;
                                let x = input.at(n, ic, iy as usize, ix as usize).to_f32() as f64;
                                acc += w * x;
                            }
                        }
                    }
                    out.set(n, oc, oy, ox, acc as f32);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use vpu_num::f16;

    fn rand_tensor(shape: Shape, seed: u64) -> Tensor<f32> {
        let mut rng = vpu_num::rng::seeded(seed);
        Tensor::from_fn(shape, |_, _, _, _| rng.gen_range(-1.0..1.0))
    }

    #[test]
    fn out_shape_and_macs() {
        let p = ConvParams::new(64, 7, 2, 3);
        let s = Shape::new(1, 3, 224, 224);
        assert_eq!(p.out_shape(s), Shape::new(1, 64, 112, 112));
        // 64*112*112*3*49 MACs.
        assert_eq!(p.macs(s), 64 * 112 * 112 * 3 * 49);
        assert_eq!(p.weight_len(3), 64 * 3 * 49);
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 conv with identity weights reproduces the input.
        let input = rand_tensor(Shape::new(2, 3, 5, 5), 11);
        let p = ConvParams::new(3, 1, 1, 0);
        let mut w = vec![0.0f32; p.weight_len(3)];
        for c in 0..3 {
            w[c * 3 + c] = 1.0;
        }
        let out = conv2d(&input, &w, &[0.0; 3], &p, AccumMode::Widened, false);
        for (a, b) in out.as_slice().iter().zip(input.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    /// The 1x1 path hands the item to the GEMM as it is; the result is
    /// bit-identical to unrolling it through im2col first.
    #[test]
    fn pointwise_conv_equals_the_im2col_path() {
        let input: Tensor<f16> = rand_tensor(Shape::new(2, 5, 4, 3), 12).cast();
        let p = ConvParams::new(4, 1, 1, 0);
        let w: Vec<f16> = rand_tensor(Shape::vector(1, p.weight_len(5)), 13).cast().into_vec();
        let b: Vec<f16> = rand_tensor(Shape::vector(1, 4), 14).cast().into_vec();
        let geom = Im2ColGeom::new(5, 4, 3, 1, 0, 1);
        for mode in [AccumMode::Widened, AccumMode::Native] {
            for relu in [false, true] {
                let out = conv2d(&input, &w, &b, &p, mode, relu);
                for n in 0..2 {
                    let mut cols = vec![f16::ZERO; 5 * 12];
                    im2col(&geom, input.item(n), &mut cols);
                    let mut want = vec![f16::ZERO; 4 * 12];
                    gemm_bias(4, 5, 12, &w, &cols, &mut want, mode, &b, relu);
                    let bits = |v: &[f16]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(out.item(n)), bits(&want), "{mode:?} relu {relu}");
                }
            }
        }
    }

    #[test]
    fn matches_direct_reference() {
        let input = rand_tensor(Shape::new(2, 4, 9, 9), 21);
        let p = ConvParams::new(6, 3, 2, 1);
        let w: Vec<f32> = rand_tensor(Shape::vector(1, p.weight_len(4)), 22).into_vec();
        let b: Vec<f32> = rand_tensor(Shape::vector(1, 6), 23).into_vec();
        let fast = conv2d(&input, &w, &b, &p, AccumMode::Widened, false);
        let slow = conv2d_direct_reference(&input, &w, &b, &p);
        assert_eq!(fast.shape(), slow.shape());
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn bias_and_fused_relu() {
        let input = Tensor::<f32>::zeros(Shape::new(1, 1, 2, 2));
        let p = ConvParams::new(2, 1, 1, 0);
        let w = vec![1.0f32, 1.0];
        // Zero input, biases -1 and +2: ReLU clamps the first channel.
        let out = conv2d(&input, &w, &[-1.0, 2.0], &p, AccumMode::Widened, true);
        assert!(out.item(0)[..4].iter().all(|&v| v == 0.0));
        assert!(out.item(0)[4..].iter().all(|&v| v == 2.0));
        let raw = conv2d(&input, &w, &[-1.0, 2.0], &p, AccumMode::Widened, false);
        assert!(raw.item(0)[..4].iter().all(|&v| v == -1.0));
    }

    #[test]
    fn fp16_conv_close_to_fp32() {
        let input = rand_tensor(Shape::new(1, 3, 8, 8), 31);
        let p = ConvParams::new(4, 3, 1, 1);
        let w: Vec<f32> = rand_tensor(Shape::vector(1, p.weight_len(3)), 32).into_vec();
        let b = vec![0.05f32; 4];
        let out32 = conv2d(&input, &w, &b, &p, AccumMode::Widened, false);
        let ih: Tensor<f16> = input.cast();
        let wh: Vec<f16> = w.iter().map(|&x| f16::from_f32(x)).collect();
        let bh: Vec<f16> = b.iter().map(|&x| f16::from_f32(x)).collect();
        let out16 = conv2d(&ih, &wh, &bh, &p, AccumMode::Native, false);
        let mut max_err = 0.0f32;
        for (a, b) in out32.as_slice().iter().zip(out16.as_slice()) {
            max_err = max_err.max((a - b.to_f32()).abs());
        }
        // fp16 with native accumulation stays within ~1e-2 for unit-scale
        // inputs of this size, but is NOT exact.
        assert!(max_err > 0.0, "fp16 should differ from fp32");
        assert!(max_err < 5e-2, "fp16 error too large: {max_err}");
    }

    #[test]
    fn batch_items_are_independent() {
        let a = rand_tensor(Shape::new(1, 2, 6, 6), 41);
        let bt = rand_tensor(Shape::new(1, 2, 6, 6), 42);
        let both = Tensor::stack_items(&[a.clone(), bt.clone()]);
        let p = ConvParams::new(3, 3, 1, 1);
        let w: Vec<f32> = rand_tensor(Shape::vector(1, p.weight_len(2)), 43).into_vec();
        let bias = vec![0.1f32; 3];
        let o_batch = conv2d(&both, &w, &bias, &p, AccumMode::Widened, false);
        let oa = conv2d(&a, &w, &bias, &p, AccumMode::Widened, false);
        let ob = conv2d(&bt, &w, &bias, &p, AccumMode::Widened, false);
        assert_eq!(o_batch.item(0), oa.item(0));
        assert_eq!(o_batch.item(1), ob.item(0));
    }
}
