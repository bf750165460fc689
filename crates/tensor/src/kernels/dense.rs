//! Fully-connected (inner-product) layer.

use crate::element::Element;
use crate::kernels::gemm::{dot, gemm, AccumMode};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// `y = W·x + b` for every batch item.
///
/// `weights` is laid out as [`dense_layout`] returns it for `mode`. The
/// input tensor is flattened per item (GoogLeNet's classifier consumes
/// the 1024-element global-average-pool output). In `Widened` mode each
/// output is one [`dot`] product; in `Native` mode the whole batch is one
/// [`gemm`] over the transposed weights, whose row loop runs each
/// output's MAC chain over `0..in_features` in the same order as `dot`,
/// so both give the same bits.
pub fn dense<E: Element>(
    input: &Tensor<E>,
    weights: &[E],
    bias: &[E],
    out_features: usize,
    mode: AccumMode,
) -> Tensor<E> {
    let in_features = input.shape().item_len();
    assert_eq!(weights.len(), out_features * in_features, "weight length");
    assert_eq!(bias.len(), out_features, "bias length");
    let batch = input.shape().n;
    let mut out = Tensor::<E>::zeros(Shape::vector(batch, out_features));
    if mode == AccumMode::Native {
        gemm(batch, in_features, out_features, input.as_slice(), weights, out.as_mut_slice(), mode);
        for row in out.as_mut_slice().chunks_exact_mut(out_features) {
            for (y, &b) in row.iter_mut().zip(bias) {
                *y += b;
            }
        }
        return out;
    }
    for n in 0..batch {
        let x = input.item(n);
        let dst = out.item_mut(n);
        dst.par_iter_mut().enumerate().for_each(|(j, y)| {
            let w = &weights[j * in_features..(j + 1) * in_features];
            *y = dot(w, x, mode) + bias[j];
        });
    }
    out
}

/// `weights` (`out_features × in_features`, row-major) as [`dense`]
/// reads them in `mode`: unchanged for `Widened`, transposed to
/// `in_features × out_features` for `Native`. Networks lay their weights
/// out once, when they are compiled.
pub fn dense_layout<E: Copy>(weights: Vec<E>, out_features: usize, mode: AccumMode) -> Vec<E> {
    if mode == AccumMode::Widened || out_features == 0 {
        return weights;
    }
    let in_features = weights.len() / out_features;
    (0..weights.len())
        .map(|i| weights[(i % out_features) * in_features + i / out_features])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_weights() {
        let x = Tensor::<f32>::from_f32_slice(Shape::vector(1, 3), &[1., 2., 3.]);
        let mut w = vec![0.0f32; 9];
        for i in 0..3 {
            w[i * 3 + i] = 1.0;
        }
        let y = dense(&x, &w, &[0.0; 3], 3, AccumMode::Widened);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_product_with_bias() {
        let x = Tensor::<f32>::from_f32_slice(Shape::vector(1, 2), &[3., 5.]);
        // W = [[1, 2], [0, -1]], b = [10, 1]
        let w = vec![1.0f32, 2.0, 0.0, -1.0];
        let y = dense(&x, &w, &[10.0, 1.0], 2, AccumMode::Widened);
        assert_eq!(y.as_slice(), &[23.0, -4.0]);
    }

    #[test]
    fn batched_rows_independent() {
        let x = Tensor::<f32>::from_f32_slice(Shape::vector(2, 2), &[1., 0., 0., 1.]);
        let w = vec![2.0f32, 3.0];
        let y = dense(&x, &w, &[0.0], 1, AccumMode::Widened);
        assert_eq!(y.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn flattens_chw_input() {
        let x = Tensor::<f32>::from_f32_slice(Shape::new(1, 2, 1, 2), &[1., 2., 3., 4.]);
        let w = vec![1.0f32, 1.0, 1.0, 1.0];
        let y = dense(&x, &w, &[0.0], 1, AccumMode::Widened);
        assert_eq!(y.as_slice(), &[10.0]);
    }

    /// The native GEMM over transposed weights equals the per-output
    /// native `dot` chain bit for bit, NaN, ±Inf and ±0 included, on a
    /// batch of items.
    #[test]
    fn native_gemm_matches_the_dot_chain() {
        use rand::Rng;
        use vpu_num::f16;
        let mut rng = vpu_num::rng::seeded(31);
        let (batch, inputs, outputs, mode) = (3, 70, 45, AccumMode::Native);
        let value = |rng: &mut rand_chacha::ChaCha8Rng| match rng.gen_range(0..20) {
            0 => f16::NEG_ZERO,
            1 => f16::ZERO,
            _ => f16::from_f32(rng.gen_range(-3.0..3.0)),
        };
        let mut x: Vec<f16> = (0..batch * inputs).map(|_| value(&mut rng)).collect();
        let mut w: Vec<f16> = (0..outputs * inputs).map(|_| value(&mut rng)).collect();
        let mut b: Vec<f16> = (0..outputs).map(|_| value(&mut rng)).collect();
        // A NaN and infinities in a few weights, a bias and the last item.
        (w[5], w[inputs + 7], w[2 * inputs + 9]) = (f16::NAN, f16::INFINITY, f16::NEG_INFINITY);
        (b[3], x[2 * inputs + 11]) = (f16::NAN, f16::INFINITY);
        let x = Tensor::from_vec(Shape::vector(batch, inputs), x);
        let got = dense(&x, &dense_layout(w.clone(), outputs, mode), &b, outputs, mode);
        let mut finite = 0;
        for (n, j) in (0..batch).flat_map(|n| (0..outputs).map(move |j| (n, j))) {
            let want = dot(&w[j * inputs..][..inputs], x.item(n), mode) + b[j];
            let y = got.item(n)[j];
            assert!(y.to_bits() == want.to_bits() || y.is_nan() && want.is_nan(), "y[{n}][{j}]");
            finite += want.is_finite() as usize;
        }
        assert!(finite > batch * outputs / 2, "{finite} finite outputs");
    }

    #[test]
    fn layout_transposes_for_native_only() {
        let w = vec![1, 2, 3, 4, 5, 6];
        assert_eq!(dense_layout(w.clone(), 2, AccumMode::Widened), w);
        assert_eq!(dense_layout(w, 2, AccumMode::Native), vec![1, 4, 2, 5, 3, 6]);
    }

    #[test]
    #[should_panic(expected = "weight length")]
    fn rejects_bad_weights() {
        let x = Tensor::<f32>::zeros(Shape::vector(1, 4));
        dense(&x, &[0.0; 7], &[0.0; 2], 2, AccumMode::Widened);
    }
}
