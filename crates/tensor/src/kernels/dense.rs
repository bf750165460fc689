//! Fully-connected (inner-product) layer.

use crate::element::Element;
use crate::kernels::gemm::{dot, AccumMode};
use crate::shape::Shape;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// `y = W·x + b` for every batch item.
///
/// `weights` is `out_features × in_features` row-major; the input tensor is
/// flattened per item (GoogLeNet's classifier consumes the 1024-element
/// global-average-pool output).
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

    #[test]
    #[should_panic(expected = "weight length")]
    fn rejects_bad_weights() {
        let x = Tensor::<f32>::zeros(Shape::vector(1, 4));
        dense(&x, &[0.0; 7], &[0.0; 2], 2, AccumMode::Widened);
    }
}
