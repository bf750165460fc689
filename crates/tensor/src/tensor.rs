//! Dense NCHW tensor container.

use crate::element::Element;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use vpu_num::f16;

/// A dense, owned NCHW tensor of elements `E`.
///
/// ```
/// use vpu_tensor::{Tensor, Shape};
/// let t = Tensor::<f32>::from_fn(Shape::chw(1, 2, 2), |_, _, h, w| (h * 2 + w) as f32);
/// assert_eq!(t.at(0, 0, 1, 1), 3.0);
/// // Quantizing to the NCS wire format rounds to binary16.
/// let h = t.quantize_fp16();
/// assert_eq!(h.shape(), t.shape());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor<E> {
    shape: Shape,
    data: Vec<E>,
}

impl<E: Element> Tensor<E> {
    /// All-zero tensor.
    pub fn zeros(shape: Shape) -> Self {
        Tensor { shape, data: vec![E::ZERO; shape.len()] }
    }

    /// Tensor filled with one value.
    pub fn full(shape: Shape, value: E) -> Self {
        Tensor { shape, data: vec![value; shape.len()] }
    }

    /// Wrap an existing buffer; length must match the shape.
    pub fn from_vec(shape: Shape, data: Vec<E>) -> Self {
        assert_eq!(
            shape.len(),
            data.len(),
            "shape {shape} needs {} elements, got {}",
            shape.len(),
            data.len()
        );
        Tensor { shape, data }
    }

    /// Build from f32 values with per-element conversion (rounds for f16).
    pub fn from_f32_slice(shape: Shape, values: &[f32]) -> Self {
        assert_eq!(shape.len(), values.len());
        Tensor { shape, data: values.iter().map(|&v| E::from_f32(v)).collect() }
    }

    /// Build by evaluating `f(n, c, h, w)`.
    pub fn from_fn(shape: Shape, mut f: impl FnMut(usize, usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(shape.len());
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        data.push(E::from_f32(f(n, c, h, w)));
                    }
                }
            }
        }
        Tensor { shape, data }
    }

    pub fn shape(&self) -> Shape {
        self.shape
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    pub fn into_vec(self) -> Vec<E> {
        self.data
    }

    #[inline]
    pub fn at(&self, n: usize, c: usize, h: usize, w: usize) -> E {
        self.data[self.shape.index(n, c, h, w)]
    }

    #[inline]
    pub fn set(&mut self, n: usize, c: usize, h: usize, w: usize, v: E) {
        let i = self.shape.index(n, c, h, w);
        self.data[i] = v;
    }

    /// Contiguous slice of one batch item.
    pub fn item(&self, n: usize) -> &[E] {
        let il = self.shape.item_len();
        &self.data[n * il..(n + 1) * il]
    }

    /// Mutable slice of one batch item.
    pub fn item_mut(&mut self, n: usize) -> &mut [E] {
        let il = self.shape.item_len();
        &mut self.data[n * il..(n + 1) * il]
    }

    /// Copy a batch item out as a batch-of-one tensor.
    pub fn extract_item(&self, n: usize) -> Tensor<E> {
        Tensor::from_vec(self.shape.with_batch(1), self.item(n).to_vec())
    }

    /// Concatenate batch-of-one tensors into one batch tensor.
    pub fn stack_items(items: &[Tensor<E>]) -> Tensor<E> {
        assert!(!items.is_empty(), "cannot stack zero tensors");
        let base = items[0].shape();
        assert_eq!(base.n, 1, "stack_items expects batch-of-one inputs");
        let mut data = Vec::with_capacity(base.item_len() * items.len());
        for t in items {
            assert_eq!(t.shape(), base, "mismatched item shapes");
            data.extend_from_slice(t.as_slice());
        }
        Tensor::from_vec(base.with_batch(items.len()), data)
    }

    /// Reinterpret the buffer under a new shape of the same length.
    pub fn reshape(self, shape: Shape) -> Tensor<E> {
        assert_eq!(shape.len(), self.data.len(), "reshape to {shape} changes element count");
        Tensor { shape, data: self.data }
    }

    /// Element-wise map (same precision).
    pub fn map(&self, f: impl Fn(E) -> E + Sync) -> Tensor<E> {
        Tensor { shape: self.shape, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Convert to another element precision (rounds when narrowing).
    pub fn cast<T: Element>(&self) -> Tensor<T> {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&v| T::from_f32(v.to_f32())).collect(),
        }
    }

    /// Largest |x| in the tensor (0 for empty).
    pub fn max_abs(&self) -> f32 {
        self.data.iter().map(|&v| v.to_f32().abs()).fold(0.0, f32::max)
    }

    /// Index and value of the maximum element of one batch item
    /// (first maximum wins on ties).
    pub fn argmax_item(&self, n: usize) -> (usize, f32) {
        let mut best = (0usize, f32::NEG_INFINITY);
        for (i, &v) in self.item(n).iter().enumerate() {
            let x = v.to_f32();
            if x > best.1 {
                best = (i, x);
            }
        }
        best
    }

    /// True if any element is NaN.
    pub fn has_nan(&self) -> bool {
        self.data.iter().any(|&v| v.is_nan_e())
    }
}

impl Tensor<f32> {
    /// Round-trip through binary16: the wire format the NCS accepts
    /// (`mvncLoadTensor` takes `half*`).
    pub fn quantize_fp16(&self) -> Tensor<f16> {
        self.cast()
    }
}

impl Tensor<f16> {
    /// Widen back to f32 (exact).
    pub fn widen(&self) -> Tensor<f32> {
        self.cast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = Shape::new(2, 2, 2, 2);
        let mut t = Tensor::<f32>::zeros(s);
        assert_eq!(t.len(), 16);
        t.set(1, 1, 1, 1, 7.0);
        assert_eq!(t.at(1, 1, 1, 1), 7.0);
        assert_eq!(t.at(0, 0, 0, 0), 0.0);
        let u = Tensor::<f32>::full(s, 3.0);
        assert!(u.as_slice().iter().all(|&v| v == 3.0));
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn from_vec_length_mismatch() {
        Tensor::<f32>::from_vec(Shape::new(1, 1, 2, 2), vec![0.0; 3]);
    }

    #[test]
    fn from_fn_layout() {
        let t = Tensor::<f32>::from_fn(Shape::new(1, 2, 2, 2), |_, c, h, w| {
            (c * 100 + h * 10 + w) as f32
        });
        assert_eq!(t.as_slice(), &[0., 1., 10., 11., 100., 101., 110., 111.]);
    }

    #[test]
    fn items_and_stack() {
        let t = Tensor::<f32>::from_fn(Shape::new(3, 1, 1, 2), |n, _, _, w| (n * 10 + w) as f32);
        assert_eq!(t.item(1), &[10.0, 11.0]);
        let one = t.extract_item(2);
        assert_eq!(one.shape(), Shape::new(1, 1, 1, 2));
        assert_eq!(one.as_slice(), &[20.0, 21.0]);
        let re = Tensor::stack_items(&[t.extract_item(0), t.extract_item(1), t.extract_item(2)]);
        assert_eq!(re, t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::<f32>::from_f32_slice(Shape::new(1, 1, 2, 3), &[1., 2., 3., 4., 5., 6.]);
        let r = t.clone().reshape(Shape::vector(1, 6));
        assert_eq!(r.as_slice(), t.as_slice());
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_rejects_size_change() {
        Tensor::<f32>::zeros(Shape::new(1, 1, 2, 2)).reshape(Shape::vector(1, 5));
    }

    #[test]
    fn cast_rounds_to_fp16() {
        let t = Tensor::<f32>::from_f32_slice(Shape::vector(1, 2), &[1.0, 1.0 + 2.0f32.powi(-11)]);
        let h = t.quantize_fp16();
        assert_eq!(h.as_slice()[1].to_f32(), 1.0); // rounded
        let w = h.widen();
        assert_eq!(w.as_slice(), &[1.0, 1.0]);
    }

    #[test]
    fn argmax_and_max_abs() {
        let t =
            Tensor::<f32>::from_f32_slice(Shape::vector(2, 3), &[0.1, -5.0, 2.0, 9.0, 1.0, 9.0]);
        assert_eq!(t.argmax_item(0), (2, 2.0));
        // first maximum wins on ties
        assert_eq!(t.argmax_item(1), (0, 9.0));
        assert_eq!(t.max_abs(), 9.0);
    }

    #[test]
    fn nan_detection() {
        let mut t = Tensor::<f32>::zeros(Shape::vector(1, 4));
        assert!(!t.has_nan());
        t.as_mut_slice()[2] = f32::NAN;
        assert!(t.has_nan());
    }

    #[test]
    fn map_applies_elementwise() {
        let t = Tensor::<f32>::from_f32_slice(Shape::vector(1, 3), &[-1.0, 0.0, 2.0]);
        let r = t.map(|v| Element::maximum(v, 0.0));
        assert_eq!(r.as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn serde_round_trip_fp16() {
        let t = Tensor::<f16>::from_f32_slice(Shape::vector(1, 3), &[0.5, -1.25, 3.0]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Tensor<f16> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
