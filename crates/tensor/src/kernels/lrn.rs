//! Local Response Normalization (across channels), as used by GoogLeNet.
//!
//! `out[c] = in[c] / (k + alpha/n * sum_{c' in window} in[c']^2)^beta`
//! with the window of `local_size` channels centred on `c` (clipped at the
//! edges), exactly Caffe's `ACROSS_CHANNELS` LRN.
//!
//! The sum of squares is computed in f32 even on the FP16 path: binary16
//! overflows at 65504, which squared activations hit easily, and real
//! FP16 hardware implements LRN with a widened internal accumulator for
//! the same reason. Only the final division result is rounded to the
//! element type.

use crate::element::Element;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// LRN parameters (Caffe semantics: `alpha` is divided by `local_size`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LrnParams {
    pub local_size: usize,
    pub alpha: f32,
    pub beta: f32,
    pub k: f32,
}

impl LrnParams {
    /// The GoogLeNet configuration: n=5, alpha=1e-4, beta=0.75, k=1.
    pub fn googlenet() -> Self {
        LrnParams { local_size: 5, alpha: 1e-4, beta: 0.75, k: 1.0 }
    }

    /// Arithmetic operations per batch item (for the cost models):
    /// roughly one square + one add per window tap, plus a power and a
    /// divide per element.
    pub fn ops(&self, shape: crate::shape::Shape) -> u64 {
        shape.item_len() as u64 * (self.local_size as u64 * 2 + 2)
    }
}

/// Apply across-channel LRN over a whole batch.
///
/// Each item is widened to f32 once. The sliding sum of squares then runs
/// over whole channel planes: one running sum per pixel, updated a plane
/// at a time with the same adds and subtracts, in the same order, as the
/// per-pixel loop kept in the tests (`reference::lrn`). Each item is
/// narrowed to the element type once at the end, so every output bit is
/// the same, up to which NaN an add of two NaNs returns.
pub fn lrn<E: Element>(input: &Tensor<E>, params: &LrnParams) -> Tensor<E> {
    assert!(params.local_size % 2 == 1, "local_size must be odd");
    let shape = input.shape();
    let half = params.local_size / 2;
    let scale = params.alpha / params.local_size as f32;
    let plane = shape.h * shape.w;
    let mut x = vec![0.0f32; shape.item_len()];
    let mut y = vec![0.0f32; shape.item_len()];
    let mut sumsq = vec![0.0f32; plane];
    let mut out = Vec::with_capacity(shape.len());
    let at = |c: usize| c * plane..(c + 1) * plane;
    for n in 0..shape.n {
        for (dst, v) in x.iter_mut().zip(input.item(n)) {
            *dst = v.to_f32();
        }
        sumsq.fill(0.0);
        let add = |sumsq: &mut [f32], c: usize| {
            for (s, &v) in sumsq.iter_mut().zip(&x[at(c)]) {
                *s += v * v;
            }
        };
        for c in 0..(half + 1).min(shape.c) {
            add(&mut sumsq, c);
        }
        for c in 0..shape.c {
            for ((dst, &v), &s) in y[at(c)].iter_mut().zip(&x[at(c)]).zip(&sumsq) {
                *dst = v / (params.k + scale * s).powf(params.beta);
            }
            // Slide the window: add the entering channel, drop the
            // leaving one.
            if c + half + 1 < shape.c {
                add(&mut sumsq, c + half + 1);
            }
            if c >= half {
                for (s, &v) in sumsq.iter_mut().zip(&x[at(c - half)]) {
                    *s -= v * v;
                }
            }
        }
        out.extend(y.iter().map(|&v| E::from_f32(v)));
    }
    Tensor::from_vec(shape, out)
}

/// The reference [`lrn`] must match bit for bit: one pixel at a time,
/// every value read through [`Tensor::at`] and written through
/// [`Tensor::set`].
#[cfg(test)]
mod reference {
    use super::*;

    pub fn lrn<E: Element>(input: &Tensor<E>, params: &LrnParams) -> Tensor<E> {
        let shape = input.shape();
        let half = params.local_size / 2;
        let scale = params.alpha / params.local_size as f32;
        let mut out = Tensor::<E>::zeros(shape);
        for n in 0..shape.n {
            for h in 0..shape.h {
                for w in 0..shape.w {
                    let mut sumsq = 0.0f32;
                    for c in 0..(half + 1).min(shape.c) {
                        let v = input.at(n, c, h, w).to_f32();
                        sumsq += v * v;
                    }
                    for c in 0..shape.c {
                        let denom = (params.k + scale * sumsq).powf(params.beta);
                        let v = input.at(n, c, h, w).to_f32();
                        out.set(n, c, h, w, E::from_f32(v / denom));
                        let entering = c + half + 1;
                        if entering < shape.c {
                            let e = input.at(n, entering, h, w).to_f32();
                            sumsq += e * e;
                        }
                        if c >= half {
                            let l = input.at(n, c - half, h, w).to_f32();
                            sumsq -= l * l;
                        }
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
    use crate::shape::Shape;

    fn naive_lrn(input: &Tensor<f32>, p: &LrnParams) -> Tensor<f32> {
        let shape = input.shape();
        let half = (p.local_size / 2) as isize;
        let mut out = Tensor::<f32>::zeros(shape);
        for n in 0..shape.n {
            for c in 0..shape.c {
                for h in 0..shape.h {
                    for w in 0..shape.w {
                        let mut s = 0.0;
                        for d in -half..=half {
                            let cc = c as isize + d;
                            if cc >= 0 && cc < shape.c as isize {
                                let v = input.at(n, cc as usize, h, w);
                                s += v * v;
                            }
                        }
                        let denom = (p.k + p.alpha / p.local_size as f32 * s).powf(p.beta);
                        out.set(n, c, h, w, input.at(n, c, h, w) / denom);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn matches_naive_reference() {
        use rand::Rng;
        let mut rng = vpu_num::rng::seeded(77);
        let t =
            Tensor::<f32>::from_fn(Shape::new(2, 7, 3, 3), |_, _, _, _| rng.gen_range(-2.0..2.0));
        let p = LrnParams::googlenet();
        let fast = lrn(&t, &p);
        let slow = naive_lrn(&t, &p);
        for (a, b) in fast.as_slice().iter().zip(slow.as_slice()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    /// Bits of every output, so signed zeros count, with every NaN as one
    /// value: which NaN an add of two NaNs returns is left to code
    /// generation, and the plane loop and the per-pixel loop compile to
    /// different operand orders (`Inf - Inf` in the sliding sum makes a
    /// NaN of its own).
    fn bits<E: Element>(t: &Tensor<E>) -> Vec<u32> {
        t.as_slice()
            .iter()
            .map(|v| if v.is_nan_e() { u32::MAX } else { v.to_f32().to_bits() })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// Random shapes, odd windows wider and narrower than the channel
        /// count, and random parameters; inputs mix signed zeros,
        /// infinities and NaNs into values whose squares pass 65504.
        #[test]
        fn matches_the_per_pixel_loop(
            (n, c, h, w) in (1usize..3, 1usize..12, 1usize..6, 1usize..6),
            half in 0usize..4,
            (alpha, beta, k) in (0.0f32..2.0, 0.1f32..1.5, 0.0f32..3.0),
            seed in proptest::collection::vec((proptest::prelude::any::<u32>(), 0u8..12), 1..64),
        ) {
            let shape = Shape::new(n, c, h, w);
            let params = LrnParams { local_size: 2 * half + 1, alpha, beta, k };
            let values: Vec<f32> = (0..shape.len())
                .map(|i| match seed[i % seed.len()] {
                    (_, 0) => 0.0,
                    (_, 1) => -0.0,
                    (_, 2) => f32::INFINITY,
                    (_, 3) => f32::NEG_INFINITY,
                    (_, 4) => f32::NAN,
                    (r, _) => (r as f32 / u32::MAX as f32 - 0.5) * 600.0 + i as f32 * 0.37,
                })
                .collect();
            let t32 = Tensor::<f32>::from_f32_slice(shape, &values);
            proptest::prop_assert_eq!(bits(&lrn(&t32, &params)), bits(&reference::lrn(&t32, &params)));
            let t16 = Tensor::<vpu_num::f16>::from_f32_slice(shape, &values);
            proptest::prop_assert_eq!(bits(&lrn(&t16, &params)), bits(&reference::lrn(&t16, &params)));
        }
    }

    #[test]
    fn zero_input_passes_through() {
        let t = Tensor::<f32>::zeros(Shape::new(1, 5, 2, 2));
        let out = lrn(&t, &LrnParams::googlenet());
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn normalization_shrinks_large_activations() {
        let p = LrnParams { local_size: 5, alpha: 1.0, beta: 0.75, k: 1.0 };
        let t = Tensor::<f32>::full(Shape::new(1, 5, 1, 1), 10.0);
        let out = lrn(&t, &p);
        // Middle channel sees the full window: denom = (1 + 1/5*500)^0.75.
        let expect = 10.0 / 101.0f32.powf(0.75);
        assert!((out.at(0, 2, 0, 0) - expect).abs() < 1e-4);
        // Edge channels have clipped windows (3 taps), so they are
        // normalized less aggressively.
        assert!(out.at(0, 0, 0, 0) > out.at(0, 2, 0, 0));
        assert!(out.at(0, 4, 0, 0) > out.at(0, 2, 0, 0));
    }

    #[test]
    fn single_channel_window_of_one() {
        let p = LrnParams { local_size: 1, alpha: 1.0, beta: 1.0, k: 0.0 };
        let t = Tensor::<f32>::from_f32_slice(Shape::new(1, 1, 1, 2), &[2.0, 4.0]);
        let out = lrn(&t, &p);
        // denom = in^2 -> out = 1/in.
        assert!((out.as_slice()[0] - 0.5).abs() < 1e-6);
        assert!((out.as_slice()[1] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn fp16_lrn_does_not_overflow() {
        use vpu_num::f16;
        // Activations of 200: squared is 40000, sum over window 200k —
        // far beyond fp16 max. Internal f32 accumulation must survive.
        let t = Tensor::<f16>::full(Shape::new(1, 5, 1, 1), f16::from_f32(200.0));
        let out = lrn(&t, &LrnParams { local_size: 5, alpha: 1.0, beta: 0.5, k: 0.0 });
        for &v in out.as_slice() {
            assert!(v.is_finite(), "overflowed: {v:?}");
        }
        // Middle channel: 200 / sqrt(1/5 * 5 * 200^2) = 1.
        assert!((out.at(0, 2, 0, 0).to_f32() - 1.0).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn rejects_even_window() {
        let t = Tensor::<f32>::zeros(Shape::new(1, 4, 1, 1));
        lrn(&t, &LrnParams { local_size: 4, alpha: 1.0, beta: 1.0, k: 1.0 });
    }
}
