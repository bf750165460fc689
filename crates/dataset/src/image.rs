//! Synthetic image generation.
//!
//! Each class owns a **prototype**: a smooth random field built by
//! bilinearly upsampling a seeded low-resolution pattern (smoothness
//! matters — convolutional trunks average locally, so class identity must
//! survive downsampling the way real object appearance does). A sample is
//!
//! `image = (1 - mix) · prototype(class) + mix · prototype(distractor) + σ·noise`
//!
//! clipped to `[0, 1]` and mean-centred (the Caffe preprocessing step the
//! paper applies with the ILSVRC-2012 training means). `σ` and `mix` set
//! task difficulty; [`crate::calibrate`] tunes σ to the paper's error
//! rate.

use rand::Rng;
use vpu_num::rng;
use vpu_tensor::{Shape, Tensor};

/// Geometry and difficulty of the generator.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ImageGenConfig {
    pub classes: usize,
    /// Output image shape (one item, NCHW with n=1).
    pub shape: Shape,
    /// Gaussian pixel noise σ.
    pub sigma: f64,
    /// Blend weight of a distractor class prototype.
    pub distractor_mix: f32,
    /// Master seed.
    pub seed: u64,
}

/// Extent of the low-res prototype lattice upsampled to each class's
/// prototype.
pub const LATTICE: usize = 8;

/// Per-channel means subtracted after generation (the ILSVRC-2012 BGR
/// means 104/117/123 rescaled to \[0,1\]).
pub const CHANNEL_MEANS: [f32; 3] = [104.0 / 255.0, 117.0 / 255.0, 123.0 / 255.0];

/// The generator; prototypes are materialized lazily and cached.
#[derive(Debug, Clone)]
pub struct ImageGen {
    cfg: ImageGenConfig,
    prototypes: Vec<Tensor<f32>>,
}

impl ImageGen {
    pub fn new(cfg: ImageGenConfig) -> Self {
        assert!(cfg.classes > 0, "need at least one class");
        let prototypes = (0..cfg.classes).map(|c| prototype(&cfg, c)).collect();
        ImageGen { cfg, prototypes }
    }

    pub fn config(&self) -> &ImageGenConfig {
        &self.cfg
    }

    /// The clean prototype of a class (pixel space, before mean-centring).
    pub fn prototype(&self, class: usize) -> &Tensor<f32> {
        &self.prototypes[class]
    }

    /// Prototype preprocessed the way samples are (mean-centred): what the
    /// pseudo-trainer pushes through the trunk.
    pub fn prototype_input(&self, class: usize) -> Tensor<f32> {
        center(self.prototypes[class].clone())
    }

    /// Generate validation image `index` of class `class` (bit-exact for
    /// a given `(seed, class, index)`).
    pub fn sample(&self, class: usize, index: u64) -> Tensor<f32> {
        self.sample_tagged(class, index, "image")
    }

    /// Generate a *training* image: same distribution as [`ImageGen::sample`]
    /// but from a disjoint random stream, so pseudo-training never sees a
    /// validation image.
    pub fn train_sample(&self, class: usize, index: u64) -> Tensor<f32> {
        self.sample_tagged(class, index, "train-image")
    }

    fn sample_tagged(&self, class: usize, index: u64, tag: &str) -> Tensor<f32> {
        assert!(class < self.cfg.classes, "class {class} out of range");
        let mut stream = rng::indexed_stream(self.cfg.seed, tag, (class as u64) << 32 | index);
        let distractor = if self.cfg.classes > 1 {
            let d: usize = stream.gen_range(0..self.cfg.classes - 1);
            if d >= class {
                d + 1
            } else {
                d
            }
        } else {
            0
        };
        let proto = &self.prototypes[class];
        let dproto = &self.prototypes[distractor];
        let mix = self.cfg.distractor_mix;
        let sigma = self.cfg.sigma;
        let mut img = Tensor::<f32>::zeros(self.cfg.shape);
        // The noise goes into the image first; each pixel then becomes
        // the blend plus its noise.
        rng::fill_normal_f32(&mut stream, img.as_mut_slice());
        let pixels = img.as_mut_slice().iter_mut().zip(proto.as_slice()).zip(dproto.as_slice());
        for ((x, &p), &d) in pixels {
            *x = ((1.0 - mix) * p + mix * d + *x * sigma as f32).clamp(0.0, 1.0);
        }
        center(img)
    }
}

/// Subtract the per-channel ILSVRC means (Caffe preprocessing).
fn center(mut img: Tensor<f32>) -> Tensor<f32> {
    let shape = img.shape();
    let plane = shape.h * shape.w;
    let data = img.as_mut_slice();
    for c in 0..shape.c {
        let mean = CHANNEL_MEANS[c % CHANNEL_MEANS.len()];
        for v in &mut data[c * plane..(c + 1) * plane] {
            *v -= mean;
        }
    }
    img
}

/// Build the smooth prototype field for one class.
fn prototype(cfg: &ImageGenConfig, class: usize) -> Tensor<f32> {
    let mut stream = rng::indexed_stream(cfg.seed, "prototype", class as u64);
    let l = LATTICE;
    let shape = cfg.shape;
    // Low-res control lattice in [0, 1].
    let lattice: Vec<f32> = (0..shape.c * l * l).map(|_| stream.gen_range(0.0..1.0)).collect();
    Tensor::from_fn(shape, |_, c, y, x| {
        // Bilinear upsample of the lattice.
        let fy = y as f32 / (shape.h - 1).max(1) as f32 * (l - 1) as f32;
        let fx = x as f32 / (shape.w - 1).max(1) as f32 * (l - 1) as f32;
        let (y0, x0) = (fy.floor() as usize, fx.floor() as usize);
        let (y1, x1) = ((y0 + 1).min(l - 1), (x0 + 1).min(l - 1));
        let (wy, wx) = (fy - y0 as f32, fx - x0 as f32);
        let at = |yy: usize, xx: usize| lattice[(c * l + yy) * l + xx];
        at(y0, x0) * (1.0 - wy) * (1.0 - wx)
            + at(y0, x1) * (1.0 - wy) * wx
            + at(y1, x0) * wy * (1.0 - wx)
            + at(y1, x1) * wy * wx
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;

    fn gen() -> ImageGen {
        ImageGen::new(DatasetConfig::ilsvrc_like(10, 0, Shape::chw(3, 32, 32), 7).image_gen())
    }

    #[test]
    fn deterministic_generation() {
        let g1 = gen();
        let g2 = gen();
        assert_eq!(g1.sample(3, 17), g2.sample(3, 17));
        assert_eq!(g1.prototype(5), g2.prototype(5));
    }

    #[test]
    fn distinct_indices_differ() {
        let g = gen();
        assert_ne!(g.sample(0, 0), g.sample(0, 1));
        assert_ne!(g.sample(0, 0), g.sample(1, 0));
    }

    #[test]
    fn prototypes_are_distinct_across_classes() {
        let g = gen();
        let a = g.prototype(0).as_slice().to_vec();
        let b = g.prototype(1).as_slice().to_vec();
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32;
        assert!(diff > 0.1, "prototypes too similar: {diff}");
    }

    #[test]
    fn prototypes_are_smooth() {
        // Neighbouring pixels of the upsampled field must be close —
        // much closer than white noise would be.
        let g = gen();
        let p = g.prototype(0);
        let mut grad = 0.0f32;
        let mut count = 0;
        for y in 0..31 {
            for x in 0..31 {
                grad += (p.at(0, 0, y, x) - p.at(0, 0, y, x + 1)).abs();
                grad += (p.at(0, 0, y, x) - p.at(0, 0, y + 1, x)).abs();
                count += 2;
            }
        }
        let avg = grad / count as f32;
        // White noise in [0,1] has mean |gradient| ~ 0.33; the upsampled
        // lattice must be far below that.
        assert!(avg < 0.12, "prototype not smooth: mean gradient {avg}");
    }

    #[test]
    fn samples_are_mean_centred() {
        let g = gen();
        let img = g.sample(2, 5);
        // Pixel values were clipped to [0,1] then mean-subtracted.
        for (i, &v) in img.as_slice().iter().enumerate() {
            let c = i / (32 * 32);
            let m = CHANNEL_MEANS[c];
            assert!(v >= -m - 1e-6 && v <= 1.0 - m + 1e-6, "pixel {v} at channel {c}");
        }
    }

    #[test]
    fn noise_level_scales_with_sigma() {
        let (shape, sigma) = (Shape::chw(3, 16, 16), 0.0);
        let mut cfg = ImageGenConfig { classes: 4, shape, sigma, distractor_mix: 0.0, seed: 9 };
        let clean = ImageGen::new(cfg.clone());
        cfg.sigma = 0.5;
        let noisy = ImageGen::new(cfg);
        let c = clean.sample(1, 0);
        let n = noisy.sample(1, 0);
        let dev: f32 =
            c.as_slice().iter().zip(n.as_slice()).map(|(a, b)| (a - b).abs()).sum::<f32>()
                / c.len() as f32;
        assert!(dev > 0.1, "sigma had no effect: {dev}");
        // Zero-sigma, zero-mix sample equals the centred prototype.
        let proto_centred = clean.prototype_input(1);
        for (a, b) in c.as_slice().iter().zip(proto_centred.as_slice()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn class_bounds_checked() {
        gen().sample(10, 0);
    }

    #[test]
    fn single_class_dataset_works() {
        let g = ImageGen::new(DatasetConfig::ilsvrc_like(1, 0, Shape::chw(3, 8, 8), 1).image_gen());
        let img = g.sample(0, 0);
        assert!(!img.has_nan());
    }
}
