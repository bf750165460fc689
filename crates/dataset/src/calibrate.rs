//! Noise calibration: hit the paper's top-1 error operating point.
//!
//! The paper measures ~32 % top-1 error for GoogLeNet on ILSVRC-2012.
//! Task difficulty here is set by the generator's noise σ; error is
//! monotone (in expectation) in σ, so a bisection over σ on a probe
//! sample lands the synthetic pipeline at the same operating point. The
//! pseudo-training (noise-trained centroids) is repeated at each probe σ,
//! exactly as a real training run would see the operating distribution.

use crate::dataset::{DatasetConfig, ValidationSet};
use crate::image::{ImageGen, ImageGenConfig};
use crate::pretrain::pseudo_train;
use rayon::prelude::*;
use std::sync::Arc;
use vpu_nn::graph::{CompiledNetwork, NetworkSpec};
use vpu_nn::weights::Weights;
use vpu_tensor::kernels::gemm::AccumMode;

/// Outcome of a calibration run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Calibration {
    /// Noise level that achieves the target.
    pub sigma: f64,
    /// Error measured on the probe at `sigma`.
    pub achieved_error: f64,
    /// Bisection iterations used.
    pub iterations: usize,
    /// Probe sample size per iteration.
    pub probe_images: usize,
}

/// Pseudo-train at one σ and return the weights with their generator.
pub fn train_at_sigma(
    spec: &Arc<NetworkSpec>,
    base: &DatasetConfig,
    sigma: f64,
) -> (ImageGen, Weights) {
    let gen = ImageGen::new(ImageGenConfig { sigma, ..base.image_gen() });
    let weights = pseudo_train(spec, &gen, base.seed);
    (gen, weights)
}

/// Probe error at one σ: balanced classes, one image after another.
pub fn probe_error(
    spec: &Arc<NetworkSpec>,
    weights: &Weights,
    base: &DatasetConfig,
    sigma: f64,
    probe_images: usize,
) -> f64 {
    let net = CompiledNetwork::<f32>::compile(spec.clone(), weights, AccumMode::Widened);
    let gen = ImageGen::new(ImageGenConfig { sigma, ..base.image_gen() });
    let wrong: usize = (0..probe_images)
        .into_par_iter()
        .map(|i| {
            let class = i % base.classes;
            let img = gen.sample(class, (i / base.classes) as u64 + 100_000);
            let out = net.forward(&img);
            usize::from(out.argmax_item(0).0 != class)
        })
        .sum();
    wrong as f64 / probe_images as f64
}

/// Bisect σ until the probe error is within `tolerance` of `target`.
pub fn calibrate_sigma(
    spec: &Arc<NetworkSpec>,
    base: &DatasetConfig,
    target_error: f64,
    probe_images: usize,
    tolerance: f64,
    max_iterations: usize,
) -> (Calibration, Weights) {
    assert!((0.0..1.0).contains(&target_error), "target error must be in [0,1)");
    let (mut lo, mut hi) = (0.0f64, 2.0f64);
    let mut best: Option<(f64, f64, f64, Weights)> = None; // (|gap|, sigma, err, weights)
    let mut iterations = 0;
    for _ in 0..max_iterations {
        iterations += 1;
        let mid = 0.5 * (lo + hi);
        // Retrain at this σ: the centroids must see the same noise level
        // the validation images carry.
        let (_, weights) = train_at_sigma(spec, base, mid);
        let err = probe_error(spec, &weights, base, mid, probe_images);
        let gap = (err - target_error).abs();
        let better = best.as_ref().is_none_or(|(g, ..)| gap < *g);
        if better {
            best = Some((gap, mid, err, weights));
        }
        if gap <= tolerance {
            break;
        }
        if err < target_error {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (_, sigma, err, weights) = best.expect("at least one iteration");
    (Calibration { sigma, achieved_error: err, iterations, probe_images }, weights)
}

/// Build a fully calibrated validation set + weights for an experiment:
/// the dataset's σ is replaced by the calibrated value.
pub fn calibrated_set(
    spec: &Arc<NetworkSpec>,
    mut cfg: DatasetConfig,
    target_error: f64,
    probe_images: usize,
) -> (ValidationSet, Weights, Calibration) {
    let (cal, weights) = calibrate_sigma(spec, &cfg, target_error, probe_images, 0.015, 12);
    cfg.sigma = cal.sigma;
    (ValidationSet::new(cfg), weights, cal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_nn::googlenet;
    use vpu_tensor::Shape;

    fn base() -> (Arc<NetworkSpec>, DatasetConfig) {
        let spec = Arc::new(googlenet::tiny());
        let cfg = DatasetConfig::ilsvrc_like(10, 100, Shape::chw(3, 32, 32), 11);
        (spec, cfg)
    }

    #[test]
    fn error_is_monotone_in_sigma() {
        let (spec, cfg) = base();
        let (_, w_low) = train_at_sigma(&spec, &cfg, 0.05);
        let e_low = probe_error(&spec, &w_low, &cfg, 0.05, 60);
        let (_, w_high) = train_at_sigma(&spec, &cfg, 1.6);
        let e_high = probe_error(&spec, &w_high, &cfg, 1.6, 60);
        assert!(e_high > e_low + 0.05, "noise must hurt accuracy: {e_low} vs {e_high}");
    }

    #[test]
    fn calibration_hits_target() {
        let (spec, cfg) = base();
        let (cal, _w) = calibrate_sigma(&spec, &cfg, 0.32, 120, 0.05, 8);
        assert!(
            (cal.achieved_error - 0.32).abs() <= 0.08,
            "calibrated error {} too far from 0.32 (sigma {})",
            cal.achieved_error,
            cal.sigma
        );
        assert!(cal.sigma > 0.0 && cal.sigma < 2.0);
    }

    #[test]
    fn calibrated_set_uses_found_sigma() {
        let (spec, cfg) = base();
        let (set, _w, cal) = calibrated_set(&spec, cfg, 0.32, 80);
        assert_eq!(set.config().sigma, cal.sigma);
        assert_eq!(set.len(), 100);
    }

    #[test]
    fn calibration_is_deterministic() {
        let (spec, cfg) = base();
        let (a, _) = calibrate_sigma(&spec, &cfg, 0.3, 60, 0.03, 6);
        let (b, _) = calibrate_sigma(&spec, &cfg, 0.3, 60, 0.03, 6);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "target error")]
    fn bad_target_rejected() {
        let (spec, cfg) = base();
        calibrate_sigma(&spec, &cfg, 1.5, 10, 0.1, 2);
    }
}
