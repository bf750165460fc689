//! Pseudo-training: make a seeded network a real working classifier.
//!
//! The BVLC GoogLeNet weights are not redistributable, and training a
//! replacement is out of scope. What Fig. 7 needs is a *fixed model that
//! classifies the evaluation dataset at a controlled error rate*, so the
//! FP32/FP16 comparison has a realistic operating point. That is achieved
//! with nearest-class-mean classification on a fixed random feature
//! extractor (a standard random-features readout):
//!
//! 1. keep the convolutional trunk at its seeded Xavier weights — a
//!    random but fixed feature extractor;
//! 2. draw `train_per_class` **training** images per class (a stream
//!    disjoint from the validation set), push them through the trunk, and
//!    average into class centroids φ̂_c — this absorbs the non-linear
//!    feature shift that noise + clipping induce through a ReLU trunk;
//! 3. set the classifier to the nearest-centroid discriminant in the
//!    mean-centred feature space: row `c` ∝ ψ_c = φ̂_c − φ̄ with bias
//!    −(‖ψ_c‖²/2 + ψ_c·φ̄), i.e. `argmin_c ‖(f−φ̄) − ψ_c‖²`.
//!
//! Accuracy then degrades smoothly with the generator's σ (within-class
//! feature scatter grows against fixed between-centroid distances), and
//! the resulting network runs end-to-end through the exact code paths a
//! trained model would.

use crate::image::ImageGen;
use rayon::prelude::*;
use std::sync::Arc;
use vpu_nn::graph::{CompiledNetwork, NetworkSpec};
use vpu_nn::init;
use vpu_nn::layer::LayerKind;
use vpu_nn::weights::Weights;
use vpu_tensor::kernels::gemm::AccumMode;
use vpu_tensor::Element;

/// Target logit spread between the correct class and the field (sets the
/// confidence scale of correct predictions to a realistic 0.3–0.9 band).
const TARGET_LOGIT_SPREAD: f32 = 6.0;

/// Default training draws per class.
pub const DEFAULT_TRAIN_PER_CLASS: usize = 12;

/// Build pseudo-trained weights for `spec` against `gen`'s distribution
/// with the default training-set size.
pub fn pseudo_train(spec: &Arc<NetworkSpec>, gen: &ImageGen, seed: u64) -> Weights {
    pseudo_train_with(spec, gen, seed, DEFAULT_TRAIN_PER_CLASS)
}

/// Build pseudo-trained weights with `train_per_class` training draws per
/// class (0 falls back to the clean prototypes — useful for tests).
///
/// Panics if the spec has no dense classifier or if the generator's
/// class count does not match the classifier width.
pub fn pseudo_train_with(
    spec: &Arc<NetworkSpec>,
    gen: &ImageGen,
    seed: u64,
    train_per_class: usize,
) -> Weights {
    let (dense_idx, out_features) = spec
        .nodes
        .iter()
        .enumerate()
        .rev()
        .find_map(|(i, n)| match n.kind {
            LayerKind::Dense { out_features } => Some((i, out_features)),
            _ => None,
        })
        .expect("network has no dense classifier");
    let classes = gen.config().classes;
    assert_eq!(out_features, classes, "classifier width {out_features} != classes {classes}");

    let mut weights = init::xavier(spec, seed);
    let feature_node = spec.nodes[dense_idx].inputs[0];

    // Class centroids in trunk-feature space, averaged over the training
    // draws (rayon-parallel across classes; each class is deterministic).
    let net = CompiledNetwork::<f32>::compile(spec.clone(), &weights, AccumMode::Widened);
    let features: Vec<Vec<f32>> = (0..classes)
        .into_par_iter()
        .map(|c| {
            let extract = |input: &vpu_tensor::Tensor<f32>| {
                let mut feat: Vec<f32> = Vec::new();
                net.forward_observed(input, |i, _, out| {
                    if i == feature_node {
                        feat = out.as_slice().iter().map(|v| v.to_f32()).collect();
                    }
                });
                assert!(!feat.is_empty(), "feature node produced no activation");
                feat
            };
            if train_per_class == 0 {
                return extract(&gen.prototype_input(c));
            }
            let mut acc: Vec<f32> = Vec::new();
            for t in 0..train_per_class {
                let feat = extract(&gen.train_sample(c, t as u64));
                if acc.is_empty() {
                    acc = feat;
                } else {
                    for (a, x) in acc.iter_mut().zip(feat) {
                        *a += x;
                    }
                }
            }
            for a in &mut acc {
                *a /= train_per_class as f32;
            }
            acc
        })
        .collect();

    let dim = features[0].len();
    // Mean feature across classes: random trunks respond similarly to
    // everything, so uncentred matched filters would all fire together.
    let mut mean = vec![0.0f32; dim];
    for f in &features {
        for (m, &x) in mean.iter_mut().zip(f) {
            *m += x / classes as f32;
        }
    }

    let centred: Vec<Vec<f32>> =
        features.iter().map(|f| f.iter().zip(&mean).map(|(x, m)| x - m).collect()).collect();
    // Gain normalizes the logit scale to the typical centroid energy so
    // confidences are comparable across network variants.
    let msd: f32 = centred.iter().map(|psi| psi.iter().map(|x| x * x).sum::<f32>()).sum::<f32>()
        / classes as f32;
    assert!(msd > 1e-12, "degenerate prototype features");
    let gain = TARGET_LOGIT_SPREAD / msd;

    let mut w = vec![0.0f32; classes * dim];
    let mut b = vec![0.0f32; classes];
    for (c, psi) in centred.iter().enumerate() {
        let norm_sq: f32 = psi.iter().map(|x| x * x).sum();
        let row = &mut w[c * dim..(c + 1) * dim];
        for (dst, x) in row.iter_mut().zip(psi) {
            *dst = gain * x;
        }
        // -gain * (‖ψ_c‖²/2 + ψ_c·φ̄): completes the nearest-centroid
        // discriminant in the centred feature space.
        let psi_dot_mean: f32 = psi.iter().zip(&mean).map(|(x, m)| x * m).sum();
        b[c] = -gain * (0.5 * norm_sq + psi_dot_mean);
    }
    let name = spec.nodes[dense_idx].name.clone();
    weights.insert(name, w, b);
    weights
}

/// Fraction of `samples` the network top-1 misclassifies.
pub fn top1_error<E: Element>(
    net: &CompiledNetwork<E>,
    samples: impl Iterator<Item = (vpu_tensor::Tensor<E>, usize)>,
) -> f64 {
    let mut total = 0usize;
    let mut wrong = 0usize;
    for (input, label) in samples {
        let out = net.forward(&input);
        let (pred, _) = out.argmax_item(0);
        total += 1;
        if pred != label {
            wrong += 1;
        }
    }
    assert!(total > 0, "no samples");
    wrong as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageGenConfig;
    use vpu_nn::googlenet;
    use vpu_tensor::Shape;

    fn setup(sigma: f64, mix: f32) -> (Arc<NetworkSpec>, ImageGen, Weights) {
        let spec = Arc::new(googlenet::tiny());
        let mut cfg = ImageGenConfig::new(10, Shape::chw(3, 32, 32), 5);
        cfg.sigma = sigma;
        cfg.distractor_mix = mix;
        let gen = ImageGen::new(cfg);
        let w = pseudo_train(&spec, &gen, 5);
        (spec, gen, w)
    }

    #[test]
    fn clean_prototypes_classify_perfectly() {
        // With no noise, training draws equal the prototype and the
        // nearest-centroid construction classifies it exactly.
        let (spec, gen, w) = setup(0.0, 0.0);
        let net = CompiledNetwork::<f32>::compile(spec, &w, AccumMode::Widened);
        for c in 0..10 {
            let out = net.forward(&gen.prototype_input(c));
            let (pred, conf) = out.argmax_item(0);
            assert_eq!(pred, c, "prototype {c} misclassified");
            assert!(conf > 0.2, "confidence {conf} too low for clean prototype");
        }
    }

    #[test]
    fn mild_noise_mostly_correct() {
        let (spec, gen, w) = setup(0.08, 0.0);
        let net = CompiledNetwork::<f32>::compile(spec, &w, AccumMode::Widened);
        let samples = (0..60).map(|i| {
            let c = i % 10;
            (gen.sample(c, i as u64 / 10), c)
        });
        let err = top1_error(&net, samples);
        // Chance level is 0.9 for 10 balanced classes; low noise must be
        // far below it (the exact value varies with the trunk seed).
        assert!(err < 0.4, "error {err} too high at low noise");
    }

    #[test]
    fn heavy_noise_degrades_accuracy() {
        let (spec, gen, w) = setup(1.5, 0.45);
        let net = CompiledNetwork::<f32>::compile(spec, &w, AccumMode::Widened);
        let samples = (0..60).map(|i| {
            let c = i % 10;
            (gen.sample(c, i as u64 / 10), c)
        });
        let err = top1_error(&net, samples);
        assert!(err > 0.2, "error {err} suspiciously low at heavy noise");
    }

    #[test]
    fn deterministic_weights() {
        let (_, _, w1) = setup(0.3, 0.2);
        let (_, _, w2) = setup(0.3, 0.2);
        assert_eq!(w1, w2);
    }

    #[test]
    #[should_panic(expected = "classifier width")]
    fn class_count_mismatch_rejected() {
        let spec = Arc::new(googlenet::tiny()); // 10-way classifier
        let gen = ImageGen::new(ImageGenConfig::new(7, Shape::chw(3, 32, 32), 1));
        pseudo_train(&spec, &gen, 1);
    }

    #[test]
    fn probabilities_form_distribution() {
        let (spec, gen, w) = setup(0.3, 0.2);
        let net = CompiledNetwork::<f32>::compile(spec, &w, AccumMode::Widened);
        let out = net.forward(&gen.sample(4, 0));
        let sum: f32 = out.as_slice().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(out.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }

    #[test]
    fn training_stream_is_disjoint_from_validation() {
        let (_, gen, _) = setup(0.2, 0.1);
        assert_ne!(gen.train_sample(3, 0), gen.sample(3, 0));
    }
}
