//! Experiment runners: glue sources, targets and metrics into the
//! figure-shaped measurements.

use crate::metrics::{Prediction, ThroughputReport};
use crate::model::ModelBundle;
use crate::source::SourceImage;
use crate::target::TargetDevice;
use rayon::prelude::*;
use vpu_tensor::Element;

/// Fig. 6a shape: throughput of one target over several subsets.
pub fn throughput_per_subset(
    target: &mut dyn TargetDevice,
    subsets: usize,
    images_per_subset: usize,
    batch: usize,
) -> Vec<ThroughputReport> {
    (0..subsets).map(|_| target.run_throughput(images_per_subset, batch)).collect()
}

/// Fig. 6b shape: per-image latency (ms) at each batch size, normalized
/// to the batch-1 latency by the caller.
pub fn latency_curve(
    mut make_target: impl FnMut(usize) -> Box<dyn TargetDevice>,
    batches: &[usize],
    images_per_point: usize,
) -> Vec<(usize, f64)> {
    batches
        .iter()
        .map(|&b| {
            let mut t = make_target(b);
            let images = images_per_point.max(b) / b * b;
            let r = t.run_throughput(images, b);
            (b, r.per_image_ms())
        })
        .collect()
}

/// Classify a whole source on the FP32 path (rayon-parallel; real
/// arithmetic, no timing).
pub fn predictions_fp32(model: &ModelBundle, source: &dyn SourceImage) -> Vec<Prediction> {
    predict_generic(model.net32.as_ref(), source, |img| img.clone())
}

/// Classify a whole source on the FP16 path (the NCS graph-file
/// quantization followed by binary16 inference).
pub fn predictions_fp16(model: &ModelBundle, source: &dyn SourceImage) -> Vec<Prediction> {
    predict_generic(model.net16.as_ref(), source, |img| img.quantize_fp16())
}

fn predict_generic<E: Element>(
    net: &vpu_nn::graph::CompiledNetwork<E>,
    source: &dyn SourceImage,
    prep: impl Fn(&vpu_tensor::Tensor<f32>) -> vpu_tensor::Tensor<E> + Sync,
) -> Vec<Prediction> {
    (0..source.len())
        .into_par_iter()
        .map(|i| {
            let labelled = source.fetch(i);
            let input = prep(&labelled.pixels);
            let out = net.forward(&input);
            let (predicted, confidence) = out.argmax_item(0);
            let probs: Vec<f32> = out.item(0).iter().map(|v| v.to_f32()).collect();
            Prediction {
                image: i,
                label: labelled.label,
                predicted,
                confidence,
                label_confidence: probs[labelled.label],
                label_rank: crate::metrics::label_rank(&probs, labelled.label),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{accuracy_report, confidence_diff};
    use crate::source::ImageFolder;
    use crate::target::{IntelCpu, IntelVpu, NvGpu};
    use ilsvrc_sim::{pseudo_train, DatasetConfig, ValidationSet};
    use std::sync::Arc;
    use vpu_nn::googlenet::{self, Variant};
    use vpu_tensor::Shape;

    fn trained_model_and_set() -> (ModelBundle, Arc<ValidationSet>) {
        let spec = Arc::new(googlenet::tiny());
        let mut cfg = DatasetConfig::ilsvrc_like(10, 50, Shape::chw(3, 32, 32), 11);
        cfg.sigma = 0.25;
        cfg.distractor_mix = 0.0;
        let set = Arc::new(ValidationSet::new(cfg));
        let weights = pseudo_train(&spec, set.generator(), 11);
        (ModelBundle::deploy(spec, weights), set)
    }

    #[test]
    fn throughput_per_subset_gives_five_bars() {
        let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
        let mut cpu = IntelCpu::new(model);
        let reports = throughput_per_subset(&mut cpu, 5, 40, 8);
        assert_eq!(reports.len(), 5);
        for r in &reports {
            assert!((40.0..48.0).contains(&r.images_per_sec()), "{}", r.images_per_sec());
        }
        // Jitter makes the bars differ slightly.
        let v: Vec<f64> = reports.iter().map(|r| r.images_per_sec()).collect();
        assert!(v.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn latency_curve_shapes() {
        let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
        let cpu_curve =
            latency_curve(|_| Box::new(IntelCpu::new(model.clone())), &[1, 2, 4, 8], 16);
        let t1 = cpu_curve[0].1;
        let t8 = cpu_curve[3].1;
        assert!((1.05..1.25).contains(&(t1 / t8)), "CPU scaling {}", t1 / t8);
        let gpu_curve = latency_curve(|_| Box::new(NvGpu::new(model.clone())), &[1, 8], 16);
        let g = gpu_curve[0].1 / gpu_curve[1].1;
        assert!((1.75..2.1).contains(&g), "GPU scaling {g}");
    }

    #[test]
    fn fp32_and_fp16_predictions_close_but_not_identical() {
        let (model, set) = trained_model_and_set();
        let folder = ImageFolder::new(set, 0);
        let p32 = predictions_fp32(&model, &folder);
        let p16 = predictions_fp16(&model, &folder);
        assert_eq!(p32.len(), 10);
        let r32 = accuracy_report("cpu", &p32);
        let r16 = accuracy_report("vpu", &p16);
        // Close error rates (paper: 32.01% vs 31.92%).
        assert!((r32.top1_error() - r16.top1_error()).abs() <= 0.2);
        let diff = confidence_diff(&p32, &p16);
        assert!(diff.images_compared > 0);
        assert!(diff.mean_abs_diff > 0.0, "fp16 confidences must differ");
        assert!(diff.mean_abs_diff < 0.05, "drift too large: {}", diff.mean_abs_diff);
    }

    #[test]
    fn vpu_throughput_runner_integration() {
        let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
        let mut vpu = IntelVpu::new(model, 2);
        let reports = throughput_per_subset(&mut vpu, 2, 8, 2);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            // 2 sticks: ~2x single-stick throughput (~19.8 img/s).
            assert!((17.0..22.0).contains(&r.images_per_sec()), "{}", r.images_per_sec());
        }
    }
}
