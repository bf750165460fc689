//! Experiment runners: glue sources, devices and metrics into the
//! figure-shaped measurements.

use crate::metrics::{Prediction, ThroughputReport};
use crate::model::ModelBundle;
use crate::service::ServiceHook;
use crate::source::SourceImage;
use desim::{Duration, SimTime};
use ncsw_obs::{watts, BatchObs, NullRecorder};
use rayon::prelude::*;
use vpu_tensor::Element;

/// How a throughput run submits its images to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// One call per batch: a host runs each call as one batch.
    Batches,
    /// One call for the whole stream: the VPU fleet pipelines it one
    /// image per stick per wave, so the paper couples the batch to the
    /// number of sticks.
    Stream,
}

/// Feed `images` to `hook` in batches of `batch` and report, under
/// `name`, the throughput of each window of `batch` results (the
/// per-window samples give the error bars; a partial last window is
/// dropped).
pub fn throughput(
    hook: &mut dyn ServiceHook,
    name: &str,
    feed: Feed,
    images: usize,
    batch: usize,
) -> ThroughputReport {
    assert!(images >= batch, "need at least one full batch");
    let calls = match feed {
        Feed::Batches => vec![batch; images / batch],
        Feed::Stream => {
            assert_eq!(
                batch,
                hook.preferred_batch(),
                "the paper couples batch size to the number of active VPUs"
            );
            vec![images]
        }
    };
    let mut start = None;
    let mut ready = SimTime::ZERO;
    let mut done = Vec::with_capacity(images);
    for n in calls {
        let run = hook
            .try_serve_obs(n, ready, &mut BatchObs::disabled(&mut NullRecorder))
            .unwrap_or_else(|e| panic!("{name} failed a throughput call: {:?}", e.kind));
        start.get_or_insert(run.start);
        done.extend(run.done);
        ready = run.end;
    }
    let mut window_start = start.expect("at least one call");
    let windows: Vec<Duration> = done
        .chunks_exact(batch)
        .map(|window| {
            let end = *window.iter().max().expect("non-empty window");
            let span = end - window_start;
            window_start = end;
            span
        })
        .collect();
    ThroughputReport::from_window_times(name, batch, batch, &windows)
}

/// Fig. 6a shape: throughput of one device over several subsets.
pub fn throughput_per_subset(
    hook: &mut dyn ServiceHook,
    name: &str,
    feed: Feed,
    subsets: usize,
    images_per_subset: usize,
    batch: usize,
) -> Vec<ThroughputReport> {
    (0..subsets).map(|_| throughput(hook, name, feed, images_per_subset, batch)).collect()
}

/// One point of a batch sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    pub batch: usize,
    /// Mean per-image latency (ms).
    pub ms: f64,
    /// The TDP Eq. (1) charges the device at this batch (W).
    pub tdp_w: f64,
}

/// Fig. 6b/8 shape: per-image latency at each batch size, on a device
/// made for that batch (the caller normalizes to the batch-1 latency).
pub fn latency_curve(
    mut make: impl FnMut(usize) -> Box<dyn ServiceHook>,
    feed: Feed,
    batches: &[usize],
    images_per_point: usize,
) -> Vec<CurvePoint> {
    batches
        .iter()
        .map(|&batch| {
            let mut hook = make(batch);
            let images = images_per_point.max(batch) / batch * batch;
            let label = hook.label();
            let r = throughput(hook.as_mut(), &label, feed, images, batch);
            let tdp_w = watts(hook.energy_profile().tdp_mw);
            CurvePoint { batch, ms: r.per_image_ms(), tdp_w }
        })
        .collect()
}

/// Classify a whole source on the FP32 path (real arithmetic, no
/// timing; one image after another).
pub fn predictions_fp32(model: &ModelBundle, source: &dyn SourceImage) -> Vec<Prediction> {
    predict_generic(model.net32(), source, |img| img.clone())
}

/// Classify a whole source on the FP16 path (the NCS graph-file
/// quantization followed by binary16 inference).
pub fn predictions_fp16(model: &ModelBundle, source: &dyn SourceImage) -> Vec<Prediction> {
    predict_generic(model.net16(), source, |img| img.quantize_fp16())
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
    use crate::target::{HostTarget, IntelVpu};
    use hostsim::HostConfig;
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

    fn full_model() -> ModelBundle {
        ModelBundle::googlenet_untrained(Variant::Full, 1)
    }

    #[test]
    fn host_and_vpu_throughput_match_the_anchors() {
        // Paper: 44.0 / 74.2 img/s on the hosts at batch 8, 77.2 img/s on
        // 8 sticks.
        let mut cpu = HostTarget::new(full_model(), HostConfig::xeon_e5());
        let r = throughput(&mut cpu, "cpu", Feed::Batches, 80, 8);
        assert!((42.0..46.0).contains(&r.images_per_sec()), "CPU {}", r.images_per_sec());
        assert!(r.samples.stddev > 0.0, "expected jittered error bars");
        let mut gpu = HostTarget::new(full_model(), HostConfig::k4000());
        let r = throughput(&mut gpu, "gpu", Feed::Batches, 80, 8);
        assert!((71.0..78.0).contains(&r.images_per_sec()), "GPU {}", r.images_per_sec());
        let mut vpu = IntelVpu::new(full_model(), 8);
        let r = throughput(&mut vpu, "vpu", Feed::Stream, 64, 8);
        assert!((71.0..84.0).contains(&r.images_per_sec()), "VPU {}", r.images_per_sec());
        assert_eq!(r.target, "vpu");
    }

    #[test]
    #[should_panic(expected = "couples batch size")]
    fn a_streamed_batch_must_equal_the_sticks() {
        throughput(&mut IntelVpu::new(full_model(), 4), "vpu", Feed::Stream, 16, 8);
    }

    #[test]
    fn throughput_per_subset_gives_five_bars() {
        let mut cpu = HostTarget::new(full_model(), HostConfig::xeon_e5());
        let reports = throughput_per_subset(&mut cpu, "cpu", Feed::Batches, 5, 40, 8);
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
        let model = full_model();
        let host = |cfg, batches: &[usize]| {
            latency_curve(
                |_| Box::new(HostTarget::new(model.clone(), cfg)),
                Feed::Batches,
                batches,
                16,
            )
        };
        let cpu_curve = host(HostConfig::xeon_e5(), &[1, 2, 4, 8]);
        let t1 = cpu_curve[0].ms;
        let t8 = cpu_curve[3].ms;
        assert!((1.05..1.25).contains(&(t1 / t8)), "CPU scaling {}", t1 / t8);
        assert!(cpu_curve.iter().all(|p| p.tdp_w == 80.0));
        let gpu_curve = host(HostConfig::k4000(), &[1, 8]);
        let g = gpu_curve[0].ms / gpu_curve[1].ms;
        assert!((1.75..2.1).contains(&g), "GPU scaling {g}");
        let vpu_curve =
            latency_curve(|b| Box::new(IntelVpu::new(model.clone(), b)), Feed::Stream, &[1, 2], 4);
        assert_eq!(vpu_curve.iter().map(|p| p.tdp_w).collect::<Vec<_>>(), [2.5, 5.0]);
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
        let mut vpu = IntelVpu::new(full_model(), 2);
        let reports = throughput_per_subset(&mut vpu, "vpu", Feed::Stream, 2, 8, 2);
        assert_eq!(reports.len(), 2);
        for r in &reports {
            // 2 sticks: ~2x single-stick throughput (~19.8 img/s).
            assert!((17.0..22.0).contains(&r.images_per_sec()), "{}", r.images_per_sec());
        }
    }
}
