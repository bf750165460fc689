//! Ablations of design choices the simulator exposes (DESIGN.md A1–A3).

use crate::report;
use crate::scale::Scale;
use desim::SimTime;
use ilsvrc_sim::calibrate::calibrated_set;
use ilsvrc_sim::DatasetConfig;
use myriad2::{Myriad2, Myriad2Config};
use ncs_platform::Topology;
use ncsw::metrics::confidence_diff;
use ncsw::multivpu::{MultiVpu, MultiVpuConfig};
use ncsw::runner::{predictions_fp16, predictions_fp32};
use ncsw::{ImageFolder, ModelBundle};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vpu_nn::cost::NetworkCost;
use vpu_num::f16;
use vpu_tensor::kernels::gemm::AccumMode;

/// A1 — FP16 accumulate-in-FP16 (the Myriad's pure path) vs
/// accumulate-in-FP32 (its mixed path): accuracy + confidence drift.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccumAblation {
    pub images: usize,
    pub fp32_error: f64,
    pub fp16_native_error: f64,
    pub fp16_widened_error: f64,
    pub native_conf_diff: f64,
    pub widened_conf_diff: f64,
}

pub fn ablation_accum(scale: Scale) -> AccumAblation {
    let variant = scale.accuracy_variant();
    let spec = Arc::new(variant.build_with_classes(scale.accuracy_classes()));
    let per_subset = scale.accuracy_images_per_subset();
    let mut cfg = DatasetConfig::ilsvrc_like(
        scale.accuracy_classes(),
        per_subset * 5,
        variant.input_shape(),
        vpu_num::rng::DEFAULT_SEED,
    );
    cfg.distractor_mix = 0.10;
    let (set, weights, _cal) = calibrated_set(&spec, cfg, 0.32, scale.calibration_probe());
    let set = Arc::new(set);
    let folder = ImageFolder::new(set, 0);

    let native = ModelBundle::new(spec.clone(), weights.clone(), AccumMode::Native);
    let widened = ModelBundle::new(spec, weights, AccumMode::Widened);

    let p32 = predictions_fp32(&native, &folder);
    let p16n = predictions_fp16(&native, &folder);
    let p16w = predictions_fp16(&widened, &folder);
    let err = |p: &[ncsw::metrics::Prediction]| {
        p.iter().filter(|x| !x.correct()).count() as f64 / p.len() as f64
    };
    AccumAblation {
        images: folder_len(&folder),
        fp32_error: err(&p32),
        fp16_native_error: err(&p16n),
        fp16_widened_error: err(&p16w),
        native_conf_diff: confidence_diff(&p32, &p16n).mean_abs_diff,
        widened_conf_diff: confidence_diff(&p32, &p16w).mean_abs_diff,
    }
}

fn folder_len(f: &ImageFolder) -> usize {
    use ncsw::SourceImage;
    f.len()
}

impl AccumAblation {
    pub fn print(&self) {
        report::header("A1 — FP16 accumulation mode ablation (one subset)");
        println!("fp32 reference error:        {:.4}", self.fp32_error);
        println!(
            "fp16 native-accumulate:      err {:.4}, |Δconf| {:.5}",
            self.fp16_native_error, self.native_conf_diff
        );
        println!(
            "fp16 fp32-accumulate:        err {:.4}, |Δconf| {:.5}",
            self.fp16_widened_error, self.widened_conf_diff
        );
        println!("(widened accumulation should sit closer to the fp32 reference)");
    }
}

/// A2 — USB topology: the paper's 2-root + 2-hub testbed vs all sticks
/// on root ports vs all sticks crammed behind one hub.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct UsbAblation {
    pub devices: usize,
    pub images: usize,
    /// (label, img/s).
    pub rows: Vec<(String, f64)>,
}

pub fn ablation_usb(scale: Scale) -> UsbAblation {
    let model = ModelBundle::googlenet_untrained(vpu_nn::googlenet::Variant::Full, 1);
    let devices = 8;
    let images = scale.sweep_images().max(devices * 4);
    let mut rows = Vec::new();
    for (label, topo) in [
        ("all on root ports".to_string(), Topology::AllRoot),
        ("paper testbed (2 root + 2 hubs)".to_string(), Topology::PaperTestbed),
        (
            "all behind one hub".to_string(),
            Topology::Custom(vec![ncs_platform::UsbPort::Hub(0); devices]),
        ),
    ] {
        let mut cfg = MultiVpuConfig::paper_testbed(devices);
        cfg.topology = topo;
        let mut mv = MultiVpu::new(cfg, &model);
        let r = mv.run_pipeline(images);
        rows.push((label, r.images_per_sec()));
    }
    UsbAblation { devices, images, rows }
}

impl UsbAblation {
    pub fn print(&self) {
        report::header(&format!(
            "A2 — USB topology ablation ({} sticks, {} images)",
            self.devices, self.images
        ));
        for (label, ips) in &self.rows {
            println!("{label:<34} {ips:>7.1} img/s");
        }
    }
}

/// A3 — SHAVE count sweep within one chip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShaveAblation {
    /// (shaves, ms per inference, img/s, chip avg W).
    pub rows: Vec<(usize, f64, f64, f64)>,
}

pub fn ablation_shave() -> ShaveAblation {
    let cost = Arc::new(NetworkCost::of::<f16>(&vpu_nn::googlenet::full()));
    let rows = [1usize, 2, 4, 6, 8, 12]
        .iter()
        .map(|&s| {
            let mut chip = Myriad2::new(Myriad2Config::default().with_shaves(s));
            let run = chip.run_cost(&cost, SimTime::ZERO);
            let ms = run.duration().as_millis();
            let watts = chip.power_model().avg_power(&run.activity);
            (s, ms, 1000.0 / ms, watts)
        })
        .collect();
    ShaveAblation { rows }
}

impl ShaveAblation {
    pub fn print(&self) {
        report::header("A3 — SHAVE count sweep (one chip, full GoogLeNet)");
        println!("{:>7} {:>10} {:>9} {:>8}", "shaves", "ms/inf", "img/s", "avg W");
        for &(s, ms, ips, w) in &self.rows {
            println!("{s:>7} {ms:>10.1} {ips:>9.2} {w:>8.3}");
        }
    }
}

/// A4 — USB transient-fault injection: throughput of an 8-stick fleet as
/// the per-transfer error rate grows (NCS sticks famously hit retries
/// under hub contention; the deep on-device time makes the pipeline very
/// tolerant).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultAblation {
    pub devices: usize,
    pub images: usize,
    /// (error rate, img/s, injected errors).
    pub rows: Vec<(f64, f64, u64)>,
}

pub fn ablation_faults(scale: Scale) -> FaultAblation {
    let model = ModelBundle::googlenet_untrained(vpu_nn::googlenet::Variant::Full, 1);
    let devices = 8;
    let images = scale.sweep_images().max(devices * 4);
    let mut rows = Vec::new();
    for rate in [0.0f64, 0.01, 0.05, 0.20] {
        let mut cfg = MultiVpuConfig::paper_testbed(devices);
        cfg.usb.error_rate = rate;
        let mut mv = MultiVpu::new(cfg, &model);
        let r = mv.run_pipeline(images);
        let errors = mv.api().fleet().bus.errors();
        rows.push((rate, r.images_per_sec(), errors));
    }
    FaultAblation { devices, images, rows }
}

impl FaultAblation {
    pub fn print(&self) {
        report::header(&format!(
            "A4 — USB transient-fault ablation ({} sticks, {} images)",
            self.devices, self.images
        ));
        println!("{:>11} {:>9} {:>8}", "error rate", "img/s", "retries");
        for &(rate, ips, errs) in &self.rows {
            println!("{rate:>10.0}% {ips:>9.1} {errs:>8}", rate = rate * 100.0);
        }
    }
}

/// A5 — double-buffered weight DMA (prefetch): per-network latency with
/// and without streaming layer N+1's weights during layer N's compute.
/// AlexNet (DDR-bound FC weights) benefits most; GoogLeNet barely moves.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrefetchAblation {
    /// (network, ms without prefetch, ms with prefetch, speedup).
    pub rows: Vec<(String, f64, f64, f64)>,
}

pub fn ablation_prefetch() -> PrefetchAblation {
    let specs = [
        vpu_nn::googlenet::full(),
        vpu_nn::zoo::alexnet_one_tower(),
        vpu_nn::zoo::squeezenet_v10(),
    ];
    let rows = specs
        .iter()
        .map(|spec| {
            let cost = Arc::new(NetworkCost::of::<f16>(spec));
            let mut plain = Myriad2::new(Myriad2Config::default());
            let mut pf = Myriad2::new(Myriad2Config::default().with_prefetch());
            let a = plain.run_cost(&cost, SimTime::ZERO).duration().as_millis();
            let b = pf.run_cost(&cost, SimTime::ZERO).duration().as_millis();
            (cost.network.clone(), a, b, a / b)
        })
        .collect();
    PrefetchAblation { rows }
}

impl PrefetchAblation {
    pub fn print(&self) {
        report::header("A5 — pipelined weight-DMA ablation (idealized deep staging)");
        println!("{:<20} {:>10} {:>10} {:>9}", "network", "no-pf ms", "prefetch", "speedup");
        for (name, a, b, s) in &self.rows {
            println!("{name:<20} {a:>10.1} {b:>10.1} {s:>8.2}x");
        }
        println!("(the NCSDK v1 the paper used did not prefetch; the calibration assumes off)");
    }
}

/// A6 — blob batching vs multi-stick batching (paper §III: NCSw's
/// multi-VPU batch "differs from the traditional Caffe batched
/// execution, which resizes the input blob layer"). A resized blob on a
/// *single* stick amortizes per-layer dispatch and weight streaming but
/// still serializes all the arithmetic; N sticks scale it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BlobBatchAblation {
    /// (batch, blob-batch ms/img on one stick, multi-stick ms/img).
    pub rows: Vec<(usize, f64, f64)>,
}

/// Scale a cost profile to a resized input blob: every activation and
/// op count grows by `batch`; the weights stream once per forward pass.
fn blob_scaled(cost: &NetworkCost, batch: usize) -> NetworkCost {
    let mut c = cost.clone();
    for l in &mut c.layers {
        l.macs *= batch as u64;
        l.aux_ops *= batch as u64;
        l.in_bytes *= batch as u64;
        l.out_bytes *= batch as u64;
        l.out_shape = l.out_shape.with_batch(batch);
    }
    c.total_macs *= batch as u64;
    c.total_aux_ops *= batch as u64;
    c
}

pub fn ablation_blob_batch() -> BlobBatchAblation {
    let model = ModelBundle::googlenet_untrained(vpu_nn::googlenet::Variant::Full, 1);
    let cost = &model.cost16;
    let mut rows = Vec::new();
    for batch in [1usize, 2, 4, 8] {
        // Blob batching: one stick runs a B-sized blob per dispatch.
        let mut chip = Myriad2::new(Myriad2Config::default());
        let run = chip.run_cost(&Arc::new(blob_scaled(cost, batch)), SimTime::ZERO);
        let blob_ms = run.duration().as_millis() / batch as f64;
        // Multi-stick batching: the paper's approach.
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(batch), &model);
        let multi_ms = mv.run_pipeline(batch * 8).per_image().as_millis();
        rows.push((batch, blob_ms, multi_ms));
    }
    BlobBatchAblation { rows }
}

impl BlobBatchAblation {
    pub fn print(&self) {
        report::header("A6 — blob batching (1 stick) vs multi-stick batching (paper §III)");
        println!("{:>6} {:>14} {:>14} {:>10}", "batch", "blob ms/img", "multi ms/img", "multi adv");
        for &(b, blob, multi) in &self.rows {
            println!("{b:>6} {blob:>14.1} {multi:>14.1} {:>9.2}x", blob / multi);
        }
        println!(
            "(resizing the blob only amortizes dispatch + weight streaming; the
 arithmetic still serializes on one chip — which is why NCSw batches
 across sticks instead)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_ablation_degrades_gracefully() {
        let a = ablation_faults(Scale::Tiny);
        let clean = a.rows[0].1;
        let worst = a.rows.last().unwrap().1;
        assert_eq!(a.rows[0].2, 0, "no retries at rate 0");
        assert!(a.rows.last().unwrap().2 > 0, "retries expected at 20%");
        // Transfers are ~1% of per-inference time: even 20% retry rate
        // should cost only a few percent of throughput.
        assert!(worst <= clean);
        assert!(worst > clean * 0.90, "too fragile: {clean} -> {worst}");
    }

    #[test]
    fn blob_batching_barely_helps_but_multi_stick_scales() {
        let a = ablation_blob_batch();
        let (b1_blob, b1_multi) = (a.rows[0].1, a.rows[0].2);
        let (b8_blob, b8_multi) = (a.rows[3].1, a.rows[3].2);
        // Blob batching gains only the amortized overheads (<15%).
        assert!(b8_blob > b1_blob * 0.85, "blob batch gained too much: {b1_blob} -> {b8_blob}");
        // Multi-stick batching approaches 8x.
        assert!(b8_multi < b1_multi / 6.5, "multi-stick {b1_multi} -> {b8_multi}");
        // At batch 8 the paper's approach wins by >6x.
        assert!(b8_blob / b8_multi > 6.0);
    }

    #[test]
    fn prefetch_helps_ddr_bound_networks_most() {
        let a = ablation_prefetch();
        let get = |n: &str| a.rows.iter().find(|r| r.0 == n).unwrap();
        let gl = get("bvlc_googlenet");
        let ax = get("alexnet_one_tower");
        // Prefetch never hurts.
        for (_, plain, pf, _) in &a.rows {
            assert!(pf <= plain);
        }
        // AlexNet (DDR-bound) gains far more than GoogLeNet.
        assert!(ax.3 > gl.3 + 0.05, "alexnet {} vs googlenet {}", ax.3, gl.3);
        assert!(gl.3 < 1.1, "GoogLeNet is compute-bound; speedup {}", gl.3);
    }

    #[test]
    fn accum_ablation_orders_correctly() {
        let a = ablation_accum(Scale::Tiny);
        // FP32-accumulate FP16 is numerically at least as close to the
        // FP32 reference as native FP16.
        assert!(
            a.widened_conf_diff <= a.native_conf_diff + 1e-6,
            "widened {} vs native {}",
            a.widened_conf_diff,
            a.native_conf_diff
        );
        assert!(a.native_conf_diff > 0.0);
        // All error rates in the same band.
        for e in [a.fp32_error, a.fp16_native_error, a.fp16_widened_error] {
            assert!((0.0..=0.7).contains(&e), "error {e}");
        }
    }

    #[test]
    fn usb_ablation_orders_topologies() {
        let a = ablation_usb(Scale::Tiny);
        assert_eq!(a.rows.len(), 3);
        let root = a.rows[0].1;
        let paper = a.rows[1].1;
        let hub = a.rows[2].1;
        assert!(root >= paper * 0.99, "root {root} vs paper {paper}");
        assert!(paper >= hub * 0.99, "paper {paper} vs one-hub {hub}");
    }

    #[test]
    fn shave_scaling_is_near_linear_then_saturates() {
        let a = ablation_shave();
        let ips: Vec<f64> = a.rows.iter().map(|r| r.2).collect();
        // Monotone in SHAVE count.
        for w in ips.windows(2) {
            assert!(w[1] > w[0]);
        }
        // 1 -> 12 SHAVEs gives close to 12x on the compute-bound network,
        // dampened by dispatch overheads and SIPP-offloaded layers.
        let speedup = ips.last().unwrap() / ips[0];
        assert!((8.0..12.5).contains(&speedup), "speedup {speedup}");
        // Power grows with active SHAVEs.
        assert!(a.rows.last().unwrap().3 > a.rows[0].3);
    }
}
