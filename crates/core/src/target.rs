//! Target devices (paper Fig. 3, right side).

use crate::metrics::ThroughputReport;
use crate::model::ModelBundle;
use crate::multivpu::{MultiVpu, MultiVpuConfig};
use desim::{Duration, SimTime};
use hostsim::{HostConfig, HostDevice};
use std::sync::Arc;
use vpu_nn::cost::NetworkCost;

/// Abstract inference target — `TargetDevice` in the paper's class
/// diagram. A target simulates the time to chew through a stream of
/// images at a given batch size. It does no arithmetic: classification
/// runs the model's compiled networks directly ([`crate::runner`]).
pub trait TargetDevice {
    fn name(&self) -> &str;

    /// TDP charged in Eq. (1) at a given batch size (the VPU's scales
    /// with the number of active sticks).
    fn tdp_w(&self, batch: usize) -> f64;

    /// Process `images` inputs in batches of `batch`; returns the
    /// throughput report with per-window samples for error bars.
    fn run_throughput(&mut self, images: usize, batch: usize) -> ThroughputReport;
}

/// A host target — the Caffe-MKL CPU, the Caffe-cuDNN GPU or a §VII
/// comparator, whichever [`HostConfig`] preset it is built from.
pub struct HostTarget {
    dev: HostDevice,
    /// The FP32 cost profile every batch is timed with.
    cost: Arc<NetworkCost>,
}

impl HostTarget {
    pub fn new(model: ModelBundle, cfg: HostConfig) -> Self {
        HostTarget { dev: HostDevice::new(cfg), cost: model.cost32 }
    }

    pub fn device(&self) -> &HostDevice {
        &self.dev
    }

    pub fn device_mut(&mut self) -> &mut HostDevice {
        &mut self.dev
    }

    pub fn cost(&self) -> &Arc<NetworkCost> {
        &self.cost
    }
}

impl TargetDevice for HostTarget {
    fn name(&self) -> &str {
        self.dev.config().name
    }

    fn tdp_w(&self, _batch: usize) -> f64 {
        self.dev.config().tdp_w
    }

    /// Serial batches, window = batch.
    fn run_throughput(&mut self, images: usize, batch: usize) -> ThroughputReport {
        assert!(images >= batch, "need at least one full batch");
        let full_batches = images / batch;
        let mut windows: Vec<Duration> = Vec::with_capacity(full_batches);
        let mut t = SimTime::ZERO;
        for _ in 0..full_batches {
            let run = self.dev.run_batch(&self.cost, batch, t);
            windows.push(run.duration());
            t = run.end;
        }
        ThroughputReport::from_window_times(self.dev.config().name, batch, batch, &windows)
    }
}

/// Most sticks one VPU target or one `N*vpu` fleet term may drive: each
/// stick is a simulated device, so an unbounded count could exhaust
/// memory.
pub const MAX_STICKS: usize = 1024;

/// The multi-stick VPU target. The paper couples the number of active
/// sticks to the batch size, so `run_throughput` requires
/// `batch == devices`.
pub struct IntelVpu {
    mv: MultiVpu,
    /// Calibrated latency model for online dispatch: makespan of one
    /// pipeline wave (`devices` images) and the marginal cost of each
    /// further wave, measured on a throwaway pipeline at construction.
    svc_first_wave: Duration,
    svc_per_wave: Duration,
}

impl IntelVpu {
    pub fn new(model: ModelBundle, devices: usize) -> Self {
        IntelVpu::with_config(model, MultiVpuConfig::paper_testbed(devices))
    }

    pub fn with_config(model: ModelBundle, cfg: MultiVpuConfig) -> Self {
        let n = cfg.devices;
        // Calibrate the dispatch-time estimate on throwaway pipelines so
        // the served instance's virtual clock stays untouched: one wave
        // gives the fill latency, three waves give the steady-state
        // marginal wave cost.
        let one = MultiVpu::new(cfg.clone(), &model).run_pipeline(n).makespan();
        let three = MultiVpu::new(cfg.clone(), &model).run_pipeline(3 * n).makespan();
        let per_wave = if three > one { (three - one) / 2 } else { one };
        let mv = MultiVpu::new(cfg, &model);
        IntelVpu { mv, svc_first_wave: one, svc_per_wave: per_wave }
    }

    pub fn devices(&self) -> usize {
        self.mv.devices()
    }

    pub fn pipeline_mut(&mut self) -> &mut MultiVpu {
        &mut self.mv
    }

    pub fn pipeline(&self) -> &MultiVpu {
        &self.mv
    }

    /// `(first_wave, per_wave)` of the calibrated latency model.
    pub fn service_latency_model(&self) -> (Duration, Duration) {
        (self.svc_first_wave, self.svc_per_wave)
    }
}

impl TargetDevice for IntelVpu {
    fn name(&self) -> &str {
        "vpu"
    }

    fn tdp_w(&self, batch: usize) -> f64 {
        // One stick's peak TDP per active VPU (Fig. 8a's accounting).
        ncs_platform::PEAK_POWER_W * batch as f64
    }

    fn run_throughput(&mut self, images: usize, batch: usize) -> ThroughputReport {
        assert_eq!(
            batch,
            self.mv.devices(),
            "the paper couples batch size to the number of active VPUs"
        );
        let report = self.mv.run_pipeline(images);
        // Windows of `batch` results give the per-window samples.
        let mut windows = Vec::new();
        let mut window_start = report.start;
        let mut i = 0;
        while i + batch <= images {
            let end =
                (i..i + batch).map(|k| report.result_times[k]).max().expect("non-empty window");
            windows.push(end - window_start);
            window_start = end;
            i += batch;
        }
        if windows.is_empty() {
            windows.push(report.end - report.start);
        }
        ThroughputReport::from_window_times("vpu", batch, batch, &windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_nn::googlenet::Variant;

    fn model() -> ModelBundle {
        ModelBundle::googlenet_untrained(Variant::Full, 1)
    }

    fn tiny_model() -> ModelBundle {
        ModelBundle::googlenet_untrained(Variant::Tiny, 1)
    }

    #[test]
    fn cpu_throughput_matches_anchor() {
        let mut cpu = HostTarget::new(model(), HostConfig::xeon_e5());
        let r = cpu.run_throughput(80, 8);
        // Paper: 44.0 img/s at batch 8.
        let ips = r.images_per_sec();
        assert!((42.0..46.0).contains(&ips), "CPU {ips} img/s");
        assert!(r.samples.stddev > 0.0, "expected jittered error bars");
    }

    #[test]
    fn gpu_throughput_matches_anchor() {
        let mut gpu = HostTarget::new(model(), HostConfig::k4000());
        let r = gpu.run_throughput(80, 8);
        // Paper: 74.2 img/s at batch 8.
        let ips = r.images_per_sec();
        assert!((71.0..78.0).contains(&ips), "GPU {ips} img/s");
    }

    #[test]
    fn vpu_throughput_matches_anchor() {
        let mut vpu = IntelVpu::new(model(), 8);
        let r = vpu.run_throughput(64, 8);
        // Paper: 77.2 img/s at 8 sticks.
        let ips = r.images_per_sec();
        assert!((71.0..84.0).contains(&ips), "VPU {ips} img/s");
    }

    #[test]
    #[should_panic(expected = "couples batch size")]
    fn vpu_batch_must_equal_devices() {
        IntelVpu::new(model(), 4).run_throughput(16, 8);
    }

    #[test]
    fn tdp_accounting() {
        let cpu = HostTarget::new(tiny_model(), HostConfig::xeon_e5());
        let gpu = HostTarget::new(tiny_model(), HostConfig::k4000());
        let vpu = IntelVpu::new(tiny_model(), 2);
        assert_eq!(cpu.tdp_w(8), 80.0);
        assert_eq!(gpu.tdp_w(8), 80.0);
        assert_eq!(vpu.tdp_w(1), 2.5);
        assert_eq!(vpu.tdp_w(8), 20.0);
    }

    #[test]
    fn names() {
        assert_eq!(HostTarget::new(tiny_model(), HostConfig::xeon_e5()).name(), "cpu");
        assert_eq!(HostTarget::new(tiny_model(), HostConfig::k4000()).name(), "gpu");
        assert_eq!(IntelVpu::new(tiny_model(), 1).name(), "vpu");
    }
}
