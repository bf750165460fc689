//! The paper's §VII future-work comparators.
//!
//! "As future work, we expect to compare the VPU with highly-specialized
//! accelerator chips, such as the NVIDIA Volta V100 architecture" — and
//! its related work benchmarks the Intel Xeon Phi (KNL) as an ML
//! co-processor (Byun et al.). Both are modelled the same way as the
//! paper's own hosts: published peak rates, a sustained-efficiency factor
//! for GoogLeNet-class inference, a per-call overhead, and the board TDP
//! for Eq. (1).

use crate::HostRun;
use desim::{Duration, FifoResource, SimTime};
use serde::{Deserialize, Serialize};
use vpu_nn::cost::NetworkCost;

/// A generic throughput-oriented accelerator model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccelConfig {
    pub name: String,
    /// Peak MAC rate at the precision the device runs inference in.
    pub peak_macs_per_sec: f64,
    /// Sustained fraction of that peak on GoogLeNet-class inference.
    pub efficiency: f64,
    /// Fixed per-forward-call overhead (launches, sync).
    pub batch_overhead: Duration,
    /// Board/package TDP for Eq. (1), Watts.
    pub tdp_w: f64,
}

impl AccelConfig {
    /// NVIDIA Tesla V100 (SXM2): 640 tensor cores, 125 TFLOP/s FP16
    /// (62.5 TMAC/s), 300 W. Sustained efficiency on GoogLeNet-class
    /// inference at moderate batch is low — the network is too small to
    /// fill the machine (published V100 GoogLeNet numbers sit near
    /// 1–2 k img/s at batch 8, i.e. ~5 % of tensor-core peak).
    pub fn v100() -> AccelConfig {
        AccelConfig {
            name: "v100".into(),
            peak_macs_per_sec: 62.5e12,
            efficiency: 0.05,
            batch_overhead: Duration::from_millis(1.2),
            tdp_w: 300.0,
        }
    }

    /// Intel Xeon Phi 7250 (KNL): 68 cores × 2×AVX-512 FMA @ 1.4 GHz ≈
    /// 3 TMAC/s FP32 peak, 215 W. Byun et al. sustain ~15 % of peak on
    /// CNN inference (scatter-bound im2col hurts on KNL).
    pub fn xeon_phi_knl() -> AccelConfig {
        AccelConfig {
            name: "knl".into(),
            peak_macs_per_sec: 3.0e12,
            efficiency: 0.15,
            batch_overhead: Duration::from_millis(6.0),
            tdp_w: 215.0,
        }
    }
}

/// The device: serial forward calls, parallel inside (same modelling
/// level as the paper's CPU/GPU references).
#[derive(Debug, Clone)]
pub struct AccelDevice {
    cfg: AccelConfig,
    timeline: FifoResource,
}

impl AccelDevice {
    pub fn new(cfg: AccelConfig) -> Self {
        let timeline = FifoResource::new(cfg.name.clone());
        AccelDevice { cfg, timeline }
    }

    pub fn compute_per_image(&self, cost: &NetworkCost) -> Duration {
        Duration::from_secs(
            cost.total_macs as f64 / (self.cfg.peak_macs_per_sec * self.cfg.efficiency),
        )
    }

    pub fn batch_duration(&self, cost: &NetworkCost, batch: usize) -> Duration {
        assert!(batch > 0, "batch must be positive");
        self.cfg.batch_overhead + self.compute_per_image(cost) * batch as u64
    }

    pub fn run_batch(&mut self, cost: &NetworkCost, batch: usize, ready: SimTime) -> HostRun {
        let busy = self.timeline.acquire(ready, self.batch_duration(cost, batch));
        HostRun { start: busy.start, end: busy.end, batch }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_nn::googlenet;

    fn cost() -> NetworkCost {
        NetworkCost::of::<f32>(&googlenet::full())
    }

    #[test]
    fn v100_lands_in_published_band() {
        let dev = AccelDevice::new(AccelConfig::v100());
        let per = dev.batch_duration(&cost(), 8).as_millis() / 8.0;
        let ips = 1000.0 / per;
        // Published V100 GoogLeNet inference: roughly 1-2k img/s.
        assert!((900.0..2500.0).contains(&ips), "V100 {ips} img/s");
    }

    #[test]
    fn knl_lands_between_the_paper_hosts_and_v100() {
        let dev = AccelDevice::new(AccelConfig::xeon_phi_knl());
        let per = dev.batch_duration(&cost(), 8).as_millis() / 8.0;
        let ips = 1000.0 / per;
        // KNL inference sits in the low hundreds of img/s.
        assert!((150.0..500.0).contains(&ips), "KNL {ips} img/s");
    }

    #[test]
    fn batch_overhead_amortizes() {
        let dev = AccelDevice::new(AccelConfig::v100());
        let c = cost();
        let t1 = dev.batch_duration(&c, 1).as_millis();
        let t32 = dev.batch_duration(&c, 32).as_millis() / 32.0;
        assert!(t1 > t32 * 2.0, "V100 must need batch to amortize launches");
    }

    #[test]
    fn batches_serialize() {
        let mut dev = AccelDevice::new(AccelConfig::xeon_phi_knl());
        let c = cost();
        let a = dev.run_batch(&c, 8, SimTime::ZERO);
        let b = dev.run_batch(&c, 8, SimTime::ZERO);
        assert_eq!(b.start, a.end);
    }
}
