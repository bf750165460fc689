//! Caffe-MKL on dual Xeon E5-2609v2: the paper's CPU reference.

use crate::HostRun;
use desim::{Duration, FifoResource, SimTime};
use serde::{Deserialize, Serialize};
use vpu_nn::cost::NetworkCost;

/// Parameters of the CPU implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Physical cores across both sockets (2 × 4 on the testbed).
    pub cores: usize,
    /// f32 SIMD lanes per core (AVX = 8).
    pub simd_lanes: usize,
    /// Clock, Hz (2.5 GHz, no turbo on the E5-2609v2).
    pub clock_hz: f64,
    /// Fraction of peak MAC throughput Caffe-MKL sustains on GoogLeNet.
    /// **Calibrated** to the paper's 26.0 ms batch-1 latency.
    pub efficiency: f64,
    /// Per-batch framework overhead (layer setup, MKL thread-pool wake,
    /// blob reshape), independent of batch size.
    pub batch_overhead: Duration,
    /// Thermal design power of the CPU package(s) used in Eq. (1).
    /// The paper quotes 80 W for the Xeon E5-2609v2.
    pub tdp_w: f64,
    /// Package draw between forward calls (C-states engaged but the
    /// machine awake) — the idle rate the online energy meter charges
    /// outside busy spans.
    pub idle_w: f64,
    /// OS / framework timing jitter (coefficient of variation applied
    /// per forward call) — gives the figures their error bars.
    pub jitter_cv: f64,
    /// Seed of the jitter stream.
    pub jitter_seed: u64,
    /// What-if scaling of the whole forward call (overhead + compute):
    /// `0.5` simulates a host twice as fast. `1.0` is byte-identical to
    /// a config without the knob — the causal profiler's passivity
    /// guarantee.
    pub service_scale: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig {
            cores: 8,
            simd_lanes: 8,
            clock_hz: 2.5e9,
            efficiency: 0.445,
            batch_overhead: Duration::from_millis(3.8),
            tdp_w: 80.0,
            idle_w: 15.0,
            jitter_cv: 0.008,
            jitter_seed: 2012,
            service_scale: 1.0,
        }
    }
}

impl CpuConfig {
    /// Peak f32 MAC rate over all cores.
    pub fn peak_macs_per_sec(&self) -> f64 {
        self.cores as f64 * self.simd_lanes as f64 * self.clock_hz
    }
}

/// The CPU device: serial at batch granularity (Caffe runs one forward
/// pass at a time; parallelism lives *inside* the GEMMs).
#[derive(Debug, Clone)]
pub struct CpuDevice {
    cfg: CpuConfig,
    timeline: FifoResource,
    batches: u64,
}

impl CpuDevice {
    pub fn new(cfg: CpuConfig) -> Self {
        CpuDevice { cfg, timeline: FifoResource::new("cpu"), batches: 0 }
    }

    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    pub fn now(&self) -> SimTime {
        self.timeline.available_at()
    }

    pub fn batches_run(&self) -> u64 {
        self.batches
    }

    /// Per-image compute time: all cores already busy at batch 1, so this
    /// is flat in batch size.
    pub fn compute_per_image(&self, cost: &NetworkCost) -> Duration {
        let secs = cost.total_macs as f64 / (self.cfg.peak_macs_per_sec() * self.cfg.efficiency);
        Duration::from_secs(secs)
    }

    /// Predicted duration of one batched forward call.
    pub fn batch_duration(&self, cost: &NetworkCost, batch: usize) -> Duration {
        assert!(batch > 0, "batch must be positive");
        let nominal = self.cfg.batch_overhead + self.compute_per_image(cost) * batch as u64;
        if self.cfg.service_scale == 1.0 {
            nominal
        } else {
            nominal * self.cfg.service_scale
        }
    }

    /// Simulate one batched forward pass starting no earlier than `ready`.
    /// Each call carries deterministic seeded jitter (indexed by the
    /// batch counter), modelling OS/framework timing noise.
    pub fn run_batch(&mut self, cost: &NetworkCost, batch: usize, ready: SimTime) -> HostRun {
        let nominal = self.batch_duration(cost, batch);
        let mut stream =
            vpu_num::rng::indexed_stream(self.cfg.jitter_seed, "cpu-jitter", self.batches);
        let z = vpu_num::rng::normal(&mut stream);
        let scale = (1.0 + self.cfg.jitter_cv * z).max(0.5);
        let busy = self.timeline.acquire(ready, nominal * scale);
        self.batches += 1;
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
    fn batch1_latency_matches_paper() {
        let dev = CpuDevice::new(CpuConfig::default());
        let ms = dev.batch_duration(&cost(), 1).as_millis();
        // Paper: 26.0 ms single-input reference.
        assert!((25.2..26.8).contains(&ms), "CPU batch-1 {ms} ms");
    }

    #[test]
    fn batch8_latency_matches_paper() {
        let dev = CpuDevice::new(CpuConfig::default());
        let per = dev.batch_duration(&cost(), 8).as_millis() / 8.0;
        // Paper: 22.7 ms per inference at batch 8 (44.0 img/s).
        assert!((22.0..23.4).contains(&per), "CPU batch-8 per-image {per} ms");
    }

    #[test]
    fn scaling_is_flat_like_the_paper() {
        let dev = CpuDevice::new(CpuConfig::default());
        let c = cost();
        let t1 = dev.batch_duration(&c, 1).as_millis();
        let t8 = dev.batch_duration(&c, 8).as_millis() / 8.0;
        let scaling = t1 / t8;
        // Paper: only 14.7% improvement at batch 8 (1.1x).
        assert!((1.08..1.22).contains(&scaling), "CPU scaling {scaling}");
    }

    #[test]
    fn batches_serialize() {
        let mut dev = CpuDevice::new(CpuConfig::default());
        let c = cost();
        let a = dev.run_batch(&c, 8, SimTime::ZERO);
        let b = dev.run_batch(&c, 8, SimTime::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(dev.batches_run(), 2);
        // Jitter makes batches differ slightly but stay near nominal.
        let nominal = dev.batch_duration(&c, 8);
        for r in [a, b] {
            let ratio = r.duration().nanos() as f64 / nominal.nanos() as f64;
            assert!((0.95..1.05).contains(&ratio), "jitter out of band: {ratio}");
        }
    }

    #[test]
    fn jitter_is_deterministic() {
        let c = cost();
        let mut d1 = CpuDevice::new(CpuConfig::default());
        let mut d2 = CpuDevice::new(CpuConfig::default());
        for _ in 0..4 {
            let a = d1.run_batch(&c, 8, SimTime::ZERO);
            let b = d2.run_batch(&c, 8, SimTime::ZERO);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn peak_rate() {
        let cfg = CpuConfig::default();
        // 8 cores * 8 lanes * 2.5 GHz = 160 GMAC/s.
        assert!((cfg.peak_macs_per_sec() - 160e9).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        CpuDevice::new(CpuConfig::default()).batch_duration(&cost(), 0);
    }
}
