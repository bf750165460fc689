//! Caffe-cuDNN on the NVIDIA Quadro K4000: the paper's GPU reference.

use crate::HostRun;
use desim::{Duration, FifoResource, SimTime};
use serde::{Deserialize, Serialize};
use vpu_nn::cost::NetworkCost;

/// Upper bound on [`GpuDevice::max_batch`].
const MAX_BATCH: usize = 4096;

/// GDDR5 one image of a batch occupies: blob + workspace, ~3× its
/// activation footprint.
fn per_image_bytes(cost: &NetworkCost) -> u64 {
    3 * cost.total_activation_bytes()
}

/// Parameters of the GPU implementation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfig {
    /// CUDA cores (768 on the K4000, Kepler GK106GL).
    pub cuda_cores: usize,
    /// Boost clock, Hz (~810 MHz).
    pub clock_hz: f64,
    /// f32 FMA throughput per core per cycle (1 MAC).
    pub macs_per_core_cycle: f64,
    /// Sustained fraction of peak on GoogLeNet under cuDNN (small
    /// batches underutilize Kepler badly). **Calibrated** to the paper's
    /// 25.9 ms batch-1 latency.
    pub efficiency: f64,
    /// Fixed per-forward-call cost: kernel launches for ~140 layers,
    /// cudaMemcpy of the input blob, stream sync.
    pub batch_overhead: Duration,
    /// GDDR5 capacity (3 GB), bounding the max input blob.
    pub memory_bytes: u64,
    /// Board TDP used in Eq. (1): 80 W.
    pub tdp_w: f64,
    /// Board draw with no kernels in flight (GDDR5 refresh, fans,
    /// display engine) — the idle rate the online energy meter charges
    /// outside busy spans.
    pub idle_w: f64,
    /// OS / driver timing jitter (coefficient of variation applied per
    /// forward call) — gives the figures their error bars.
    pub jitter_cv: f64,
    /// Seed of the jitter stream.
    pub jitter_seed: u64,
    /// What-if scaling of the whole forward call (overhead + compute):
    /// `0.5` simulates a GPU twice as fast. `1.0` is byte-identical to
    /// a config without the knob — the causal profiler's passivity
    /// guarantee.
    pub service_scale: f64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            cuda_cores: 768,
            clock_hz: 810e6,
            macs_per_core_cycle: 1.0,
            efficiency: 0.217,
            batch_overhead: Duration::from_millis(14.2),
            memory_bytes: 3 << 30,
            tdp_w: 80.0,
            idle_w: 13.0,
            jitter_cv: 0.008,
            jitter_seed: 2012,
            service_scale: 1.0,
        }
    }
}

impl GpuConfig {
    /// Peak f32 MAC rate.
    pub fn peak_macs_per_sec(&self) -> f64 {
        self.cuda_cores as f64 * self.macs_per_core_cycle * self.clock_hz
    }
}

/// The GPU device. Like the CPU, forward calls are serial; parallelism is
/// inside the kernels. The big per-call overhead is what batching
/// amortizes (the paper's 1.9× batch-8 speedup).
#[derive(Debug, Clone)]
pub struct GpuDevice {
    cfg: GpuConfig,
    timeline: FifoResource,
    batches: u64,
}

impl GpuDevice {
    pub fn new(cfg: GpuConfig) -> Self {
        GpuDevice { cfg, timeline: FifoResource::new("gpu"), batches: 0 }
    }

    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    pub fn now(&self) -> SimTime {
        self.timeline.available_at()
    }

    pub fn batches_run(&self) -> u64 {
        self.batches
    }

    /// Steady-state compute per image once the pipelines are full.
    pub fn compute_per_image(&self, cost: &NetworkCost) -> Duration {
        let secs = cost.total_macs as f64 / (self.cfg.peak_macs_per_sec() * self.cfg.efficiency);
        Duration::from_secs(secs)
    }

    /// Does a batch of this size fit GDDR5? (Blob + workspace ~ 3× the
    /// activation footprint per image.)
    pub fn batch_fits(&self, cost: &NetworkCost, batch: usize) -> bool {
        cost.total_weight_bytes() + per_image_bytes(cost) * batch as u64 <= self.cfg.memory_bytes
    }

    /// Largest batch that [`GpuDevice::batch_fits`], clamped to
    /// `1..=MAX_BATCH`: weights that alone overflow memory still get 1,
    /// a network without activations gets the cap.
    pub fn max_batch(&self, cost: &NetworkCost) -> usize {
        let room = self.cfg.memory_bytes.checked_sub(cost.total_weight_bytes());
        room.map_or(1, |room| {
            room.checked_div(per_image_bytes(cost))
                .map_or(MAX_BATCH, |k| k.clamp(1, MAX_BATCH as u64) as usize)
        })
    }

    /// Predicted duration of one batched forward call.
    pub fn batch_duration(&self, cost: &NetworkCost, batch: usize) -> Duration {
        assert!(batch > 0, "batch must be positive");
        assert!(self.batch_fits(cost, batch), "batch {batch} exceeds GPU memory");
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
            vpu_num::rng::indexed_stream(self.cfg.jitter_seed, "gpu-jitter", self.batches);
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
        let dev = GpuDevice::new(GpuConfig::default());
        let ms = dev.batch_duration(&cost(), 1).as_millis();
        // Paper: 25.9 ms single-input reference.
        assert!((25.1..26.7).contains(&ms), "GPU batch-1 {ms} ms");
    }

    #[test]
    fn batch8_latency_matches_paper() {
        let dev = GpuDevice::new(GpuConfig::default());
        let per = dev.batch_duration(&cost(), 8).as_millis() / 8.0;
        // Paper: 13.5 ms per inference at batch 8 (74.2 img/s).
        assert!((13.0..14.0).contains(&per), "GPU batch-8 per-image {per} ms");
    }

    #[test]
    fn batch16_approaches_paper_max() {
        let dev = GpuDevice::new(GpuConfig::default());
        let per_ms = dev.batch_duration(&cost(), 16).as_millis() / 16.0;
        let imgs_per_sec = 1000.0 / per_ms;
        // Paper: 79.9 img/s maximum for the GPU.
        assert!((77.0..82.0).contains(&imgs_per_sec), "GPU batch-16 {imgs_per_sec} img/s");
    }

    #[test]
    fn scaling_matches_paper() {
        let dev = GpuDevice::new(GpuConfig::default());
        let c = cost();
        let t1 = dev.batch_duration(&c, 1).as_millis();
        let t8 = dev.batch_duration(&c, 8).as_millis() / 8.0;
        // Paper: 92.5% improvement at batch 8 (1.9x).
        let scaling = t1 / t8;
        assert!((1.8..2.05).contains(&scaling), "GPU scaling {scaling}");
    }

    #[test]
    fn memory_bounds_batch() {
        let dev = GpuDevice::new(GpuConfig::default());
        let c = cost();
        assert!(dev.batch_fits(&c, 16));
        assert!(!dev.batch_fits(&c, 4000), "3 GB cannot hold thousands of 224x224 blobs");
    }

    #[test]
    fn max_batch_is_the_closed_form_of_stepping_batch_fits() {
        // The stepping loop `max_batch` replaces, kept as the reference.
        fn stepped(dev: &GpuDevice, c: &NetworkCost) -> usize {
            let mut b = 1;
            while b < MAX_BATCH && dev.batch_fits(c, b + 1) {
                b += 1;
            }
            b
        }
        let c = cost();
        let no_activations = NetworkCost { layers: Vec::new(), ..c.clone() };
        let (w, p) = (c.total_weight_bytes(), per_image_bytes(&c));
        let memories = [
            0,
            w - 1, // weights alone overflow
            w,
            w + p - 1,
            w + p,
            w + 2 * p,
            w + 17 * p + 5,
            GpuConfig::default().memory_bytes,
            w + 4095 * p,
            w + 4096 * p,
            w + 4097 * p,
            u64::MAX / 2,
        ];
        for memory_bytes in memories {
            let dev = GpuDevice::new(GpuConfig { memory_bytes, ..GpuConfig::default() });
            for net in [&c, &no_activations] {
                assert_eq!(dev.max_batch(net), stepped(&dev, net), "memory {memory_bytes}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds GPU memory")]
    fn oversized_batch_panics() {
        GpuDevice::new(GpuConfig::default()).batch_duration(&cost(), 100_000);
    }

    #[test]
    fn batches_serialize() {
        let mut dev = GpuDevice::new(GpuConfig::default());
        let c = cost();
        let a = dev.run_batch(&c, 4, SimTime::ZERO);
        let b = dev.run_batch(&c, 4, a.start);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn peak_rate() {
        // 768 cores * 810 MHz = 622 GMAC/s = 1.24 TFLOP/s.
        let cfg = GpuConfig::default();
        assert!((cfg.peak_macs_per_sec() - 622.08e9).abs() < 1e6);
    }
}
