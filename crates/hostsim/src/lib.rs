//! Host reference devices: the CPU and GPU implementations the paper
//! compares the multi-VPU configuration against, and the §VII
//! future-work comparators.
//!
//! The paper's CPU baseline is the Intel-optimized Caffe-MKL fork on a
//! dual-socket Xeon E5-2609v2 (2 × 4 cores @ 2.5 GHz, AVX); the GPU
//! baseline is Caffe-cuDNN on a Quadro K4000 (768 CUDA cores, 3 GB
//! GDDR5). §VII names the NVIDIA Volta V100 as future work, and the
//! related work benchmarks the Intel Xeon Phi (KNL) as an ML
//! co-processor (Byun et al.). None of these stacks is runnable here, so
//! all four are one **analytic batch-timing model** over a `vpu_nn` cost
//! profile — a published peak MAC rate, a sustained-efficiency factor, a
//! fixed per-call overhead, and the TDP Eq. (1) charges — with one
//! [`HostConfig`] preset per device. The paper's two hosts are
//! calibrated to its anchor latencies: 26.0 ms (CPU) and 25.9 ms (GPU)
//! at batch 1.
//!
//! The devices only time; they do no arithmetic. MKL and cuDNN both
//! compute in IEEE f32, so the accuracy experiments run the f32 forward
//! of `vpu_nn` directly (`ncsw::runner`).
//!
//! Batch-scaling *shape* then emerges from the overhead-to-compute
//! ratio: the CPU's per-call overhead is small next to its compute, so
//! batching barely helps (paper: 1.1× at batch 8); the GPU's large
//! per-call launch cost amortizes (paper: 1.9×).

use desim::{Duration, FifoResource, SimTime};
use vpu_nn::cost::NetworkCost;

/// Upper bound on [`HostDevice::max_batch`].
const MAX_BATCH: usize = 4096;

/// Seed of every host's jitter stream.
const JITTER_SEED: u64 = 2012;

/// Device memory one image of a batch occupies: blob + workspace, ~3×
/// its activation footprint.
fn per_image_bytes(cost: &NetworkCost) -> u64 {
    3 * cost.total_activation_bytes()
}

/// Eq. (1): ThroughputWatt = (images/second) / TDP.
pub fn throughput_per_watt(images_per_sec: f64, tdp_w: f64) -> f64 {
    assert!(tdp_w > 0.0, "TDP must be positive");
    images_per_sec / tdp_w
}

/// Parameters of one host device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostConfig {
    /// Target name, FIFO name and jitter-stream prefix (`cpu` draws
    /// from `cpu-jitter`).
    pub name: &'static str,
    /// Peak MAC rate at the precision the device runs inference in.
    pub peak_macs_per_sec: f64,
    /// Sustained fraction of that peak on GoogLeNet-class inference.
    pub efficiency: f64,
    /// Fixed per-forward-call overhead (framework setup, kernel
    /// launches, input copy, sync), independent of batch size.
    pub batch_overhead: Duration,
    /// Device memory bounding the batch, if it is the binding limit
    /// (the K4000's 3 GB GDDR5); `None` leaves the batch unbounded.
    pub memory_bytes: Option<u64>,
    /// Package/board TDP charged in Eq. (1), Watts.
    pub tdp_w: f64,
    /// Draw between forward calls — the idle rate the online energy
    /// meter charges outside busy spans.
    pub idle_w: f64,
    /// OS / framework timing jitter (coefficient of variation applied
    /// per forward call) — gives the figures their error bars.
    pub jitter_cv: f64,
    /// What-if scaling of the whole forward call (overhead + compute):
    /// `0.5` simulates a host twice as fast. `1.0` is byte-identical to
    /// a config without the knob — the causal profiler's passivity
    /// guarantee.
    pub service_scale: f64,
}

impl HostConfig {
    /// Caffe-MKL on 2× Xeon E5-2609v2: 8 cores × 8 AVX f32 lanes ×
    /// 2.5 GHz (no turbo). Efficiency and overhead are **calibrated** to
    /// the paper's 26.0 ms batch-1 latency; 80 W is the TDP the paper
    /// quotes.
    pub fn xeon_e5() -> HostConfig {
        HostConfig {
            name: "cpu",
            peak_macs_per_sec: 8.0 * 8.0 * 2.5e9,
            efficiency: 0.445,
            batch_overhead: Duration::from_millis(3.8),
            memory_bytes: None,
            tdp_w: 80.0,
            idle_w: 15.0,
            jitter_cv: 0.008,
            service_scale: 1.0,
        }
    }

    /// Caffe-cuDNN on the Quadro K4000: 768 CUDA cores × 1 f32 MAC ×
    /// 810 MHz, 3 GB GDDR5, 80 W board. Small batches underutilize
    /// Kepler badly; efficiency and the per-call cost (launches for ~140
    /// layers, input cudaMemcpy, stream sync) are **calibrated** to the
    /// paper's 25.9 ms batch-1 latency.
    pub fn k4000() -> HostConfig {
        HostConfig {
            name: "gpu",
            peak_macs_per_sec: 768.0 * 1.0 * 810e6,
            efficiency: 0.217,
            batch_overhead: Duration::from_millis(14.2),
            memory_bytes: Some(3 << 30),
            tdp_w: 80.0,
            idle_w: 13.0,
            jitter_cv: 0.008,
            service_scale: 1.0,
        }
    }

    /// NVIDIA Tesla V100 (SXM2): 640 tensor cores, 125 TFLOP/s FP16
    /// (62.5 TMAC/s), 300 W. Sustained efficiency on GoogLeNet-class
    /// inference at moderate batch is low — the network is too small to
    /// fill the machine (published V100 GoogLeNet numbers sit near
    /// 1–2 k img/s at batch 8, i.e. ~5 % of tensor-core peak). No idle
    /// model: idle is charged at TDP.
    pub fn v100() -> HostConfig {
        HostConfig {
            name: "v100",
            peak_macs_per_sec: 62.5e12,
            efficiency: 0.05,
            batch_overhead: Duration::from_millis(1.2),
            memory_bytes: None,
            tdp_w: 300.0,
            idle_w: 300.0,
            jitter_cv: 0.0,
            service_scale: 1.0,
        }
    }

    /// Intel Xeon Phi 7250 (KNL): 68 cores × 2×AVX-512 FMA @ 1.4 GHz ≈
    /// 3 TMAC/s FP32 peak, 215 W. Byun et al. sustain ~15 % of peak on
    /// CNN inference (scatter-bound im2col hurts on KNL). No idle model:
    /// idle is charged at TDP.
    pub fn knl() -> HostConfig {
        HostConfig {
            name: "knl",
            peak_macs_per_sec: 3.0e12,
            efficiency: 0.15,
            batch_overhead: Duration::from_millis(6.0),
            memory_bytes: None,
            tdp_w: 215.0,
            idle_w: 215.0,
            jitter_cv: 0.0,
            service_scale: 1.0,
        }
    }
}

/// Timing record for one batched inference call on a host device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostRun {
    pub start: SimTime,
    pub end: SimTime,
    pub batch: usize,
}

impl HostRun {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// A host device: serial at forward-call granularity (one forward pass
/// at a time; parallelism lives *inside* the GEMMs and kernels).
#[derive(Debug, Clone)]
pub struct HostDevice {
    cfg: HostConfig,
    timeline: FifoResource,
    /// `{name}-jitter`, built once so a batch allocates nothing.
    jitter_label: String,
    batches: u64,
}

impl HostDevice {
    pub fn new(cfg: HostConfig) -> Self {
        HostDevice {
            cfg,
            timeline: FifoResource::new(cfg.name),
            jitter_label: format!("{}-jitter", cfg.name),
            batches: 0,
        }
    }

    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    pub fn now(&self) -> SimTime {
        self.timeline.available_at()
    }

    /// Per-image compute time, flat in batch size.
    pub fn compute_per_image(&self, cost: &NetworkCost) -> Duration {
        let secs = cost.total_macs as f64 / (self.cfg.peak_macs_per_sec * self.cfg.efficiency);
        Duration::from_secs(secs)
    }

    /// Does a batch of this size fit device memory? (Blob + workspace ~
    /// 3× the activation footprint per image.) Always true without a
    /// memory bound.
    pub fn batch_fits(&self, cost: &NetworkCost, batch: usize) -> bool {
        self.cfg.memory_bytes.is_none_or(|memory| {
            cost.total_weight_bytes() + per_image_bytes(cost) * batch as u64 <= memory
        })
    }

    /// Largest batch that [`HostDevice::batch_fits`], clamped to
    /// `1..=MAX_BATCH`: weights that alone overflow memory still get 1,
    /// a network without activations gets the cap. `None` without a
    /// memory bound.
    pub fn max_batch(&self, cost: &NetworkCost) -> Option<usize> {
        let room = self.cfg.memory_bytes?.checked_sub(cost.total_weight_bytes());
        Some(room.map_or(1, |room| {
            room.checked_div(per_image_bytes(cost))
                .map_or(MAX_BATCH, |k| k.clamp(1, MAX_BATCH as u64) as usize)
        }))
    }

    /// Predicted duration of one batched forward call.
    pub fn batch_duration(&self, cost: &NetworkCost, batch: usize) -> Duration {
        assert!(batch > 0, "batch must be positive");
        assert!(self.batch_fits(cost, batch), "batch {batch} exceeds {} memory", self.cfg.name);
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
            vpu_num::rng::indexed_stream(JITTER_SEED, &self.jitter_label, self.batches);
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

    /// Per-image latency in ms at `batch`.
    fn per_image_ms(cfg: HostConfig, batch: usize) -> f64 {
        HostDevice::new(cfg).batch_duration(&cost(), batch).as_millis() / batch as f64
    }

    #[test]
    fn paper_hosts_match_the_anchors() {
        // (preset, batch, per-image ms band): paper 26.0 / 22.7 ms (CPU)
        // and 25.9 / 13.5 ms (GPU) at batch 1 / 8.
        for (cfg, batch, band) in [
            (HostConfig::xeon_e5(), 1, 25.2..26.8),
            (HostConfig::xeon_e5(), 8, 22.0..23.4),
            (HostConfig::k4000(), 1, 25.1..26.7),
            (HostConfig::k4000(), 8, 13.0..14.0),
        ] {
            let ms = per_image_ms(cfg, batch);
            assert!(band.contains(&ms), "{} batch-{batch} {ms} ms", cfg.name);
        }
        // Paper: 79.9 img/s maximum for the GPU.
        let ips = 1000.0 / per_image_ms(HostConfig::k4000(), 16);
        assert!((77.0..82.0).contains(&ips), "GPU batch-16 {ips} img/s");
    }

    #[test]
    fn batch_scaling_matches_the_paper() {
        // Paper: 1.1x (CPU, flat) and 1.9x (GPU) at batch 8.
        for (cfg, band) in [(HostConfig::xeon_e5(), 1.08..1.22), (HostConfig::k4000(), 1.8..2.05)] {
            let scaling = per_image_ms(cfg, 1) / per_image_ms(cfg, 8);
            assert!(band.contains(&scaling), "{} scaling {scaling}", cfg.name);
        }
    }

    #[test]
    fn future_work_presets_land_in_published_bands() {
        // Published GoogLeNet inference: V100 roughly 1-2k img/s, KNL in
        // the low hundreds.
        for (cfg, band) in [(HostConfig::v100(), 900.0..2500.0), (HostConfig::knl(), 150.0..500.0)]
        {
            let ips = 1000.0 / per_image_ms(cfg, 8);
            assert!(band.contains(&ips), "{} {ips} img/s", cfg.name);
        }
        assert!(
            per_image_ms(HostConfig::v100(), 1) > per_image_ms(HostConfig::v100(), 32) * 2.0,
            "V100 must need batch to amortize launches"
        );
    }

    #[test]
    fn batches_serialize_with_jitter_near_nominal() {
        let c = cost();
        for cfg in [HostConfig::xeon_e5(), HostConfig::k4000(), HostConfig::knl()] {
            let mut dev = HostDevice::new(cfg);
            let a = dev.run_batch(&c, 8, SimTime::ZERO);
            let b = dev.run_batch(&c, 8, SimTime::ZERO);
            assert_eq!(b.start, a.end);
            let nominal = dev.batch_duration(&c, 8);
            for r in [a, b] {
                let ratio = r.duration().nanos() as f64 / nominal.nanos() as f64;
                assert!((0.95..1.05).contains(&ratio), "jitter out of band: {ratio}");
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_and_zero_cv_runs_at_nominal() {
        let c = cost();
        let mut d1 = HostDevice::new(HostConfig::xeon_e5());
        let mut d2 = HostDevice::new(HostConfig::xeon_e5());
        for _ in 0..4 {
            assert_eq!(d1.run_batch(&c, 8, SimTime::ZERO), d2.run_batch(&c, 8, SimTime::ZERO));
        }
        let mut v100 = HostDevice::new(HostConfig::v100());
        for _ in 0..4 {
            assert_eq!(
                v100.run_batch(&c, 32, SimTime::ZERO).duration(),
                v100.batch_duration(&c, 32)
            );
        }
    }

    #[test]
    fn peak_rates_are_the_documented_products() {
        // 8 cores * 8 lanes * 2.5 GHz = 160 GMAC/s; 768 cores * 810 MHz
        // = 622.08 GMAC/s — both exact in f64.
        assert_eq!(HostConfig::xeon_e5().peak_macs_per_sec, 160e9);
        assert_eq!(HostConfig::k4000().peak_macs_per_sec, 622.08e9);
    }

    #[test]
    fn memory_bounds_only_the_gpu_batch() {
        let c = cost();
        let gpu = HostDevice::new(HostConfig::k4000());
        assert!(gpu.batch_fits(&c, 16));
        assert!(!gpu.batch_fits(&c, 4000), "3 GB cannot hold thousands of 224x224 blobs");
        let cpu = HostDevice::new(HostConfig::xeon_e5());
        assert!(cpu.batch_fits(&c, 100_000));
        assert_eq!(cpu.max_batch(&c), None);
    }

    #[test]
    fn max_batch_is_the_closed_form_of_stepping_batch_fits() {
        // The stepping loop `max_batch` replaces, kept as the reference.
        fn stepped(dev: &HostDevice, c: &NetworkCost) -> usize {
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
            3 << 30,
            w + 4095 * p,
            w + 4096 * p,
            w + 4097 * p,
            u64::MAX / 2,
        ];
        for memory in memories {
            let dev =
                HostDevice::new(HostConfig { memory_bytes: Some(memory), ..HostConfig::k4000() });
            for net in [&c, &no_activations] {
                assert_eq!(dev.max_batch(net), Some(stepped(&dev, net)), "memory {memory}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds gpu memory")]
    fn oversized_batch_panics() {
        HostDevice::new(HostConfig::k4000()).batch_duration(&cost(), 100_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_batch_rejected() {
        HostDevice::new(HostConfig::xeon_e5()).batch_duration(&cost(), 0);
    }

    #[test]
    fn eq1_values_from_paper() {
        // Paper §V: one VPU does ~100.7 ms per image = 9.93 img/s, over
        // the 2.5 W stick TDP = 3.97 img/W.
        let per_stick = throughput_per_watt(1000.0 / 100.7, 2.5);
        assert!((per_stick - 3.97).abs() < 0.05, "{per_stick}");
        // CPU at batch 8: 44.0 img/s over 80 W = 0.55; GPU 74.2 -> 0.93.
        assert_eq!(HostConfig::xeon_e5().tdp_w, 80.0);
        assert_eq!(HostConfig::k4000().tdp_w, 80.0);
        assert!((throughput_per_watt(44.0, 80.0) - 0.55).abs() < 0.01);
        assert!((throughput_per_watt(74.2, 80.0) - 0.9275).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tdp_rejected() {
        throughput_per_watt(1.0, 0.0);
    }
}
