//! Layer-by-layer execution of a network on the simulated chip.
//!
//! The NCSDK runtime executes graph layers in order: the LEON RISC
//! scheduler dispatches each layer, DMA streams weights (and activation
//! spill) through the LPDDR3 channel, activations move through the CMX
//! crossbar, and the layer's arithmetic runs fork-join across the SHAVE
//! pool — or on the SIPP pipeline for window ops. A layer completes when
//! its slowest resource finishes; the fabric overlaps the rest (§II-A:
//! "designed for low latency by endorsing data locality").
//!
//! Two entry points:
//! * [`Myriad2::run_cost`] — timing only, from a [`NetworkCost`] profile.
//!   Used by the throughput experiments, where the full 224×224 GoogLeNet
//!   work profile is simulated without executing 1.6 GMAC per image.
//! * [`Myriad2::run_inference`] — timing plus **real FP16 numerics**
//!   through `vpu_nn`, used by the accuracy experiments.

use crate::arch::Myriad2Config;
use crate::cmx::Cmx;
use crate::ddr::DdrChannel;
use crate::power::{ActivitySummary, PowerModel};
use crate::shave;
use crate::sipp::{SippKernel, SippPipeline};
use desim::{Duration, ServerPool, SimTime};
use serde::{Deserialize, Serialize};
use vpu_nn::cost::NetworkCost;
use vpu_nn::graph::CompiledNetwork;
use vpu_num::f16;
use vpu_tensor::Tensor;

/// Timing record of one layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerTiming {
    pub name: String,
    pub mnemonic: String,
    pub start: SimTime,
    pub end: SimTime,
    /// Busy time on the compute resource (SHAVE pool or SIPP).
    pub compute: Duration,
    /// Busy time on the DDR channel.
    pub memory: Duration,
    /// Whether the SIPP pipeline executed this layer.
    pub on_sipp: bool,
}

impl LayerTiming {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// Result of simulating one inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkRun {
    pub network: String,
    pub start: SimTime,
    pub end: SimTime,
    pub layers: Vec<LayerTiming>,
    pub activity: ActivitySummary,
    /// Joules consumed by the chip during this run.
    pub energy_j: f64,
}

impl NetworkRun {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// The layer that dominated the run.
    pub fn slowest_layer(&self) -> Option<&LayerTiming> {
        self.layers.iter().max_by_key(|l| l.duration())
    }
}

/// A hand-written compute kernel (MDK path): raw work quantities for the
/// chip's resources, with optional overrides for code that is tuned
/// differently than the NCSDK's convolution kernels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelWork {
    pub name: String,
    /// Multiply-accumulates.
    pub macs: u64,
    /// Scalar/compare operations.
    pub aux_ops: u64,
    /// Bytes moved through the CMX crossbar.
    pub cmx_bytes: u64,
    /// Bytes streamed over the LPDDR3 channel.
    pub ddr_bytes: u64,
    /// VAU lanes used per issue (8 for FP16, 4 for FP32); `None` uses
    /// the chip default.
    pub vau_lanes: Option<usize>,
    /// Sustained issue efficiency; `None` uses the chip default (tuned
    /// for NCSDK conv kernels). Hand-written GEMM sustains more.
    pub issue_efficiency: Option<f64>,
}

/// One simulated Myriad 2 chip with its private virtual clock.
///
/// ```
/// use myriad2::{Myriad2, Myriad2Config};
/// use desim::SimTime;
/// use vpu_nn::cost::NetworkCost;
/// let cost = NetworkCost::of::<vpu_num::f16>(&vpu_nn::googlenet::full());
/// let mut chip = Myriad2::new(Myriad2Config::default());
/// let run = chip.run_cost(&cost, SimTime::ZERO);
/// // One GoogLeNet inference lands near the paper's 100.7 ms anchor.
/// assert!((90.0..105.0).contains(&run.duration().as_millis()));
/// ```
#[derive(Debug, Clone)]
pub struct Myriad2 {
    cfg: Myriad2Config,
    shaves: ServerPool,
    cmx: Cmx,
    ddr: DdrChannel,
    sipp: SippPipeline,
    power: PowerModel,
    now: SimTime,
}

impl Myriad2 {
    pub fn new(cfg: Myriad2Config) -> Self {
        Myriad2 {
            shaves: ServerPool::new("shaves", cfg.shaves),
            cmx: Cmx::new(&cfg),
            ddr: DdrChannel::new(&cfg),
            sipp: SippPipeline::new(&cfg),
            power: PowerModel { shave_islands: cfg.shaves, ..PowerModel::default() },
            cfg,
            now: SimTime::ZERO,
        }
    }

    pub fn config(&self) -> &Myriad2Config {
        &self.cfg
    }

    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Aggregate busy time since simulation start — the power-integration
    /// input for lifetime energy/thermal queries.
    pub fn lifetime_activity(&self) -> ActivitySummary {
        let (sh, cm, dd, si) = self.busy_totals();
        ActivitySummary {
            shave_busy: sh,
            cmx_busy: cm,
            ddr_busy: dd,
            sipp_busy: si,
            span: self.now - SimTime::ZERO,
        }
    }

    /// Load the graph file into DDR (called by the NCS firmware when the
    /// host allocates a graph). Returns false if DDR is exhausted.
    pub fn load_graph(&mut self, weight_bytes: u64) -> bool {
        self.ddr.reserve(weight_bytes)
    }

    /// Simulate one inference from a cost profile; the device clock
    /// advances to the completion instant, which is also returned.
    pub fn run_cost(&mut self, cost: &NetworkCost, ready: SimTime) -> NetworkRun {
        let start = SimTime::max_of(ready, self.now);
        let (sh0, cm0, dd0, si0) = self.busy_totals();
        let mut t = start;
        let mut layers = Vec::with_capacity(cost.layers.len());
        for layer in &cost.layers {
            // With pipelined DMA the whole weight stream is issued ahead
            // in layer order (the DDR channel serializes it; the CMX
            // staging buffers are assumed deep enough). Without it, each
            // layer's DMA waits for its own dispatch.
            let dma_from = if self.cfg.weight_prefetch { start } else { t };
            let timing = self.run_layer(layer, t, dma_from);
            t = timing.end;
            layers.push(timing);
        }
        let (sh1, cm1, dd1, si1) = self.busy_totals();
        self.now = t;
        let activity = ActivitySummary {
            shave_busy: sh1 - sh0,
            cmx_busy: cm1 - cm0,
            ddr_busy: dd1 - dd0,
            sipp_busy: si1 - si0,
            span: t - start,
        };
        let energy_j = self.power.energy(&activity);
        NetworkRun { network: cost.network.clone(), start, end: t, layers, activity, energy_j }
    }

    /// Run a batch of hand-written kernels back-to-back (the MDK
    /// general-purpose path). Returns the same record as a network run.
    pub fn run_kernels(&mut self, works: &[KernelWork], ready: SimTime) -> NetworkRun {
        let start = SimTime::max_of(ready, self.now);
        let (sh0, cm0, dd0, si0) = self.busy_totals();
        let mut t = start;
        let mut layers = Vec::with_capacity(works.len());
        for w in works {
            let mut cfg = self.cfg.clone();
            if let Some(l) = w.vau_lanes {
                cfg.vau_lanes = l;
            }
            if let Some(e) = w.issue_efficiency {
                cfg.issue_efficiency = e;
            }
            let t0 = t + Duration::from_nanos(self.cfg.risc_dispatch_ns);
            let ddr_busy = self.ddr.transfer(t0, w.ddr_bytes);
            self.cmx.reset();
            let cmx_busy = self.cmx.access(t0, 0, w.cmx_bytes.min(self.cmx.capacity()));
            let wc = shave::layer_cycles(&cfg, w.macs, w.aux_ops, w.cmx_bytes);
            let total = Duration::for_cycles(wc.total(), cfg.clock_hz);
            let compute_busy = if total == Duration::ZERO {
                desim::resource::Busy { start: t0, end: t0 }
            } else {
                self.shaves.acquire_parallel(t0, total, cfg.shaves)
            };
            let end = compute_busy.end.max(ddr_busy.end).max(cmx_busy.end);
            layers.push(LayerTiming {
                name: w.name.clone(),
                mnemonic: "kernel".into(),
                start: t,
                end,
                compute: compute_busy.end - compute_busy.start,
                memory: ddr_busy.end - ddr_busy.start,
                on_sipp: false,
            });
            t = end;
        }
        let (sh1, cm1, dd1, si1) = self.busy_totals();
        self.now = t;
        let activity = ActivitySummary {
            shave_busy: sh1 - sh0,
            cmx_busy: cm1 - cm0,
            ddr_busy: dd1 - dd0,
            sipp_busy: si1 - si0,
            span: t - start,
        };
        let energy_j = self.power.energy(&activity);
        NetworkRun { network: "mdk".into(), start, end: t, layers, activity, energy_j }
    }

    /// Simulate one inference *and* execute the real FP16 arithmetic.
    ///
    /// The returned tensor is bit-exact FP16 inference output; the timing
    /// comes from the same cost model as [`Myriad2::run_cost`] so the two
    /// entry points always agree on performance.
    pub fn run_inference(
        &mut self,
        net: &CompiledNetwork<f16>,
        cost: &NetworkCost,
        input: &Tensor<f16>,
        ready: SimTime,
    ) -> (Tensor<f16>, NetworkRun) {
        let output = net.forward(input);
        let run = self.run_cost(cost, ready);
        (output, run)
    }

    fn busy_totals(&self) -> (Duration, Duration, Duration, Duration) {
        (
            self.shaves.busy_total(),
            self.cmx.busy_total(),
            self.ddr.busy_total(),
            self.sipp.busy_total(),
        )
    }

    /// Execute one layer's resource schedule starting no earlier than
    /// `ready` (its DMA may begin at `dma_from <= ready` when weight
    /// prefetching is on); returns its timing record.
    fn run_layer(
        &mut self,
        layer: &vpu_nn::cost::LayerCost,
        ready: SimTime,
        dma_from: SimTime,
    ) -> LayerTiming {
        // Input nodes carry no on-device work (the host link already
        // placed the tensor in DDR); dropout is an inference no-op.
        if layer.mnemonic == "input" || layer.mnemonic == "dropout" {
            return LayerTiming {
                name: layer.name.clone(),
                mnemonic: layer.mnemonic.clone(),
                start: ready,
                end: ready,
                compute: Duration::ZERO,
                memory: Duration::ZERO,
                on_sipp: false,
            };
        }

        // LEON dispatch.
        let t0 = ready + Duration::from_nanos(self.cfg.risc_dispatch_ns);

        // DDR traffic: weights always stream (13 MB of GoogLeNet weights
        // cannot live in the 2 MB CMX); activations spill only when the
        // layer's working set exceeds the scratchpad.
        let working_set = layer.in_bytes + layer.out_bytes;
        let spill = working_set.saturating_sub(self.cmx.capacity());
        let ddr_bytes = layer.weight_bytes + spill;
        // Weight streaming may be issued early (prefetch); activation
        // spill cannot (it depends on this layer's input), so it keeps
        // the dispatch-time lower bound via the FIFO DDR channel.
        let ddr_busy = self.ddr.transfer(dma_from.min(t0), ddr_bytes);

        // CMX crossbar traffic for the activation stream.
        self.cmx.reset();
        let cmx_busy = self.cmx.access(t0, 0, working_set.min(self.cmx.capacity()));

        // Compute: SIPP for window ops when enabled, SHAVEs otherwise.
        let on_sipp = self.sipp.eligible(&layer.mnemonic);
        let compute_busy = if on_sipp {
            let pixels = layer.out_shape.len() as u64;
            self.sipp.run(t0, SippKernel::WindowReduce, pixels)
        } else {
            let w = shave::layer_cycles(&self.cfg, layer.macs, layer.aux_ops, working_set);
            let total = Duration::for_cycles(w.total(), self.cfg.clock_hz);
            if total == Duration::ZERO {
                desim::resource::Busy { start: t0, end: t0 }
            } else {
                self.shaves.acquire_parallel(t0, total, self.cfg.shaves)
            }
        };

        let end = compute_busy.end.max(ddr_busy.end).max(cmx_busy.end);
        LayerTiming {
            name: layer.name.clone(),
            mnemonic: layer.mnemonic.clone(),
            start: ready,
            end,
            compute: compute_busy.end - compute_busy.start,
            memory: ddr_busy.end - ddr_busy.start,
            on_sipp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vpu_nn::googlenet;
    use vpu_nn::init;
    use vpu_tensor::kernels::gemm::AccumMode;
    use vpu_tensor::Shape;

    fn full_cost() -> NetworkCost {
        NetworkCost::of::<f16>(&googlenet::full())
    }

    #[test]
    fn googlenet_latency_near_paper_anchor() {
        // Paper: 100.7 ms per inference on one NCS. The on-chip part here
        // must land close (the NCS crate adds ~2-4 ms of USB/host time).
        let mut vpu = Myriad2::new(Myriad2Config::default());
        let run = vpu.run_cost(&full_cost(), SimTime::ZERO);
        let ms = run.duration().as_millis();
        assert!((85.0..105.0).contains(&ms), "GoogLeNet on-chip latency {ms} ms");
    }

    #[test]
    fn back_to_back_runs_serialize_on_one_chip() {
        let mut vpu = Myriad2::new(Myriad2Config::default());
        let cost = full_cost();
        let a = vpu.run_cost(&cost, SimTime::ZERO);
        let b = vpu.run_cost(&cost, SimTime::ZERO);
        assert!(b.start >= a.end);
        // Identical work takes identical time.
        assert_eq!(a.duration(), b.duration());
    }

    #[test]
    fn fewer_shaves_run_slower() {
        let cost = full_cost();
        let mut v12 = Myriad2::new(Myriad2Config::default());
        let mut v6 = Myriad2::new(Myriad2Config::default().with_shaves(6));
        let mut v1 = Myriad2::new(Myriad2Config::default().with_shaves(1));
        let t12 = v12.run_cost(&cost, SimTime::ZERO).duration();
        let t6 = v6.run_cost(&cost, SimTime::ZERO).duration();
        let t1 = v1.run_cost(&cost, SimTime::ZERO).duration();
        assert!(t6 > t12);
        assert!(t1 > t6);
        // Compute-bound network: halving SHAVEs costs roughly 2x.
        let ratio = t6.nanos() as f64 / t12.nanos() as f64;
        assert!((1.6..2.2).contains(&ratio), "6-vs-12 ratio {ratio}");
    }

    #[test]
    fn energy_well_under_cpu_class() {
        let mut vpu = Myriad2::new(Myriad2Config::default());
        let run = vpu.run_cost(&full_cost(), SimTime::ZERO);
        // Average power bounded by the chip's ~1 W envelope.
        let avg_w = vpu.power_model().avg_power(&run.activity);
        assert!(avg_w < 1.0, "avg power {avg_w} W");
        assert!(avg_w > 0.1, "implausibly low power {avg_w} W");
        assert!(run.energy_j < 0.12, "energy {} J per inference", run.energy_j);
    }

    #[test]
    fn layers_cover_the_whole_run() {
        let mut vpu = Myriad2::new(Myriad2Config::default());
        let run = vpu.run_cost(&full_cost(), SimTime::ZERO);
        assert_eq!(run.layers.len(), full_cost().layers.len());
        assert_eq!(run.layers.first().unwrap().start, run.start);
        assert_eq!(run.layers.last().unwrap().end, run.end);
        // Layers execute in order.
        for w in run.layers.windows(2) {
            assert!(w[1].start >= w[0].start);
        }
    }

    #[test]
    fn sipp_offloads_pool_layers() {
        let mut vpu = Myriad2::new(Myriad2Config::default());
        let run = vpu.run_cost(&full_cost(), SimTime::ZERO);
        let pools: Vec<_> = run.layers.iter().filter(|l| l.mnemonic == "maxpool").collect();
        assert!(!pools.is_empty());
        assert!(pools.iter().all(|l| l.on_sipp));
        let convs: Vec<_> = run.layers.iter().filter(|l| l.mnemonic == "conv").collect();
        assert!(convs.iter().all(|l| !l.on_sipp));
    }

    #[test]
    fn disabling_sipp_shifts_pool_work_to_shaves() {
        let cost = full_cost();
        let mut with = Myriad2::new(Myriad2Config::default());
        let mut without = Myriad2::new(Myriad2Config::default().without_sipp());
        let a = with.run_cost(&cost, SimTime::ZERO);
        let b = without.run_cost(&cost, SimTime::ZERO);
        assert!(b.activity.sipp_busy == Duration::ZERO);
        assert!(a.activity.sipp_busy > Duration::ZERO);
        assert!(b.activity.shave_busy > a.activity.shave_busy);
    }

    #[test]
    fn graph_loading_respects_ddr_capacity() {
        let mut vpu = Myriad2::new(Myriad2Config::default());
        assert!(vpu.load_graph(14 << 20)); // GoogLeNet fp16 graph ~13.4 MB
        assert!(!vpu.load_graph(5 << 30)); // would exceed the 4 GB stack
    }

    #[test]
    fn real_inference_matches_plain_forward() {
        let spec = Arc::new(googlenet::tiny());
        let weights = init::xavier(&spec, 3);
        let net = CompiledNetwork::<f16>::compile(spec.clone(), &weights, AccumMode::Native);
        let cost = NetworkCost::of::<f16>(&spec);
        let input = Tensor::<f32>::full(Shape::chw(3, 32, 32), 0.2).quantize_fp16();
        let mut vpu = Myriad2::new(Myriad2Config::default());
        let (out, run) = vpu.run_inference(&net, &cost, &input, SimTime::ZERO);
        let plain = net.forward(&input);
        assert_eq!(out, plain, "device numerics must equal plain fp16 forward");
        assert!(run.duration() > Duration::ZERO);
    }

    #[test]
    fn slowest_layer_is_an_expensive_conv() {
        let mut vpu = Myriad2::new(Myriad2Config::default());
        let run = vpu.run_cost(&full_cost(), SimTime::ZERO);
        let slow = run.slowest_layer().unwrap();
        assert_eq!(slow.mnemonic, "conv", "slowest layer {} ({})", slow.name, slow.mnemonic);
    }
}
