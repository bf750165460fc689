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
//! The entry point is [`Myriad2::run_cost`]: timing only, from a
//! [`NetworkCost`] profile, so the full 224×224 GoogLeNet work profile is
//! simulated without executing 1.6 GMAC per image. The chip does no
//! arithmetic; the accuracy experiments compute FP16 outputs with
//! `vpu_nn` directly.
//!
//! A chip walks each graph layer by layer once. Every later inference of
//! that graph that starts on an idle chip replays the recorded walk,
//! shifted to its start (see [`Myriad2::run_cost`]).

use crate::arch::Myriad2Config;
use crate::cmx::{Cmx, CMX_BYTES};
use crate::ddr::DdrChannel;
use crate::power::{ActivitySummary, PowerModel};
use crate::shave::{self, ISSUE_EFFICIENCY, VAU_LANES};
use crate::sipp::SippPipeline;
use desim::{Duration, ServerPool, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use vpu_nn::cost::NetworkCost;

/// Timing record of one layer. In a [`NetworkRun`]'s shared schedule
/// `start` and `end` are offsets from the run's start;
/// [`NetworkRun::layers`] returns them in absolute virtual time.
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
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkRun {
    pub start: SimTime,
    pub end: SimTime,
    pub activity: ActivitySummary,
    /// Joules consumed by the chip during this run.
    pub energy_j: f64,
    /// Per-layer timings relative to `start`, shared by every run that
    /// replays the same walk.
    schedule: Arc<[LayerTiming]>,
}

impl NetworkRun {
    /// A run from its absolute per-layer timings.
    fn new(
        start: SimTime,
        end: SimTime,
        mut layers: Vec<LayerTiming>,
        activity: ActivitySummary,
        energy_j: f64,
    ) -> NetworkRun {
        for l in &mut layers {
            l.start = SimTime::ZERO + (l.start - start);
            l.end = SimTime::ZERO + (l.end - start);
        }
        NetworkRun { start, end, activity, energy_j, schedule: layers.into() }
    }

    pub fn duration(&self) -> Duration {
        self.end - self.start
    }

    /// Per-layer timings in absolute virtual time, in execution order.
    pub fn layers(&self) -> Vec<LayerTiming> {
        let offset = self.start - SimTime::ZERO;
        self.schedule
            .iter()
            .map(|l| LayerTiming { start: l.start + offset, end: l.end + offset, ..l.clone() })
            .collect()
    }

    /// The same run started at `start` instead.
    fn shifted(&self, start: SimTime) -> NetworkRun {
        NetworkRun { start, end: start + self.duration(), ..self.clone() }
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
    /// [`VAU_LANES`].
    pub vau_lanes: Option<usize>,
    /// Sustained issue efficiency; `None` uses [`ISSUE_EFFICIENCY`]
    /// (the NCSDK conv kernels'). Hand-written GEMM sustains more.
    pub issue_efficiency: Option<f64>,
}

/// One simulated Myriad 2 chip with its private virtual clock.
///
/// ```
/// use myriad2::{Myriad2, Myriad2Config};
/// use desim::SimTime;
/// use vpu_nn::cost::NetworkCost;
/// use std::sync::Arc;
/// let cost = Arc::new(NetworkCost::of::<vpu_num::f16>(&vpu_nn::googlenet::full()));
/// let mut chip = Myriad2::new(Myriad2Config::default());
/// let run = chip.run_cost(&cost, SimTime::ZERO);
/// // One GoogLeNet inference lands near the paper's 100.7 ms anchor.
/// assert!((90.0..105.0).contains(&run.duration().as_millis()));
/// ```
#[derive(Debug, Clone)]
pub struct Myriad2 {
    /// Set only by [`Myriad2::new`]. A method that changed it would have
    /// to drop `replay`, whose timings it determines.
    cfg: Myriad2Config,
    shaves: ServerPool,
    cmx: Cmx,
    ddr: DdrChannel,
    sipp: SippPipeline,
    power: PowerModel,
    now: SimTime,
    /// The graph this chip last recorded.
    replay: Option<Replay>,
    /// Layer walks run so far.
    walks: u64,
}

/// One inference of a graph, walked on a fresh chip from time zero.
///
/// Every acquisition in a walk is `max(ready, free) + service`, and no
/// service depends on absolute time. On an idle chip every resource is
/// free by the start, and every request of the walk is ready no earlier.
/// So a walk of the graph from any idle start is this one shifted to that
/// start, and replaying it is exact.
#[derive(Debug, Clone)]
struct Replay {
    /// The graph walked. Held, not just compared, so its address cannot
    /// be reused by another graph while the record lives.
    cost: Arc<NetworkCost>,
    run: NetworkRun,
    /// The fresh chip after the walk: what the walk adds to each
    /// resource's books.
    walked: Box<Myriad2>,
}

impl Myriad2 {
    pub fn new(cfg: Myriad2Config) -> Self {
        Myriad2 {
            shaves: ServerPool::new("shaves", cfg.shaves),
            cmx: Cmx::new(&cfg),
            ddr: DdrChannel::new(&cfg),
            sipp: SippPipeline::new(&cfg),
            power: PowerModel::of(&cfg),
            cfg,
            now: SimTime::ZERO,
            replay: None,
            walks: 0,
        }
    }

    /// Layer walks run so far; each inference that did not replay one is
    /// a walk. A meter for tests of the replay path.
    #[doc(hidden)]
    pub fn walks(&self) -> u64 {
        self.walks
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
    ///
    /// The chip walks the graph layer by layer the first time, and again
    /// whenever it is busy at the start (every SHAVE, the DDR channel,
    /// the SIPP engine and every CMX bank free by then is *idle*). A walk
    /// from an idle chip is recorded, and later inferences of the same
    /// graph (`Arc::ptr_eq`) from an idle chip replay it in O(1):
    /// byte-identical to walking, by the argument on `Replay`.
    pub fn run_cost(&mut self, cost: &Arc<NetworkCost>, ready: SimTime) -> NetworkRun {
        let start = SimTime::max_of(ready, self.now);
        if !self.idle_at(start) {
            return self.walk(cost, start);
        }
        let rec = match self.replay.take() {
            Some(rec) if Arc::ptr_eq(&rec.cost, cost) => rec,
            _ => self.record(cost),
        };
        let run = self.replay_at(&rec, start);
        self.replay = Some(rec);
        run
    }

    /// True if every resource of the chip is free by `at`.
    fn idle_at(&self, at: SimTime) -> bool {
        self.shaves.all_free() <= at
            && self.ddr.available_at() <= at
            && self.sipp.engine.available_at() <= at
            && self.cmx.banks.iter().all(|b| b.available_at() <= at)
    }

    /// Walk `cost` on a fresh chip of this configuration.
    fn record(&mut self, cost: &Arc<NetworkCost>) -> Replay {
        let mut walked = Myriad2::new(self.cfg.clone());
        let run = walked.walk(cost, SimTime::ZERO);
        // Each layer's fork-join starts on a drained pool and so spans
        // every SHAVE: the walk leaves them all free at one instant.
        assert_eq!(walked.shaves.next_free(), walked.shaves.all_free(), "ragged SHAVE pool");
        self.walks += walked.walks;
        Replay { cost: Arc::clone(cost), run, walked: Box::new(walked) }
    }

    /// Book `rec` on the chip as if it were walked from `start`.
    fn replay_at(&mut self, rec: &Replay, start: SimTime) -> NetworkRun {
        let (w, by) = (&rec.walked, start - SimTime::ZERO);
        self.shaves.replay(&w.shaves, by);
        let fifos = [(&mut self.ddr.chan, &w.ddr.chan), (&mut self.sipp.engine, &w.sipp.engine)];
        for (mine, walked) in fifos.into_iter().chain(self.cmx.banks.iter_mut().zip(&w.cmx.banks)) {
            mine.replay(walked, by);
        }
        let run = rec.run.shifted(start);
        self.now = run.end;
        run
    }

    /// Walk `cost` layer by layer from `start`.
    fn walk(&mut self, cost: &NetworkCost, start: SimTime) -> NetworkRun {
        self.walks += 1;
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
        NetworkRun::new(start, t, layers, activity, energy_j)
    }

    /// Run a batch of hand-written kernels back-to-back (the MDK
    /// general-purpose path). Returns the same record as a network run.
    pub fn run_kernels(&mut self, works: &[KernelWork], ready: SimTime) -> NetworkRun {
        let start = SimTime::max_of(ready, self.now);
        let (sh0, cm0, dd0, si0) = self.busy_totals();
        let mut t = start;
        let mut layers = Vec::with_capacity(works.len());
        for w in works {
            let t0 = t + Duration::from_nanos(self.cfg.risc_dispatch_ns);
            let ddr_busy = self.ddr.transfer(t0, w.ddr_bytes);
            let cmx_busy = self.cmx.access(t0, 0, w.cmx_bytes.min(CMX_BYTES));
            let wc = shave::layer_cycles(
                w.macs,
                w.aux_ops,
                w.cmx_bytes,
                w.vau_lanes.unwrap_or(VAU_LANES),
                w.issue_efficiency.unwrap_or(ISSUE_EFFICIENCY),
            );
            let total = Duration::for_cycles(wc.total(), self.cfg.clock_hz);
            let compute_busy = if total == Duration::ZERO {
                desim::resource::Busy { start: t0, end: t0 }
            } else {
                self.shaves.acquire_parallel(t0, total, self.cfg.shaves)
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
        NetworkRun::new(start, t, layers, activity, energy_j)
    }

    /// [`Myriad2::run_cost`] with the replay taken out: it always walks.
    /// The reference the replay is tested against.
    #[cfg(test)]
    fn run_cost_walked(&mut self, cost: &NetworkCost, ready: SimTime) -> NetworkRun {
        let start = SimTime::max_of(ready, self.now);
        self.walk(cost, start)
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
        let spill = working_set.saturating_sub(CMX_BYTES);
        let ddr_bytes = layer.weight_bytes + spill;
        // Weight streaming may be issued early (prefetch); activation
        // spill cannot (it depends on this layer's input), so it keeps
        // the dispatch-time lower bound via the FIFO DDR channel.
        let ddr_busy = self.ddr.transfer(dma_from.min(t0), ddr_bytes);

        // CMX crossbar traffic for the activation stream.
        let cmx_busy = self.cmx.access(t0, 0, working_set.min(CMX_BYTES));

        // Compute: SIPP for window ops, SHAVEs otherwise.
        let on_sipp = self.sipp.eligible(&layer.mnemonic);
        let compute_busy = if on_sipp {
            let pixels = layer.out_shape.len() as u64;
            self.sipp.run(t0, pixels)
        } else {
            let w = shave::layer_cycles(
                layer.macs,
                layer.aux_ops,
                working_set,
                VAU_LANES,
                ISSUE_EFFICIENCY,
            );
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
    use proptest::prelude::*;
    use vpu_nn::googlenet;
    use vpu_num::f16;

    fn full_cost() -> Arc<NetworkCost> {
        Arc::new(NetworkCost::of::<f16>(&googlenet::full()))
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
        let layers = run.layers();
        assert_eq!(layers.len(), full_cost().layers.len());
        assert_eq!(layers.first().unwrap().start, run.start);
        assert_eq!(layers.last().unwrap().end, run.end);
        // Layers execute in order.
        for w in layers.windows(2) {
            assert!(w[1].start >= w[0].start);
        }
    }

    #[test]
    fn sipp_offloads_pool_layers() {
        let mut vpu = Myriad2::new(Myriad2Config::default());
        let layers = vpu.run_cost(&full_cost(), SimTime::ZERO).layers();
        let pools: Vec<_> = layers.iter().filter(|l| l.mnemonic == "maxpool").collect();
        assert!(!pools.is_empty());
        assert!(pools.iter().all(|l| l.on_sipp));
        let convs: Vec<_> = layers.iter().filter(|l| l.mnemonic == "conv").collect();
        assert!(convs.iter().all(|l| !l.on_sipp));
    }

    #[test]
    fn graph_loading_respects_ddr_capacity() {
        let mut vpu = Myriad2::new(Myriad2Config::default());
        assert!(vpu.load_graph(14 << 20)); // GoogLeNet fp16 graph ~13.4 MB
        assert!(!vpu.load_graph(5 << 30)); // would exceed the 4 GB stack
    }

    #[test]
    fn an_idle_chip_replays_the_recorded_walk() {
        let cost = full_cost();
        let mut shipped = Myriad2::new(Myriad2Config::default());
        let mut walked = Myriad2::new(Myriad2Config::default());
        for ready in [SimTime::ZERO, SimTime(5), SimTime(2_000_000_000)] {
            let run = shipped.run_cost(&cost, ready);
            assert!(Arc::ptr_eq(&shipped.replay.as_ref().unwrap().cost, &cost));
            let reference = walked.run_cost_walked(&cost, ready);
            assert_eq!(run.layers(), reference.layers());
            assert_eq!(run, reference);
        }
        assert_eq!(shipped.lifetime_activity(), walked.lifetime_activity());
        assert_eq!(books(&shipped), books(&walked));
        // An equal copy of the graph is another graph: walked and recorded.
        let copy = Arc::new(NetworkCost::clone(&cost));
        assert_eq!(
            shipped.run_cost(&copy, SimTime::ZERO),
            walked.run_cost_walked(&copy, SimTime::ZERO)
        );
        assert!(Arc::ptr_eq(&shipped.replay.as_ref().unwrap().cost, &copy));
    }

    #[test]
    fn a_busy_chip_walks_and_keeps_its_record() {
        let cost = full_cost();
        let mut chip = Myriad2::new(Myriad2Config::default());
        let first = chip.run_cost(&cost, SimTime::ZERO);
        // Traffic the chip did not schedule itself keeps DDR busy past
        // the next start.
        chip.ddr.chan.acquire(first.end, Duration::from_millis(20.0));
        let mut reference = chip.clone();
        let busy = chip.run_cost(&cost, SimTime::ZERO);
        assert_eq!(busy, reference.run_cost_walked(&cost, SimTime::ZERO));
        assert!(busy.duration() > first.duration(), "a busy DDR channel delays the weights");
        assert_eq!(chip.replay.as_ref().unwrap().run, first);
    }

    /// Every resource's books: the chip state a replay must leave exactly
    /// as a walk does.
    fn books(chip: &Myriad2) -> (Vec<(SimTime, Duration, u64)>, SimTime) {
        let fifo = |r: &desim::FifoResource| (r.available_at(), r.busy_total(), r.requests());
        let mut books = vec![
            (chip.shaves.all_free(), chip.shaves.busy_total(), chip.shaves.requests()),
            fifo(&chip.ddr.chan),
            fifo(&chip.sipp.engine),
        ];
        books.extend(chip.cmx.banks.iter().map(fifo));
        (books, chip.shaves.next_free())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Replay vs walk: a chip as shipped and one that always walks
        /// stay equal over random histories. Contended histories issue
        /// work ready before the chip is free, interleave MDK kernels,
        /// alternate two graphs and keep resources busy past the next
        /// start with traffic of their own.
        #[test]
        fn replay_matches_the_walk(
            config in 0usize..4,
            contended in any::<bool>(),
            ops in prop::collection::vec((0u8..4, 0u64..300_000_000, 0usize..19), 1..14),
        ) {
            let cfg = match config {
                0 => Myriad2Config::default(),
                1 => Myriad2Config::default().time_scaled(0.7),
                2 => Myriad2Config::default().with_shaves(5),
                _ => Myriad2Config::default().with_prefetch().time_scaled(1.3),
            };
            let graphs = [full_cost(), Arc::new(NetworkCost::of::<f16>(&googlenet::tiny()))];
            let mut shipped = Myriad2::new(cfg.clone());
            let mut walked = Myriad2::new(cfg);
            for (kind, dt, pick) in ops {
                let now = shipped.now();
                prop_assert_eq!(now, walked.now());
                // Idle histories run one graph, ready at or after `now`.
                let (kind, ready) = if contended {
                    (kind, SimTime(now.nanos().saturating_sub(dt)))
                } else {
                    (0, now + Duration(dt))
                };
                match kind {
                    0 | 1 => {
                        let g = &graphs[kind as usize];
                        let a = shipped.run_cost(g, ready);
                        let b = walked.run_cost_walked(g, ready);
                        prop_assert_eq!(a.layers(), b.layers());
                        prop_assert_eq!(a, b);
                    }
                    2 => {
                        let work = KernelWork {
                            name: "k".into(),
                            macs: dt,
                            aux_ops: dt / 3,
                            cmx_bytes: dt / 100,
                            ddr_bytes: dt / 50,
                            vau_lanes: Some(4),
                            issue_efficiency: None,
                        };
                        let a = shipped.run_kernels(std::slice::from_ref(&work), ready);
                        prop_assert_eq!(a, walked.run_kernels(&[work], ready));
                    }
                    _ => {
                        // Keep one resource busy up to `dt` past `now`.
                        let at = now + Duration(dt / 2);
                        let service = Duration(dt / 2 + 1);
                        for chip in [&mut shipped, &mut walked] {
                            match pick {
                                0 => _ = chip.shaves.acquire(at, service),
                                1 => _ = chip.ddr.chan.acquire(at, service),
                                2 => _ = chip.sipp.engine.acquire(at, service),
                                b => _ = chip.cmx.banks[b - 3].acquire(at, service),
                            }
                        }
                    }
                }
                prop_assert_eq!(shipped.lifetime_activity(), walked.lifetime_activity());
                prop_assert_eq!(books(&shipped), books(&walked));
            }
            let next = shipped.run_cost(&graphs[0], SimTime::ZERO);
            prop_assert_eq!(next, walked.run_cost_walked(&graphs[0], SimTime::ZERO));
            prop_assert_eq!(shipped.lifetime_activity(), walked.lifetime_activity());
        }
    }
}
