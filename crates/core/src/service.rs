//! Incremental per-batch service hooks over the target devices.
//!
//! The throughput experiments drive each target through one closed
//! `run_throughput` loop; an *online* serving layer instead needs to
//! submit one formed batch at a time, at an arbitrary virtual instant,
//! and learn when each image's result returns to the host. This module
//! exposes that contract as [`ServiceHook`]:
//!
//! * every device **self-serializes**: a submission at `ready` queues
//!   behind the device's earlier work (`FifoResource` timelines on the
//!   hosts, the `last_end` sequencing of [`MultiVpu`]);
//! * [`ServiceHook::estimate`] is the calibrated, jitter-free cost model
//!   a dispatcher can plan with (host devices: the analytic
//!   `batch_duration`; the VPU fleet: a wave-latency model measured at
//!   construction);
//! * [`ServiceHook::busy_until`] exposes the device's backlog horizon so
//!   least-outstanding-work routing needs no bookkeeping of its own.
//!
//! [`MultiVpu`]: crate::multivpu::MultiVpu

use crate::target::{IntelCpu, IntelVpu, NvGpu};
use desim::{Duration, SimTime};
use myriad2::power::PowerModel;
use ncsw_obs::{BatchObs, Ctx, EnergyProfile, Event, Lane, NullRecorder, Phase};

/// Watts to the integer milliwatts the energy meter integrates with.
fn mw(watts: f64) -> u64 {
    (watts * 1e3).round() as u64
}

/// Why a batch submission failed. The built-in device models never
/// fail; fault-injection wrappers (`ncsw-faults`) surface these so a
/// dispatcher can retry, fail over, and trip circuit breakers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// The device is gone (stick unplugged, not yet reconnected).
    Unplugged,
    /// The batch started and died mid-execution (transient exec error).
    TransientExec,
    /// The dispatcher's per-batch timeout expired before results landed.
    Timeout,
}

/// A failed batch submission: the failure was *detected* at `at`
/// (virtual time burned by the attempt), and no results were produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServeError {
    /// Instant the host detected the failure (`>=` the submission
    /// instant; detection is never free).
    pub at: SimTime,
    pub kind: FailureKind,
}

/// Per-slot anomalies injected at the USB completion boundary. The
/// built-in device models always return a clean wire (`None` on
/// [`BatchRun::wire`]); fault wrappers (`ncsw-faults`) attach one of
/// these so the serving layer's end-to-end integrity checks have
/// something to catch. Slot indices are submission-order positions into
/// [`BatchRun::done`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireReport {
    /// Slots whose returned payload was silently bit-flipped in transit
    /// (the transfer itself reported success).
    pub corrupted: Vec<usize>,
    /// Slots whose completion was delivered twice (a retransmitted USB
    /// completion the host must dedup for exactly-once delivery).
    pub duplicated: Vec<usize>,
    /// Slots whose completion never arrived: the batch reports success
    /// but the slot's result is missing, detectable only by sequence
    /// tags once the rest of the batch has landed.
    pub dropped: Vec<usize>,
}

impl WireReport {
    pub fn is_clean(&self) -> bool {
        self.corrupted.is_empty() && self.duplicated.is_empty() && self.dropped.is_empty()
    }
}

/// Timing record of one served batch.
#[derive(Debug, Clone)]
pub struct BatchRun {
    /// Instant the device actually began (>= the submission instant).
    pub start: SimTime,
    /// Instant the last result returned to the host.
    pub end: SimTime,
    /// Per-image host-return instants, in submission order
    /// (`done.len() == batch`; host devices return the whole batch at
    /// once, the VPU pipeline streams results back per image).
    pub done: Vec<SimTime>,
    /// Wire-level completion anomalies; `None` on every clean transfer,
    /// so unwrapped devices (and fleets wrapped with an empty fault
    /// plan) stay byte-identical to the pre-gray-fault model.
    pub wire: Option<WireReport>,
}

/// A device a dynamic batcher can drive one batch at a time.
pub trait ServiceHook {
    /// Display label, e.g. `cpu`, `gpu`, `vpu x8`.
    fn label(&self) -> String;

    /// Submit `batch` images no earlier than `ready`; the device
    /// serializes with its own prior work and returns when each image's
    /// result lands back on the host.
    fn serve(&mut self, batch: usize, ready: SimTime) -> BatchRun;

    /// Jitter-free service-time estimate for a batch of this size (the
    /// calibrated cost model dispatch policies plan with).
    fn estimate(&self, batch: usize) -> Duration;

    /// Instant all previously submitted work completes (a fresh device
    /// reports its boot/allocation completion).
    fn busy_until(&self) -> SimTime;

    /// Batch size this device amortizes best (the paper's batch-8 sweet
    /// spot on the hosts; `devices` on the VPU fleet, whose sticks run
    /// one image each per pipeline wave).
    fn preferred_batch(&self) -> usize;

    /// Hard upper bound on a single submission, if any (GPU memory).
    fn max_batch(&self) -> Option<usize> {
        None
    }

    /// Busy/idle/TDP power rates the online energy meter integrates
    /// over this device's charged spans. The default is an unmetered
    /// all-zero profile so custom hooks keep compiling; the built-in
    /// devices derive theirs from the island/package models.
    fn energy_profile(&self) -> EnergyProfile {
        EnergyProfile::new(self.label(), 0, 0, 0)
    }

    /// [`ServiceHook::serve`] with observability: identical timing, but
    /// the device also emits its busy spans through `obs.rec` tagged
    /// with `obs`'s batch/request context. Host devices report one
    /// batch-level `Exec` span on their worker lane; the VPU fleet
    /// overrides this to emit per-image host, chip and USB-fabric spans.
    fn serve_obs(&mut self, batch: usize, ready: SimTime, obs: &mut BatchObs<'_>) -> BatchRun {
        let run = self.serve(batch, ready);
        if obs.enabled() {
            let ctx =
                Ctx { request_id: None, batch_id: Some(obs.batch_id), worker: Some(obs.worker) };
            obs.rec.record(Event::span(
                Phase::Exec,
                Lane::Worker(obs.worker),
                run.start,
                run.end,
                ctx,
            ));
        }
        run
    }

    /// Fallible [`ServiceHook::serve_obs`]: the submission may fail with
    /// a [`ServeError`] instead of producing results. The built-in
    /// devices never fail (the default is infallible); fault-injection
    /// wrappers override this, and the serving loop dispatches through
    /// it so every worker is injectable without modification.
    fn try_serve_obs(
        &mut self,
        batch: usize,
        ready: SimTime,
        obs: &mut BatchObs<'_>,
    ) -> Result<BatchRun, ServeError> {
        Ok(self.serve_obs(batch, ready, obs))
    }
}

impl ServiceHook for IntelCpu {
    fn label(&self) -> String {
        "cpu".to_string()
    }

    fn serve(&mut self, batch: usize, ready: SimTime) -> BatchRun {
        let cost = self.cost().clone();
        let run = self.device_mut().run_batch(&cost, batch, ready);
        BatchRun { start: run.start, end: run.end, done: vec![run.end; batch], wire: None }
    }

    fn estimate(&self, batch: usize) -> Duration {
        self.device().batch_duration(self.cost(), batch)
    }

    fn busy_until(&self) -> SimTime {
        self.device().now()
    }

    fn preferred_batch(&self) -> usize {
        8
    }

    fn energy_profile(&self) -> EnergyProfile {
        let cfg = self.device().config();
        EnergyProfile::new(self.label(), mw(cfg.tdp_w), mw(cfg.idle_w), mw(cfg.tdp_w))
    }
}

impl ServiceHook for NvGpu {
    fn label(&self) -> String {
        "gpu".to_string()
    }

    fn serve(&mut self, batch: usize, ready: SimTime) -> BatchRun {
        let cost = self.cost().clone();
        let run = self.device_mut().run_batch(&cost, batch, ready);
        BatchRun { start: run.start, end: run.end, done: vec![run.end; batch], wire: None }
    }

    fn estimate(&self, batch: usize) -> Duration {
        self.device().batch_duration(self.cost(), batch)
    }

    fn busy_until(&self) -> SimTime {
        self.device().now()
    }

    fn preferred_batch(&self) -> usize {
        8
    }

    fn max_batch(&self) -> Option<usize> {
        Some(self.device().max_batch(self.cost()))
    }

    fn energy_profile(&self) -> EnergyProfile {
        let cfg = self.device().config();
        EnergyProfile::new(self.label(), mw(cfg.tdp_w), mw(cfg.idle_w), mw(cfg.tdp_w))
    }
}

impl ServiceHook for IntelVpu {
    fn label(&self) -> String {
        format!("vpu x{}", self.devices())
    }

    fn serve(&mut self, batch: usize, ready: SimTime) -> BatchRun {
        self.serve_obs(batch, ready, &mut BatchObs::disabled(&mut NullRecorder))
    }

    fn serve_obs(&mut self, batch: usize, ready: SimTime, obs: &mut BatchObs<'_>) -> BatchRun {
        let report = self.pipeline_mut().run_pipeline_obs(batch, ready, obs);
        BatchRun { start: report.start, end: report.end, done: report.result_times, wire: None }
    }

    fn estimate(&self, batch: usize) -> Duration {
        let (first, per) = self.service_latency_model();
        let waves = batch.div_ceil(self.devices()) as u64;
        first + per * waves.saturating_sub(1)
    }

    fn busy_until(&self) -> SimTime {
        self.pipeline().busy_until()
    }

    fn preferred_batch(&self) -> usize {
        self.devices()
    }

    /// A `vpu xN` worker draws N chips' worth: every SHAVE island plus
    /// CMX/DDR active while a wave runs (900 mW/chip default), gated
    /// islands between batches (172 mW/chip), whole-stick peak power as
    /// the Eq. 1 TDP (2.5 W/stick, the paper's conservative framing).
    fn energy_profile(&self) -> EnergyProfile {
        let ncs = &self.pipeline().config().ncs;
        let pm = PowerModel { shave_islands: ncs.chip.shaves, ..PowerModel::default() };
        let d = self.devices() as u64;
        EnergyProfile::new(
            self.label(),
            d * pm.busy_mw(),
            d * pm.gated_mw(),
            d * mw(ncs.peak_power_w),
        )
    }
}

/// Which service-model component a causal what-if [`ScalePlan`]
/// targets. Each variant names one knob of the simulated hardware the
/// profiler can virtually speed up (factor < 1) or slow down
/// (factor > 1); the names match the trace-side latency segments the
/// analytical prediction scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ScaleComponent {
    /// Host→device input-tensor transfers (USB wire + command time).
    UsbWrite,
    /// Device→host result transfers.
    UsbRead,
    /// On-chip execution: the Myriad run on VPU workers (every internal
    /// unit clock scales together via `Myriad2Config::time_scaled`).
    Exec,
    /// The batcher's `max_wait` deadline — how long a batch may form.
    /// Applied at the serving layer via [`ScalePlan::max_wait`].
    BatchWait,
    /// Dispatch-side launch overheads: host thread spawn + LEON command
    /// processing on VPUs, per-batch framework overhead on hosts.
    Dispatch,
    /// The whole host (CPU/GPU) forward call, overhead + compute.
    Host,
}

impl ScaleComponent {
    pub const ALL: [ScaleComponent; 6] = [
        ScaleComponent::UsbWrite,
        ScaleComponent::UsbRead,
        ScaleComponent::Exec,
        ScaleComponent::BatchWait,
        ScaleComponent::Dispatch,
        ScaleComponent::Host,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            ScaleComponent::UsbWrite => "usb-write",
            ScaleComponent::UsbRead => "usb-read",
            ScaleComponent::Exec => "exec",
            ScaleComponent::BatchWait => "batch-wait",
            ScaleComponent::Dispatch => "dispatch",
            ScaleComponent::Host => "host",
        }
    }

    pub fn parse(s: &str) -> Option<ScaleComponent> {
        ScaleComponent::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// One counterfactual: scale `component`'s service model by `factor`.
///
/// The plan is applied at fleet-build time
/// (`FleetSpec::build_scaled` threads it into each worker's config) so
/// estimates, dispatch decisions and energy metering all see the scaled
/// hardware — the re-run is a real simulation of the faster component,
/// not a post-hoc edit. An identity plan (factor `1.0`) is
/// **byte-identical** to an unscaled build: every knob guards the
/// multiply, which the whatif passivity tests enforce end to end.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScalePlan {
    pub component: ScaleComponent,
    pub factor: f64,
}

/// `x` nanoseconds scaled by `f` (exact at `f == 1.0`).
fn scale_ns(x: u64, f: f64) -> u64 {
    (x as f64 * f).round() as u64
}

impl ScalePlan {
    pub fn new(component: ScaleComponent, factor: f64) -> ScalePlan {
        assert!(factor > 0.0, "scale factor must be positive");
        ScalePlan { component, factor }
    }

    /// The do-nothing plan every unscaled build is equivalent to.
    pub fn identity() -> ScalePlan {
        ScalePlan { component: ScaleComponent::Exec, factor: 1.0 }
    }

    pub fn is_identity(&self) -> bool {
        self.factor == 1.0
    }

    /// `component@factor`, e.g. `exec@0.5`.
    pub fn parse(s: &str) -> Option<ScalePlan> {
        let (c, f) = s.split_once('@')?;
        let component = ScaleComponent::parse(c)?;
        let factor: f64 = f.parse().ok()?;
        if factor > 0.0 {
            Some(ScalePlan { component, factor })
        } else {
            None
        }
    }

    /// CPU config with this plan applied.
    pub fn cpu_config(&self, base: hostsim::CpuConfig) -> hostsim::CpuConfig {
        if self.is_identity() {
            return base;
        }
        match self.component {
            ScaleComponent::Host => hostsim::CpuConfig { service_scale: self.factor, ..base },
            ScaleComponent::Dispatch => {
                hostsim::CpuConfig { batch_overhead: base.batch_overhead * self.factor, ..base }
            }
            _ => base,
        }
    }

    /// GPU config with this plan applied.
    pub fn gpu_config(&self, base: hostsim::GpuConfig) -> hostsim::GpuConfig {
        if self.is_identity() {
            return base;
        }
        match self.component {
            ScaleComponent::Host => hostsim::GpuConfig { service_scale: self.factor, ..base },
            ScaleComponent::Dispatch => {
                hostsim::GpuConfig { batch_overhead: base.batch_overhead * self.factor, ..base }
            }
            _ => base,
        }
    }

    /// VPU pipeline config with this plan applied.
    pub fn vpu_config(
        &self,
        mut base: crate::multivpu::MultiVpuConfig,
    ) -> crate::multivpu::MultiVpuConfig {
        if self.is_identity() {
            return base;
        }
        match self.component {
            ScaleComponent::UsbWrite => base.usb.write_scale = self.factor,
            ScaleComponent::UsbRead => base.usb.read_scale = self.factor,
            ScaleComponent::Exec => base.ncs.exec_scale = self.factor,
            ScaleComponent::Dispatch => {
                base.thread_spawn = base.thread_spawn * self.factor;
                base.ncs.risc_cmd_overhead_ns =
                    scale_ns(base.ncs.risc_cmd_overhead_ns, self.factor);
            }
            ScaleComponent::BatchWait | ScaleComponent::Host => {}
        }
        base
    }

    /// The batcher deadline under this plan (the serving layer applies
    /// it to `ServeConfig::max_wait`; every other component leaves the
    /// deadline alone).
    pub fn max_wait(&self, base: Duration) -> Duration {
        if self.component == ScaleComponent::BatchWait && !self.is_identity() {
            base * self.factor
        } else {
            base
        }
    }
}

impl std::fmt::Display for ScalePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.component.name(), self.factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBundle;
    use vpu_nn::googlenet::Variant;

    fn model() -> ModelBundle {
        ModelBundle::googlenet_untrained(Variant::Full, 1)
    }

    #[test]
    fn hosts_serialize_consecutive_batches() {
        let mut cpu = IntelCpu::new(model());
        let a = cpu.serve(4, SimTime::ZERO);
        let b = cpu.serve(4, SimTime::ZERO);
        assert!(b.start >= a.end, "second batch must queue behind the first");
        assert_eq!(a.done.len(), 4);
        assert_eq!(cpu.busy_until(), b.end);
    }

    #[test]
    fn host_estimate_matches_nominal_latency() {
        let cpu = IntelCpu::new(model());
        // Paper anchor: 26.0 ms at batch 1.
        let ms = ServiceHook::estimate(&cpu, 1).as_millis();
        assert!((25.2..26.8).contains(&ms), "cpu estimate {ms} ms");
    }

    #[test]
    fn vpu_serves_incrementally_with_per_image_completions() {
        let mut vpu = IntelVpu::new(model(), 4);
        let boot = vpu.busy_until();
        let late = boot + Duration::from_millis(500.0);
        let run = vpu.serve(8, late);
        assert!(run.start >= late, "batch must not start before dispatch");
        assert_eq!(run.done.len(), 8);
        assert!(run.done.iter().all(|&t| t > run.start && t <= run.end));
        // Two waves on four sticks: completions are staggered, not
        // all-at-end like the host devices.
        assert!(run.done.iter().any(|&t| t < run.end));
    }

    #[test]
    fn vpu_estimate_tracks_wave_count() {
        let vpu = IntelVpu::new(model(), 4);
        let one = vpu.estimate(4);
        let three = vpu.estimate(12);
        // Paper anchor: one wave ~ a single-stick inference (~100.7 ms).
        let ms = one.as_millis();
        assert!((90.0..115.0).contains(&ms), "first wave {ms} ms");
        assert!(three > one * 2, "extra waves must add cost");
        // Steady state approaches the 8-stick per-image anchor shape:
        // marginal wave cost well below two serial inferences.
        assert!((three - one).as_millis() < 2.5 * ms);
    }

    #[test]
    fn host_serve_obs_matches_plain_timing_and_emits_batch_span() {
        let mut plain = IntelCpu::new(model());
        let mut observed = IntelCpu::new(model());
        let a = plain.serve(4, SimTime::ZERO);
        let mut log = ncsw_obs::EventLog::new();
        let ids = [10u64, 11, 12, 13];
        let b = observed.serve_obs(
            4,
            SimTime::ZERO,
            &mut BatchObs { rec: &mut log, batch_id: 3, worker: 2, ids: &ids },
        );
        assert_eq!(a.done, b.done, "instrumentation changed timing");
        assert_eq!(log.len(), 1, "hosts emit one batch-level span");
        let ev = log.events()[0];
        assert_eq!(ev.phase, Phase::Exec);
        assert_eq!(ev.lane, Lane::Worker(2));
        assert_eq!(ev.ctx.batch_id, Some(3));
        assert_eq!((ev.start, ev.end), (b.start, Some(b.end)));
    }

    #[test]
    fn energy_profiles_derive_from_the_power_models() {
        let cpu = IntelCpu::new(model());
        let p = cpu.energy_profile();
        assert_eq!((p.busy_mw, p.idle_mw, p.tdp_mw), (80_000, 15_000, 80_000));
        let gpu = NvGpu::new(model());
        let p = gpu.energy_profile();
        assert_eq!((p.busy_mw, p.idle_mw, p.tdp_mw), (80_000, 13_000, 80_000));
        // 4 sticks: 4 × (900 busy / 172 gated / 2500 peak) mW.
        let vpu = IntelVpu::new(model(), 4);
        let p = vpu.energy_profile();
        assert_eq!(p.label, "vpu x4");
        assert_eq!((p.busy_mw, p.idle_mw, p.tdp_mw), (3_600, 688, 10_000));
    }

    #[test]
    fn gpu_max_batch_bounded_by_memory() {
        let gpu = NvGpu::new(model());
        let cap = gpu.max_batch().expect("gpu reports a bound");
        assert!(cap >= 8, "paper sweeps to batch 8, must fit: {cap}");
        assert!(!gpu.device().batch_fits(gpu.cost(), cap + 1));
    }
}
