//! The one device interface: per-batch service hooks over the target
//! devices.
//!
//! An *online* serving layer submits one formed batch at a time, at an
//! arbitrary virtual instant, and learns when each image's result
//! returns to the host; the throughput experiments
//! ([`crate::runner::throughput`]) make the same calls back to back.
//! This module exposes that contract as [`ServiceHook`]:
//!
//! * a device implements **one submit call**,
//!   [`ServiceHook::try_serve_obs`]: fallible and observed. The
//!   infallible [`ServiceHook::serve_obs`] and unobserved
//!   [`ServiceHook::serve`] are provided wrappers over it;
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

use desim::{Duration, SimTime};
use ncsw_obs::{BatchObs, EnergyProfile, NullRecorder};

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
#[derive(Debug, Clone, PartialEq)]
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

/// A device a dynamic batcher can drive one batch at a time. Implement
/// [`ServiceHook::try_serve_obs`] and the queries; the two other submit
/// methods are wrappers over it.
pub trait ServiceHook {
    /// Display label, e.g. `cpu`, `gpu`, `vpu x8`.
    fn label(&self) -> String;

    /// The one device call: submit `batch` images no earlier than
    /// `ready`. The device serializes with its own prior work and
    /// returns when each image's result lands back on the host, emitting
    /// its busy spans through `obs.rec` tagged with `obs`'s
    /// batch/request context (nothing when `obs` is disabled; the timing
    /// is the same either way). Host devices report one batch-level
    /// `Exec` span on their worker lane; the VPU fleet reports per-image
    /// host, chip and USB-fabric spans. The built-in devices never fail;
    /// fault-injection wrappers (`ncsw-faults`) return a [`ServeError`]
    /// so the serving loop can retry, fail over and trip breakers.
    fn try_serve_obs(
        &mut self,
        batch: usize,
        ready: SimTime,
        obs: &mut BatchObs<'_>,
    ) -> Result<BatchRun, ServeError>;

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

    /// [`ServiceHook::try_serve_obs`] on a device that must not fail.
    ///
    /// # Panics
    /// If the submission fails.
    fn serve_obs(&mut self, batch: usize, ready: SimTime, obs: &mut BatchObs<'_>) -> BatchRun {
        self.try_serve_obs(batch, ready, obs)
            .unwrap_or_else(|e| panic!("fault fired on the infallible serve path: {:?}", e.kind))
    }

    /// [`ServiceHook::serve_obs`], unobserved.
    fn serve(&mut self, batch: usize, ready: SimTime) -> BatchRun {
        self.serve_obs(batch, ready, &mut BatchObs::disabled(&mut NullRecorder))
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

    /// Host config with this plan applied.
    pub fn host_config(&self, base: hostsim::HostConfig) -> hostsim::HostConfig {
        if self.is_identity() {
            return base;
        }
        match self.component {
            ScaleComponent::Host => hostsim::HostConfig { service_scale: self.factor, ..base },
            ScaleComponent::Dispatch => {
                hostsim::HostConfig { batch_overhead: base.batch_overhead * self.factor, ..base }
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
            ScaleComponent::Exec => base.ncs.chip = base.ncs.chip.time_scaled(self.factor),
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
