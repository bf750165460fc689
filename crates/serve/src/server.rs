//! The serving loop: admission control, deadline-aware dynamic batching,
//! heterogeneous dispatch, and fault-aware failover — all on the `desim`
//! virtual clock.
//!
//! The simulation is event-driven but needs no explicit event queue:
//! arrivals are known up front (open loop), and every worker
//! self-serializes through its own timeline, so at any instant the only
//! two candidate events are *the next arrival* and *the earliest batch
//! dispatch the policy can plan* for the current queue. The loop always
//! executes the earlier of the two (arrivals win ties, so a request
//! landing exactly at a dispatch instant still joins the batch).
//!
//! A batch closes when the queue holds `max_batch` requests **or** the
//! oldest queued request has waited `max_wait`, whichever comes first —
//! and is handed to a worker no earlier than the policy allows, so under
//! overload the bounded queue fills and the admission controller sheds.
//!
//! ## Stages
//!
//! All four entry points drive one private `Run`, which owns the
//! per-run state (queue, failover and energy books, the optional
//! observers and controller). Each pass of `Run::serve` calls `plan`
//! and then exactly one event method:
//!
//! - `tick` — the autoscaling controller (`scale_down` / `scale_up`);
//! - `arrive` — admission control;
//! - `dispatch` — close a batch and serve it. `readmit` turns a
//!   breaker or quarantine probe back on, `defend` runs the gray-failure
//!   defenses (`hedge`, `score_fail_slow`), and the batch then ends in
//!   `complete` or `fail` (`trip_breaker`).
//!
//! Every request ends through one method per outcome: `deliver`,
//! `retry_or_shed` or `shed`. Busy energy is booked straight on the
//! `EnergyMeter`. The recorder is fed through `record`, and the time
//! series through `observe` with only what the loop alone knows: the
//! queue depth as each sample boundary passes, served batch spans, and
//! autoscaling transitions. Both do nothing on an unobserved run.
//! Everything else an observed run reports is folded from the outcome
//! afterwards, in one pass each: the metric registry (`registry_of`),
//! and the series' completions, sheds, circuit states and energy
//! ([`TimeSeriesBuilder::finish`]).
//!
//! ## Fault tolerance
//!
//! Dispatch goes through the fallible [`ServiceHook::try_serve_obs`], so
//! fault-injection wrappers (`ncsw-faults`) can make any worker fail. A
//! failed batch is detected at the error instant (capped by the
//! 5 s per-batch dispatch timeout), its members are
//! re-enqueued *at the queue head* — preserving arrival order and their
//! SLO deadlines — with a seeded exponential-backoff-plus-jitter floor
//! on their next dispatch, and bounded by
//! [`RobustConfig::max_attempts`]; exhausted requests are shed with
//! [`ShedCause::RetriesExhausted`], so every admitted request either
//! completes exactly once or is shed with a recorded cause.
//!
//! A per-worker health tracker runs a closed/open/half-open circuit
//! breaker: consecutive failures (fewer under queue pressure — the same
//! queue-depth signal the `ncsw-obs` sampler exports) open the circuit,
//! routing avoids open workers, and after a cooldown the next planned
//! dispatch becomes the half-open probe. While circuits are open the
//! admission controller *degrades gracefully*: the effective queue
//! capacity shrinks with the surviving fraction of fleet capacity
//! ([`crate::fleet::live_capacity_rps`]), and the batcher's fill target
//! adapts to the survivors' preferred batch.

use crate::fleet::{live_capacity_rps, live_preferred_batch, worker_rps};
use crate::workload::ArrivalProcess;
use desim::{Duration, SimTime};
use ncsw::service::{BatchRun, FailureKind, ServeError, ServiceHook};
use ncsw_ctrl::{PrimeContext, ScaleDecision, ScaleSignals, ScalingPolicy};
use ncsw_obs::{
    prof, BatchObs, Ctx, EnergyMeter, Event, EventLog, FlightRecorder, Lane, NullRecorder, Phase,
    ProfiledRecorder, Recorder, Registry, SamplePolicy, SampleStats, SamplingRecorder, Tee,
    TimeSeries, TimeSeriesBuilder,
};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What to do with an arrival when the queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Refuse the arriving request (classic tail drop).
    Reject,
    /// Admit the newcomer and evict the oldest queued request — the one
    /// that has burned most of its latency budget already.
    DropOldest,
    /// Reject on a full queue, and *additionally* reject any arrival
    /// that cannot meet the SLO given the current backlog and surviving
    /// fleet capacity — don't admit work that is already hopeless.
    DeadlineAware,
}

impl ShedPolicy {
    pub fn parse(s: &str) -> Option<ShedPolicy> {
        match s {
            "reject" => Some(ShedPolicy::Reject),
            "drop-oldest" => Some(ShedPolicy::DropOldest),
            "deadline-aware" => Some(ShedPolicy::DeadlineAware),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::Reject => "reject",
            ShedPolicy::DropOldest => "drop-oldest",
            ShedPolicy::DeadlineAware => "deadline-aware",
        }
    }
}

/// How formed batches are routed across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Cycle through the workers regardless of their backlog.
    RoundRobin,
    /// Route to the worker whose outstanding work drains earliest.
    LeastOutstanding,
    /// Route to the worker with the earliest *estimated completion*
    /// (backlog + calibrated cost model) — fast devices absorb bursts
    /// even while briefly busy, slow ones serve steady load.
    CostAware,
}

impl DispatchPolicy {
    pub fn parse(s: &str) -> Option<DispatchPolicy> {
        match s {
            "round-robin" => Some(DispatchPolicy::RoundRobin),
            "least-outstanding" => Some(DispatchPolicy::LeastOutstanding),
            "cost-aware" => Some(DispatchPolicy::CostAware),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastOutstanding => "least-outstanding",
            DispatchPolicy::CostAware => "cost-aware",
        }
    }
}

/// A batch whose results have not landed this long after dispatch is
/// declared failed (bounds failure detection; generous enough that
/// healthy service never trips it). 5 s.
const DISPATCH_TIMEOUT: Duration = Duration(5_000_000_000);
/// Exponential backoff floor before a failed batch's members may be
/// re-dispatched: `BACKOFF_BASE * BACKOFF_FACTOR^(attempt-1)`, capped at
/// `BACKOFF_MAX` (4 ms, ×2, 100 ms).
const BACKOFF_BASE: Duration = Duration(4_000_000);
const BACKOFF_FACTOR: f64 = 2.0;
const BACKOFF_MAX: Duration = Duration(100_000_000);
/// Uniform jitter fraction added on top of the backoff (seeded via
/// `vpu_num::rng`, drawn only when a failure actually happens).
const JITTER_FRAC: f64 = 0.25;
/// Consecutive failures that open a worker's circuit. Under queue
/// pressure (depth at half the configured capacity — the same
/// queue-depth signal the `ncsw-obs` sampler exports) the breaker trips
/// one failure earlier.
const BREAKER_THRESHOLD: u32 = 3;
/// Cooldown before an open circuit admits a half-open probe (250 ms);
/// escalates by `BREAKER_BACKOFF` on every reopen, up to
/// `BREAKER_COOLDOWN_MAX` (2 s).
const BREAKER_COOLDOWN: Duration = Duration(250_000_000);
const BREAKER_BACKOFF: f64 = 2.0;
const BREAKER_COOLDOWN_MAX: Duration = Duration(2_000_000_000);

/// Retry behavior of the dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustConfig {
    /// Maximum dispatch attempts per request before it is shed with
    /// [`ShedCause::RetriesExhausted`].
    pub max_attempts: u32,
}

impl Default for RobustConfig {
    fn default() -> Self {
        RobustConfig { max_attempts: 4 }
    }
}

/// Latency-outlier quarantine — the defense against *fail-slow* workers,
/// which complete every batch (no error, so the circuit breakers never
/// trip) while silently inflating its span. A worker whose observed
/// service span exceeds `QUARANTINE_OUTLIER_FACTOR` × its calibrated
/// estimate for `QUARANTINE_THRESHOLD` consecutive batches is
/// quarantined: taken out of the dispatch pool for `QUARANTINE_WINDOW`
/// (500 ms), then re-admitted *on probation* — the next outlier
/// re-quarantines it immediately with the window escalated by
/// `QUARANTINE_BACKOFF` (capped at `QUARANTINE_WINDOW_MAX`, 4 s), while
/// a clean batch clears probation and resets the window.
const QUARANTINE_OUTLIER_FACTOR: f64 = 2.5;
const QUARANTINE_THRESHOLD: u32 = 3;
const QUARANTINE_WINDOW: Duration = Duration(500_000_000);
const QUARANTINE_BACKOFF: f64 = 2.0;
const QUARANTINE_WINDOW_MAX: Duration = Duration(4_000_000_000);

/// Hedged dispatch: once a batch's primary service span blows past the
/// hedge delay — the observed `HEDGE_QUANTILE` of the span/estimate
/// ratio (0.95 hedges the slowest ~5% of batches), learned online from
/// at least `HEDGE_MIN_SAMPLES` completed batches fleet-wide, and never
/// below `HEDGE_MIN_DELAY` (1 ms) so near-zero estimates cannot hedge
/// every batch — a duplicate of the batch is speculatively dispatched to
/// a second worker. Whichever copy completes first wins; the loser's
/// span is charged to the energy ledger as *wasted* (exact pJ, reported
/// in [`GrayStats::hedge_wasted_pj`]).
const HEDGE_QUANTILE: f64 = 0.95;
const HEDGE_MIN_SAMPLES: u64 = 16;
const HEDGE_MIN_DELAY: Duration = Duration(1_000_000);

/// Gray-failure defenses of the serving loop. `Default` turns every
/// defense off, and the all-off path is bit-identical to a pre-gray
/// run — the defenses only read the wire metadata `ncsw-faults`
/// attaches to a `BatchRun` and the spans the loop already observes;
/// they never perturb RNG streams or healthy-path timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct GrayConfig {
    /// Verify results on completion (per-request sequence tags plus
    /// result checksums): corrupted or dropped completions are rejected
    /// and retried instead of surfacing to the client. Duplicate
    /// completions are deduplicated by sequence tag either way.
    pub verify: bool,
    /// Fail-slow quarantine.
    pub quarantine: bool,
    /// Hedged dispatch.
    pub hedge: bool,
}

impl GrayConfig {
    /// Every defense on — what `repro chaos` and the E22 "defended" arm
    /// run.
    pub fn defended() -> GrayConfig {
        GrayConfig { verify: true, quarantine: true, hedge: true }
    }
}

/// Serving-loop parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Bounded request-queue capacity (admission control).
    pub queue_capacity: usize,
    pub shed: ShedPolicy,
    /// A batch closes at this many requests...
    pub max_batch: usize,
    /// ...or once the oldest member has waited this long.
    pub max_wait: Duration,
    pub policy: DispatchPolicy,
    /// Latency objective used for goodput accounting (p99 target).
    pub slo: Duration,
    /// Seed of the arrival streams (and of the backoff jitter).
    pub seed: u64,
    /// Retry / timeout / circuit-breaker behavior.
    pub robust: RobustConfig,
    /// Gray-failure defenses (verify-on-complete, fail-slow quarantine,
    /// hedged dispatch). `Default` turns everything off.
    pub gray: GrayConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_capacity: 64,
            shed: ShedPolicy::Reject,
            max_batch: 8,
            max_wait: Duration::from_millis(40.0),
            policy: DispatchPolicy::LeastOutstanding,
            slo: Duration::from_millis(500.0),
            seed: vpu_num::rng::DEFAULT_SEED,
            robust: RobustConfig::default(),
            gray: GrayConfig::default(),
        }
    }
}

/// Fate of one generated request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequestRecord {
    pub id: u64,
    pub arrival: SimTime,
    /// Instant the batch containing this request closed and was routed
    /// (the *successful* dispatch, after any failovers).
    pub dispatched: SimTime,
    /// Instant the device began serving the batch.
    pub service_start: SimTime,
    /// Instant this request's result returned to the host.
    pub completed: SimTime,
    pub worker: usize,
    pub batch: usize,
    /// Dispatch attempts it took (1 = served on the first try).
    pub attempts: u32,
}

impl RequestRecord {
    /// Deadline-aware batching delay: arrival -> batch close.
    pub fn formation_wait(&self) -> Duration {
        self.dispatched - self.arrival
    }

    /// Dispatch -> device start (worker backlog the policy accepted).
    pub fn queue_wait(&self) -> Duration {
        self.service_start - self.dispatched
    }

    pub fn service_time(&self) -> Duration {
        self.completed - self.service_start
    }

    pub fn latency(&self) -> Duration {
        self.completed - self.arrival
    }
}

/// Why the admission controller (or the failover path) shed a request.
/// Defined in `ncsw-obs` so `Shed` events carry it into exported
/// traces; re-exported here because the serving loop is what decides.
pub use ncsw_obs::ShedCause;

/// A request shed by the admission controller.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShedRecord {
    pub id: u64,
    pub arrival: SimTime,
    /// Instant the decision was made (eviction and retry exhaustion
    /// happen after arrival).
    pub shed_at: SimTime,
    pub cause: ShedCause,
}

impl ShedRecord {
    /// Queue time burned before the shedding decision (zero for rejects).
    pub fn wait(&self) -> Duration {
        self.shed_at - self.arrival
    }
}

/// Per-worker accounting of one run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerStats {
    pub label: String,
    pub batches: u64,
    pub images: u64,
    /// Virtual time the device spent busy (sum of service spans,
    /// including work wasted by timed-out batches).
    pub busy: Duration,
    /// Boot/allocation completion of the device at epoch.
    pub ready_at: SimTime,
    /// Failed dispatch attempts charged to this worker.
    pub failures: u64,
}

/// One worker outage as seen by the circuit breaker. Defined in
/// `ncsw-obs` so the time series reads circuit state from it;
/// re-exported here because the failover path keeps it.
pub use ncsw_obs::OutageRecord;

/// Fault/failover accounting of one run (all zero on a healthy run).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Failed batch dispatches (worker faults plus dispatch timeouts).
    pub injected: u64,
    /// Requests re-enqueued for another attempt after a batch failure.
    pub retries: u64,
    /// Requests shed because they exhausted their attempts.
    pub exhausted: u64,
    /// Circuit-breaker outage windows, in open order.
    pub outages: Vec<OutageRecord>,
}

/// Gray-failure accounting of one run (all zero on a clean wire with
/// the defenses off — the struct exists even then so reports stay
/// structurally stable).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GrayStats {
    /// Result slots the wire corrupted, whether or not verification
    /// caught them.
    pub corrupted_wire: u64,
    /// Completions rejected by verify-on-complete (corrupt checksum or
    /// sequence-tag gap); each is followed by a retry or a shed.
    pub integrity_fails: u64,
    /// Corrupted results that reached the client (verification off) —
    /// the chaos harness asserts this stays zero when defenses are on.
    pub corrupt_surfaced: u64,
    /// Duplicate completions suppressed by exactly-once sequence-tag
    /// dedup.
    pub dups_suppressed: u64,
    /// Dropped completions detected as sequence-tag gaps (verification
    /// on; each is also counted in `integrity_fails`).
    pub drops_detected: u64,
    /// Dropped completions surfaced as batch-horizon completions
    /// (verification off).
    pub drops_surfaced: u64,
    /// Hedged dispatches issued.
    pub hedges: u64,
    /// Hedges whose duplicate finished first.
    pub hedge_wins: u64,
    /// Hedges outlived by the primary (or whose duplicate failed).
    pub hedge_cancels: u64,
    /// Exact busy-energy cost of hedging — every losing span, in pJ.
    pub hedge_wasted_pj: u64,
    /// Fail-slow quarantine entries.
    pub quarantines: u64,
    /// Probation re-entries after a quarantine window elapsed.
    pub probations: u64,
}

/// Raw outcome of one serving run (aggregate with [`crate::metrics`]).
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Fleet-ready instant the arrival clock started from.
    pub epoch: SimTime,
    pub generated: usize,
    pub completed: Vec<RequestRecord>,
    pub shed: Vec<ShedRecord>,
    pub workers: Vec<WorkerStats>,
    pub faults: FaultStats,
    /// Gray-failure accounting (wire corruption, integrity rejections,
    /// hedging, quarantine).
    pub gray: GrayStats,
    /// Integrated per-worker energy ledger. Purely passive — charging
    /// never influences timing, routing or RNG state, so a metered run
    /// is byte-identical to an unmetered one. Failed attempts are
    /// charged as *wasted* energy even though their latency is never
    /// attributed to a request.
    pub energy: EnergyMeter,
    /// Autoscaling accounting; `None` on a static-fleet run (the
    /// controller-disabled paths are bit-identical to pre-controller
    /// behavior).
    pub scaling: Option<ScalingStats>,
    /// Simulator loop events processed (arrivals, dispatches,
    /// controller ticks — every decision point of the event loop). A
    /// deterministic function of the run, so it feeds the
    /// [`ncsw_obs::Throughput`] meter without a profiler attached.
    pub sim_events: u64,
}

impl ServeOutcome {
    /// Last completion (or the epoch when nothing completed).
    pub fn end(&self) -> SimTime {
        self.completed.iter().map(|r| r.completed).max().unwrap_or(self.epoch)
    }

    /// Integration horizon for energy accounting: a timed-out batch can
    /// keep the device busy past the last completion, so the horizon is
    /// the later of [`ServeOutcome::end`] and the charged ledger's own
    /// high-water mark (idle time can never integrate negative).
    pub fn energy_horizon(&self) -> SimTime {
        SimTime::max_of(self.end(), self.energy.busy_horizon())
    }
}

struct Pending {
    id: u64,
    arrival: SimTime,
    /// Failed dispatch attempts so far (0 = never dispatched).
    attempts: u32,
    /// Backoff floor: the request may not be re-dispatched before this.
    earliest: SimTime,
}

/// Observability options for [`serve_observed`].
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Time-series sampling interval (virtual time).
    pub sample_every: Duration,
    /// Tail-based trace sampling policy. `None` (and the all-keep
    /// policy) capture the full event log, byte-identical to each
    /// other; a 1-in-N policy keeps anomalous request chains in full
    /// and drops most of the happy path (see
    /// [`ncsw_obs::SamplingRecorder`]).
    pub sample: Option<SamplePolicy>,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig { sample_every: Duration::from_millis(10.0), sample: None }
    }
}

/// Everything an observed run captured beyond the [`ServeOutcome`].
#[derive(Debug)]
pub struct ServeObservation {
    /// Structured event stream — the full log, or the sampled one when
    /// [`ObsConfig::sample`] names a dropping policy (export with
    /// [`ncsw_obs::chrome_trace`]).
    pub events: EventLog,
    /// Periodic samples of queue/worker state (export with
    /// [`TimeSeries::csv`]).
    pub series: TimeSeries,
    /// Counters, gauges and latency histograms of the run. Always
    /// full-fidelity: metrics see every request even under sampling.
    pub registry: Registry,
    /// Keep/drop ledger of the sampling recorder (`None` when
    /// [`ObsConfig::sample`] is `None`).
    pub sample: Option<SampleStats>,
    /// The always-on incident flight recorder: its ring holds the
    /// run's final trace window, and `incidents()` any snapshots taken
    /// when `CircuitOpen`/`IntegrityFail` fired mid-run. The bench
    /// layer adds burn-rate-alert snapshots post-run.
    pub flight: FlightRecorder,
}

/// The metric registry of an observed run, folded from its outcome
/// (`peak` is the queue's depth high-water mark, which failover
/// requeues make underivable from the records). Rows keep the order
/// and names the summary and incident bundles print.
fn registry_of(o: &ServeOutcome, peak: usize) -> Registry {
    let mut reg = Registry::new();
    let sheds = |cause| o.shed.iter().filter(|s| s.cause == cause).count() as u64;
    for (name, v) in [
        ("requests.arrived", o.generated as u64),
        ("requests.completed", o.completed.len() as u64),
        ("requests.shed.rejected", sheds(ShedCause::Rejected)),
        ("requests.shed.evicted", sheds(ShedCause::Evicted)),
        ("requests.shed.deadline", sheds(ShedCause::Deadline)),
        ("requests.shed.retries_exhausted", sheds(ShedCause::RetriesExhausted)),
        ("batches.dispatched", o.workers.iter().map(|w| w.batches).sum()),
        ("faults.injected", o.faults.injected),
        ("faults.retries", o.faults.retries),
        ("faults.circuit_opens", o.faults.outages.len() as u64),
    ] {
        reg.push_counter(name, v);
    }
    reg.push_gauge("queue.depth.peak", peak as f64);
    let evicted = o.shed.iter().filter(|s| s.cause == ShedCause::Evicted);
    reg.push_histogram("shed.evicted.wait", evicted.map(ShedRecord::wait).collect());
    let per_request = |f: fn(&RequestRecord) -> Duration| o.completed.iter().map(f).collect();
    reg.push_histogram("latency.e2e", per_request(RequestRecord::latency));
    reg.push_histogram("latency.formation_wait", per_request(RequestRecord::formation_wait));
    reg.push_histogram("latency.queue_wait", per_request(RequestRecord::queue_wait));
    reg.push_histogram("latency.service", per_request(RequestRecord::service_time));
    reg
}

/// Live observability state of an observed [`Run`].
struct ObsAccum {
    series: TimeSeriesBuilder,
    /// Queue-depth high-water mark.
    peak: usize,
}

// ---------------------------------------------------------------------
// Autoscaling: the actuation half of the `ncsw-ctrl` closed loop
// ---------------------------------------------------------------------

/// Actuator parameters of an autoscaled run ([`serve_autoscaled`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingConfig {
    /// Controller tick interval: the policy sees fresh signals and may
    /// act this often. The first tick fires at the epoch.
    pub tick: Duration,
    /// Virtual delay between a scale-up decision and the stick being
    /// dispatchable (plug/enumerate/boot of an NCS device).
    pub provision_delay: Duration,
    /// Floor on live-plus-provisioning elastic sticks — the actuator
    /// never drains below it regardless of what the policy asks.
    pub min_live: usize,
    /// Worker indices the controller may drain and power-gate
    /// (typically [`crate::fleet::FleetSpec::elastic_workers`]).
    pub elastic: Vec<usize>,
}

impl Default for ScalingConfig {
    fn default() -> Self {
        ScalingConfig {
            tick: Duration::from_millis(50.0),
            provision_delay: Duration::from_millis(200.0),
            min_live: 1,
            elastic: Vec::new(),
        }
    }
}

/// Controller-side accounting of one autoscaled run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalingStats {
    /// Policy that drove the run ([`ScalingPolicy::name`]).
    pub policy: String,
    pub ticks: u64,
    /// Sticks powered on (each is one `ScaleUp` span in the trace).
    pub scale_ups: u64,
    /// Sticks drained and power-gated (`Drain` + `ScaleDown` events).
    pub scale_downs: u64,
    /// Scale-ups issued while live circuits were open — replacements
    /// spun up during an `ncsw-faults` outage.
    pub replacements: u64,
    /// The elastic pool the controller was allowed to act on.
    pub elastic: Vec<usize>,
}

/// Lifecycle of one elastic stick as the actuator tracks it.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ScaleState {
    Live,
    /// Powered on at the decision tick, dispatchable from `ready_at`.
    Provisioning {
        ready_at: SimTime,
    },
    /// Drained; power-gated from `since` (the instant its last
    /// in-flight batch finished).
    Gated {
        since: SimTime,
    },
}

/// One controller-tick window of outcome counts, the raw material of
/// the burn-rate and shed-rate signals.
#[derive(Debug, Clone, Copy, Default)]
struct TickBucket {
    arrived: u64,
    completed: u64,
    /// Completions over the SLO.
    missed: u64,
    shed: u64,
}

/// Burn-window lengths in ticks, mirroring `ncsw-analyze`'s two-window
/// alert defaults (fast 3 samples, slow 12).
const FAST_WINDOW: usize = 3;
const SLOW_WINDOW: usize = 12;

/// Outcome kinds binned into [`TickBucket`]s by instant.
const OUTCOME_GOOD: u8 = 0;
const OUTCOME_MISS: u8 = 1;
const OUTCOME_SHED: u8 = 2;

/// Controller state of an autoscaled [`Run`]. `None` everywhere
/// else — the static-fleet paths never construct one,
/// which is what keeps them bit-identical to pre-controller behavior.
struct CtrlState<'a> {
    cfg: ScalingConfig,
    policy: &'a mut dyn ScalingPolicy,
    /// Per-worker lifecycle; non-elastic workers stay `Live` forever.
    state: Vec<ScaleState>,
    next_tick: SimTime,
    /// Nameplate capacity of one elastic stick / of the always-on rest.
    stick_rps: f64,
    base_rps: f64,
    /// Completions and sheds not yet binned, as `(instant ns, kind)` —
    /// a min-heap because completions land after the dispatch that
    /// produced them, possibly several ticks out.
    outcomes: BinaryHeap<Reverse<(u64, u8)>>,
    /// The bucket accumulating the current tick window.
    cur: TickBucket,
    /// Closed per-tick buckets, most recent last (capped at the slow
    /// burn window).
    hist: VecDeque<TickBucket>,
    stats: ScalingStats,
}

impl<'a> CtrlState<'a> {
    fn new(
        scaling: &ScalingConfig,
        workers: &[Box<dyn ServiceHook>],
        policy: &'a mut dyn ScalingPolicy,
    ) -> CtrlState<'a> {
        assert!(scaling.tick > Duration::ZERO, "controller tick must be positive");
        assert!(scaling.elastic.iter().all(|&w| w < workers.len()), "elastic index out of range");
        let mut cfg = scaling.clone();
        cfg.elastic.sort_unstable();
        cfg.elastic.dedup();
        // If the whole fleet is elastic, at least one stick must stay
        // up or the dispatcher would have nowhere to route.
        if cfg.elastic.len() == workers.len() {
            cfg.min_live = cfg.min_live.max(1);
        }
        let stick_rps = cfg.elastic.first().map_or(0.0, |&w| worker_rps(workers[w].as_ref()));
        let base_rps = (0..workers.len())
            .filter(|i| !cfg.elastic.contains(i))
            .map(|i| worker_rps(workers[i].as_ref()))
            .sum();
        let policy_name = policy.name().to_string();
        let elastic = cfg.elastic.clone();
        CtrlState {
            cfg,
            policy,
            state: vec![ScaleState::Live; workers.len()],
            next_tick: SimTime::ZERO,
            stick_rps,
            base_rps,
            outcomes: BinaryHeap::new(),
            cur: TickBucket::default(),
            hist: VecDeque::with_capacity(SLOW_WINDOW),
            stats: ScalingStats {
                policy: policy_name,
                ticks: 0,
                scale_ups: 0,
                scale_downs: 0,
                replacements: 0,
                elastic,
            },
        }
    }

    /// Hand the policy its allowed foresight and schedule the first
    /// tick at the epoch (so the oracle can gate from the very start).
    fn prime(&mut self, arrivals: &[SimTime], epoch: SimTime) {
        self.next_tick = epoch;
        let ctx = PrimeContext {
            epoch,
            tick: self.cfg.tick,
            provision_delay: self.cfg.provision_delay,
            stick_rps: self.stick_rps,
            base_rps: self.base_rps,
            total_sticks: self.cfg.elastic.len(),
            min_live: self.cfg.min_live,
        };
        self.policy.prime(arrivals, &ctx);
    }

    fn outcome(&mut self, at: SimTime, kind: u8) {
        self.outcomes.push(Reverse((at.nanos(), kind)));
    }

    /// Bin every outcome at or before `tk` into the current bucket and
    /// close it.
    fn close_bucket(&mut self, tk: SimTime) {
        while let Some(&Reverse((at, kind))) = self.outcomes.peek() {
            if at > tk.nanos() {
                break;
            }
            self.outcomes.pop();
            match kind {
                OUTCOME_SHED => self.cur.shed += 1,
                OUTCOME_MISS => {
                    self.cur.completed += 1;
                    self.cur.missed += 1;
                }
                _ => self.cur.completed += 1,
            }
        }
        self.hist.push_back(self.cur);
        if self.hist.len() > SLOW_WINDOW {
            self.hist.pop_front();
        }
        self.cur = TickBucket::default();
    }

    /// Sum a field over the trailing `window` closed buckets.
    fn window_sum(&self, window: usize, f: impl Fn(&TickBucket) -> u64) -> (u64, usize) {
        let k = self.hist.len().min(window);
        (self.hist.iter().rev().take(k).map(f).sum(), k)
    }

    fn signals(&self, tk: SimTime, queue_depth: usize, fo: &FailoverState) -> ScaleSignals {
        let (mut live, mut provisioning, mut gated, mut open_circuits) = (0, 0, 0, 0);
        let mut quarantined = 0;
        for &w in &self.cfg.elastic {
            match self.state[w] {
                ScaleState::Live => {
                    live += 1;
                    if fo.health[w].is_open() {
                        open_circuits += 1;
                    }
                    if fo.quarantined[w].is_some() {
                        quarantined += 1;
                    }
                }
                ScaleState::Provisioning { .. } => provisioning += 1,
                ScaleState::Gated { .. } => gated += 1,
            }
        }
        let (fast_miss, fast_k) = self.window_sum(FAST_WINDOW, |b| b.missed);
        let (fast_done, _) = self.window_sum(FAST_WINDOW, |b| b.completed);
        let (slow_miss, _) = self.window_sum(SLOW_WINDOW, |b| b.missed);
        let (slow_done, _) = self.window_sum(SLOW_WINDOW, |b| b.completed);
        let (shed, _) = self.window_sum(FAST_WINDOW, |b| b.shed);
        let (arrived, _) = self.window_sum(FAST_WINDOW, |b| b.arrived);
        let frac = |num: u64, den: u64| if den > 0 { num as f64 / den as f64 } else { 0.0 };
        let window_s = self.cfg.tick.as_secs() * fast_k.max(1) as f64;
        ScaleSignals {
            now: tk,
            queue_depth,
            queue_capacity: fo.eff_capacity,
            fast_burn: frac(fast_miss, fast_done),
            slow_burn: frac(slow_miss, slow_done),
            shed_rate: frac(shed, arrived),
            arrival_rps: arrived as f64 / window_s,
            live,
            provisioning,
            gated,
            open_circuits,
            quarantined,
            stick_rps: self.stick_rps,
            base_rps: self.base_rps,
        }
    }
}

/// Circuit-breaker state of one worker.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Circuit {
    Closed,
    Open {
        until: SimTime,
    },
    /// Cooldown elapsed and a probe batch is in flight; the probe's
    /// outcome closes or reopens the circuit.
    HalfOpen,
}

/// Per-worker health as the dispatcher sees it.
struct Health {
    circuit: Circuit,
    consecutive_failures: u32,
    cooldown: Duration,
}

impl Health {
    fn new() -> Health {
        Health { circuit: Circuit::Closed, consecutive_failures: 0, cooldown: BREAKER_COOLDOWN }
    }

    fn is_open(&self) -> bool {
        matches!(self.circuit, Circuit::Open { .. })
    }

    /// Earliest instant this worker may receive a dispatch (half-open
    /// probes included); `None` while closed/half-open.
    fn open_until(&self) -> Option<SimTime> {
        match self.circuit {
            Circuit::Open { until } => Some(until),
            _ => None,
        }
    }
}

/// Online histogram of observed service-span / estimate ratios, in
/// 1/256 fixed point (integer-only, so the hedge delay it yields is
/// deterministic and byte-stable across platforms). Normalizing by the
/// calibrated estimate folds batch-size and device-speed differences
/// into one distribution — exactly the quantity a fail-slow stretch
/// inflates.
struct RatioHist {
    /// Linear buckets of width 1/256, saturating at a 16× ratio.
    buckets: Vec<u32>,
    n: u64,
}

const RATIO_FP: u64 = 256;
const RATIO_BUCKETS: usize = 4096;

impl RatioHist {
    fn new() -> RatioHist {
        RatioHist { buckets: vec![0; RATIO_BUCKETS], n: 0 }
    }

    fn record(&mut self, span_ns: u64, est_ns: u64) {
        if est_ns == 0 {
            return;
        }
        let fp = (span_ns.saturating_mul(RATIO_FP) / est_ns).min(RATIO_BUCKETS as u64 - 1);
        self.buckets[fp as usize] += 1;
        self.n += 1;
    }

    /// Upper edge of the `q`-quantile bucket as a ×256 fixed-point
    /// ratio; `None` until `min_samples` ratios were recorded.
    fn quantile_fp(&self, q: f64, min_samples: u64) -> Option<u64> {
        if self.n < min_samples.max(1) {
            return None;
        }
        let target = (((self.n as f64) * q).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c as u64;
            if seen >= target {
                return Some(i as u64 + 1);
            }
        }
        Some(RATIO_BUCKETS as u64)
    }
}

/// Mutable failover state of one run.
struct FailoverState {
    health: Vec<Health>,
    /// Power-gated by the autoscaler: never routable until a `ScaleUp`
    /// clears the flag. All-false on static runs.
    gated: Vec<bool>,
    /// Provisioning floor: dispatches may not land before this instant
    /// (autoscaled runs only; all-`None` on static runs).
    not_ready: Vec<Option<SimTime>>,
    /// Monotone routing floor left behind by every `ScaleUp`: replanning
    /// may move a dispatch instant into the past (a queue head whose
    /// deadline already lapsed), and `not_ready` is cleared once the
    /// controller counts the stick live again — this watermark keeps any
    /// such dispatch from being stamped before the stick finished
    /// provisioning. All-zero on static runs.
    ready_floor: Vec<SimTime>,
    /// Nameplate fleet capacity, measured once at start.
    nameplate_rps: f64,
    /// Live capacity across non-open workers (== nameplate while all
    /// circuits are closed).
    live_rps: f64,
    /// Queue capacity after graceful degradation.
    eff_capacity: usize,
    /// Batch fill target after degradation.
    fill_limit: usize,
    stats: FaultStats,
    /// Fail-slow quarantine: the instant each worker's window ends
    /// (`None` = not quarantined). A quarantined worker is blocked like
    /// an open circuit; once the window elapses the next planned
    /// dispatch to it becomes the probation probe.
    quarantined: Vec<Option<SimTime>>,
    probation: Vec<bool>,
    /// Consecutive latency-outlier batches per worker.
    outlier_run: Vec<u32>,
    /// Next quarantine window per worker (escalates on probation
    /// failures, resets on a clean probe).
    quar_window: Vec<Duration>,
    /// Span/estimate ratios feeding the hedge delay (populated only
    /// when a gray defense is on). Fleet-wide on purpose: normalizing
    /// by each worker's own estimate folds out device speed (healthy
    /// ratios sit near 1.0 for every device class), and pooling lets a
    /// slow minority worker — which may serve only a handful of batches
    /// all run — inherit an armed hedge delay from the rest of the
    /// fleet instead of never reaching `min_samples` on its own.
    hist: RatioHist,
    gray: GrayStats,
}

impl FailoverState {
    fn new(workers: &[Box<dyn ServiceHook>], cfg: &ServeConfig) -> FailoverState {
        let nameplate_rps: f64 = workers.iter().map(|w| worker_rps(w.as_ref())).sum();
        let base_window = if cfg.gray.quarantine { QUARANTINE_WINDOW } else { Duration::ZERO };
        FailoverState {
            health: workers.iter().map(|_| Health::new()).collect(),
            gated: vec![false; workers.len()],
            not_ready: vec![None; workers.len()],
            ready_floor: vec![SimTime::ZERO; workers.len()],
            nameplate_rps,
            live_rps: nameplate_rps,
            eff_capacity: cfg.queue_capacity,
            fill_limit: cfg.max_batch,
            stats: FaultStats::default(),
            quarantined: vec![None; workers.len()],
            probation: vec![false; workers.len()],
            outlier_run: vec![0; workers.len()],
            quar_window: vec![base_window; workers.len()],
            hist: RatioHist::new(),
            gray: GrayStats::default(),
        }
    }

    /// Worker `i` is out of the dispatch pool right now: circuit open,
    /// power-gated, still provisioning, or quarantined as fail-slow.
    fn blocked(&self, i: usize) -> bool {
        self.health[i].is_open()
            || self.gated[i]
            || self.not_ready[i].is_some()
            || self.quarantined[i].is_some()
    }

    /// Earliest instant worker `i` may receive a dispatch (`None` = no
    /// floor): breaker cooldown, provisioning delay and quarantine
    /// window all gate it.
    fn floor_of(&self, i: usize) -> Option<SimTime> {
        let floors = [self.health[i].open_until(), self.not_ready[i], self.quarantined[i]];
        if floors.iter().all(Option::is_none) && self.ready_floor[i] == SimTime::ZERO {
            return None;
        }
        Some(floors.into_iter().flatten().fold(self.ready_floor[i], SimTime::max_of))
    }

    /// Worker `i` may be handed a batch at `at` (gates never clear on
    /// their own; floors do once elapsed).
    fn routable_at(&self, i: usize, at: SimTime) -> bool {
        !self.gated[i] && self.floor_of(i).is_none_or(|until| until <= at)
    }

    fn any_blocked(&self) -> bool {
        (0..self.health.len()).any(|i| self.blocked(i))
    }

    /// Recompute surviving capacity and the degraded admission/batching
    /// limits after a circuit or scaling state change. With every
    /// circuit closed and no sticks gated this restores the configured
    /// limits exactly.
    fn recompute_degradation(&mut self, workers: &[Box<dyn ServiceHook>], cfg: &ServeConfig) {
        if !self.any_blocked() {
            self.live_rps = self.nameplate_rps;
            self.eff_capacity = cfg.queue_capacity;
            self.fill_limit = cfg.max_batch;
            return;
        }
        let dead: Vec<bool> = (0..workers.len()).map(|i| self.blocked(i)).collect();
        self.live_rps = live_capacity_rps(workers, &dead);
        let frac = if self.nameplate_rps > 0.0 { self.live_rps / self.nameplate_rps } else { 0.0 };
        self.eff_capacity = ((cfg.queue_capacity as f64 * frac).floor() as usize).max(1);
        self.fill_limit = cfg.max_batch.min(live_preferred_batch(workers, &dead)).max(1);
    }

    /// Estimated completion instant of a fresh arrival at `at`, given
    /// the backlog ahead of it and the fastest surviving worker.
    fn deadline_estimate(
        &self,
        at: SimTime,
        backlog: usize,
        workers: &[Box<dyn ServiceHook>],
    ) -> Option<SimTime> {
        if self.live_rps <= 0.0 {
            return None; // no surviving capacity: hopeless
        }
        let queue_wait = Duration::from_secs(backlog as f64 / self.live_rps);
        let service = (0..workers.len())
            .filter(|&i| !self.blocked(i))
            .map(|i| workers[i].estimate(1))
            .min()?;
        Some(at + queue_wait + service)
    }
}

/// Dispatch plan: worker index plus the instant the batch is handed
/// over. Pure — the round-robin cursor only advances when a plan is
/// executed. Open-circuit workers are skipped unless their cooldown has
/// elapsed by `ready` (making them probe candidates); provisioning
/// sticks likewise become routable once their `not_ready` floor passes.
/// Power-gated sticks are never candidates — only a controller
/// `ScaleUp` brings them back. When *every* worker is blocked the plan
/// waits for the earliest floor among the non-gated ones.
fn choose_worker(
    policy: DispatchPolicy,
    ready: SimTime,
    batch: usize,
    workers: &[Box<dyn ServiceHook>],
    rr_cursor: usize,
    fo: &FailoverState,
) -> (usize, SimTime) {
    // Breaker cooldown, provisioning delay and quarantine windows all
    // floor a worker's next dispatch ([`FailoverState::floor_of`]).
    let routable = |i: usize| -> bool { fo.routable_at(i, ready) };
    if !(0..workers.len()).any(&routable) {
        // Everyone is blocked: wait for the earliest floor and probe.
        let w = (0..workers.len())
            .filter(|&i| !fo.gated[i])
            .min_by_key(|&i| (fo.floor_of(i).expect("blocked worker has a floor"), i))
            .expect("min_live keeps at least one worker un-gated");
        let until = fo.floor_of(w).expect("blocked");
        return (w, SimTime::max_of(SimTime::max_of(ready, until), workers[w].busy_until()));
    }
    match policy {
        DispatchPolicy::RoundRobin => {
            let w = (0..workers.len())
                .map(|k| (rr_cursor + k) % workers.len())
                .find(|&i| routable(i))
                .expect("some worker is routable");
            (w, SimTime::max_of(ready, workers[w].busy_until()))
        }
        DispatchPolicy::LeastOutstanding => {
            let w = (0..workers.len())
                .filter(|&i| routable(i))
                .min_by_key(|&i| (workers[i].busy_until(), i))
                .expect("some worker is routable");
            (w, SimTime::max_of(ready, workers[w].busy_until()))
        }
        DispatchPolicy::CostAware => {
            let w = (0..workers.len())
                .filter(|&i| routable(i))
                .min_by_key(|&i| {
                    let b = clamp_batch(batch, workers[i].as_ref());
                    let start = SimTime::max_of(ready, workers[i].busy_until());
                    (start + workers[i].estimate(b), i)
                })
                .expect("some worker is routable");
            (w, SimTime::max_of(ready, workers[w].busy_until()))
        }
    }
}

fn clamp_batch(batch: usize, worker: &dyn ServiceHook) -> usize {
    let cap = worker.max_batch().unwrap_or(usize::MAX).min(worker.preferred_batch());
    batch.min(cap).max(1)
}

/// `t + d` without overflow (the dispatch-timeout horizon).
fn saturating_add(t: SimTime, d: Duration) -> SimTime {
    SimTime(t.nanos().saturating_add(d.nanos()))
}

/// Run the serving loop: `n` open-loop arrivals from `process` against
/// `workers`, under `cfg`. Arrivals start at the fleet-ready epoch (the
/// latest worker boot instant), so cold-start time is not billed to the
/// first requests.
pub fn serve(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
) -> ServeOutcome {
    Run::new(workers, cfg, &mut NullRecorder, None, None).serve(process, n)
}

/// [`serve`] with a closed-loop autoscaler: every `scaling.tick` of
/// virtual time the `policy` sees a [`ScaleSignals`] snapshot and may
/// drain (power-gate) or re-provision the elastic sticks in
/// `scaling.elastic`. A policy that always holds yields the exact
/// static-fleet outcome — actuation, not observation, is the only way
/// the controller touches the run.
pub fn serve_autoscaled(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    scaling: &ScalingConfig,
    policy: &mut dyn ScalingPolicy,
) -> ServeOutcome {
    let ctrl = CtrlState::new(scaling, workers, policy);
    Run::new(workers, cfg, &mut NullRecorder, None, Some(ctrl)).serve(process, n)
}

/// [`serve`] with observability: identical outcome (the recorder never
/// influences timing or RNG state), plus the captured event stream,
/// sampled time series and metric registry.
pub fn serve_observed(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    ocfg: &ObsConfig,
) -> (ServeOutcome, ServeObservation) {
    observed_core(workers, cfg, process, n, ocfg, None)
}

/// [`serve_autoscaled`] with observability. The exported time series
/// carries the `live_sticks` / `scale_events` columns (static runs omit
/// them, byte-for-byte), and the trace gains `Drain` / `ScaleDown` /
/// `ScaleUp` events plus power lanes that go dark while a stick is
/// gated.
pub fn serve_autoscaled_observed(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    scaling: &ScalingConfig,
    policy: &mut dyn ScalingPolicy,
    ocfg: &ObsConfig,
) -> (ServeOutcome, ServeObservation) {
    observed_core(workers, cfg, process, n, ocfg, Some((scaling, policy)))
}

fn observed_core(
    workers: &mut [Box<dyn ServiceHook>],
    cfg: &ServeConfig,
    process: &ArrivalProcess,
    n: usize,
    ocfg: &ObsConfig,
    scaling: Option<(&ScalingConfig, &mut dyn ScalingPolicy)>,
) -> (ServeOutcome, ServeObservation) {
    assert!(!workers.is_empty(), "need at least one worker");
    let epoch = workers.iter().map(|w| w.busy_until()).max().expect("fleet is non-empty");
    let labels = workers.iter().map(|w| w.label()).collect();
    let mut series = TimeSeriesBuilder::new(labels, epoch, ocfg.sample_every, cfg.slo);
    let ctrl = scaling.map(|(s, policy)| CtrlState::new(s, workers, policy));
    if ctrl.is_some() {
        // Every worker starts live; scale events adjust from there.
        series.enable_scaling(workers.len());
    }
    let mut obs = ObsAccum { series, peak: 0 };
    // Recorder stack, all passive: the base sink is either the full
    // event log or a tail-sampling recorder, teed into the always-on
    // flight-recorder ring; with the profiler on, the stack is wrapped
    // to meter the record() path (events forwarded + wall ns). None of
    // the layers influence timing or RNG state, so the outcome is
    // identical whichever stack is active.
    let mut full_log: Option<EventLog> = None;
    let mut sampler: Option<SamplingRecorder> = None;
    let mut flight = FlightRecorder::default();
    let outcome = {
        let base: &mut dyn Recorder = match &ocfg.sample {
            Some(policy) => {
                sampler.insert(SamplingRecorder::new(policy.clone(), cfg.seed, cfg.slo))
            }
            None => full_log.insert(EventLog::new()),
        };
        let mut tee = Tee { a: base, b: &mut flight };
        if prof::enabled() {
            let mut profiled = ProfiledRecorder::new(&mut tee);
            Run::new(workers, cfg, &mut profiled, Some(&mut obs), ctrl).serve(process, n)
        } else {
            Run::new(workers, cfg, &mut tee, Some(&mut obs), ctrl).serve(process, n)
        }
    };
    let (mut events, sample) = match sampler {
        Some(s) => {
            let (log, stats) = s.finish();
            (log, Some(stats))
        }
        None => (full_log.unwrap_or_default(), None),
    };
    // Every column but queue depth comes off the run's books. Each
    // request ends in exactly one record, which carries its arrival.
    let o = &outcome;
    let series = obs.series.finish(
        o.end(),
        o.completed.iter().map(|r| (r.completed, r.latency())),
        o.completed.iter().map(|r| r.arrival).chain(o.shed.iter().map(|r| r.arrival)),
        o.shed.iter().map(|r| r.shed_at),
        &o.faults.outages,
        &o.energy,
    );
    let mut registry = registry_of(&outcome, obs.peak);
    // Power lanes + energy counters come straight off the run's ledger,
    // so the exported trace alone re-integrates the exact same
    // picojoule totals the server reports.
    let horizon = outcome.energy_horizon();
    outcome.energy.record_into(&mut events, horizon);
    outcome.energy.register(&mut registry, horizon);
    (outcome, ServeObservation { events, series, registry, sample, flight })
}

/// `Ctx` of a worker-lane event, optionally tied to a batch.
fn worker_ctx(w: usize, batch: Option<u64>) -> Ctx {
    Ctx { batch_id: batch, worker: Some(w as u32), ..Ctx::NONE }
}

/// One serving run: the fleet, its observers and all per-run state.
/// [`Run::serve`] handles one event per pass; each event, and each way
/// a request can end, has exactly one method.
struct Run<'a> {
    workers: &'a mut [Box<dyn ServiceHook>],
    cfg: &'a ServeConfig,
    rec: &'a mut dyn Recorder,
    /// Time series and queue-depth peak (observed runs only).
    obs: Option<&'a mut ObsAccum>,
    /// The autoscaling controller (autoscaled runs only).
    ctrl: Option<CtrlState<'a>>,
    /// Fleet-ready instant the arrival clock starts from.
    epoch: SimTime,
    fo: FailoverState,
    /// Passive energy ledger: one power profile per worker, charged for
    /// every span a device actually burns (served batches, timed-out
    /// work, fail-fast probes). Charges are clipped, so a probe span
    /// overlapping the next dispatch never double-counts.
    meter: EnergyMeter,
    stats: Vec<WorkerStats>,
    queue: VecDeque<Pending>,
    completed: Vec<RequestRecord>,
    shed: Vec<ShedRecord>,
    /// Backoff jitter stream: created eagerly (pure), drawn from only on
    /// failure, so a fault-free run's RNG state is untouched. Boxed so
    /// the struct need not name the stream's type.
    jitter_rng: Box<dyn RngCore>,
    rr_cursor: usize,
    batch_seq: u64,
    /// Host-side self-observability: every pass of the loop handles
    /// exactly one event (arrival, dispatch or controller tick), so the
    /// pass count *is* the sim-event count — deterministic, and the
    /// numerator of the events/sec throughput meter. The prof scopes
    /// are wall-clock only and cost one thread-local boolean when
    /// disabled.
    sim_events: u64,
}

impl<'a> Run<'a> {
    fn new(
        workers: &'a mut [Box<dyn ServiceHook>],
        cfg: &'a ServeConfig,
        rec: &'a mut dyn Recorder,
        obs: Option<&'a mut ObsAccum>,
        ctrl: Option<CtrlState<'a>>,
    ) -> Run<'a> {
        assert!(!workers.is_empty(), "need at least one worker");
        assert!(cfg.queue_capacity > 0, "queue capacity must be positive");
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        assert!(cfg.robust.max_attempts > 0, "max_attempts must be positive");
        let epoch = workers.iter().map(|w| w.busy_until()).max().expect("fleet is non-empty");
        let stats = workers
            .iter()
            .map(|w| WorkerStats {
                label: w.label(),
                batches: 0,
                images: 0,
                busy: Duration::ZERO,
                ready_at: w.busy_until(),
                failures: 0,
            })
            .collect();
        let meter = EnergyMeter::new(workers.iter().map(|w| w.energy_profile()).collect(), epoch);
        let fo = FailoverState::new(workers, cfg);
        Run {
            workers,
            cfg,
            rec,
            obs,
            ctrl,
            epoch,
            fo,
            meter,
            stats,
            queue: VecDeque::new(),
            completed: Vec::new(),
            shed: Vec::new(),
            jitter_rng: Box::new(vpu_num::rng::stream(cfg.seed, "serve-backoff")),
            rr_cursor: 0,
            batch_seq: 0,
            sim_events: 0,
        }
    }

    /// Serve `n` arrivals from `process`. Each pass plans the next
    /// dispatch, then handles the earliest event: a controller tick, an
    /// arrival (arrivals win ties with a dispatch, so a request landing
    /// exactly at a dispatch instant still joins the batch) or the
    /// dispatch itself, until arrivals and queue are both exhausted.
    fn serve(mut self, process: &ArrivalProcess, n: usize) -> ServeOutcome {
        let arrivals = process.arrivals(n, self.epoch, self.cfg.seed);
        if let Some(c) = &mut self.ctrl {
            c.prime(&arrivals, self.epoch);
        }
        self.completed.reserve(n);
        let _prof_loop = prof::scope("serve.loop");
        let mut next = 0usize; // next arrival index
        loop {
            let plan = self.plan();
            let arrival = arrivals.get(next).copied();
            // Controller tick: fires before any arrival or dispatch at or
            // after it (ties go to the tick), then the plan is recomputed
            // against the post-tick fleet. Once the run is out of work the
            // controller stops with it.
            let next_event = arrival.into_iter().chain(plan.map(|(_, t)| t)).min();
            if next_event.is_some_and(|e| self.ctrl.as_ref().is_some_and(|c| c.next_tick <= e)) {
                self.tick();
                continue;
            }
            match (arrival, plan) {
                (Some(at), p) if p.is_none_or(|(_, t)| at <= t) => {
                    self.arrive(next as u64, at);
                    next += 1;
                }
                (_, Some((w, t))) => self.dispatch(w, t),
                _ => break,
            }
        }
        ServeOutcome {
            epoch: self.epoch,
            generated: n,
            completed: self.completed,
            shed: self.shed,
            workers: self.stats,
            faults: self.fo.stats,
            gray: self.fo.gray,
            energy: self.meter,
            scaling: self.ctrl.map(|c| c.stats),
            sim_events: self.sim_events,
        }
    }

    /// Record `ev` when the recorder is on.
    fn record(&mut self, ev: Event) {
        if self.rec.enabled() {
            self.rec.record(ev);
        }
    }

    /// Record an instant on worker `w`'s lane, optionally tied to a
    /// batch.
    fn record_on_worker(&mut self, phase: Phase, w: usize, at: SimTime, batch: Option<u64>) {
        self.record(Event::instant(phase, Lane::Worker(w as u32), at, worker_ctx(w, batch)));
    }

    /// Feed the live half of an observed run's time series (queue depth,
    /// batch spans, scale transitions) and its queue-depth peak.
    fn observe(&mut self, f: impl FnOnce(&mut ObsAccum)) {
        if let Some(o) = self.obs.as_deref_mut() {
            f(o);
        }
    }

    fn recompute_degradation(&mut self) {
        self.fo.recompute_degradation(self.workers, self.cfg);
    }

    /// Earliest instant the queue head could be dispatched, and to
    /// whom: batch-full close (the arrival that filled it) or the
    /// oldest member's deadline, whichever fires first — floored by the
    /// head's retry backoff.
    fn plan(&self) -> Option<(usize, SimTime)> {
        let _sp = prof::scope("serve.plan");
        let front = self.queue.front()?;
        let fill = self.fo.fill_limit;
        let deadline = front.arrival + self.cfg.max_wait;
        let ready = if self.queue.len() >= fill {
            self.queue[fill - 1].arrival.min(deadline)
        } else {
            deadline
        };
        let ready = SimTime::max_of(ready, front.earliest);
        let hint = self.queue.len().min(fill);
        Some(choose_worker(self.cfg.policy, ready, hint, self.workers, self.rr_cursor, &self.fo))
    }

    /// Controller tick: flip provisioned sticks live, close the outcome
    /// bucket, ask the policy, and actuate its decision.
    fn tick(&mut self) {
        let _sc = prof::scope("serve.ctrl_tick");
        self.sim_events += 1;
        let mut ctrl = self.ctrl.take().expect("ticks fire on autoscaled runs only");
        let tk = ctrl.next_tick;
        ctrl.next_tick = tk + ctrl.cfg.tick;
        ctrl.stats.ticks += 1;
        // Provisioning sticks whose delay elapsed become dispatchable.
        let mut changed = false;
        for &w in &ctrl.cfg.elastic {
            if let ScaleState::Provisioning { ready_at } = ctrl.state[w] {
                if ready_at <= tk {
                    ctrl.state[w] = ScaleState::Live;
                    self.fo.not_ready[w] = None;
                    changed = true;
                }
            }
        }
        if changed {
            self.recompute_degradation();
        }
        ctrl.close_bucket(tk);
        let signals = ctrl.signals(tk, self.queue.len(), &self.fo);
        match ctrl.policy.decide(&signals) {
            ScaleDecision::Hold => {}
            ScaleDecision::Down(k) => self.scale_down(&mut ctrl, tk, &signals, k),
            ScaleDecision::Up(k) => self.scale_up(&mut ctrl, tk, &signals, k),
        }
        self.ctrl = Some(ctrl);
    }

    /// Drain the highest-index live sticks, never below the floor.
    /// Dispatches stop now; the gate lands when the stick's backlog
    /// does — dispatch is synchronous, so every worker's `busy_until`
    /// is already final.
    fn scale_down(&mut self, ctrl: &mut CtrlState, tk: SimTime, signals: &ScaleSignals, k: usize) {
        let committed = signals.live + signals.provisioning;
        let allowed = committed.saturating_sub(ctrl.cfg.min_live).min(k);
        let victims: Vec<usize> = ctrl
            .cfg
            .elastic
            .iter()
            .rev()
            .copied()
            .filter(|&w| ctrl.state[w] == ScaleState::Live)
            .take(allowed)
            .collect();
        for &w in &victims {
            let gate_at = SimTime::max_of(tk, self.workers[w].busy_until());
            ctrl.state[w] = ScaleState::Gated { since: gate_at };
            self.fo.gated[w] = true;
            self.meter.power_off(w as u32, gate_at);
            ctrl.stats.scale_downs += 1;
            self.record_on_worker(Phase::Drain, w, tk, None);
            self.record_on_worker(Phase::ScaleDown, w, gate_at, None);
        }
        if !victims.is_empty() {
            self.observe(|o| o.series.scale_event(tk, -(victims.len() as i64), 1));
            self.recompute_degradation();
        }
    }

    /// Power the lowest-index gated sticks back on. Sticks still
    /// draining (gate instant ahead of this tick) are skipped —
    /// re-upping one inside its own drain window would be flap, and
    /// skipping keeps every power window strictly ordered.
    fn scale_up(&mut self, ctrl: &mut CtrlState, tk: SimTime, signals: &ScaleSignals, k: usize) {
        let picks: Vec<usize> = ctrl
            .cfg
            .elastic
            .iter()
            .copied()
            .filter(|&w| matches!(ctrl.state[w], ScaleState::Gated { since } if since < tk))
            .take(k)
            .collect();
        for &w in &picks {
            let ready_at = tk + ctrl.cfg.provision_delay;
            ctrl.state[w] = ScaleState::Provisioning { ready_at };
            self.fo.gated[w] = false;
            self.fo.not_ready[w] = Some(ready_at);
            self.fo.ready_floor[w] = ready_at;
            // Provisioning draws idle power from the decision on.
            self.meter.power_on(w as u32, tk);
            ctrl.stats.scale_ups += 1;
            if signals.open_circuits > 0 {
                ctrl.stats.replacements += 1;
            }
            self.record(Event::span(
                Phase::ScaleUp,
                Lane::Worker(w as u32),
                tk,
                ready_at,
                worker_ctx(w, None),
            ));
            self.observe(|o| o.series.scale_event(ready_at, 1, 0));
        }
        if !picks.is_empty() {
            self.observe(|o| o.series.scale_event(tk, 0, 1));
            self.recompute_degradation();
        }
    }

    /// Request `id` arrives at `at`: admit it, or shed it — or, under
    /// [`ShedPolicy::DropOldest`], evict the queue head to make room.
    fn arrive(&mut self, id: u64, at: SimTime) {
        let _sa = prof::scope("serve.arrival");
        self.sim_events += 1;
        let depth = self.queue.len();
        self.observe(|o| o.series.advance(at, depth));
        if let Some(c) = &mut self.ctrl {
            c.cur.arrived += 1;
        }
        self.record(Event::instant(Phase::Arrive, Lane::Server, at, Ctx::request(id)));
        let refuse = |cause| ShedRecord { id, arrival: at, shed_at: at, cause };
        if self.queue.len() >= self.fo.eff_capacity {
            if self.cfg.shed != ShedPolicy::DropOldest {
                self.shed(refuse(ShedCause::Rejected), None);
                return;
            }
            let old = self.queue.pop_front().expect("a full queue has a head");
            let evicted = ShedRecord {
                id: old.id,
                arrival: old.arrival,
                shed_at: at,
                cause: ShedCause::Evicted,
            };
            self.shed(evicted, None);
        }
        // Deadline-aware admission: don't accept work that is already
        // hopeless given backlog + surviving capacity.
        if self.cfg.shed == ShedPolicy::DeadlineAware
            && self
                .fo
                .deadline_estimate(at, self.queue.len(), self.workers)
                .is_none_or(|est| est > at + self.cfg.slo)
        {
            self.shed(refuse(ShedCause::Deadline), None);
            return;
        }
        self.queue.push_back(Pending { id, arrival: at, attempts: 0, earliest: at });
        let depth = self.queue.len();
        self.observe(|o| o.peak = o.peak.max(depth));
        self.record(Event::instant(Phase::Admit, Lane::Server, at, Ctx::request(id)));
        self.record(Event::instant(Phase::Enqueue, Lane::Queue, at, Ctx::request(id)));
    }

    /// Close a batch at `t` and hand it to worker `w`; every member
    /// then completes, retries or is shed.
    fn dispatch(&mut self, w: usize, t: SimTime) {
        let _sd = prof::scope("serve.dispatch");
        self.sim_events += 1;
        if self.cfg.policy == DispatchPolicy::RoundRobin {
            self.rr_cursor += 1;
        }
        self.readmit(w, t);
        // Replanning can move the dispatch instant *earlier* than a
        // previously admitted arrival (e.g. cost-aware estimates shift
        // as the queue grows), so a batch closing at `t` may only take
        // members that had arrived by `t`. The front always qualifies:
        // every close instant is >= its arrival and >= its backoff floor.
        let eligible = self
            .queue
            .iter()
            .take(self.fo.fill_limit)
            .take_while(|p| p.arrival <= t && p.earliest <= t)
            .count();
        debug_assert!(eligible >= 1, "batch closed before its oldest member was ready");
        let size = clamp_batch(eligible, self.workers[w].as_ref());
        let depth = self.queue.len();
        self.observe(|o| o.series.advance(t, depth));
        let members: Vec<Pending> = self.queue.drain(..size).collect();
        let bid = self.batch_seq;
        self.batch_seq += 1;
        let ids: Vec<u64> =
            if self.rec.enabled() { members.iter().map(|m| m.id).collect() } else { Vec::new() };
        for &id in &ids {
            let ctx = Ctx::request(id).with_batch(bid).with_worker(w as u32);
            self.record(Event::instant(Phase::BatchClose, Lane::Queue, t, ctx));
            self.record(Event::instant(Phase::Dispatch, Lane::Worker(w as u32), t, ctx));
        }
        let timeout_at = saturating_add(t, DISPATCH_TIMEOUT);
        let obs = &mut BatchObs { rec: &mut *self.rec, batch_id: bid, worker: w as u32, ids: &ids };
        let run = self.workers[w].try_serve_obs(size, t, obs);
        let gray = &self.cfg.gray;
        let (w, run) = match run {
            Ok(primary) if gray.hedge || gray.quarantine => {
                let (w, run) = self.defend(w, size, bid, &ids, primary);
                (w, Ok(run))
            }
            other => (w, other),
        };
        // Per-batch dispatch timeout: a batch whose results land too
        // late is declared failed (the work — and its energy — is
        // wasted; the device really ran the span).
        let run = match run {
            Ok(r) if r.end > timeout_at => {
                self.stats[w].busy += r.end - r.start;
                self.meter.charge(w as u32, r.start, r.end, bid, true);
                Err(ServeError { at: timeout_at, kind: FailureKind::Timeout })
            }
            other => other,
        };
        match run {
            Ok(run) => self.complete(w, t, bid, members, run),
            Err(e) => {
                let detect = SimTime::max_of(t, e.at.min(timeout_at));
                self.fail(w, t, bid, members, ServeError { at: detect, ..e });
            }
        }
    }

    /// A dispatch to a worker whose breaker cooldown or quarantine
    /// window elapsed is its probe.
    fn readmit(&mut self, w: usize, t: SimTime) {
        // Half-open transition: the circuit counts as closed from here —
        // a failed probe reopens it.
        if self.fo.health[w].is_open() {
            self.fo.health[w].circuit = Circuit::HalfOpen;
            let mut outages = self.fo.stats.outages.iter_mut().rev();
            if let Some(o) = outages.find(|o| o.worker == w && o.until.is_none()) {
                o.until = Some(t);
            }
            self.recompute_degradation();
            self.record_on_worker(Phase::CircuitClose, w, t, None);
        }
        // Quarantine expiry: this dispatch is the probation probe. The
        // worker re-enters the pool; its next latency outlier
        // re-quarantines it immediately with an escalated window, while
        // a clean batch clears probation and resets the window.
        if self.fo.quarantined[w].is_some() {
            self.fo.quarantined[w] = None;
            self.fo.probation[w] = true;
            self.fo.gray.probations += 1;
            self.recompute_degradation();
            self.record_on_worker(Phase::Probation, w, t, None);
        }
    }

    /// Gray-failure defenses on a successful primary run on `pw`: hedge
    /// a span that blew past the learned quantile delay, then score the
    /// primary's span for the fail-slow quarantine. Returns the worker
    /// and run whose results the batch takes.
    fn defend(
        &mut self,
        pw: usize,
        size: usize,
        bid: u64,
        ids: &[u64],
        primary: BatchRun,
    ) -> (usize, BatchRun) {
        let est = self.workers[pw].estimate(size);
        let hedged = self.hedge(pw, size, bid, ids, &primary, est);
        let span = primary.end - primary.start;
        self.fo.hist.record(span.nanos(), est.nanos());
        self.score_fail_slow(pw, bid, primary.end, span, est);
        hedged.unwrap_or((pw, primary))
    }

    /// Hedge the batch onto a second worker once the primary's span
    /// passes the hedge delay. Whichever copy completes first wins; the
    /// loser's span is charged as wasted energy. Returns the duplicate
    /// when it wins.
    fn hedge(
        &mut self,
        pw: usize,
        size: usize,
        bid: u64,
        ids: &[u64],
        primary: &BatchRun,
        est: Duration,
    ) -> Option<(usize, BatchRun)> {
        if !self.cfg.gray.hedge {
            return None;
        }
        // The hedge decision may only use ratios from *earlier*
        // batches; this span is recorded after.
        let fp = self.fo.hist.quantile_fp(HEDGE_QUANTILE, HEDGE_MIN_SAMPLES)?;
        let delay_ns = (fp.saturating_mul(est.nanos()) / RATIO_FP).max(HEDGE_MIN_DELAY.nanos());
        let hat = primary.start + Duration::from_nanos(delay_ns);
        if primary.end <= hat {
            return None;
        }
        // Only a fully healthy worker may serve the duplicate: an
        // open-circuit or quarantined worker past its cooldown is
        // `routable_at` as a half-open/probation *probe*, but that
        // transition is the primary dispatch path's job — a hedge must
        // beat the primary's tail, not gamble it on an unproven device.
        let h = (0..self.workers.len())
            .filter(|&i| i != pw && !self.fo.blocked(i) && self.fo.routable_at(i, hat))
            .min_by_key(|&i| (self.workers[i].busy_until(), i))?;
        self.fo.gray.hedges += 1;
        let hctx = worker_ctx(h, Some(bid));
        let lane = Lane::Worker(h as u32);
        let obs = &mut BatchObs { rec: &mut *self.rec, batch_id: bid, worker: h as u32, ids };
        match self.workers[h].try_serve_obs(size, hat, obs) {
            Ok(hrun) => {
                self.record(Event::span(Phase::Hedge, lane, hat, hrun.end, hctx));
                if hrun.end < primary.end {
                    // The duplicate wins: take its results (and its wire
                    // faults), waste the primary's span.
                    self.fo.gray.hedge_wins += 1;
                    self.record(Event::instant(Phase::HedgeWin, lane, hrun.end, hctx));
                    self.waste(pw, primary.start, primary.end, bid);
                    return Some((h, hrun));
                }
                self.fo.gray.hedge_cancels += 1;
                self.record(Event::instant(Phase::HedgeCancel, lane, primary.end, hctx));
                self.waste(h, hrun.start, hrun.end, bid);
            }
            Err(e) => {
                // A failed hedge never hurts the primary (its result is
                // in hand) and never feeds the breaker; the probe's
                // detection span is wasted energy.
                self.fo.gray.hedge_cancels += 1;
                let det = SimTime::max_of(hat, e.at);
                self.waste(h, hat, det, bid);
                self.record(Event::span(Phase::Hedge, lane, hat, det, hctx));
                self.record(Event::instant(Phase::HedgeCancel, lane, det, hctx));
            }
        }
        None
    }

    /// A losing hedge copy really ran on a device: charge its busy time
    /// and its energy, as wasted.
    fn waste(&mut self, w: usize, from: SimTime, to: SimTime, bid: u64) {
        self.stats[w].busy += to - from;
        if let Some(sp) = self.meter.charge(w as u32, from, to, bid, true) {
            let span_ns = (sp.end - sp.start).nanos();
            self.fo.gray.hedge_wasted_pj += self.meter.profiles()[w].energy_pj(span_ns, 0);
        }
    }

    /// Fail-slow scoring of the primary worker `pw`, whose batch ended
    /// at `pend` after `span`: enough consecutive outliers (or one while
    /// on probation) quarantine it from `pend`, which is causally safe —
    /// its backlog already extends to `pend`, so no earlier dispatch can
    /// exist.
    fn score_fail_slow(
        &mut self,
        pw: usize,
        bid: u64,
        pend: SimTime,
        span: Duration,
        est: Duration,
    ) {
        if !self.cfg.gray.quarantine {
            return;
        }
        let fo = &mut self.fo;
        if est == Duration::ZERO || span <= est * QUARANTINE_OUTLIER_FACTOR {
            fo.outlier_run[pw] = 0;
            if fo.probation[pw] {
                fo.probation[pw] = false;
                fo.quar_window[pw] = QUARANTINE_WINDOW;
            }
            return;
        }
        fo.outlier_run[pw] += 1;
        if !fo.probation[pw] && fo.outlier_run[pw] < QUARANTINE_THRESHOLD {
            return;
        }
        let window = fo.quar_window[pw];
        fo.quarantined[pw] = Some(pend + window);
        fo.quar_window[pw] = (window * QUARANTINE_BACKOFF).min(QUARANTINE_WINDOW_MAX);
        fo.probation[pw] = false;
        fo.outlier_run[pw] = 0;
        fo.gray.quarantines += 1;
        self.recompute_degradation();
        self.record_on_worker(Phase::Quarantine, pw, pend, Some(bid));
    }

    /// A batch dispatched at `t` landed on worker `w`: close its
    /// circuit, book the span, then deliver each result — or, when
    /// verification rejects it, retry or shed its request.
    fn complete(
        &mut self,
        w: usize,
        t: SimTime,
        bid: u64,
        members: Vec<Pending>,
        mut run: BatchRun,
    ) {
        let size = members.len();
        debug_assert!(run.start >= t && run.done.len() == size);
        self.stats[w].batches += 1;
        self.stats[w].images += size as u64;
        self.stats[w].busy += run.end - run.start;
        let health = &mut self.fo.health[w];
        if health.circuit == Circuit::HalfOpen {
            health.cooldown = BREAKER_COOLDOWN;
        }
        health.consecutive_failures = 0;
        health.circuit = Circuit::Closed;
        self.meter.charge(w as u32, run.start, run.end, bid, false);
        self.observe(|o| o.series.on_batch(w, run.start, run.end));
        // Wire-integrity processing: the device may have corrupted,
        // duplicated or dropped individual result slots
        // ([`ncsw::service::WireReport`]). With verification on,
        // per-request sequence tags + checksums reject bad completions —
        // the request retries (or sheds once out of attempts) instead of
        // surfacing garbage. With it off, corrupt results reach the
        // client and dropped slots surface at the batch horizon.
        // Duplicates are idempotent either way: the host keys results by
        // sequence tag, so the second copy lands on the first.
        let wire = run.wire.take().unwrap_or_default();
        let mut requeue: Vec<Pending> = Vec::new();
        for (slot, (m, &done)) in members.iter().zip(&run.done).enumerate() {
            let corrupted = wire.corrupted.contains(&slot);
            let dropped = wire.dropped.contains(&slot);
            let gray = &mut self.fo.gray;
            gray.corrupted_wire += corrupted as u64;
            gray.dups_suppressed += wire.duplicated.contains(&slot) as u64;
            if self.cfg.gray.verify && (corrupted || dropped) {
                // A drop is only detectable once the whole batch lands
                // and the tag gap shows; a bad checksum fails on its own
                // completion.
                let at = if dropped { run.end } else { done };
                gray.integrity_fails += 1;
                gray.drops_detected += dropped as u64;
                let ctx = Ctx::request(m.id).with_batch(bid).with_worker(w as u32);
                self.record(Event::instant(Phase::IntegrityFail, Lane::Worker(w as u32), at, ctx));
                requeue.extend(self.retry_or_shed(m, at, at, bid));
                continue;
            }
            // Unverified drop: the client only sees this result when the
            // batch-horizon flush resends it.
            gray.drops_surfaced += dropped as u64;
            gray.corrupt_surfaced += corrupted as u64;
            self.deliver(
                RequestRecord {
                    id: m.id,
                    arrival: m.arrival,
                    dispatched: t,
                    service_start: run.start,
                    completed: if dropped { run.end } else { done },
                    worker: w,
                    batch: size,
                    attempts: m.attempts + 1,
                },
                bid,
            );
        }
        // Integrity-rejected members re-enter at the queue head, oldest
        // first — the same contract as batch failover.
        for p in requeue.into_iter().rev() {
            self.queue.push_front(p);
        }
    }

    /// One result reaches its client.
    fn deliver(&mut self, r: RequestRecord, bid: u64) {
        if let Some(c) = &mut self.ctrl {
            let kind = if r.latency() > self.cfg.slo { OUTCOME_MISS } else { OUTCOME_GOOD };
            c.outcome(r.completed, kind);
        }
        let ctx = Ctx::request(r.id).with_batch(bid).with_worker(r.worker as u32);
        self.record(Event::instant(Phase::Complete, Lane::Server, r.completed, ctx));
        self.completed.push(r);
    }

    /// A batch dispatched at `t` to worker `w` failed, detected at
    /// `err.at`: feed the breaker, then fail the members over — back to
    /// the queue head (they are the oldest admitted requests, so arrival
    /// order is preserved) behind a seeded exponential backoff with
    /// jitter, or shed once out of attempts.
    fn fail(&mut self, w: usize, t: SimTime, bid: u64, members: Vec<Pending>, err: ServeError) {
        let detect = err.at;
        // Device-originated failures (unplug probes, mid-execution
        // deaths) burn the host-visible detection span at busy power.
        // Timeouts were already charged for the span the device ran.
        if err.kind != FailureKind::Timeout {
            self.meter.charge(w as u32, t, detect, bid, true);
        }
        self.fo.stats.injected += 1;
        self.stats[w].failures += 1;
        self.record_on_worker(Phase::Failover, w, detect, Some(bid));
        self.trip_breaker(w, detect, bid);
        let max_attempt = members.iter().map(|m| m.attempts).max().unwrap_or(0) + 1;
        let exp = BACKOFF_FACTOR.powi(max_attempt as i32 - 1);
        let backoff = (BACKOFF_BASE * exp).min(BACKOFF_MAX);
        let draw: f64 = Rng::r#gen(&mut &mut *self.jitter_rng);
        let earliest = detect + backoff + backoff * (JITTER_FRAC * draw);
        for m in members.iter().rev() {
            if let Some(p) = self.retry_or_shed(m, detect, earliest, bid) {
                self.queue.push_front(p);
            }
        }
    }

    /// Breaker bookkeeping after a failure on `w`: a failed probe
    /// reopens immediately with an escalated cooldown; otherwise
    /// consecutive failures trip the breaker — one failure earlier when
    /// the queue is under pressure (the same depth signal the obs
    /// sampler exports).
    fn trip_breaker(&mut self, w: usize, detect: SimTime, bid: u64) {
        let threshold = if self.queue.len() * 2 >= self.cfg.queue_capacity {
            BREAKER_THRESHOLD - 1
        } else {
            BREAKER_THRESHOLD
        };
        let health = &mut self.fo.health[w];
        health.consecutive_failures += 1;
        let trip = health.circuit == Circuit::HalfOpen
            || (health.circuit == Circuit::Closed && health.consecutive_failures >= threshold);
        if !trip {
            return;
        }
        let cooldown = health.cooldown;
        health.circuit = Circuit::Open { until: detect + cooldown };
        health.cooldown = (cooldown * BREAKER_BACKOFF).min(BREAKER_COOLDOWN_MAX);
        self.fo.stats.outages.push(OutageRecord { worker: w, from: detect, until: None });
        self.recompute_degradation();
        self.record_on_worker(Phase::CircuitOpen, w, detect, Some(bid));
    }

    /// A dispatch attempt of `m` in batch `bid` failed at `at`: shed the
    /// request once it is out of attempts, else count the retry and
    /// return it for requeueing, dispatchable from `earliest`.
    fn retry_or_shed(
        &mut self,
        m: &Pending,
        at: SimTime,
        earliest: SimTime,
        bid: u64,
    ) -> Option<Pending> {
        let attempts = m.attempts + 1;
        if attempts >= self.cfg.robust.max_attempts {
            self.fo.stats.exhausted += 1;
            let cause = ShedCause::RetriesExhausted;
            self.shed(ShedRecord { id: m.id, arrival: m.arrival, shed_at: at, cause }, Some(bid));
            return None;
        }
        self.fo.stats.retries += 1;
        let ctx = Ctx::request(m.id).with_batch(bid);
        self.record(Event::instant(Phase::RetryAttempt, Lane::Server, at, ctx));
        Some(Pending { id: m.id, arrival: m.arrival, attempts, earliest })
    }

    /// Shed one request: record the `Shed` event, feed the controller,
    /// and keep the record. Admission refusals (`Rejected`, `Deadline`)
    /// are an instant on the server lane; evictions and exhausted
    /// retries are a queue span from arrival, its length the wait
    /// burned before the decision.
    fn shed(&mut self, r: ShedRecord, batch: Option<u64>) {
        if let Some(c) = &mut self.ctrl {
            c.outcome(r.shed_at, OUTCOME_SHED);
        }
        let ctx = Ctx { request_id: Some(r.id), batch_id: batch, worker: None };
        let ev = match r.cause {
            ShedCause::Rejected | ShedCause::Deadline => {
                Event::instant(Phase::Shed, Lane::Server, r.shed_at, ctx)
            }
            ShedCause::Evicted | ShedCause::RetriesExhausted => {
                Event::span(Phase::Shed, Lane::Queue, r.arrival, r.shed_at, ctx)
            }
        };
        self.record(ev.with_cause(r.cause));
        self.shed.push(r);
    }
}
