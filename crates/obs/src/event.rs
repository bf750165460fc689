//! Structured, virtual-clock-stamped observability events.
//!
//! Every event carries the propagated request context ([`Ctx`]) so one
//! request can be followed from arrival through queueing, batching, USB
//! transfer, SHAVE execution and completion — the per-phase breakdown
//! the paper's Fig. 4 timeline argues from. Events are `Copy` and hold
//! no heap data, so emitting them through a disabled recorder costs a
//! branch and nothing else.

use desim::SimTime;
use serde::{Deserialize, Serialize};

/// Lifecycle phase of a request (or the lane activity serving it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// The open-loop generator produced the request.
    Arrive,
    /// Admission control accepted it.
    Admit,
    /// It entered the bounded request queue.
    Enqueue,
    /// The batch containing it closed (fill or deadline).
    BatchClose,
    /// The batch was handed to a worker.
    Dispatch,
    /// Host→device transfer of its input tensor.
    UsbWrite,
    /// On-device (SHAVE) execution.
    Exec,
    /// Device→host transfer of its result.
    UsbRead,
    /// Its result returned to the host.
    Complete,
    /// Admission control shed it (reject, eviction, deadline or
    /// exhausted retries).
    Shed,
    /// A fault fired on a worker (unplug, throttle, transient error) —
    /// a span covers the virtual time the failed attempt burned.
    FaultInject,
    /// A request was re-enqueued at the queue head after its batch
    /// failed, to be re-planned onto a healthy worker.
    RetryAttempt,
    /// A batch's dispatch failed and its members left the worker — the
    /// event carries the *failed* worker so a trace links it back to
    /// the prior `Dispatch` on that worker.
    Failover,
    /// The circuit breaker opened a worker (stops routing to it).
    CircuitOpen,
    /// The circuit breaker let traffic back (half-open probe or full
    /// close) — no `Exec` may appear on a worker between its
    /// `CircuitOpen` and the next `CircuitClose`.
    CircuitClose,
    /// An SLO burn-rate alert window (multi-window fast/slow burn) —
    /// derived from the sampled time series, not from the serving loop.
    SloAlert,
    /// A power-counter sample on a worker's power lane: the event's
    /// `value` is the worker's draw in integer milliwatts from this
    /// instant until the lane's next sample (exported as a Chrome
    /// `ph:"C"` counter event).
    PowerSample,
    /// The autoscaler stopped dispatching to a worker: from this
    /// instant no `Dispatch` may land on it until a later `ScaleUp`
    /// completes. In-flight batches keep running.
    Drain,
    /// The drained worker's in-flight batches finished and it
    /// power-gated — always at or after the last `Exec` on the worker.
    ScaleDown,
    /// The autoscaler powered a gated worker back on — a span covering
    /// the provisioning delay; the worker is dispatchable from the
    /// span's end.
    ScaleUp,
    /// A speculative duplicate of a batch was dispatched to a second
    /// worker after the hedge delay elapsed without the primary
    /// completing — a span covering the hedge attempt on the hedge
    /// worker's lane.
    Hedge,
    /// The hedged duplicate finished before the primary: the batch's
    /// results come from the hedge worker and the primary's remaining
    /// span is charged as wasted energy.
    HedgeWin,
    /// The primary finished before its hedged duplicate: the
    /// duplicate's span is charged as wasted energy.
    HedgeCancel,
    /// A completed result failed its end-to-end checksum verification
    /// (wire corruption) — the request is re-enqueued or shed, never
    /// surfaced to the client.
    IntegrityFail,
    /// The latency-outlier health score quarantined a fail-slow worker:
    /// no `Exec` may appear on the worker between this instant and the
    /// next `Probation` on it.
    Quarantine,
    /// A quarantined worker re-entered service on probation (the
    /// quarantine window expired); the next outlier re-quarantines it
    /// with an escalated window.
    Probation,
}

impl Phase {
    pub const ALL: [Phase; 26] = [
        Phase::Arrive,
        Phase::Admit,
        Phase::Enqueue,
        Phase::BatchClose,
        Phase::Dispatch,
        Phase::UsbWrite,
        Phase::Exec,
        Phase::UsbRead,
        Phase::Complete,
        Phase::Shed,
        Phase::FaultInject,
        Phase::RetryAttempt,
        Phase::Failover,
        Phase::CircuitOpen,
        Phase::CircuitClose,
        Phase::SloAlert,
        Phase::PowerSample,
        Phase::Drain,
        Phase::ScaleDown,
        Phase::ScaleUp,
        Phase::Hedge,
        Phase::HedgeWin,
        Phase::HedgeCancel,
        Phase::IntegrityFail,
        Phase::Quarantine,
        Phase::Probation,
    ];

    /// The happy-path phase sequence of one request on a VPU worker.
    pub const REQUEST_CHAIN: [Phase; 8] = [
        Phase::Arrive,
        Phase::Admit,
        Phase::BatchClose,
        Phase::Dispatch,
        Phase::UsbWrite,
        Phase::Exec,
        Phase::UsbRead,
        Phase::Complete,
    ];

    /// The canonical phase name — single source of truth for the Chrome
    /// exporter and the trace parser.
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Arrive => "Arrive",
            Phase::Admit => "Admit",
            Phase::Enqueue => "Enqueue",
            Phase::BatchClose => "BatchClose",
            Phase::Dispatch => "Dispatch",
            Phase::UsbWrite => "UsbWrite",
            Phase::Exec => "Exec",
            Phase::UsbRead => "UsbRead",
            Phase::Complete => "Complete",
            Phase::Shed => "Shed",
            Phase::FaultInject => "FaultInject",
            Phase::RetryAttempt => "RetryAttempt",
            Phase::Failover => "Failover",
            Phase::CircuitOpen => "CircuitOpen",
            Phase::CircuitClose => "CircuitClose",
            Phase::SloAlert => "SloAlert",
            Phase::PowerSample => "PowerSample",
            Phase::Drain => "Drain",
            Phase::ScaleDown => "ScaleDown",
            Phase::ScaleUp => "ScaleUp",
            Phase::Hedge => "Hedge",
            Phase::HedgeWin => "HedgeWin",
            Phase::HedgeCancel => "HedgeCancel",
            Phase::IntegrityFail => "IntegrityFail",
            Phase::Quarantine => "Quarantine",
            Phase::Probation => "Probation",
        }
    }

    /// Inverse of [`Phase::name`] — how the analyzer maps an exported
    /// trace back onto the event model.
    pub fn parse(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// Why admission control dropped a request. Carried on every `Shed`
/// event (and surfaced as an `args.cause` string in exported traces) so
/// a trace alone can reproduce the shed breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ShedCause {
    /// Tail-dropped on arrival: the bounded queue was full.
    Rejected,
    /// Evicted from the queue head to admit a newer request.
    Evicted,
    /// Dropped by deadline-aware admission as hopeless against the SLO.
    Deadline,
    /// Dropped after exhausting failover retry attempts.
    RetriesExhausted,
}

impl ShedCause {
    pub const ALL: [ShedCause; 4] =
        [ShedCause::Rejected, ShedCause::Evicted, ShedCause::Deadline, ShedCause::RetriesExhausted];

    pub const fn name(self) -> &'static str {
        match self {
            ShedCause::Rejected => "rejected",
            ShedCause::Evicted => "evicted",
            ShedCause::Deadline => "deadline",
            ShedCause::RetriesExhausted => "retries-exhausted",
        }
    }

    pub fn parse(name: &str) -> Option<ShedCause> {
        ShedCause::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Track an event belongs to. One Chrome-trace track is emitted per
/// distinct lane. `worker` is the fleet slot that owns a device-level
/// lane, so two multi-stick pipelines in one fleet don't collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Lane {
    /// The serving loop itself (arrivals, admission).
    Server,
    /// The bounded request queue.
    Queue,
    /// A whole fleet worker (host devices with no finer structure).
    Worker(u32),
    /// The host thread driving NCS device `dev` of worker `worker`.
    Host { worker: u32, dev: u32 },
    /// On-chip execution of NCS device `dev` of worker `worker`.
    Vpu { worker: u32, dev: u32 },
    /// The USB root controller of worker `worker`'s fabric.
    UsbRoot { worker: u32 },
    /// USB hub `hub` of worker `worker`'s fabric.
    UsbHub { worker: u32, hub: u32 },
    /// Derived SLO burn-rate alert windows (no serving-loop activity).
    Alerts,
    /// Power-counter lane of fleet worker `worker`: a step function of
    /// the worker's draw in milliwatts, sampled at every busy-span
    /// boundary by the energy meter.
    Power(u32),
}

impl Lane {
    /// Stable human-readable track name.
    pub fn name(self) -> String {
        match self {
            Lane::Server => "server".to_string(),
            Lane::Queue => "queue".to_string(),
            Lane::Alerts => "alerts".to_string(),
            Lane::Worker(w) => format!("worker{w}"),
            Lane::Host { worker, dev } => format!("w{worker}.host{dev}"),
            Lane::Vpu { worker, dev } => format!("w{worker}.vpu{dev}"),
            Lane::UsbRoot { worker } => format!("w{worker}.usb-root"),
            Lane::UsbHub { worker, hub } => format!("w{worker}.usb-hub{hub}"),
            Lane::Power(w) => format!("w{w}.power"),
        }
    }

    /// Inverse of [`Lane::name`] — reconstructs the lane from a track
    /// name found in an exported trace's `thread_name` metadata.
    pub fn parse(name: &str) -> Option<Lane> {
        match name {
            "server" => return Some(Lane::Server),
            "queue" => return Some(Lane::Queue),
            "alerts" => return Some(Lane::Alerts),
            _ => {}
        }
        if let Some(w) = name.strip_prefix("worker") {
            return w.parse().ok().map(Lane::Worker);
        }
        let rest = name.strip_prefix('w')?;
        let (worker, tail) = rest.split_once('.')?;
        let worker: u32 = worker.parse().ok()?;
        if tail == "power" {
            return Some(Lane::Power(worker));
        }
        if let Some(dev) = tail.strip_prefix("host") {
            return dev.parse().ok().map(|dev| Lane::Host { worker, dev });
        }
        if let Some(dev) = tail.strip_prefix("vpu") {
            return dev.parse().ok().map(|dev| Lane::Vpu { worker, dev });
        }
        if tail == "usb-root" {
            return Some(Lane::UsbRoot { worker });
        }
        if let Some(hub) = tail.strip_prefix("usb-hub") {
            return hub.parse().ok().map(|hub| Lane::UsbHub { worker, hub });
        }
        None
    }

    /// Display rank used to order tracks in the trace viewer: serving
    /// loop first, then queue, alerts, workers, host threads, chips,
    /// USB lanes.
    pub fn sort_rank(self) -> u32 {
        match self {
            Lane::Server => 0,
            Lane::Queue => 1,
            Lane::Alerts => 2,
            Lane::Worker(w) => 10 + w,
            Lane::Power(w) => 500 + w,
            Lane::Host { worker, dev } => 1_000 + worker * 100 + dev,
            Lane::Vpu { worker, dev } => 10_000 + worker * 100 + dev,
            Lane::UsbRoot { worker } => 100_000 + worker * 100,
            Lane::UsbHub { worker, hub } => 100_000 + worker * 100 + 1 + hub,
        }
    }
}

/// Propagated request context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ctx {
    pub request_id: Option<u64>,
    pub batch_id: Option<u64>,
    pub worker: Option<u32>,
}

impl Ctx {
    pub const NONE: Ctx = Ctx { request_id: None, batch_id: None, worker: None };

    pub fn request(request_id: u64) -> Ctx {
        Ctx { request_id: Some(request_id), ..Ctx::NONE }
    }

    pub fn with_batch(mut self, batch_id: u64) -> Ctx {
        self.batch_id = Some(batch_id);
        self
    }

    pub fn with_worker(mut self, worker: u32) -> Ctx {
        self.worker = Some(worker);
        self
    }
}

/// One observability event: an instant (`end == None`) or a busy span.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    pub phase: Phase,
    pub lane: Lane,
    pub start: SimTime,
    pub end: Option<SimTime>,
    pub ctx: Ctx,
    /// Why a `Shed` event dropped its request; `None` elsewhere.
    pub cause: Option<ShedCause>,
    /// Counter reading of a [`Phase::PowerSample`] event (milliwatts);
    /// `None` for every other phase.
    pub value: Option<u64>,
}

impl Event {
    pub fn instant(phase: Phase, lane: Lane, at: SimTime, ctx: Ctx) -> Event {
        Event { phase, lane, start: at, end: None, ctx, cause: None, value: None }
    }

    pub fn span(phase: Phase, lane: Lane, start: SimTime, end: SimTime, ctx: Ctx) -> Event {
        debug_assert!(end >= start, "span ends before it starts");
        Event { phase, lane, start, end: Some(end), ctx, cause: None, value: None }
    }

    /// A [`Phase::PowerSample`] counter event: the lane reads
    /// `milliwatts` from `at` until its next sample.
    pub fn counter(lane: Lane, at: SimTime, milliwatts: u64, ctx: Ctx) -> Event {
        Event {
            phase: Phase::PowerSample,
            lane,
            start: at,
            end: None,
            ctx,
            cause: None,
            value: Some(milliwatts),
        }
    }

    pub fn with_cause(mut self, cause: ShedCause) -> Event {
        self.cause = Some(cause);
        self
    }

    /// Span end for spans, the instant itself otherwise.
    pub fn finish(&self) -> SimTime {
        self.end.unwrap_or(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_names_are_stable() {
        assert_eq!(Lane::Server.name(), "server");
        assert_eq!(Lane::Worker(3).name(), "worker3");
        assert_eq!(Lane::Host { worker: 2, dev: 1 }.name(), "w2.host1");
        assert_eq!(Lane::UsbHub { worker: 0, hub: 1 }.name(), "w0.usb-hub1");
        assert_eq!(Lane::Power(2).name(), "w2.power");
    }

    #[test]
    fn sort_ranks_group_by_category() {
        assert!(Lane::Server.sort_rank() < Lane::Queue.sort_rank());
        assert!(Lane::Queue.sort_rank() < Lane::Worker(0).sort_rank());
        assert!(Lane::Worker(15).sort_rank() < Lane::Power(0).sort_rank());
        assert!(Lane::Power(15).sort_rank() < Lane::Host { worker: 0, dev: 0 }.sort_rank());
        assert!(
            Lane::Vpu { worker: 0, dev: 7 }.sort_rank() < Lane::UsbRoot { worker: 0 }.sort_rank()
        );
    }

    #[test]
    fn phase_and_cause_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::parse(p.name()), Some(p));
        }
        assert_eq!(Phase::parse("NotAPhase"), None);
        for c in ShedCause::ALL {
            assert_eq!(ShedCause::parse(c.name()), Some(c));
        }
        assert_eq!(ShedCause::parse("unplugged"), None);
    }

    #[test]
    fn lane_names_round_trip() {
        let lanes = [
            Lane::Server,
            Lane::Queue,
            Lane::Alerts,
            Lane::Worker(3),
            Lane::Host { worker: 2, dev: 1 },
            Lane::Vpu { worker: 0, dev: 7 },
            Lane::UsbRoot { worker: 4 },
            Lane::UsbHub { worker: 1, hub: 2 },
            Lane::Power(5),
        ];
        for l in lanes {
            assert_eq!(Lane::parse(&l.name()), Some(l), "{}", l.name());
        }
        assert_eq!(Lane::parse("w1.bus0"), None);
        assert_eq!(Lane::parse("workerx"), None);
    }

    #[test]
    fn shed_cause_rides_on_events() {
        let ev = Event::instant(Phase::Shed, Lane::Server, SimTime(5), Ctx::request(1))
            .with_cause(ShedCause::Rejected);
        assert_eq!(ev.cause, Some(ShedCause::Rejected));
        assert_eq!(Event::instant(Phase::Arrive, Lane::Server, SimTime(5), Ctx::NONE).cause, None);
    }

    #[test]
    fn counter_events_carry_a_milliwatt_value() {
        let ev = Event::counter(Lane::Power(1), SimTime(7), 900, Ctx::NONE.with_batch(3));
        assert_eq!(ev.phase, Phase::PowerSample);
        assert_eq!(ev.value, Some(900));
        assert_eq!(ev.end, None);
        assert_eq!(Event::instant(Phase::Arrive, Lane::Server, SimTime(5), Ctx::NONE).value, None);
    }

    #[test]
    fn ctx_builder_propagates() {
        let c = Ctx::request(7).with_batch(3).with_worker(1);
        assert_eq!(c.request_id, Some(7));
        assert_eq!(c.batch_id, Some(3));
        assert_eq!(c.worker, Some(1));
        assert_eq!(Ctx::NONE, Ctx::default());
    }
}
