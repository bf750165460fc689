//! Span-tree reconstruction: from the flat event stream back to one
//! typed span record per request.
//!
//! The serving loop emits events as they happen, interleaved across
//! requests, batches and lanes. [`SpanForest::build`] groups them back
//! into per-request [`RequestSpan`]s. Two subtleties make this more
//! than a group-by:
//!
//! - A request that failed over was dispatched more than once, and a
//!   *timed-out* attempt still emits full device spans (the work
//!   happened, just too late). Device spans are therefore joined to the
//!   request through the **batch id carried by its `Complete` event** —
//!   every dispatch attempt gets a fresh batch id, so the successful
//!   attempt's spans are unambiguous.
//! - The USB fabric tap mirrors each `UsbWrite` onto the root/hub
//!   lanes with the same request context. Only the `Host` lane span is
//!   the request's transfer; the fabric copies are ignored here.

use desim::{Duration, SimTime};
use ncsw_obs::{EventLog, Lane, OutageRecord, Phase, ShedCause};
use std::collections::BTreeMap;

/// Host-visible device spans of one request's successful attempt.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeviceSpans {
    /// Host→device input transfer (`Host` lane only).
    pub usb_write: Option<(SimTime, SimTime)>,
    /// On-device execution. Per-image (`Vpu` lane) when the worker has
    /// USB-level detail, else the whole batch's `Worker`-lane span.
    pub exec: Option<(SimTime, SimTime)>,
    /// Device→host result transfer.
    pub usb_read: Option<(SimTime, SimTime)>,
}

/// How a request's story ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Completed,
    Shed,
    /// Present in the trace but neither completed nor shed (e.g. a
    /// truncated log).
    Incomplete,
}

/// One request's reconstructed span tree.
#[derive(Debug, Clone, Default)]
pub struct RequestSpan {
    pub id: u64,
    pub arrive: SimTime,
    pub admit: Option<SimTime>,
    /// First `BatchClose` — the instant its first batch formed.
    pub batch_close: Option<SimTime>,
    /// Every dispatch attempt: `(instant, batch, worker)`, in time
    /// order. More than one means the request rode a failover.
    pub dispatches: Vec<(SimTime, Option<u64>, Option<u32>)>,
    /// `RetryAttempt` events observed for this request.
    pub retries: u32,
    pub complete: Option<SimTime>,
    /// Batch id of the successful attempt (from the `Complete` event).
    pub batch: Option<u64>,
    /// Worker that served the successful attempt.
    pub worker: Option<u32>,
    /// Device spans of the successful attempt.
    pub dev: DeviceSpans,
    pub shed_at: Option<SimTime>,
    pub shed_cause: Option<ShedCause>,
}

impl RequestSpan {
    pub fn outcome(&self) -> Outcome {
        if self.complete.is_some() {
            Outcome::Completed
        } else if self.shed_at.is_some() {
            Outcome::Shed
        } else {
            Outcome::Incomplete
        }
    }

    /// End-to-end latency of a completed request.
    pub fn latency(&self) -> Option<Duration> {
        self.complete.map(|c| c.since(self.arrive))
    }

    /// Dispatch instant of the attempt that completed (the one whose
    /// batch id matches the `Complete` event's).
    pub fn final_dispatch(&self) -> Option<SimTime> {
        let b = self.batch?;
        self.dispatches.iter().find(|d| d.1 == Some(b)).map(|d| d.0)
    }
}

/// Every request's span tree plus the run-level side structures.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    pub requests: BTreeMap<u64, RequestSpan>,
    /// Batch-level `Exec` spans (host devices execute whole batches
    /// with no per-image device detail): batch id → span.
    pub batch_exec: BTreeMap<u64, (SimTime, SimTime)>,
    /// Circuit-breaker outage windows, in open order (`None` until =
    /// never re-closed within the trace).
    pub outages: Vec<OutageRecord>,
    /// `SloAlert` windows present in the trace.
    pub alerts: Vec<(SimTime, SimTime)>,
    /// Latest event finish in the log.
    pub end: SimTime,
}

impl SpanForest {
    pub fn build(log: &EventLog) -> SpanForest {
        let mut f = SpanForest { end: log.horizon(), ..SpanForest::default() };
        // Device spans per (request, attempt batch); resolved against
        // the successful batch id after the scan.
        let mut dev: BTreeMap<(u64, u64), DeviceSpans> = BTreeMap::new();
        for ev in log.events() {
            match (ev.phase, ev.ctx.request_id) {
                (Phase::SloAlert, _) => f.alerts.push((ev.start, ev.finish())),
                (Phase::CircuitOpen, _) => {
                    if let Some(worker) = ev.ctx.worker.map(|w| w as usize) {
                        f.outages.push(OutageRecord { worker, from: ev.start, until: None });
                    }
                }
                (Phase::CircuitClose, _) => {
                    let worker = ev.ctx.worker.map(|w| w as usize);
                    let mut open = f.outages.iter_mut().rev().filter(|o| o.until.is_none());
                    if let Some(o) = open.find(|o| Some(o.worker) == worker) {
                        o.until = Some(ev.start);
                    }
                }
                (Phase::Exec, None) => {
                    // Batch-level host execution (no per-image detail).
                    if let (Some(b), Some(end)) = (ev.ctx.batch_id, ev.end) {
                        f.batch_exec.entry(b).or_insert((ev.start, end));
                    }
                }
                (phase, Some(id)) => {
                    let r = f.requests.entry(id).or_insert_with(|| RequestSpan {
                        id,
                        arrive: ev.start,
                        ..RequestSpan::default()
                    });
                    match phase {
                        Phase::Arrive => r.arrive = r.arrive.min(ev.start),
                        Phase::Admit => r.admit = Some(r.admit.unwrap_or(ev.start).min(ev.start)),
                        Phase::BatchClose => {
                            r.batch_close = Some(r.batch_close.unwrap_or(ev.start).min(ev.start));
                        }
                        Phase::Dispatch => {
                            r.dispatches.push((ev.start, ev.ctx.batch_id, ev.ctx.worker));
                        }
                        Phase::RetryAttempt => r.retries += 1,
                        Phase::Complete => {
                            r.complete = Some(ev.start);
                            r.batch = ev.ctx.batch_id;
                            r.worker = ev.ctx.worker;
                        }
                        Phase::Shed => {
                            r.shed_at = Some(ev.finish());
                            r.shed_cause = ev.cause;
                        }
                        Phase::UsbWrite | Phase::Exec | Phase::UsbRead => {
                            let host = matches!(ev.lane, Lane::Host { .. });
                            let vpu = matches!(ev.lane, Lane::Vpu { .. });
                            if let (Some(b), Some(end)) = (ev.ctx.batch_id, ev.end) {
                                let d = dev.entry((id, b)).or_default();
                                let span = Some((ev.start, end));
                                match phase {
                                    // Only the Host lane carries the
                                    // request's transfer; the USB
                                    // fabric tap mirrors it.
                                    Phase::UsbWrite if host => d.usb_write = span,
                                    Phase::UsbRead if host => d.usb_read = span,
                                    Phase::Exec if vpu => d.exec = span,
                                    _ => {}
                                }
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        for r in f.requests.values_mut() {
            if let Some(b) = r.batch {
                if let Some(d) = dev.get(&(r.id, b)) {
                    r.dev = *d;
                }
                if r.dev.exec.is_none() {
                    r.dev.exec = f.batch_exec.get(&b).copied();
                }
            }
            r.dispatches.sort_by_key(|d| d.0);
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw_obs::{Ctx, Event, Recorder};

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// A request that timed out on worker 0 (full device spans, batch
    /// 0), failed over, and completed on worker 1 (batch 1).
    fn failover_log() -> EventLog {
        let mut log = EventLog::new();
        let r = Ctx::request(7);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), r));
        log.record(Event::instant(Phase::Admit, Lane::Server, t(0), r));
        log.record(Event::instant(Phase::BatchClose, Lane::Queue, t(10), r.with_batch(0)));
        let a0 = r.with_batch(0).with_worker(0);
        log.record(Event::instant(Phase::Dispatch, Lane::Worker(0), t(10), a0));
        log.record(Event::span(
            Phase::UsbWrite,
            Lane::Host { worker: 0, dev: 0 },
            t(10),
            t(12),
            a0,
        ));
        log.record(Event::span(Phase::Exec, Lane::Vpu { worker: 0, dev: 0 }, t(12), t(90), a0));
        log.record(Event::instant(Phase::RetryAttempt, Lane::Server, t(40), r.with_batch(0)));
        let a1 = r.with_batch(1).with_worker(1);
        log.record(Event::instant(Phase::Dispatch, Lane::Worker(1), t(45), a1));
        log.record(Event::span(
            Phase::UsbWrite,
            Lane::Host { worker: 1, dev: 0 },
            t(45),
            t(47),
            a1,
        ));
        // Fabric tap mirror of the same transfer: must be ignored.
        log.record(Event::span(Phase::UsbWrite, Lane::UsbRoot { worker: 1 }, t(45), t(47), a1));
        log.record(Event::span(Phase::Exec, Lane::Vpu { worker: 1, dev: 0 }, t(47), t(60), a1));
        log.record(Event::span(Phase::UsbRead, Lane::Host { worker: 1, dev: 0 }, t(60), t(62), a1));
        log.record(Event::instant(Phase::Complete, Lane::Server, t(62), a1));
        log
    }

    #[test]
    fn device_spans_join_on_the_successful_batch() {
        let f = SpanForest::build(&failover_log());
        let r = &f.requests[&7];
        assert_eq!(r.outcome(), Outcome::Completed);
        assert_eq!(r.batch, Some(1));
        assert_eq!(r.worker, Some(1));
        assert_eq!(r.dispatches.len(), 2);
        assert_eq!(r.final_dispatch(), Some(t(45)));
        assert_eq!(r.retries, 1);
        // Batch 1's spans, not the timed-out batch 0's.
        assert_eq!(r.dev.usb_write, Some((t(45), t(47))));
        assert_eq!(r.dev.exec, Some((t(47), t(60))));
        assert_eq!(r.dev.usb_read, Some((t(60), t(62))));
        assert_eq!(r.latency(), Some(t(62).since(t(0))));
    }

    #[test]
    fn host_batches_fall_back_to_the_batch_exec_span() {
        let mut log = EventLog::new();
        let r = Ctx::request(1);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), r));
        log.record(Event::instant(Phase::BatchClose, Lane::Queue, t(5), r.with_batch(3)));
        log.record(Event::instant(
            Phase::Dispatch,
            Lane::Worker(0),
            t(5),
            r.with_batch(3).with_worker(0),
        ));
        // Batch-level exec: no request id, batch id set.
        log.record(Event::span(
            Phase::Exec,
            Lane::Worker(0),
            t(6),
            t(20),
            Ctx { request_id: None, batch_id: Some(3), worker: Some(0) },
        ));
        log.record(Event::instant(
            Phase::Complete,
            Lane::Server,
            t(20),
            r.with_batch(3).with_worker(0),
        ));
        let f = SpanForest::build(&log);
        let rs = &f.requests[&1];
        assert_eq!(rs.dev.exec, Some((t(6), t(20))));
        assert_eq!(rs.dev.usb_write, None);
    }

    #[test]
    fn outage_windows_pair_open_and_close() {
        let mut log = EventLog::new();
        let w = |n: u32| Ctx { request_id: None, batch_id: None, worker: Some(n) };
        log.record(Event::instant(Phase::CircuitOpen, Lane::Worker(2), t(10), w(2)));
        log.record(Event::instant(Phase::CircuitClose, Lane::Worker(2), t(30), w(2)));
        log.record(Event::instant(Phase::CircuitOpen, Lane::Worker(2), t(50), w(2)));
        let f = SpanForest::build(&log);
        assert_eq!(f.outages.len(), 2);
        assert_eq!(f.outages[0].until, Some(t(30)));
        assert_eq!(f.outages[1].until, None);
    }
}
