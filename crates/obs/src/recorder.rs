//! The [`Recorder`] sink every instrumented layer writes to, plus the
//! standard implementations: a no-op recorder for uninstrumented hot
//! paths and an in-memory event log.

use crate::event::{Ctx, Event, Lane, Phase};
use desim::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;

/// A sink for observability events. Implementations must be cheap:
/// instrumented hot paths guard event *construction* on
/// [`Recorder::enabled`], so a disabled recorder costs one branch.
pub trait Recorder {
    /// Whether events should be constructed and recorded at all.
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, ev: Event);
}

/// Records nothing; [`Recorder::enabled`] is `false`, so call sites
/// skip event construction entirely and the hot path stays
/// allocation-free and bit-identical to an uninstrumented run.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _ev: Event) {}
}

/// An append-only in-memory event log (the input to the exporters).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    /// Lazily-built request-id → event-position index, extended on
    /// demand by [`EventLog::for_request`]. The log is append-only, so
    /// positions never go stale; the index just catches up to `len()`.
    index: RefCell<ReqIndex>,
}

// Manual serde: only the events travel; the index is a cache rebuilt
// on demand.
impl Serialize for EventLog {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![("events".to_string(), self.events.to_value())])
    }
}

impl Deserialize for EventLog {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let events = Vec::<Event>::from_value(serde::map_get(v, "events")?)?;
        Ok(EventLog { events, index: RefCell::new(ReqIndex::default()) })
    }
}

/// See [`EventLog::index`]: `upto` is how many events have been
/// indexed so far.
#[derive(Debug, Clone, Default)]
struct ReqIndex {
    by_request: HashMap<u64, Vec<usize>>,
    upto: usize,
}

/// Identity lives in the events alone; the index is a cache.
impl PartialEq for EventLog {
    fn eq(&self, other: &EventLog) -> bool {
        self.events == other.events
    }
}

impl Recorder for EventLog {
    fn record(&mut self, ev: Event) {
        self.events.push(ev);
    }
}

impl EventLog {
    pub fn new() -> Self {
        EventLog::default()
    }

    pub fn events(&self) -> &[Event] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Latest finish instant across all events.
    pub fn horizon(&self) -> SimTime {
        self.events.iter().map(|e| e.finish()).max().unwrap_or(SimTime::ZERO)
    }

    /// Distinct lanes in first-appearance order.
    pub fn lanes(&self) -> Vec<Lane> {
        let mut lanes = Vec::new();
        for e in &self.events {
            if !lanes.contains(&e.lane) {
                lanes.push(e.lane);
            }
        }
        lanes
    }

    /// All events tagged with `request_id`, in record order.
    ///
    /// Amortized O(events of that request): the first call after new
    /// appends extends the per-request index, so span-tree joins and
    /// `repro explain` stay linear on large traces instead of
    /// re-scanning the whole log per request.
    pub fn for_request(&self, request_id: u64) -> Vec<&Event> {
        let mut idx = self.index.borrow_mut();
        if idx.upto < self.events.len() {
            for (pos, ev) in self.events.iter().enumerate().skip(idx.upto) {
                if let Some(id) = ev.ctx.request_id {
                    idx.by_request.entry(id).or_default().push(pos);
                }
            }
            idx.upto = self.events.len();
        }
        idx.by_request
            .get(&request_id)
            .map(|positions| positions.iter().map(|&p| &self.events[p]).collect())
            .unwrap_or_default()
    }

    /// The first-start instant of each [`Phase::REQUEST_CHAIN`] phase for
    /// `request_id`, in chain order — `Some` only when every phase of the
    /// chain is present (i.e. the request was served by a device with
    /// USB-level detail) and the instants are non-decreasing.
    pub fn request_chain(&self, request_id: u64) -> Option<Vec<(Phase, SimTime)>> {
        let evs = self.for_request(request_id);
        let mut chain = Vec::with_capacity(Phase::REQUEST_CHAIN.len());
        for phase in Phase::REQUEST_CHAIN {
            let first = evs.iter().filter(|e| e.phase == phase).map(|e| e.start).min()?;
            chain.push((phase, first));
        }
        for pair in chain.windows(2) {
            if pair[1].1 < pair[0].1 {
                return None;
            }
        }
        Some(chain)
    }
}

/// Forwards each event to two recorders (e.g. the run's recorder plus
/// the flight recorder).
pub struct Tee<'a> {
    pub a: &'a mut dyn Recorder,
    pub b: &'a mut dyn Recorder,
}

impl Recorder for Tee<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn record(&mut self, ev: Event) {
        if self.a.enabled() {
            self.a.record(ev);
        }
        if self.b.enabled() {
            self.b.record(ev);
        }
    }
}

/// Per-batch observability context a dispatcher hands to a device's
/// `serve` path: the recorder, the batch id, the owning fleet slot and
/// the request ids of the batch members in submission order.
pub struct BatchObs<'a> {
    pub rec: &'a mut dyn Recorder,
    pub batch_id: u64,
    pub worker: u32,
    /// Request id per batch member; empty outside a serving context.
    pub ids: &'a [u64],
}

impl<'a> BatchObs<'a> {
    /// A context that records nothing (standalone pipeline runs).
    pub fn disabled(rec: &'a mut NullRecorder) -> BatchObs<'a> {
        BatchObs { rec, batch_id: 0, worker: 0, ids: &[] }
    }

    pub fn enabled(&self) -> bool {
        self.rec.enabled()
    }

    /// Context for batch member `image` (request id when known).
    pub fn ctx(&self, image: usize) -> Ctx {
        Ctx {
            request_id: self.ids.get(image).copied(),
            batch_id: Some(self.batch_id),
            worker: Some(self.worker),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(5), Ctx::NONE));
    }

    #[test]
    fn event_log_collects_and_indexes() {
        let mut log = EventLog::new();
        log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(1), Ctx::request(0)));
        log.record(Event::span(
            Phase::Exec,
            Lane::Worker(0),
            SimTime(2),
            SimTime(9),
            Ctx::request(0),
        ));
        assert_eq!(log.len(), 2);
        assert_eq!(log.horizon(), SimTime(9));
        assert_eq!(log.lanes(), vec![Lane::Server, Lane::Worker(0)]);
        assert_eq!(log.for_request(0).len(), 2);
        assert!(log.request_chain(0).is_none(), "partial chain must not validate");
    }

    #[test]
    fn request_chain_requires_every_phase_in_order() {
        let mut log = EventLog::new();
        let lane = Lane::Host { worker: 0, dev: 0 };
        for (i, phase) in Phase::REQUEST_CHAIN.iter().enumerate() {
            log.record(Event::instant(*phase, lane, SimTime(i as u64), Ctx::request(4)));
        }
        let chain = log.request_chain(4).expect("full chain");
        assert_eq!(chain.len(), Phase::REQUEST_CHAIN.len());
        assert_eq!(chain[0], (Phase::Arrive, SimTime(0)));
        assert_eq!(chain[7], (Phase::Complete, SimTime(7)));
    }

    #[test]
    fn for_request_index_tracks_interleaved_appends() {
        let mut log = EventLog::new();
        log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(1), Ctx::request(0)));
        log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(2), Ctx::request(1)));
        // Query builds the index...
        assert_eq!(log.for_request(0).len(), 1);
        // ...then appends after the index exists must still be found.
        log.record(Event::instant(Phase::Complete, Lane::Server, SimTime(3), Ctx::request(0)));
        log.record(Event::instant(Phase::Complete, Lane::Server, SimTime(4), Ctx::request(1)));
        assert_eq!(log.for_request(0).len(), 2);
        assert_eq!(log.for_request(1).len(), 2);
        assert!(log.for_request(7).is_empty());
        // Record order is preserved within a request.
        let phases: Vec<Phase> = log.for_request(0).iter().map(|e| e.phase).collect();
        assert_eq!(phases, vec![Phase::Arrive, Phase::Complete]);
        // The index is a cache: clones and equality ignore it.
        let clone = log.clone();
        assert_eq!(clone, log);
        assert_eq!(clone.for_request(1).len(), 2);
    }
}
