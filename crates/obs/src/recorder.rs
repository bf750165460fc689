//! The [`Recorder`] sink every instrumented layer writes to, plus the
//! standard implementations: a no-op recorder for uninstrumented hot
//! paths and an in-memory event log.

use crate::event::{Ctx, Event, Lane, Phase};
use desim::SimTime;
use std::collections::BTreeMap;

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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<Event>,
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

    /// Events grouped by `key` (e.g. `|e| e.ctx.request_id`), each group
    /// in record order; events without a key are left out.
    pub fn group_by<K: Ord>(&self, key: impl Fn(&Event) -> Option<K>) -> BTreeMap<K, Vec<&Event>> {
        let mut out: BTreeMap<K, Vec<&Event>> = BTreeMap::new();
        for e in &self.events {
            if let Some(k) = key(e) {
                out.entry(k).or_default().push(e);
            }
        }
        out
    }
}

/// The first-start instant of each [`Phase::REQUEST_CHAIN`] phase among
/// one request's `events`, in chain order — `Some` only when every phase
/// of the chain is present (i.e. the request was served by a device with
/// USB-level detail) and the instants are non-decreasing.
pub fn request_chain(events: &[&Event]) -> Option<Vec<(Phase, SimTime)>> {
    let mut chain = Vec::with_capacity(Phase::REQUEST_CHAIN.len());
    for phase in Phase::REQUEST_CHAIN {
        let first = events.iter().filter(|e| e.phase == phase).map(|e| e.start).min()?;
        chain.push((phase, first));
    }
    chain.windows(2).all(|pair| pair[0].1 <= pair[1].1).then_some(chain)
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
    fn event_log_collects_and_groups_by_request() {
        let mut log = EventLog::new();
        log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(1), Ctx::request(0)));
        log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(1), Ctx::request(1)));
        log.record(Event::span(
            Phase::Exec,
            Lane::Worker(0),
            SimTime(2),
            SimTime(9),
            Ctx::request(0),
        ));
        log.record(Event::instant(Phase::Drain, Lane::Worker(0), SimTime(3), Ctx::NONE));
        assert_eq!(log.len(), 4);
        assert_eq!(log.horizon(), SimTime(9));
        assert_eq!(log.lanes(), vec![Lane::Server, Lane::Worker(0)]);
        let groups = log.group_by(|e| e.ctx.request_id);
        assert_eq!(groups.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
        let phases: Vec<Phase> = groups[&0].iter().map(|e| e.phase).collect();
        assert_eq!(phases, vec![Phase::Arrive, Phase::Exec], "record order within a request");
        assert!(request_chain(&groups[&0]).is_none(), "partial chain must not validate");
    }

    #[test]
    fn request_chain_requires_every_phase_in_order() {
        let lane = Lane::Host { worker: 0, dev: 0 };
        let evs: Vec<Event> = Phase::REQUEST_CHAIN
            .iter()
            .enumerate()
            .map(|(i, phase)| Event::instant(*phase, lane, SimTime(i as u64), Ctx::request(4)))
            .collect();
        let refs: Vec<&Event> = evs.iter().collect();
        let chain = request_chain(&refs).expect("full chain");
        assert_eq!(chain.len(), Phase::REQUEST_CHAIN.len());
        assert_eq!(chain[0], (Phase::Arrive, SimTime(0)));
        assert_eq!(chain[7], (Phase::Complete, SimTime(7)));
        // A later phase stamped before an earlier one breaks the chain.
        let mut swapped = evs.clone();
        swapped[7].start = SimTime(3);
        assert!(request_chain(&swapped.iter().collect::<Vec<_>>()).is_none());
    }
}
