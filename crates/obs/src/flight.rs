//! Always-on flight recorder: a bounded ring of recent events that
//! snapshots itself when an incident trigger fires.
//!
//! Full traces don't scale and sampled traces are decided per request —
//! neither answers "what was the *whole fleet* doing in the seconds
//! before the circuit opened?". The [`FlightRecorder`] keeps a small
//! ring of the most recent events (bounded both by a virtual-clock
//! window and a hard capacity) at negligible cost, and when an
//! in-stream incident trigger fires (`CircuitOpen`, `IntegrityFail`) it
//! freezes the ring into an [`IncidentSnapshot`]. The bench layer adds
//! the third trigger — a two-window SLO burn-rate alert, which is only
//! computable after the run — via [`FlightRecorder::force_snapshot`],
//! and wraps snapshots into `incident_<n>.json` bundles carrying the
//! fleet/load/fault spec, seed and a one-line replay command.
//!
//! Like every [`Recorder`], the flight recorder is passive: it observes
//! the event stream and never alters simulation outcomes.

use crate::event::{Event, Phase};
use crate::recorder::Recorder;
use desim::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Virtual-clock width of the ring: events older than this behind the
/// newest start time are evicted.
pub const WINDOW: Duration = Duration(250_000_000);

/// Hard cap on ring length, whatever the window says.
pub const CAPACITY: usize = 4096;

/// Snapshots stop after this many incidents (bounds memory on
/// pathological runs).
pub const MAX_INCIDENTS: usize = 8;

/// Minimum virtual time between in-stream snapshots: a flapping circuit
/// produces one bundle per flap window, not one per flap.
pub const COOLDOWN: Duration = Duration(250_000_000);

/// A frozen copy of the ring at the moment a trigger fired.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncidentSnapshot {
    /// Snapshot ordinal within the run (names `incident_<n>.json`).
    pub n: usize,
    /// What fired: an in-stream phase name (`circuit-open`,
    /// `integrity-fail`) or a bench-side trigger (`burn-rate-alert`).
    pub trigger: String,
    /// Virtual time of the trigger.
    pub at: SimTime,
    /// The ring's trace window, oldest first.
    pub events: Vec<Event>,
}

/// Always-on bounded ring buffer of recent events (see module docs),
/// bounded by [`WINDOW`] and [`CAPACITY`]. It snapshots at most
/// [`MAX_INCIDENTS`] times, in-stream triggers at least [`COOLDOWN`]
/// apart.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    ring: VecDeque<Event>,
    /// High-water mark of virtual time seen so far — spans are recorded
    /// at varying points, so the newest *start* drives eviction.
    now_ns: u64,
    incidents: Vec<IncidentSnapshot>,
    last_snapshot_ns: Option<u64>,
}

impl FlightRecorder {
    /// Incidents snapshotted so far.
    pub fn incidents(&self) -> &[IncidentSnapshot] {
        &self.incidents
    }

    /// Current ring contents (oldest first).
    pub fn window(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    fn evict(&mut self) {
        let horizon = self.now_ns.saturating_sub(WINDOW.nanos());
        while let Some(front) = self.ring.front() {
            if front.start.nanos() >= horizon && self.ring.len() <= CAPACITY {
                break;
            }
            self.ring.pop_front();
        }
    }

    fn may_snapshot(&self, at: SimTime) -> bool {
        self.incidents.len() < MAX_INCIDENTS
            && self
                .last_snapshot_ns
                .is_none_or(|last| at.nanos().saturating_sub(last) >= COOLDOWN.nanos())
    }

    /// Freeze the ring now, regardless of cooldown. Used by the bench
    /// layer for post-run triggers (burn-rate alerts); still respects
    /// [`MAX_INCIDENTS`]. Returns the snapshot ordinal if one was taken.
    pub fn force_snapshot(&mut self, trigger: &str, at: SimTime) -> Option<usize> {
        // E23 hot path: clones the whole ring — the expensive part of
        // the flight recorder, covering both in-stream triggers (via
        // `record`) and the bench layer's post-run forces.
        let _prof = crate::prof::scope("flight.snapshot");
        if self.incidents.len() >= MAX_INCIDENTS {
            return None;
        }
        let n = self.incidents.len();
        self.incidents.push(IncidentSnapshot {
            n,
            trigger: trigger.to_string(),
            at,
            events: self.ring.iter().cloned().collect(),
        });
        self.last_snapshot_ns = Some(at.nanos());
        Some(n)
    }
}

impl Recorder for FlightRecorder {
    fn record(&mut self, ev: Event) {
        self.now_ns = self.now_ns.max(ev.finish().nanos());
        let trigger = match ev.phase {
            Phase::CircuitOpen => Some("circuit-open"),
            Phase::IntegrityFail => Some("integrity-fail"),
            _ => None,
        };
        let at = ev.start;
        self.ring.push_back(ev);
        self.evict();
        if let Some(trigger) = trigger {
            if self.may_snapshot(at) {
                self.force_snapshot(trigger, at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Ctx, Lane};

    fn ev(phase: Phase, ms: u64) -> Event {
        Event::instant(phase, Lane::Server, SimTime(ms * 1_000_000), Ctx::NONE)
    }

    fn ev_ns(phase: Phase, ns: u64) -> Event {
        Event::instant(phase, Lane::Server, SimTime(ns), Ctx::NONE)
    }

    #[test]
    fn ring_is_bounded_by_window() {
        assert_eq!(WINDOW, Duration::from_millis(250.0));
        let mut fr = FlightRecorder::default();
        for ms in 0..1000 {
            fr.record(ev(Phase::Arrive, ms));
        }
        let ring: Vec<u64> = fr.window().map(|e| e.start.nanos() / 1_000_000).collect();
        // The newest start is 999 ms: everything from 749 ms on stays.
        assert_eq!(ring.len(), 251, "{ring:?}");
        assert_eq!(ring.first(), Some(&749), "window eviction");
    }

    #[test]
    fn ring_is_bounded_by_capacity() {
        assert_eq!(CAPACITY, 4096);
        // 10 000 events 1 µs apart all fit the 250 ms window.
        let mut fr = FlightRecorder::default();
        for us in 0..10_000 {
            fr.record(ev_ns(Phase::Arrive, us * 1_000));
        }
        let ring: Vec<u64> = fr.window().map(|e| e.start.nanos() / 1_000).collect();
        assert_eq!(ring.len(), CAPACITY);
        assert_eq!(ring.first(), Some(&(10_000 - CAPACITY as u64)), "oldest evicted first");
    }

    #[test]
    fn circuit_open_snapshots_the_ring() {
        let mut fr = FlightRecorder::default();
        for ms in 0..20 {
            fr.record(ev(Phase::Arrive, ms));
        }
        fr.record(ev(Phase::CircuitOpen, 20));
        assert_eq!(fr.incidents().len(), 1);
        let snap = &fr.incidents()[0];
        assert_eq!(snap.trigger, "circuit-open");
        assert_eq!(snap.at, SimTime(20 * 1_000_000));
        assert_eq!(snap.events.len(), 21, "ring captured through the trigger");
    }

    #[test]
    fn snapshot_is_a_named_profiler_scope() {
        crate::prof::start();
        let mut fr = FlightRecorder::default();
        for ms in 0..10 {
            fr.record(ev(Phase::Arrive, ms));
        }
        fr.record(ev(Phase::CircuitOpen, 10)); // in-stream trigger
        fr.force_snapshot("burn-rate", SimTime(11 * 1_000_000)); // bench force
        let r = crate::prof::stop();
        let snap = r.scopes.iter().find(|s| s.name == "flight.snapshot");
        assert_eq!(snap.map(|s| s.calls), Some(2), "both trigger paths are metered: {r:#?}");
    }

    #[test]
    fn cooldown_damps_flapping_triggers_and_cap_holds() {
        assert_eq!((COOLDOWN, MAX_INCIDENTS), (Duration::from_millis(250.0), 8));
        let mut fr = FlightRecorder::default();
        for ms in 0..5000 {
            fr.record(ev(Phase::IntegrityFail, ms));
        }
        // One per 250 ms cooldown window, stopped by the cap of 8.
        let times: Vec<u64> = fr.incidents().iter().map(|s| s.at.nanos() / 1_000_000).collect();
        assert_eq!(times, vec![0, 250, 500, 750, 1000, 1250, 1500, 1750]);
    }

    #[test]
    fn forced_snapshot_respects_only_the_cap() {
        let mut fr = FlightRecorder::default();
        fr.record(ev(Phase::Arrive, 1));
        for n in 0..MAX_INCIDENTS {
            assert_eq!(fr.force_snapshot("burn-rate-alert", SimTime(2_000_000)), Some(n));
        }
        assert_eq!(fr.force_snapshot("burn-rate-alert", SimTime(2_000_000)), None);
        assert_eq!(fr.incidents()[0].events.len(), 1);
    }
}
