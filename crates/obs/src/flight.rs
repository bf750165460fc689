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

/// Bounds and trigger damping for the [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightConfig {
    /// Virtual-clock width of the ring: events older than `window`
    /// behind the newest start time are evicted.
    pub window: Duration,
    /// Hard cap on ring length, whatever the window says.
    pub capacity: usize,
    /// Stop snapshotting after this many incidents (bounds memory on
    /// pathological runs).
    pub max_incidents: usize,
    /// Minimum virtual time between snapshots — a flapping circuit
    /// produces one bundle per flap window, not one per flap.
    pub cooldown: Duration,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            window: Duration::from_millis(250.0),
            capacity: 4096,
            max_incidents: 8,
            cooldown: Duration::from_millis(250.0),
        }
    }
}

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

/// Always-on bounded ring buffer of recent events (see module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    cfg: FlightConfig,
    ring: VecDeque<Event>,
    /// High-water mark of virtual time seen so far — spans are recorded
    /// at varying points, so the newest *start* drives eviction.
    now_ns: u64,
    incidents: Vec<IncidentSnapshot>,
    last_snapshot_ns: Option<u64>,
}

impl FlightRecorder {
    pub fn new(cfg: FlightConfig) -> FlightRecorder {
        FlightRecorder {
            cfg,
            ring: VecDeque::new(),
            now_ns: 0,
            incidents: Vec::new(),
            last_snapshot_ns: None,
        }
    }

    /// Incidents snapshotted so far.
    pub fn incidents(&self) -> &[IncidentSnapshot] {
        &self.incidents
    }

    /// Current ring contents (oldest first).
    pub fn window(&self) -> impl Iterator<Item = &Event> {
        self.ring.iter()
    }

    fn evict(&mut self) {
        let horizon = self.now_ns.saturating_sub(self.cfg.window.nanos());
        while let Some(front) = self.ring.front() {
            if front.start.nanos() >= horizon && self.ring.len() <= self.cfg.capacity {
                break;
            }
            self.ring.pop_front();
        }
    }

    fn may_snapshot(&self, at: SimTime) -> bool {
        self.incidents.len() < self.cfg.max_incidents
            && self
                .last_snapshot_ns
                .is_none_or(|last| at.nanos().saturating_sub(last) >= self.cfg.cooldown.nanos())
    }

    /// Freeze the ring now, regardless of cooldown. Used by the bench
    /// layer for post-run triggers (burn-rate alerts); still respects
    /// `max_incidents`. Returns the snapshot ordinal if one was taken.
    pub fn force_snapshot(&mut self, trigger: &str, at: SimTime) -> Option<usize> {
        // E23 hot path: clones the whole ring — the expensive part of
        // the flight recorder, covering both in-stream triggers (via
        // `record`) and the bench layer's post-run forces.
        let _prof = crate::prof::scope("flight.snapshot");
        if self.incidents.len() >= self.cfg.max_incidents {
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

    #[test]
    fn ring_is_bounded_by_window_and_capacity() {
        let cfg = FlightConfig {
            window: Duration::from_millis(10.0),
            capacity: 5,
            ..FlightConfig::default()
        };
        let mut fr = FlightRecorder::new(cfg);
        for ms in 0..100 {
            fr.record(ev(Phase::Arrive, ms));
        }
        let ring: Vec<u64> = fr.window().map(|e| e.start.nanos() / 1_000_000).collect();
        assert!(ring.len() <= 5, "{ring:?}");
        assert!(ring.iter().all(|&ms| ms >= 89), "window eviction: {ring:?}");
    }

    #[test]
    fn circuit_open_snapshots_the_ring() {
        let mut fr = FlightRecorder::new(FlightConfig::default());
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
        let mut fr = FlightRecorder::new(FlightConfig::default());
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
        let cfg = FlightConfig {
            cooldown: Duration::from_millis(50.0),
            max_incidents: 3,
            ..FlightConfig::default()
        };
        let mut fr = FlightRecorder::new(cfg);
        for ms in 0..500 {
            fr.record(ev(Phase::IntegrityFail, ms));
        }
        // One per 50 ms cooldown window, stopped by the cap of 3.
        assert_eq!(fr.incidents().len(), 3);
        let times: Vec<u64> = fr.incidents().iter().map(|s| s.at.nanos() / 1_000_000).collect();
        assert_eq!(times, vec![0, 50, 100]);
    }

    #[test]
    fn forced_snapshot_respects_only_the_cap() {
        let cfg = FlightConfig { max_incidents: 2, ..FlightConfig::default() };
        let mut fr = FlightRecorder::new(cfg);
        fr.record(ev(Phase::Arrive, 1));
        assert_eq!(fr.force_snapshot("burn-rate-alert", SimTime(2_000_000)), Some(0));
        assert_eq!(fr.force_snapshot("burn-rate-alert", SimTime(2_000_000)), Some(1));
        assert_eq!(fr.force_snapshot("burn-rate-alert", SimTime(2_000_000)), None);
        assert_eq!(fr.incidents()[0].events.len(), 1);
    }
}
