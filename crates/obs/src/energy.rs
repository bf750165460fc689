//! Energy metering over virtual-clock busy spans.
//!
//! The island-level power models (`myriad2::power::PowerModel`, the
//! host TDP registry) describe *rates*; this module integrates them
//! over the serving timeline so the online stack can report joules.
//! All arithmetic is integer-exact: power is carried in **milliwatts**
//! and energy in **picojoules**, so `pJ = mW × ns` holds without any
//! floating-point rounding and every conservation law in the analyzer
//! is a `u64` equality. Joules (`f64`) appear only at the display edge
//! via [`joules`].
//!
//! An [`EnergyMeter`] holds one [`EnergyProfile`] per fleet worker and
//! a per-worker ledger of charged busy spans. The serving loop charges
//! each dispatched batch — *including* failed attempts, whose energy is
//! real even though their latency is never attributed to a request —
//! and the meter clips overlapping charges (a fail-fast unplug probe
//! can overlap the next dispatch on the wall clock) so the ledger is a
//! disjoint, time-ordered step function. From that it derives:
//!
//! - integrated active/wasted/idle energy per worker and fleet-wide,
//! - `PowerSample` counter events on per-worker [`Lane::Power`] lanes
//!   (the Chrome trace renders them as power counters, and the trace
//!   alone is enough to re-integrate the exact same picojoule totals),
//! - [`Registry`] counters for scrape-style consumers.

use crate::event::{Ctx, Event, Lane};
use crate::recorder::EventLog;
use crate::registry::Registry;
use desim::SimTime;
use serde::{Deserialize, Serialize};

/// Convert integer picojoules to joules for display.
pub fn joules(pj: u64) -> f64 {
    pj as f64 / 1e12
}

/// Convert integer milliwatts to watts for display.
pub fn watts(mw: u64) -> f64 {
    mw as f64 / 1e3
}

/// A worker's power profile in integer milliwatts.
///
/// `busy_mw` is the draw while a batch occupies the device (all islands
/// active); `idle_mw` is the gated draw between batches (SHAVE islands
/// power-gated, host package idle); `tdp_mw` is the nameplate TDP used
/// by the paper's Eq. 1 throughput-per-watt accounting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyProfile {
    pub label: String,
    pub busy_mw: u64,
    pub idle_mw: u64,
    pub tdp_mw: u64,
}

impl EnergyProfile {
    pub fn new(label: impl Into<String>, busy_mw: u64, idle_mw: u64, tdp_mw: u64) -> EnergyProfile {
        EnergyProfile { label: label.into(), busy_mw, idle_mw, tdp_mw }
    }

    /// Exact energy in picojoules for `busy_ns` busy and `idle_ns` idle.
    pub fn energy_pj(&self, busy_ns: u64, idle_ns: u64) -> u64 {
        self.busy_mw * busy_ns + self.idle_mw * idle_ns
    }
}

/// One charged busy span in a worker's ledger (already clipped against
/// earlier charges, so spans are disjoint and time-ordered per worker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeterSpan {
    pub worker: u32,
    pub start: SimTime,
    pub end: SimTime,
    pub batch: u64,
    /// True when the span belongs to a failed attempt (timeout or
    /// device error): its energy is charged but its latency is never
    /// attributed to a request.
    pub wasted: bool,
}

/// Fleet-wide energy totals in exact picojoules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyTotals {
    /// Busy energy of spans that produced completions.
    pub active_pj: u64,
    /// Busy energy of failed attempts (timeouts, unplug probes).
    pub wasted_pj: u64,
    /// Gated/idle energy over the rest of the horizon.
    pub idle_pj: u64,
}

impl EnergyTotals {
    pub fn fleet_pj(&self) -> u64 {
        self.active_pj + self.wasted_pj + self.idle_pj
    }
}

/// Integrates per-worker power profiles over charged busy spans.
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    epoch: SimTime,
    profiles: Vec<EnergyProfile>,
    /// Per-worker high-water mark: charges are clipped to start at or
    /// after this, keeping the ledger disjoint.
    charged_until: Vec<SimTime>,
    served_ns: Vec<u64>,
    wasted_ns: Vec<u64>,
    spans: Vec<MeterSpan>,
    /// Per-worker powered windows `[on, off)`, time-ordered; `None`
    /// closes at the integration horizon. A statically-provisioned
    /// worker keeps the single default window `[epoch, None)`, so its
    /// accounting is identical to a meter without windows. The
    /// autoscaler closes a window when it power-gates a drained stick
    /// ([`EnergyMeter::power_off`]) and opens a new one when the stick
    /// finishes re-provisioning ([`EnergyMeter::power_on`]); outside
    /// every window the worker draws nothing, which is exactly the
    /// energy a scale-down reclaims.
    powered: Vec<Vec<(SimTime, Option<SimTime>)>>,
}

impl EnergyMeter {
    pub fn new(profiles: Vec<EnergyProfile>, epoch: SimTime) -> EnergyMeter {
        let n = profiles.len();
        EnergyMeter {
            epoch,
            profiles,
            charged_until: vec![epoch; n],
            served_ns: vec![0; n],
            wasted_ns: vec![0; n],
            spans: Vec::new(),
            powered: vec![vec![(epoch, None)]; n],
        }
    }

    pub fn profiles(&self) -> &[EnergyProfile] {
        &self.profiles
    }

    /// Charge worker `worker` for a busy span executing `batch`.
    ///
    /// The span is clipped against the worker's previous charges (and
    /// the epoch); a fully-shadowed span charges nothing. Returns the
    /// clipped span if any energy was charged.
    pub fn charge(
        &mut self,
        worker: u32,
        start: SimTime,
        end: SimTime,
        batch: u64,
        wasted: bool,
    ) -> Option<MeterSpan> {
        let w = worker as usize;
        let s = SimTime::max_of(start, self.charged_until[w]);
        if end <= s {
            return None;
        }
        self.charged_until[w] = end;
        let ns = end.nanos() - s.nanos();
        if wasted {
            self.wasted_ns[w] += ns;
        } else {
            self.served_ns[w] += ns;
        }
        let span = MeterSpan { worker, start: s, end, batch, wasted };
        self.spans.push(span);
        Some(span)
    }

    /// Latest charged instant across all workers (the epoch when no
    /// charge landed). A timed-out batch can run past the last
    /// completion, so the energy horizon is
    /// `max(outcome end, busy_horizon)`.
    pub fn busy_horizon(&self) -> SimTime {
        self.charged_until.iter().copied().fold(self.epoch, SimTime::max_of)
    }

    /// Worker `w`'s charged spans, disjoint and time-ordered.
    pub fn spans(&self, w: usize) -> impl Iterator<Item = &MeterSpan> {
        self.spans.iter().filter(move |sp| sp.worker as usize == w)
    }

    /// Busy (served + wasted) nanoseconds charged to worker `w`.
    pub fn busy_ns(&self, w: usize) -> u64 {
        self.served_ns[w] + self.wasted_ns[w]
    }

    pub fn served_ns(&self, w: usize) -> u64 {
        self.served_ns[w]
    }

    pub fn wasted_ns(&self, w: usize) -> u64 {
        self.wasted_ns[w]
    }

    /// Power-gate worker `worker` at `at`: closes its open powered
    /// window. The instant is clamped to the window start, so a
    /// zero-length window charges nothing rather than underflowing.
    pub fn power_off(&mut self, worker: u32, at: SimTime) {
        let wins = &mut self.powered[worker as usize];
        let last = wins.last_mut().expect("worker always has a powered-window history");
        debug_assert!(last.1.is_none(), "power_off on an already-gated worker");
        last.1 = Some(SimTime::max_of(at, last.0));
    }

    /// Power worker `worker` back on at `at` (the end of its
    /// provisioning delay): opens a new window. Clamped to the previous
    /// window's close so windows stay disjoint and time-ordered.
    pub fn power_on(&mut self, worker: u32, at: SimTime) {
        let wins = &mut self.powered[worker as usize];
        let floor = wins.last().and_then(|w| w.1).expect("power_on on a live worker");
        wins.push((SimTime::max_of(at, floor), None));
    }

    /// Nanoseconds worker `w` was powered over `epoch..horizon`.
    pub fn powered_ns(&self, w: usize, horizon: SimTime) -> u64 {
        self.powered[w]
            .iter()
            .map(|&(on, off)| {
                let end = off.map_or(horizon, |o| o.min(horizon));
                end.nanos().saturating_sub(on.min(horizon).nanos())
            })
            .sum()
    }

    /// Nanoseconds worker `w` spent power-gated over `epoch..horizon`.
    pub fn unpowered_ns(&self, w: usize, horizon: SimTime) -> u64 {
        let span = horizon.nanos().saturating_sub(self.epoch.nanos());
        span - self.powered_ns(w, horizon)
    }

    /// True when worker `w` is inside a powered window at `t`.
    fn powered_at(&self, w: usize, t: SimTime) -> bool {
        self.powered[w].iter().any(|&(on, off)| on <= t && off.is_none_or(|o| t < o))
    }

    /// Exact idle draw avoided versus a statically-provisioned fleet:
    /// `Σ idle_mw × gated_ns` over all workers. Zero when no window was
    /// ever closed.
    pub fn reclaimed_pj(&self, horizon: SimTime) -> u64 {
        self.profiles
            .iter()
            .enumerate()
            .map(|(w, p)| p.idle_mw * self.unpowered_ns(w, horizon))
            .sum()
    }

    /// Exact integrated energy of worker `w` over `epoch..horizon`:
    /// busy draw over charged spans, idle draw over the rest of its
    /// *powered* windows, nothing while gated.
    pub fn worker_pj(&self, w: usize, horizon: SimTime) -> u64 {
        let powered = self.powered_ns(w, horizon);
        let busy = self.busy_ns(w);
        debug_assert!(busy <= powered, "busy ledger exceeds powered time");
        self.profiles[w].energy_pj(busy, powered - busy)
    }

    /// Fleet totals over `epoch..horizon`, split active/wasted/idle.
    /// The split telescopes: `active + wasted + idle == Σ worker_pj`.
    pub fn totals(&self, horizon: SimTime) -> EnergyTotals {
        let mut t = EnergyTotals::default();
        for (w, p) in self.profiles.iter().enumerate() {
            t.active_pj += p.busy_mw * self.served_ns[w];
            t.wasted_pj += p.busy_mw * self.wasted_ns[w];
            t.idle_pj += p.idle_mw * (self.powered_ns(w, horizon) - self.busy_ns(w));
        }
        t
    }

    /// The power step function as `PowerSample` counter events, one
    /// lane per worker: idle at each powered-window start (the epoch
    /// for a static worker), busy at each span start (carrying the
    /// batch id), idle again at each span end, **zero** at each
    /// power-gate instant, and a final sample at `horizon` marking the
    /// integration end. The trace alone reconstructs the exact
    /// picojoule ledger — re-integrating the step function over a gated
    /// worker naturally charges nothing for its dark windows.
    pub fn events(&self, horizon: SimTime) -> Vec<Event> {
        let mut out = Vec::new();
        for (w, p) in self.profiles.iter().enumerate() {
            let worker = w as u32;
            let lane = Lane::Power(worker);
            let ctx = Ctx::NONE.with_worker(worker);
            let mut spans = self.spans(w).peekable();
            for &(on, off) in &self.powered[w] {
                if on > horizon {
                    break;
                }
                out.push(Event::counter(lane, on, p.idle_mw, ctx));
                // Busy spans always fall inside a powered window: the
                // serving loop never dispatches to a gated stick.
                while spans.peek().is_some_and(|sp| off.is_none_or(|o| sp.end <= o)) {
                    let sp = spans.next().unwrap();
                    out.push(Event::counter(lane, sp.start, p.busy_mw, ctx.with_batch(sp.batch)));
                    out.push(Event::counter(lane, sp.end, p.idle_mw, ctx));
                }
                if let Some(off) = off {
                    if off <= horizon {
                        out.push(Event::counter(lane, off, 0, ctx));
                    }
                }
            }
            let level = if self.powered_at(w, horizon) { p.idle_mw } else { 0 };
            out.push(Event::counter(lane, horizon, level, ctx));
        }
        out
    }

    /// Append the power lanes to an event log (no-op when disabled).
    pub fn record_into(&self, log: &mut EventLog, horizon: SimTime) {
        use crate::recorder::Recorder;
        for ev in self.events(horizon) {
            log.record(ev);
        }
    }

    /// Append fleet + per-worker energy counters (exact picojoules).
    pub fn register(&self, reg: &mut Registry, horizon: SimTime) {
        let t = self.totals(horizon);
        for (name, v) in [
            ("energy.active_pj", t.active_pj),
            ("energy.wasted_pj", t.wasted_pj),
            ("energy.idle_pj", t.idle_pj),
            ("energy.fleet_pj", t.fleet_pj()),
        ] {
            reg.push_counter(name, v);
        }
        for w in 0..self.profiles.len() {
            reg.push_counter(format!("energy.w{w}.pj"), self.worker_pj(w, horizon));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_workers() -> EnergyMeter {
        EnergyMeter::new(
            vec![
                EnergyProfile::new("vpu0", 900, 172, 2_500),
                EnergyProfile::new("cpu", 80_000, 15_000, 80_000),
            ],
            SimTime(0),
        )
    }

    #[test]
    fn integrates_busy_and_idle_exactly() {
        let mut m = two_workers();
        m.charge(0, SimTime(100), SimTime(600), 1, false);
        m.charge(1, SimTime(0), SimTime(1_000), 2, false);
        let h = SimTime(1_000);
        // w0: 500 ns busy @900 mW + 500 ns idle @172 mW.
        assert_eq!(m.worker_pj(0, h), 900 * 500 + 172 * 500);
        // w1: fully busy.
        assert_eq!(m.worker_pj(1, h), 80_000 * 1_000);
        let t = m.totals(h);
        assert_eq!(t.fleet_pj(), m.worker_pj(0, h) + m.worker_pj(1, h));
        assert_eq!(t.wasted_pj, 0);
    }

    #[test]
    fn wasted_spans_charge_energy_separately() {
        let mut m = two_workers();
        m.charge(0, SimTime(0), SimTime(400), 1, true);
        m.charge(0, SimTime(400), SimTime(900), 2, false);
        let t = m.totals(SimTime(1_000));
        assert_eq!(t.wasted_pj, 900 * 400);
        assert_eq!(t.active_pj, 900 * 500);
        // Idle: 100 ns gated on the VPU plus the whole horizon on the
        // uncharged CPU worker.
        assert_eq!(t.idle_pj, 172 * 100 + 15_000 * 1_000);
        assert_eq!(t.fleet_pj(), m.worker_pj(0, SimTime(1_000)) + m.worker_pj(1, SimTime(1_000)));
    }

    #[test]
    fn overlapping_charges_are_clipped() {
        let mut m = two_workers();
        // An unplug probe charges [0, 500); the failover dispatch
        // overlaps it on the wall clock.
        assert!(m.charge(0, SimTime(0), SimTime(500), 1, true).is_some());
        let clipped = m.charge(0, SimTime(300), SimTime(800), 2, false).unwrap();
        assert_eq!(clipped.start, SimTime(500));
        // A fully-shadowed charge lands nothing.
        assert!(m.charge(0, SimTime(100), SimTime(400), 3, false).is_none());
        assert_eq!(m.busy_ns(0), 800);
        assert_eq!(m.busy_horizon(), SimTime(800));
    }

    #[test]
    fn events_form_a_self_describing_step_function() {
        let mut m = two_workers();
        m.charge(0, SimTime(100), SimTime(600), 7, false);
        let evs = m.events(SimTime(1_000));
        // Per worker: epoch + final samples, plus two per span.
        assert_eq!(evs.len(), 2 + 2 + 2);
        let w0: Vec<_> = evs.iter().filter(|e| e.lane == Lane::Power(0)).collect();
        assert_eq!(w0.len(), 4);
        assert_eq!((w0[0].start, w0[0].value), (SimTime(0), Some(172)));
        assert_eq!((w0[1].start, w0[1].value), (SimTime(100), Some(900)));
        assert_eq!(w0[1].ctx.batch_id, Some(7));
        assert_eq!((w0[2].start, w0[2].value), (SimTime(600), Some(172)));
        assert_eq!((w0[3].start, w0[3].value), (SimTime(1_000), Some(172)));
        // Re-integrating the step function recovers the exact total.
        let mut pj = 0u64;
        for pair in w0.windows(2) {
            pj += pair[0].value.unwrap() * (pair[1].start.nanos() - pair[0].start.nanos());
        }
        assert_eq!(pj, m.worker_pj(0, SimTime(1_000)));
    }

    #[test]
    fn power_gating_reclaims_exact_idle_draw() {
        let mut m = two_workers();
        m.charge(0, SimTime(100), SimTime(400), 1, false);
        // Gate w0 after its batch drains, power it back on later.
        m.power_off(0, SimTime(400));
        m.power_on(0, SimTime(800));
        let h = SimTime(1_000);
        assert_eq!(m.powered_ns(0, h), 400 + 200);
        assert_eq!(m.unpowered_ns(0, h), 400);
        // Busy 300 ns, idle only over the powered remainder.
        assert_eq!(m.worker_pj(0, h), 900 * 300 + 172 * 300);
        // Reclaimed = idle draw over the dark window, and the fleet
        // split still telescopes to the per-worker sum.
        assert_eq!(m.reclaimed_pj(h), 172 * 400);
        let t = m.totals(h);
        assert_eq!(t.fleet_pj(), m.worker_pj(0, h) + m.worker_pj(1, h));
    }

    #[test]
    fn gated_windows_emit_a_zero_level_step_function() {
        let mut m = two_workers();
        m.charge(0, SimTime(100), SimTime(400), 9, false);
        m.power_off(0, SimTime(400));
        m.power_on(0, SimTime(800));
        let h = SimTime(1_000);
        let evs = m.events(h);
        let w0: Vec<_> = evs.iter().filter(|e| e.lane == Lane::Power(0)).collect();
        let shape: Vec<_> = w0.iter().map(|e| (e.start.nanos(), e.value.unwrap())).collect();
        assert_eq!(
            shape,
            vec![(0, 172), (100, 900), (400, 172), (400, 0), (800, 172), (1_000, 172)]
        );
        // Re-integration over the gated lane recovers the exact total.
        let mut pj = 0u64;
        for pair in w0.windows(2) {
            pj += pair[0].value.unwrap() * (pair[1].start.nanos() - pair[0].start.nanos());
        }
        assert_eq!(pj, m.worker_pj(0, h));
    }

    #[test]
    fn a_never_gated_meter_is_unchanged_by_the_window_machinery() {
        // Static fleets keep the single default window, so every
        // accessor matches the plain busy/idle accounting.
        let mut m = two_workers();
        m.charge(0, SimTime(100), SimTime(600), 1, false);
        let h = SimTime(1_000);
        assert_eq!(m.powered_ns(0, h), 1_000);
        assert_eq!(m.unpowered_ns(1, h), 0);
        assert_eq!(m.reclaimed_pj(h), 0);
        assert_eq!(m.worker_pj(0, h), 900 * 500 + 172 * 500);
    }

    #[test]
    fn registers_exact_picojoule_counters() {
        let mut m = two_workers();
        m.charge(0, SimTime(0), SimTime(250), 1, false);
        let mut reg = Registry::new();
        m.register(&mut reg, SimTime(1_000));
        let t = m.totals(SimTime(1_000));
        assert_eq!(reg.counter_value("energy.fleet_pj"), Some(t.fleet_pj()));
        assert_eq!(reg.counter_value("energy.active_pj"), Some(t.active_pj));
        assert_eq!(reg.counter_value("energy.w0.pj"), Some(m.worker_pj(0, SimTime(1_000))));
        assert_eq!(
            reg.counter_value("energy.w0.pj").unwrap() + reg.counter_value("energy.w1.pj").unwrap(),
            t.fleet_pj()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Conservation on randomized server-shaped streams: the
        /// active/wasted/idle split telescopes to the per-worker
        /// integrated energy exactly, and re-integrating the emitted
        /// counter step function recovers the same picojoules.
        #[test]
        fn split_and_step_function_conserve_energy(
            charges in prop::collection::vec(
                (0u32..3, 0u64..50_000, 1u64..5_000, any::<bool>()), 0..40),
        ) {
            let profiles = vec![
                EnergyProfile::new("vpu0", 900, 172, 2_500),
                EnergyProfile::new("vpu1", 1_800, 344, 5_000),
                EnergyProfile::new("cpu", 80_000, 15_000, 80_000),
            ];
            let mut m = EnergyMeter::new(profiles.clone(), SimTime(0));
            for (i, &(w, start, len, wasted)) in charges.iter().enumerate() {
                m.charge(w, SimTime(start), SimTime(start + len), i as u64, wasted);
            }
            let horizon = SimTime::max_of(m.busy_horizon(), SimTime(60_000));
            let t = m.totals(horizon);
            let per_worker: u64 = (0..3).map(|w| m.worker_pj(w, horizon)).sum();
            prop_assert_eq!(t.fleet_pj(), per_worker);

            // Step-function re-integration per lane.
            let evs = m.events(horizon);
            for w in 0..3u32 {
                let lane: Vec<_> =
                    evs.iter().filter(|e| e.lane == Lane::Power(w)).collect();
                let mut pj = 0u64;
                for pair in lane.windows(2) {
                    prop_assert!(pair[1].start >= pair[0].start);
                    pj += pair[0].value.unwrap()
                        * (pair[1].start.nanos() - pair[0].start.nanos());
                }
                prop_assert_eq!(pj, m.worker_pj(w as usize, horizon));
            }
        }
    }
}
