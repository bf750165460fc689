//! Exact energy attribution from the trace's power lanes.
//!
//! The serving loop's [`ncsw_obs::EnergyMeter`] exports each worker's
//! power draw as a step function of `PowerSample` counter events on a
//! per-worker [`Lane::Power`] lane. This module re-integrates those
//! samples — the trace alone recovers the *exact* picojoule ledger the
//! server accounted, no access to the run required — and then mirrors
//! the latency attribution with an energy attribution:
//!
//! - each busy span is classified **active** (its batch id appears on a
//!   `Complete` event) or **wasted** (a timed-out or failed attempt:
//!   energy burned, latency never attributed);
//! - every active span's energy is split exactly across its batch
//!   members (integer division, remainder to the lowest request ids),
//!   and each member's share is split across the nine telescoping
//!   latency [`Segment`]s by nanosecond overlap with the busy span;
//! - all splits are integer-exact, so the conservation laws are `u64`
//!   equalities: per-request segments sum to the request's share, the
//!   shares sum to the fleet's active energy, and
//!   `active + wasted + idle == integrated fleet energy`.

use crate::attribution::{Breakdown, Segment};
use crate::span::SpanForest;
use desim::SimTime;
use ncsw_obs::{EventLog, Lane, Phase};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One busy span reconstructed from a worker's power lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusySpan {
    pub batch: u64,
    pub start: SimTime,
    pub end: SimTime,
    /// Draw during the span, milliwatts.
    pub mw: u64,
    /// True when no completion carries this batch id — a failed
    /// attempt whose energy is charged but never attributed.
    pub wasted: bool,
}

impl BusySpan {
    /// Exact span energy: `mW × ns == pJ`.
    pub fn pj(&self) -> u64 {
        self.mw * (self.end.nanos() - self.start.nanos())
    }
}

/// One worker's power lane, re-integrated.
#[derive(Debug, Clone)]
pub struct WorkerLedger {
    pub worker: u32,
    /// Gated draw between busy spans (the lane's first sample).
    pub idle_mw: u64,
    /// Exact step-function integral over the sampled window.
    pub total_pj: u64,
    pub busy: Vec<BusySpan>,
    /// First and last sample instants (epoch and energy horizon).
    pub from: SimTime,
    pub until: SimTime,
}

impl WorkerLedger {
    pub fn active_pj(&self) -> u64 {
        self.busy.iter().filter(|s| !s.wasted).map(BusySpan::pj).sum()
    }

    pub fn wasted_pj(&self) -> u64 {
        self.busy.iter().filter(|s| s.wasted).map(BusySpan::pj).sum()
    }
}

/// One completed request's exact energy share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestEnergy {
    pub id: u64,
    /// The request's share of its batch's busy energy, picojoules.
    pub pj: u64,
    /// Split across [`Segment::ALL`]; sums to `pj` exactly.
    pub segs: [u64; 9],
}

/// The energy view of one trace. `None` from [`EnergyAnalysis::of`]
/// when the trace predates power lanes.
#[derive(Debug, Clone)]
pub struct EnergyAnalysis {
    pub workers: Vec<WorkerLedger>,
    /// Σ per-worker integrals — the trace's total device energy.
    pub fleet_pj: u64,
    /// Busy energy of spans whose batch completed.
    pub active_pj: u64,
    /// Busy energy of failed attempts.
    pub wasted_pj: u64,
    /// Everything else: gated draw over the horizon.
    pub idle_pj: u64,
    /// Σ per-request shares. Equals `active_pj` exactly — the
    /// conservation law the property tests enforce.
    pub attributed_pj: u64,
    /// Per-request shares, ordered by request id.
    pub requests: Vec<RequestEnergy>,
    /// Power samples left out of the integral, one line each naming the
    /// sample: out of time order, or too much energy for a u64 ledger.
    pub skipped: Vec<String>,
}

/// Overlap of two half-open intervals, in nanoseconds.
fn overlap(a0: u64, a1: u64, b0: u64, b1: u64) -> u64 {
    a1.min(b1).saturating_sub(a0.max(b0))
}

/// Split `share` pJ across the nine segments of `b` (whose boundaries
/// start at `arrive`) weighted by overlap with the busy span. Integer
/// floor division with the remainder going to the earliest overlapping
/// segments, so the parts sum to `share` exactly. A request whose
/// segments never overlap its batch's busy span (clock skew cannot
/// happen in the simulator, but a truncated trace can) charges
/// everything to `Completion`.
fn split_segments(b: &Breakdown, arrive: SimTime, span: &BusySpan, share: u64) -> [u64; 9] {
    let mut weights = [0u64; 9];
    let mut t = arrive.nanos();
    for s in Segment::ALL {
        let end = t + b.seg(s).nanos();
        weights[s as usize] = overlap(t, end, span.start.nanos(), span.end.nanos());
        t = end;
    }
    let total_w: u64 = weights.iter().sum();
    let mut out = [0u64; 9];
    if total_w == 0 {
        out[Segment::Completion as usize] = share;
        return out;
    }
    let mut assigned = 0u64;
    for i in 0..9 {
        out[i] = (share as u128 * weights[i] as u128 / total_w as u128) as u64;
        assigned += out[i];
    }
    // Each floor loses < 1 pJ, so the remainder is smaller than the
    // number of overlapping segments.
    let mut rem = share - assigned;
    for i in 0..9 {
        if rem == 0 {
            break;
        }
        if weights[i] > 0 {
            out[i] += 1;
            rem -= 1;
        }
    }
    out
}

impl EnergyAnalysis {
    /// Re-integrate the power lanes of `log` and attribute the active
    /// energy to the completed requests of `forest`/`breakdowns`.
    pub fn of(log: &EventLog, forest: &SpanForest, breakdowns: &[Breakdown]) -> Option<Self> {
        // Batch ids that produced completions, and their members.
        let mut members: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for r in forest.requests.values() {
            if let (Some(_), Some(b)) = (r.complete, r.batch) {
                members.entry(b).or_default().push(r.id);
            }
        }
        let successful: BTreeSet<u64> = members.keys().copied().collect();

        // Per-lane samples, in record order (the exporter emits each
        // lane's step function in time order).
        let mut lanes: BTreeMap<u32, Vec<(SimTime, u64, Option<u64>)>> = BTreeMap::new();
        for ev in log.events() {
            if ev.phase != Phase::PowerSample {
                continue;
            }
            if let Lane::Power(w) = ev.lane {
                lanes.entry(w).or_default().push((
                    ev.start,
                    ev.value.unwrap_or(0),
                    ev.ctx.batch_id,
                ));
            }
        }
        if lanes.is_empty() {
            return None;
        }

        // A sample before its predecessor, or a step whose energy would
        // overflow the fleet's u64 pJ ledger, is skipped and reported.
        // Every sum below is then bounded by `fleet_pj`.
        let mut fleet_pj = 0u64;
        let mut skipped = Vec::new();
        let mut workers = Vec::new();
        for (w, samples) in &lanes {
            let mut total_pj = 0u64;
            let mut busy = Vec::new();
            let mut prev = samples[0];
            for &next in &samples[1..] {
                let ((t0, mw, batch), (t1, next_mw, _)) = (prev, next);
                let Some(dt) = t1.nanos().checked_sub(t0.nanos()) else {
                    skipped.push(format!(
                        "power sample w{w} {next_mw} mW at {t1}: before the lane's previous \
                         sample at {t0}"
                    ));
                    continue;
                };
                prev = next;
                let pj = mw.checked_mul(dt).filter(|pj| fleet_pj.checked_add(*pj).is_some());
                let Some(pj) = pj else {
                    skipped.push(format!(
                        "power sample w{w} {mw} mW at {t0}: {dt} ns of it overflow the u64 \
                         pJ ledger"
                    ));
                    continue;
                };
                total_pj += pj;
                fleet_pj += pj;
                if let Some(b) = batch {
                    busy.push(BusySpan {
                        batch: b,
                        start: t0,
                        end: t1,
                        mw,
                        wasted: !successful.contains(&b),
                    });
                }
            }
            workers.push(WorkerLedger {
                worker: *w,
                idle_mw: samples[0].1,
                total_pj,
                busy,
                from: samples[0].0,
                until: prev.0,
            });
        }

        let active_pj: u64 = workers.iter().map(WorkerLedger::active_pj).sum();
        let wasted_pj: u64 = workers.iter().map(WorkerLedger::wasted_pj).sum();
        let idle_pj = fleet_pj - active_pj - wasted_pj;

        // Attribute every active span to its batch members.
        let by_id: BTreeMap<u64, &Breakdown> = breakdowns.iter().map(|b| (b.id, b)).collect();
        let mut requests: BTreeMap<u64, RequestEnergy> = BTreeMap::new();
        for ledger in &workers {
            for span in ledger.busy.iter().filter(|s| !s.wasted) {
                let ids = &members[&span.batch];
                let total = span.pj();
                let base = total / ids.len() as u64;
                let rem = total % ids.len() as u64;
                for (i, id) in ids.iter().enumerate() {
                    let share = base + u64::from((i as u64) < rem);
                    let e = requests.entry(*id).or_insert(RequestEnergy {
                        id: *id,
                        pj: 0,
                        segs: [0; 9],
                    });
                    e.pj += share;
                    if let (Some(b), Some(r)) = (by_id.get(id), forest.requests.get(id)) {
                        for (s, pj) in split_segments(b, r.arrive, span, share).iter().enumerate() {
                            e.segs[s] += pj;
                        }
                    } else {
                        // Member without a breakdown (truncated trace):
                        // keep the total exact via Completion.
                        e.segs[Segment::Completion as usize] += share;
                    }
                }
            }
        }
        let requests: Vec<RequestEnergy> = requests.into_values().collect();
        let attributed_pj = requests.iter().map(|r| r.pj).sum();

        Some(EnergyAnalysis {
            workers,
            fleet_pj,
            active_pj,
            wasted_pj,
            idle_pj,
            attributed_pj,
            requests,
            skipped,
        })
    }

    /// Σ attributed picojoules per segment, mirroring the latency
    /// attribution table.
    pub fn segment_pj(&self) -> [u64; 9] {
        let mut out = [0u64; 9];
        for r in &self.requests {
            for (i, pj) in r.segs.iter().enumerate() {
                out[i] += pj;
            }
        }
        out
    }

    /// Human-readable rendering appended to the analysis report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "energy: fleet {:.3} J = active {:.3} + wasted {:.3} + idle {:.3} \
             ({} pJ exact; {:.1}% of device energy attributed to requests)",
            ncsw_obs::joules(self.fleet_pj),
            ncsw_obs::joules(self.active_pj),
            ncsw_obs::joules(self.wasted_pj),
            ncsw_obs::joules(self.idle_pj),
            self.fleet_pj,
            if self.fleet_pj == 0 {
                0.0
            } else {
                self.attributed_pj as f64 / self.fleet_pj as f64 * 100.0
            },
        );
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>10} {:>8}",
            "worker", "energy_j", "active_j", "wasted_j", "spans"
        );
        for l in &self.workers {
            let _ = writeln!(
                out,
                "w{:<7} {:>10.3} {:>10.3} {:>10.3} {:>8}",
                l.worker,
                ncsw_obs::joules(l.total_pj),
                ncsw_obs::joules(l.active_pj()),
                ncsw_obs::joules(l.wasted_pj()),
                l.busy.len()
            );
        }
        let seg = self.segment_pj();
        let _ = writeln!(out, "\n{:<15} {:>12} {:>7}", "segment", "energy_j", "share");
        for s in Segment::ALL {
            let pj = seg[s as usize];
            let _ = writeln!(
                out,
                "{:<15} {:>12.6} {:>6.1}%",
                s.name(),
                ncsw_obs::joules(pj),
                if self.attributed_pj == 0 {
                    0.0
                } else {
                    pj as f64 / self.attributed_pj as f64 * 100.0
                },
            );
        }
        for line in &self.skipped {
            let _ = writeln!(out, "skipped {line}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attribution::Analysis;
    use ncsw_obs::{Ctx, EnergyMeter, EnergyProfile, Event, Recorder};

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    /// One VPU worker serving a 3-member batch, plus a wasted
    /// (timed-out) attempt that never completed.
    fn metered_log() -> EventLog {
        let mut log = EventLog::new();
        for id in [0u64, 1, 2] {
            let r = Ctx::request(id);
            log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), r));
            log.record(Event::instant(Phase::BatchClose, Lane::Queue, t(10), r.with_batch(1)));
            log.record(Event::instant(
                Phase::Dispatch,
                Lane::Worker(0),
                t(10),
                r.with_batch(1).with_worker(0),
            ));
            log.record(Event::instant(
                Phase::Complete,
                Lane::Server,
                t(40),
                r.with_batch(1).with_worker(0),
            ));
        }
        let mut m = EnergyMeter::new(vec![EnergyProfile::new("vpu", 900, 172, 2_500)], t(0));
        m.charge(0, t(10), t(40), 1, false);
        m.charge(0, t(50), t(60), 2, true);
        m.record_into(&mut log, t(100));
        log
    }

    #[test]
    fn trace_reintegration_matches_the_meter_exactly() {
        let a = Analysis::of(&metered_log());
        let ea = a.energy.as_ref().expect("power lanes present");
        // 30 ms busy + 10 ms wasted @900 mW, 60 ms idle @172 mW.
        assert_eq!(ea.active_pj, 900 * 30_000_000);
        assert_eq!(ea.wasted_pj, 900 * 10_000_000);
        assert_eq!(ea.idle_pj, 172 * 60_000_000);
        assert_eq!(ea.fleet_pj, ea.active_pj + ea.wasted_pj + ea.idle_pj);
        assert_eq!(ea.attributed_pj, ea.active_pj);
    }

    #[test]
    fn batch_energy_splits_exactly_across_members() {
        let a = Analysis::of(&metered_log());
        let ea = a.energy.as_ref().unwrap();
        assert_eq!(ea.requests.len(), 3);
        let total: u64 = ea.requests.iter().map(|r| r.pj).sum();
        assert_eq!(total, ea.active_pj);
        // 27e9 pJ over 3 members: exact thirds here.
        assert_eq!(ea.requests[0].pj, 9_000_000_000);
        for r in &ea.requests {
            assert_eq!(r.segs.iter().sum::<u64>(), r.pj, "request {}", r.id);
        }
    }

    #[test]
    fn remainders_go_to_the_lowest_request_ids() {
        // 10 pJ over 3 members -> 4, 3, 3.
        let span = BusySpan { batch: 0, start: SimTime(0), end: SimTime(10), mw: 1, wasted: false };
        assert_eq!(span.pj(), 10);
        let base = span.pj() / 3;
        let rem = span.pj() % 3;
        let shares: Vec<u64> = (0..3).map(|i| base + u64::from((i as u64) < rem)).collect();
        assert_eq!(shares, vec![4, 3, 3]);
    }

    #[test]
    fn non_overlapping_share_lands_in_completion() {
        let b = Breakdown {
            id: 0,
            total: desim::Duration::from_millis(10.0),
            segs: [desim::Duration::ZERO; 9],
            critical: Segment::Formation,
            worker: Some(0),
            retries: 0,
        };
        let span = BusySpan { batch: 0, start: t(50), end: t(60), mw: 900, wasted: false };
        let split = split_segments(&b, t(0), &span, 1_000);
        assert_eq!(split[Segment::Completion as usize], 1_000);
        assert_eq!(split.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn out_of_order_and_overflowing_samples_are_skipped_by_name() {
        let lane = Lane::Power(0);
        let mut log = EventLog::new();
        for (at, mw) in [(t(0), 100), (t(10), 200), (t(5), 300), (t(20), u64::MAX), (t(30), 100)] {
            log.record(Event::counter(lane, at, mw, Ctx::default()));
        }
        log.record(Event::counter(lane, t(40), 0, Ctx::default()));
        let ea = Analysis::of(&log).energy.expect("power lane present");
        // 0..10 at 100 mW, 10..20 at 200 mW, 30..40 at 100 mW: the row
        // at 5 ms is out of order and 20..30 ms at u64::MAX mW overflows.
        assert_eq!(ea.fleet_pj, (100 + 200 + 100) * 10_000_000);
        assert_eq!(ea.skipped.len(), 2, "{:?}", ea.skipped);
        assert!(ea.skipped[0].contains("300 mW at 5.000ms"), "{}", ea.skipped[0]);
        assert!(
            ea.skipped[1].contains(&format!("{} mW at 20.000ms", u64::MAX)),
            "{}",
            ea.skipped[1]
        );
        assert!(ea.render().contains("skipped power sample w0 300 mW"));
    }

    #[test]
    fn pre_energy_traces_have_no_energy_block() {
        let mut log = EventLog::new();
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), Ctx::request(0)));
        assert!(Analysis::of(&log).energy.is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::attribution::Analysis;
    use ncsw_obs::{Ctx, EnergyMeter, EnergyProfile, Event, Recorder};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Conservation on randomized server-shaped streams: the trace
        /// re-integration equals the meter's integral, attribution
        /// equals the active energy, and every request's segment split
        /// telescopes — all as exact u64 equalities.
        #[test]
        fn attribution_conserves_energy(
            batches in prop::collection::vec(
                // (worker, gap ns, len ns, members, wasted)
                (0u32..2, 0u64..40_000, 1u64..60_000, 1usize..4, any::<bool>()),
                1..16),
        ) {
            let profiles = vec![
                EnergyProfile::new("vpu", 900, 172, 2_500),
                EnergyProfile::new("cpu", 80_000, 15_000, 80_000),
            ];
            let mut m = EnergyMeter::new(profiles, SimTime(0));
            let mut log = EventLog::new();
            let mut cursor = [0u64; 2];
            let mut next_id = 0u64;
            for (bid, &(w, gap, len, members, wasted)) in batches.iter().enumerate() {
                let bid = bid as u64;
                let start = SimTime(cursor[w as usize] + gap);
                let end = SimTime(start.nanos() + len);
                cursor[w as usize] = end.nanos();
                m.charge(w, start, end, bid, wasted);
                for _ in 0..members {
                    let r = Ctx::request(next_id);
                    next_id += 1;
                    log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(0), r));
                    log.record(Event::instant(
                        Phase::Dispatch, Lane::Worker(w), start,
                        r.with_batch(bid).with_worker(w)));
                    if !wasted {
                        log.record(Event::instant(
                            Phase::Complete, Lane::Server, end,
                            r.with_batch(bid).with_worker(w)));
                    }
                }
            }
            let horizon = SimTime(m.busy_horizon().nanos() + 10_000);
            m.record_into(&mut log, horizon);

            let a = Analysis::of(&log);
            let ea = a.energy.as_ref().expect("power lanes recorded");
            let meter_fleet: u64 = (0..2).map(|w| m.worker_pj(w, horizon)).sum();
            prop_assert_eq!(ea.fleet_pj, meter_fleet);
            let t = m.totals(horizon);
            prop_assert_eq!(ea.active_pj, t.active_pj);
            prop_assert_eq!(ea.wasted_pj, t.wasted_pj);
            prop_assert_eq!(ea.idle_pj, t.idle_pj);
            prop_assert_eq!(ea.attributed_pj, ea.active_pj);
            prop_assert_eq!(
                ea.fleet_pj,
                ea.attributed_pj + ea.wasted_pj + ea.idle_pj
            );
            for r in &ea.requests {
                prop_assert_eq!(r.segs.iter().sum::<u64>(), r.pj);
            }
        }
    }
}
