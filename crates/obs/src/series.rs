//! Periodic time-series sampling on the virtual clock.
//!
//! End-of-run percentiles hide the shape of a run: a queue that spikes
//! and drains, a worker that saturates halfway through a burst. The
//! [`TimeSeriesBuilder`] is fed by the serving loop as it processes
//! events and emits one row per sampling interval: queue depth,
//! in-flight batches, cumulative completions/sheds, the SLO burn rate
//! over the window, and per-worker utilization since epoch.

use crate::prof::WriteStats;
use desim::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;

/// One sampled row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    pub t: SimTime,
    /// Requests waiting in the bounded queue.
    pub queue_depth: usize,
    /// Batches dispatched but not yet fully returned.
    pub inflight_batches: usize,
    /// Cumulative completions so far.
    pub completed: u64,
    /// Cumulative shed requests so far.
    pub shed: u64,
    /// Fraction of the window's completions that missed the SLO
    /// (error-budget burn rate; 0 when the window saw no completions).
    pub slo_burn: f64,
    /// Fraction of the window's arrivals that were shed (0 when the
    /// window saw no arrivals).
    pub shed_rate: f64,
    /// Per-worker busy fraction of the epoch→t interval.
    pub worker_util: Vec<f64>,
    /// Per-worker circuit-breaker state as of this boundary: 0.0
    /// closed, 1.0 open (matches the CircuitOpen/CircuitClose events).
    pub circuit: Vec<f64>,
    /// Per-worker average power draw in watts over epoch→t (busy spans
    /// at the busy rate, the rest gated/idle; zero until the builder is
    /// given power profiles).
    pub worker_power: Vec<f64>,
    /// Cumulative fleet energy in joules since the epoch.
    pub energy_j: f64,
    /// Cumulative completions per joule — numerically identical to
    /// img/s/W, the paper's Eq. 1 axis, but over *integrated* energy
    /// rather than nameplate TDP.
    pub img_per_watt: f64,
    /// Workers currently dispatchable (not drained, not provisioning).
    /// Constant at the fleet size unless an autoscaler is attached.
    pub live_sticks: usize,
    /// Cumulative autoscaling decisions applied so far.
    pub scale_events: u64,
}

/// A complete sampled series with its worker column labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    pub epoch: SimTime,
    pub interval: Duration,
    pub worker_labels: Vec<String>,
    pub samples: Vec<Sample>,
    /// True when the run carried an autoscaler: the CSV then appends
    /// `live_sticks,scale_events` columns. Controller-less runs keep
    /// the exact pre-autoscaling column set, byte for byte.
    pub scaling: bool,
}

impl TimeSeries {
    /// CSV export: `time_ms,queue_depth,inflight_batches,completed,shed,
    /// slo_burn,shed_rate,util_<worker>...,circuit_<worker>...,
    /// power_<worker>...,energy_j,img_per_watt`, times relative to the
    /// epoch.
    ///
    /// Buffered convenience over [`TimeSeries::csv_to`]: the bytes come
    /// from the same streaming writer.
    pub fn csv(&self) -> String {
        let mut buf = Vec::new();
        self.csv_to(&mut buf).expect("Vec<u8> sink cannot fail");
        String::from_utf8(buf).expect("series CSV is ASCII")
    }

    /// Stream the CSV row-at-a-time into `sink` with bounded memory
    /// (one scratch row, reused). Byte-identical to [`TimeSeries::csv`].
    pub fn csv_to<W: io::Write>(&self, mut sink: W) -> io::Result<WriteStats> {
        let mut stats = WriteStats::default();
        let mut row = String::from("time_ms,queue_depth,inflight_batches,completed,shed,slo_burn");
        row.push_str(",shed_rate");
        for label in &self.worker_labels {
            let _ = write!(row, ",util_{}", label.replace([' ', ','], "_"));
        }
        for label in &self.worker_labels {
            let _ = write!(row, ",circuit_{}", label.replace([' ', ','], "_"));
        }
        for label in &self.worker_labels {
            let _ = write!(row, ",power_{}", label.replace([' ', ','], "_"));
        }
        row.push_str(",energy_j,img_per_watt");
        if self.scaling {
            row.push_str(",live_sticks,scale_events");
        }
        row.push('\n');
        stats.peak_buffered = stats.peak_buffered.max(row.len() as u64);
        sink.write_all(row.as_bytes())?;
        stats.bytes += row.len() as u64;
        for s in &self.samples {
            row.clear();
            let _ = write!(
                row,
                "{:.3},{},{},{},{},{:.6},{:.6}",
                (s.t - self.epoch).as_millis(),
                s.queue_depth,
                s.inflight_batches,
                s.completed,
                s.shed,
                s.slo_burn,
                s.shed_rate
            );
            for u in &s.worker_util {
                let _ = write!(row, ",{u:.6}");
            }
            for c in &s.circuit {
                let _ = write!(row, ",{c:.1}");
            }
            for p in &s.worker_power {
                let _ = write!(row, ",{p:.6}");
            }
            let _ = write!(row, ",{:.6},{:.6}", s.energy_j, s.img_per_watt);
            if self.scaling {
                let _ = write!(row, ",{},{}", s.live_sticks, s.scale_events);
            }
            row.push('\n');
            stats.peak_buffered = stats.peak_buffered.max(row.len() as u64);
            sink.write_all(row.as_bytes())?;
            stats.bytes += row.len() as u64;
        }
        sink.flush()?;
        Ok(stats)
    }
}

/// Incremental builder the serving loop drives. `advance` must be
/// called with non-decreasing instants (the loop's event times); each
/// crossing of a sample boundary emits a row using the state as of
/// that boundary.
#[derive(Debug)]
pub struct TimeSeriesBuilder {
    epoch: SimTime,
    interval: Duration,
    slo: Duration,
    labels: Vec<String>,
    next: SimTime,
    /// Per-worker service spans in dispatch order (each worker
    /// self-serializes, so spans are non-overlapping and time-ordered).
    spans: Vec<Vec<(SimTime, SimTime)>>,
    /// Per-worker cursor + busy time of fully consumed spans.
    cursor: Vec<usize>,
    consumed: Vec<Duration>,
    /// Per-worker `(busy_mw, idle_mw)` power rates; all-zero until
    /// [`TimeSeriesBuilder::set_power`] is called.
    power: Vec<(u64, u64)>,
    /// Per-worker *charged* busy spans (clipped, so disjoint and
    /// time-ordered) — unlike `spans`, these include failed attempts,
    /// whose energy is real even though they serve nothing.
    espans: Vec<Vec<(SimTime, SimTime)>>,
    ecursor: Vec<usize>,
    econsumed: Vec<Duration>,
    /// Outstanding batch spans (pruned as samples pass their end).
    active: Vec<(SimTime, SimTime)>,
    completed: u64,
    shed: u64,
    win_done: u64,
    win_miss: u64,
    win_arrived: u64,
    win_shed: u64,
    /// Current per-worker circuit state (0.0 closed, 1.0 open).
    circuit: Vec<f64>,
    /// Future circuit transitions `(at, worker, state)` — failure
    /// detection lands after the loop instant that dispatched the
    /// batch, so transitions are buffered and applied in time order as
    /// sample boundaries pass them (mirrors completion buffering in the
    /// serving loop).
    circuit_pending: Vec<(SimTime, usize, f64)>,
    /// `Some` once an autoscaler attached: current live-worker count
    /// and cumulative decisions, with buffered future transitions
    /// `(at, live_delta, decision_delta)` — a scale-up's live increment
    /// lands at the end of its provisioning delay, past the tick that
    /// decided it.
    scaling: Option<ScalingCols>,
    /// Per-worker powered state, the instant it last changed, and the
    /// powered nanoseconds accumulated before that instant — drives the
    /// energy columns for workers that are dark for part of the run.
    pstate: Vec<bool>,
    pmark: Vec<SimTime>,
    pconsumed: Vec<u64>,
    /// Buffered future power transitions `(at, worker, powered)` — a
    /// drain's power-off lands when its in-flight batches finish.
    power_pending: Vec<(SimTime, usize, bool)>,
    samples: Vec<Sample>,
}

#[derive(Debug)]
struct ScalingCols {
    live: usize,
    events: u64,
    pending: Vec<(SimTime, i64, u64)>,
}

impl TimeSeriesBuilder {
    pub fn new(labels: Vec<String>, epoch: SimTime, interval: Duration, slo: Duration) -> Self {
        assert!(interval > Duration::ZERO, "sampling interval must be positive");
        let n = labels.len();
        TimeSeriesBuilder {
            epoch,
            interval,
            slo,
            labels,
            next: epoch + interval,
            spans: vec![Vec::new(); n],
            cursor: vec![0; n],
            consumed: vec![Duration::ZERO; n],
            power: vec![(0, 0); n],
            espans: vec![Vec::new(); n],
            ecursor: vec![0; n],
            econsumed: vec![Duration::ZERO; n],
            active: Vec::new(),
            completed: 0,
            shed: 0,
            win_done: 0,
            win_miss: 0,
            win_arrived: 0,
            win_shed: 0,
            circuit: vec![0.0; n],
            circuit_pending: Vec::new(),
            scaling: None,
            pstate: vec![true; n],
            pmark: vec![epoch; n],
            pconsumed: vec![0; n],
            power_pending: Vec::new(),
            samples: Vec::new(),
        }
    }

    /// Attach autoscaling columns: samples carry `live_sticks` (from
    /// `initial_live`) and cumulative `scale_events`. Without this call
    /// the series keeps the exact pre-autoscaling CSV shape.
    pub fn enable_scaling(&mut self, initial_live: usize) {
        self.scaling = Some(ScalingCols { live: initial_live, events: 0, pending: Vec::new() });
    }

    /// An autoscaling transition: at `at`, the live-worker count moves
    /// by `live_delta` and the cumulative decision count by
    /// `decisions`. Buffered and applied in time order at sample
    /// boundaries, like circuit transitions.
    pub fn scale_event(&mut self, at: SimTime, live_delta: i64, decisions: u64) {
        if let Some(sc) = self.scaling.as_mut() {
            sc.pending.push((at, live_delta, decisions));
        }
    }

    /// Worker `worker` powered off (`false`) or back on (`true`) at
    /// `at`: from that instant its energy column integrates zero draw
    /// (respectively its idle/busy rates again).
    pub fn power_event(&mut self, worker: usize, at: SimTime, powered: bool) {
        self.power_pending.push((at, worker, powered));
    }

    /// A batch was dispatched to `worker`, occupying it over
    /// `start..end`.
    pub fn on_batch(&mut self, worker: usize, start: SimTime, end: SimTime) {
        self.spans[worker].push((start, end));
        self.active.push((start, end));
    }

    /// Provide per-worker `(busy_mw, idle_mw)` rates so samples carry
    /// power/energy columns (zero otherwise).
    pub fn set_power(&mut self, rates: Vec<(u64, u64)>) {
        assert_eq!(rates.len(), self.power.len(), "one power rate per worker");
        self.power = rates;
    }

    /// Energy was charged to `worker` over `start..end` (an already
    /// clipped meter span — includes failed attempts, which don't count
    /// toward utilization but do burn joules).
    pub fn on_energy_span(&mut self, worker: usize, start: SimTime, end: SimTime) {
        self.espans[worker].push((start, end));
    }

    /// A request completed with end-to-end `latency`.
    pub fn on_complete(&mut self, latency: Duration) {
        self.completed += 1;
        self.win_done += 1;
        if latency > self.slo {
            self.win_miss += 1;
        }
    }

    /// A request arrived (drives the windowed shed-rate denominator).
    pub fn on_arrival(&mut self) {
        self.win_arrived += 1;
    }

    /// A request was shed.
    pub fn on_shed(&mut self) {
        self.shed += 1;
        self.win_shed += 1;
    }

    /// Worker `worker`'s circuit breaker transitioned to `state` (1.0
    /// open, 0.0 closed) at instant `at`, which may lie beyond the
    /// loop's current time — applied when a sample boundary passes it.
    pub fn circuit_event(&mut self, worker: usize, state: f64, at: SimTime) {
        self.circuit_pending.push((at, worker, state));
    }

    /// Emit any samples whose boundary falls at or before `now`, using
    /// `queue_depth` as the queue state (constant between loop events).
    pub fn advance(&mut self, now: SimTime, queue_depth: usize) {
        while self.next <= now {
            let s = self.next;
            self.next += self.interval;
            self.emit(s, queue_depth);
        }
    }

    fn emit(&mut self, s: SimTime, queue_depth: usize) {
        // Apply circuit transitions up to this boundary in time order
        // (stable sort keeps same-instant transitions in push order).
        self.circuit_pending.sort_by_key(|&(at, _, _)| at);
        let mut applied = 0;
        for &(at, w, state) in self.circuit_pending.iter() {
            if at > s {
                break;
            }
            self.circuit[w] = state;
            applied += 1;
        }
        self.circuit_pending.drain(..applied);
        // Apply power transitions up to this boundary, accumulating
        // each worker's powered time piecewise.
        self.power_pending.sort_by_key(|&(at, _, _)| at);
        let mut applied = 0;
        for &(at, w, powered) in self.power_pending.iter() {
            if at > s {
                break;
            }
            if self.pstate[w] {
                self.pconsumed[w] += (at - self.pmark[w]).nanos();
            }
            self.pmark[w] = at;
            self.pstate[w] = powered;
            applied += 1;
        }
        self.power_pending.drain(..applied);
        // Apply scaling transitions up to this boundary.
        if let Some(sc) = self.scaling.as_mut() {
            sc.pending.sort_by_key(|&(at, _, _)| at);
            let mut applied = 0;
            for &(at, live_delta, decisions) in sc.pending.iter() {
                if at > s {
                    break;
                }
                sc.live = (sc.live as i64 + live_delta).max(0) as usize;
                sc.events += decisions;
                applied += 1;
            }
            sc.pending.drain(..applied);
        }
        let horizon = (s - self.epoch).as_secs();
        let util: Vec<f64> = (0..self.labels.len())
            .map(|w| {
                let spans = &self.spans[w];
                let (mut cur, mut busy) = (self.cursor[w], self.consumed[w]);
                while cur < spans.len() && spans[cur].1 <= s {
                    busy += spans[cur].1 - spans[cur].0;
                    cur += 1;
                }
                self.cursor[w] = cur;
                self.consumed[w] = busy;
                // Partial credit for the span straddling the boundary.
                if cur < spans.len() && spans[cur].0 < s {
                    busy += s - spans[cur].0;
                }
                if horizon <= 0.0 {
                    0.0
                } else {
                    busy.as_secs() / horizon
                }
            })
            .collect();
        // Energy: integrate each worker's charged-span ledger to this
        // boundary (integer pJ = mW × ns, same discipline as the
        // EnergyMeter, so the last row agrees with the meter exactly).
        let elapsed_ns = (s - self.epoch).nanos();
        let mut fleet_pj = 0u64;
        let worker_power: Vec<f64> = (0..self.labels.len())
            .map(|w| {
                let spans = &self.espans[w];
                let (mut cur, mut busy) = (self.ecursor[w], self.econsumed[w]);
                while cur < spans.len() && spans[cur].1 <= s {
                    busy += spans[cur].1 - spans[cur].0;
                    cur += 1;
                }
                self.ecursor[w] = cur;
                self.econsumed[w] = busy;
                if cur < spans.len() && spans[cur].0 < s {
                    busy += s - spans[cur].0;
                }
                let busy_ns = busy.nanos().min(elapsed_ns);
                let (busy_mw, idle_mw) = self.power[w];
                // Idle draw accrues only over powered time: a gated
                // worker's lane is dark, exactly as in the EnergyMeter.
                let powered_ns = self.pconsumed[w]
                    + if self.pstate[w] { (s - self.pmark[w]).nanos() } else { 0 };
                let pj = busy_mw * busy_ns + idle_mw * (powered_ns.saturating_sub(busy_ns));
                fleet_pj += pj;
                if elapsed_ns == 0 {
                    0.0
                } else {
                    pj as f64 / elapsed_ns as f64 / 1e3
                }
            })
            .collect();
        let energy_j = fleet_pj as f64 / 1e12;
        self.active.retain(|&(_, end)| end > s);
        let inflight = self.active.iter().filter(|&&(start, _)| start <= s).count();
        let burn =
            if self.win_done == 0 { 0.0 } else { self.win_miss as f64 / self.win_done as f64 };
        let shed_rate = if self.win_arrived == 0 {
            0.0
        } else {
            self.win_shed as f64 / self.win_arrived as f64
        };
        self.win_done = 0;
        self.win_miss = 0;
        self.win_arrived = 0;
        self.win_shed = 0;
        self.samples.push(Sample {
            t: s,
            queue_depth,
            inflight_batches: inflight,
            completed: self.completed,
            shed: self.shed,
            slo_burn: burn,
            shed_rate,
            worker_util: util,
            circuit: self.circuit.clone(),
            worker_power,
            energy_j,
            img_per_watt: if energy_j > 0.0 { self.completed as f64 / energy_j } else { 0.0 },
            live_sticks: self.scaling.as_ref().map_or(self.labels.len(), |sc| sc.live),
            scale_events: self.scaling.as_ref().map_or(0, |sc| sc.events),
        });
    }

    /// Sample through `end` and return the finished series.
    pub fn finish(mut self, end: SimTime, queue_depth: usize) -> TimeSeries {
        self.advance(end, queue_depth);
        TimeSeries {
            epoch: self.epoch,
            interval: self.interval,
            worker_labels: self.labels,
            samples: self.samples,
            scaling: self.scaling.is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: f64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    #[test]
    fn samples_fall_on_interval_boundaries() {
        let mut b = TimeSeriesBuilder::new(vec!["cpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.advance(at(35.0), 2);
        let ts = b.finish(at(50.0), 0);
        let times: Vec<f64> = ts.samples.iter().map(|s| s.t.as_millis()).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(ts.samples[0].queue_depth, 2);
        assert_eq!(ts.samples[4].queue_depth, 0);
    }

    #[test]
    fn utilization_counts_busy_time_up_to_the_boundary() {
        let mut b = TimeSeriesBuilder::new(vec!["w".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        // Busy 0..15 ms: util at 10 ms = 1.0, at 20 ms = 0.75.
        b.on_batch(0, at(0.0), at(15.0));
        let ts = b.finish(at(20.0), 0);
        assert!((ts.samples[0].worker_util[0] - 1.0).abs() < 1e-9);
        assert!((ts.samples[1].worker_util[0] - 0.75).abs() < 1e-9);
        assert_eq!(ts.samples[0].inflight_batches, 1);
        assert_eq!(ts.samples[1].inflight_batches, 0);
    }

    #[test]
    fn burn_rate_is_windowed() {
        let mut b = TimeSeriesBuilder::new(vec![], SimTime::ZERO, ms(10.0), ms(5.0));
        b.on_complete(ms(2.0)); // within SLO
        b.on_complete(ms(9.0)); // miss
        b.advance(at(10.0), 0);
        b.on_complete(ms(9.0)); // miss, second window
        let ts = b.finish(at(20.0), 0);
        assert!((ts.samples[0].slo_burn - 0.5).abs() < 1e-9);
        assert!((ts.samples[1].slo_burn - 1.0).abs() < 1e-9);
        assert_eq!(ts.samples[1].completed, 3);
    }

    #[test]
    fn csv_has_stable_header_and_rows() {
        let mut b =
            TimeSeriesBuilder::new(vec!["vpu x8".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.on_batch(0, at(0.0), at(4.0));
        let ts = b.finish(at(10.0), 3);
        let csv = ts.csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "time_ms,queue_depth,inflight_batches,completed,shed,slo_burn,shed_rate,\
             util_vpu_x8,circuit_vpu_x8,power_vpu_x8,energy_j,img_per_watt"
        );
        assert_eq!(
            lines.next().unwrap(),
            "10.000,3,0,0,0,0.000000,0.000000,0.400000,0.0,0.000000,0.000000,0.000000"
        );
    }

    #[test]
    fn power_columns_integrate_charged_spans() {
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.set_power(vec![(900, 172)]);
        // Charged 0..5 ms, gated 5..10 ms.
        b.on_energy_span(0, at(0.0), at(5.0));
        let ts = b.finish(at(10.0), 0);
        let s = &ts.samples[0];
        // Average power: (900 mW × 5 ms + 172 mW × 5 ms) / 10 ms = 536 mW.
        assert!((s.worker_power[0] - 0.536).abs() < 1e-12, "{}", s.worker_power[0]);
        let want_j = (900u64 * 5_000_000 + 172 * 5_000_000) as f64 / 1e12;
        assert!((s.energy_j - want_j).abs() < 1e-15, "{}", s.energy_j);
        // No completions yet, so img/W stays zero rather than NaN.
        assert_eq!(s.img_per_watt, 0.0);
        // Utilization is untouched by energy-only spans.
        assert_eq!(s.worker_util[0], 0.0);
    }

    #[test]
    fn shed_rate_is_windowed_over_arrivals() {
        let mut b = TimeSeriesBuilder::new(vec![], SimTime::ZERO, ms(10.0), ms(100.0));
        for _ in 0..4 {
            b.on_arrival();
        }
        b.on_shed();
        b.advance(at(10.0), 0);
        b.on_arrival();
        let ts = b.finish(at(20.0), 0);
        assert!((ts.samples[0].shed_rate - 0.25).abs() < 1e-9);
        assert_eq!(ts.samples[1].shed_rate, 0.0, "window resets");
        assert_eq!(ts.samples[1].shed, 1, "cumulative column unaffected");
    }

    #[test]
    fn circuit_transitions_apply_at_their_own_instant() {
        let mut b = TimeSeriesBuilder::new(
            vec!["a".into(), "b".into()],
            SimTime::ZERO,
            ms(10.0),
            ms(100.0),
        );
        // Buffered out of order; each must land in its own sample.
        b.circuit_event(1, 1.0, at(25.0));
        b.circuit_event(0, 1.0, at(5.0));
        b.circuit_event(0, 0.0, at(15.0));
        let ts = b.finish(at(30.0), 0);
        assert_eq!(ts.samples[0].circuit, vec![1.0, 0.0]); // t=10
        assert_eq!(ts.samples[1].circuit, vec![0.0, 0.0]); // t=20
        assert_eq!(ts.samples[2].circuit, vec![0.0, 1.0]); // t=30
    }

    #[test]
    fn scaling_columns_appear_only_when_enabled() {
        // Without an autoscaler the header is byte-identical to the
        // pre-autoscaling shape.
        let b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        let ts = b.finish(at(10.0), 0);
        assert!(ts.csv().lines().next().unwrap().ends_with(",energy_j,img_per_watt"));

        let mut b = TimeSeriesBuilder::new(
            vec!["a".into(), "b".into(), "c".into()],
            SimTime::ZERO,
            ms(10.0),
            ms(100.0),
        );
        b.enable_scaling(3);
        // Drain c at 5 ms (decision + live drop), power it back with a
        // provisioning delay ending at 25 ms (decision at 12 ms).
        b.scale_event(at(5.0), -1, 1);
        b.scale_event(at(12.0), 0, 1);
        b.scale_event(at(25.0), 1, 0);
        let ts = b.finish(at(30.0), 0);
        let header = ts.csv().lines().next().unwrap().to_string();
        assert!(header.ends_with(",energy_j,img_per_watt,live_sticks,scale_events"));
        let live: Vec<usize> = ts.samples.iter().map(|s| s.live_sticks).collect();
        let events: Vec<u64> = ts.samples.iter().map(|s| s.scale_events).collect();
        assert_eq!(live, vec![2, 2, 3]);
        assert_eq!(events, vec![1, 2, 2]);
    }

    #[test]
    fn energy_column_goes_dark_while_a_worker_is_gated() {
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.set_power(vec![(900, 172)]);
        // Powered idle 0..5 ms, gated 5..10 ms: only 5 ms of idle draw.
        b.power_event(0, at(5.0), false);
        let ts = b.finish(at(10.0), 0);
        let want_j = (172u64 * 5_000_000) as f64 / 1e12;
        assert!((ts.samples[0].energy_j - want_j).abs() < 1e-15, "{}", ts.samples[0].energy_j);
        // Power back on at 12 ms: the second window adds idle draw again.
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.set_power(vec![(900, 172)]);
        b.power_event(0, at(5.0), false);
        b.power_event(0, at(12.0), true);
        let ts = b.finish(at(20.0), 0);
        let want_j = (172u64 * (5_000_000 + 8_000_000)) as f64 / 1e12;
        assert!((ts.samples[1].energy_j - want_j).abs() < 1e-15, "{}", ts.samples[1].energy_j);
    }

    #[test]
    fn csv_to_streams_byte_identically_with_bounded_buffer() {
        let mut b = TimeSeriesBuilder::new(vec!["vpu".into()], SimTime::ZERO, ms(10.0), ms(5.0));
        b.set_power(vec![(900, 172)]);
        b.on_batch(0, at(0.0), at(4.0));
        b.on_energy_span(0, at(0.0), at(4.0));
        b.on_arrival();
        b.on_complete(ms(9.0));
        let ts = b.finish(at(50.0), 2);
        let buffered = ts.csv();
        let mut sink = Vec::new();
        let stats = ts.csv_to(&mut sink).unwrap();
        assert_eq!(String::from_utf8(sink).unwrap(), buffered);
        assert_eq!(stats.bytes, buffered.len() as u64);
        assert!(stats.peak_buffered > 0);
        assert!(
            stats.peak_buffered < buffered.len() as u64,
            "scratch buffer must stay below the whole document: {} vs {}",
            stats.peak_buffered,
            buffered.len()
        );
    }
}
