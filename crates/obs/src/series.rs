//! Periodic time-series sampling on the virtual clock.
//!
//! End-of-run percentiles hide the shape of a run: a queue that spikes
//! and drains, a worker that saturates halfway through a burst, a stick
//! whose circuit opens and the joules it burns meanwhile. A
//! [`TimeSeries`] holds one row per sampling interval, built in two
//! phases by a [`TimeSeriesBuilder`]:
//!
//! - **during the run** the builder keeps only what the serving loop
//!   alone knows: the queue depth as each boundary passes (the one live
//!   snapshot — no record of the run can rebuild it), the spans of
//!   served batches, and autoscaling transitions;
//! - **at [`TimeSeriesBuilder::finish`]** it fills every other column in
//!   one pass over the run's own books: completions, latencies, arrivals
//!   and sheds from the request records, circuit state from the
//!   breaker's [`OutageRecord`]s, and energy from the [`EnergyMeter`].
//!
//! Each fact lands in the row its own timestamp puts it in, however late
//! the loop learned of it. The window rules, for boundaries
//! `s = epoch + k·interval` (`k ≥ 1`):
//!
//! - an event at `x` counts in row `⌊(x − epoch)/interval⌋`, the first
//!   boundary after `x` — an event exactly on a boundary counts in the
//!   next row;
//! - a state that changes at `x` (circuit, power, live sticks) reads
//!   the new value at every boundary `s ≥ x`;
//! - a span straddling `s` is credited up to `s`.

use crate::energy::EnergyMeter;
use crate::prof::WriteStats;
use desim::{Duration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::io;

/// One sampled row. Only `queue_depth` is a live snapshot; every other
/// column is derived from the run's books when the builder finishes
/// (each field names its source).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    pub t: SimTime,
    /// Requests waiting in the bounded queue when the serving loop first
    /// passed this boundary.
    pub queue_depth: usize,
    /// Served batches whose span covers the boundary (the builder's
    /// batch spans).
    pub inflight_batches: usize,
    /// Cumulative completions before the boundary (the completion
    /// records).
    pub completed: u64,
    /// Cumulative sheds before the boundary, each at its decision
    /// instant (the shed records).
    pub shed: u64,
    /// Fraction of the window's completions that missed the SLO
    /// (error-budget burn rate; 0 when the window saw no completions).
    pub slo_burn: f64,
    /// Window sheds over window arrivals, every request counted at its
    /// own arrival (0 when the window saw no arrivals).
    pub shed_rate: f64,
    /// Per-worker busy fraction of the epoch→t interval (the builder's
    /// batch spans).
    pub worker_util: Vec<f64>,
    /// Per-worker circuit-breaker state as of this boundary: 0.0
    /// closed, 1.0 open (the breaker's outage records, so it matches
    /// the CircuitOpen/CircuitClose events).
    pub circuit: Vec<f64>,
    /// Per-worker average power draw in watts over epoch→t: the energy
    /// meter's charged spans at the busy rate (failed attempts
    /// included), the rest of its powered windows at the idle rate.
    pub worker_power: Vec<f64>,
    /// Cumulative fleet energy in joules since the epoch, integrated
    /// from the meter in exact pJ (mW × ns).
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

/// One worker outage as seen by the circuit breaker: opened at `from`,
/// closed at `until` when the breaker re-admitted traffic (`None` =
/// still open when the run ended). Defined here so the series reads
/// circuit state from the breaker's own record; re-exported by
/// `ncsw-serve`, whose failover path keeps it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageRecord {
    pub worker: usize,
    pub from: SimTime,
    pub until: Option<SimTime>,
}

impl OutageRecord {
    /// Time to recovery, measuring an unclosed outage to `end`.
    pub fn ttr(&self, end: SimTime) -> Duration {
        self.until.unwrap_or(end).max(self.from) - self.from
    }

    /// True when the circuit is open at `s`: a circuit reopened at the
    /// instant it closed reads open.
    fn open_at(&self, s: SimTime) -> bool {
        self.from <= s && self.until.is_none_or(|u| s < u)
    }
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

/// Two-phase series builder. The serving loop calls [`advance`] with
/// non-decreasing instants (its event times), which snapshots the queue
/// depth at each boundary passed, plus [`on_batch`] for each served
/// batch and, on autoscaled runs, [`scale_event`]. [`finish`] then
/// derives every other column from the run's books.
///
/// [`advance`]: TimeSeriesBuilder::advance
/// [`on_batch`]: TimeSeriesBuilder::on_batch
/// [`scale_event`]: TimeSeriesBuilder::scale_event
/// [`finish`]: TimeSeriesBuilder::finish
#[derive(Debug)]
pub struct TimeSeriesBuilder {
    epoch: SimTime,
    interval: Duration,
    slo: Duration,
    labels: Vec<String>,
    /// Queue depth at each boundary passed so far, one per row.
    depth: Vec<usize>,
    /// Per-worker served-batch spans in dispatch order (each worker
    /// self-serializes, so spans are disjoint and time-ordered).
    spans: Vec<Vec<(SimTime, SimTime)>>,
    /// `Some` once an autoscaler attached.
    scaling: Option<Scaling>,
}

#[derive(Debug)]
struct Scaling {
    /// Live workers at the epoch.
    live: usize,
    /// Transitions `(at, live_delta, decisions)` in call order.
    moves: Vec<(SimTime, i64, u64)>,
}

impl TimeSeriesBuilder {
    pub fn new(labels: Vec<String>, epoch: SimTime, interval: Duration, slo: Duration) -> Self {
        assert!(interval > Duration::ZERO, "sampling interval must be positive");
        let spans = vec![Vec::new(); labels.len()];
        TimeSeriesBuilder { epoch, interval, slo, labels, depth: Vec::new(), spans, scaling: None }
    }

    /// Attach autoscaling columns: samples carry `live_sticks` (from
    /// `initial_live`) and cumulative `scale_events`. Without this call
    /// the series keeps the exact pre-autoscaling CSV shape.
    pub fn enable_scaling(&mut self, initial_live: usize) {
        self.scaling = Some(Scaling { live: initial_live, moves: Vec::new() });
    }

    /// An autoscaling transition: at `at`, the live-worker count moves
    /// by `live_delta` and the cumulative decision count by
    /// `decisions`. `at` may lie ahead of the loop (a scale-up goes live
    /// after its provisioning delay).
    pub fn scale_event(&mut self, at: SimTime, live_delta: i64, decisions: u64) {
        if let Some(sc) = self.scaling.as_mut() {
            sc.moves.push((at, live_delta, decisions));
        }
    }

    /// A batch was dispatched to `worker`, occupying it over
    /// `start..end`.
    pub fn on_batch(&mut self, worker: usize, start: SimTime, end: SimTime) {
        let spans = &mut self.spans[worker];
        debug_assert!(spans.last().is_none_or(|&(_, e)| e <= start), "worker spans overlap");
        spans.push((start, end));
    }

    /// Snapshot `queue_depth` (the queue state, constant between loop
    /// events) for every boundary at or before `now` not yet passed.
    pub fn advance(&mut self, now: SimTime, queue_depth: usize) {
        let passed = now.nanos().saturating_sub(self.epoch.nanos()) / self.interval.nanos();
        if passed as usize > self.depth.len() {
            self.depth.resize(passed as usize, queue_depth);
        }
    }

    /// Sample through `end` (the queue is empty by then) and fill the
    /// derived columns in one pass over the run's books: `completions`
    /// as `(instant, latency)`, the `arrivals` of every request, the
    /// `sheds` at their decision instants, the breaker's `outages`, and
    /// the run's `energy` meter.
    pub fn finish(
        mut self,
        end: SimTime,
        completions: impl IntoIterator<Item = (SimTime, Duration)>,
        arrivals: impl IntoIterator<Item = SimTime>,
        sheds: impl IntoIterator<Item = SimTime>,
        outages: &[OutageRecord],
        energy: &EnergyMeter,
    ) -> TimeSeries {
        self.advance(end, 0);
        let n = self.labels.len();
        assert_eq!(energy.profiles().len(), n, "one energy profile per worker");
        let (epoch, interval) = (self.epoch, self.interval);
        // Per-row window tallies: completions, SLO misses, arrivals, sheds.
        let mut win = vec![[0u64; 4]; self.depth.len()];
        let mut tally = |x: SimTime, col: usize| {
            if let Some(row) = win.get_mut(((x - epoch).nanos() / interval.nanos()) as usize) {
                row[col] += 1;
            }
        };
        for (at, latency) in completions {
            tally(at, 0);
            if latency > self.slo {
                tally(at, 1);
            }
        }
        arrivals.into_iter().for_each(|at| tally(at, 2));
        sheds.into_iter().for_each(|at| tally(at, 3));
        let mut served: Vec<_> =
            self.spans.iter().map(|sp| Busy::new(sp.iter().copied())).collect();
        let mut charged: Vec<_> =
            (0..n).map(|w| Busy::new(energy.spans(w).map(|sp| (sp.start, sp.end)))).collect();
        let scaling = self.scaling.is_some();
        let Scaling { mut live, mut moves } =
            self.scaling.unwrap_or(Scaling { live: n, moves: Vec::new() });
        moves.sort_by_key(|&(at, _, _)| at);
        let mut moves = moves.into_iter().peekable();
        let (mut completed, mut shed, mut decisions) = (0, 0, 0);
        let mut samples = Vec::with_capacity(self.depth.len());
        for (k, (&queue_depth, &[done, miss, arrived, dropped])) in
            self.depth.iter().zip(&win).enumerate()
        {
            let s = epoch + interval * (k as u64 + 1);
            let elapsed = s - epoch;
            completed += done;
            shed += dropped;
            let mut inflight = 0;
            let worker_util = served
                .iter_mut()
                .map(|b| {
                    let (busy, open) = b.to(s);
                    inflight += open as usize;
                    Duration::from_nanos(busy).as_secs() / elapsed.as_secs()
                })
                .collect();
            let mut fleet_pj = 0;
            let worker_power = charged
                .iter_mut()
                .zip(energy.profiles())
                .enumerate()
                .map(|(w, (b, p))| {
                    let busy = b.to(s).0;
                    let pj = p.energy_pj(busy, energy.powered_ns(w, s).saturating_sub(busy));
                    fleet_pj += pj;
                    pj as f64 / elapsed.nanos() as f64 / 1e3
                })
                .collect();
            let mut circuit = vec![0.0; n];
            for o in outages.iter().filter(|o| o.open_at(s)) {
                circuit[o.worker] = 1.0;
            }
            while let Some((_, delta, d)) = moves.next_if(|&(at, _, _)| at <= s) {
                live = (live as i64 + delta).max(0) as usize;
                decisions += d;
            }
            let energy_j = fleet_pj as f64 / 1e12;
            samples.push(Sample {
                t: s,
                queue_depth,
                inflight_batches: inflight,
                completed,
                shed,
                slo_burn: ratio(miss, done),
                shed_rate: ratio(dropped, arrived),
                worker_util,
                circuit,
                worker_power,
                energy_j,
                img_per_watt: if energy_j > 0.0 { completed as f64 / energy_j } else { 0.0 },
                live_sticks: live,
                scale_events: decisions,
            });
        }
        TimeSeries { epoch, interval, worker_labels: self.labels, samples, scaling }
    }
}

/// `num / den`, or 0 for an empty window.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One worker's disjoint, time-ordered spans, walked at non-decreasing
/// boundaries.
struct Busy<I: Iterator<Item = (SimTime, SimTime)>> {
    spans: std::iter::Peekable<I>,
    /// Nanoseconds of the spans that ended at or before the last
    /// boundary.
    done: u64,
}

impl<I: Iterator<Item = (SimTime, SimTime)>> Busy<I> {
    fn new(spans: I) -> Self {
        Busy { spans: spans.peekable(), done: 0 }
    }

    /// Busy nanoseconds before `s` (a straddling span credited up to
    /// `s`), and whether a span covers `s`.
    fn to(&mut self, s: SimTime) -> (u64, bool) {
        while let Some((start, end)) = self.spans.next_if(|&(_, end)| end <= s) {
            self.done += (end - start).nanos();
        }
        match self.spans.peek() {
            Some(&(start, _)) if start <= s => (self.done + (s - start).nanos(), true),
            _ => (self.done, false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::EnergyProfile;

    fn ms(v: f64) -> Duration {
        Duration::from_millis(v)
    }

    fn at(v: f64) -> SimTime {
        SimTime::ZERO + ms(v)
    }

    /// A meter over one `(busy_mw, idle_mw)` profile per worker.
    fn meter(rates: &[(u64, u64)]) -> EnergyMeter {
        let profiles = rates.iter().map(|&(b, i)| EnergyProfile::new("w", b, i, b)).collect();
        EnergyMeter::new(profiles, SimTime::ZERO)
    }

    /// A 10 ms series over `workers` workers with a 5 ms SLO.
    fn builder(workers: usize) -> TimeSeriesBuilder {
        let labels = (0..workers).map(|w| format!("w{w}")).collect();
        TimeSeriesBuilder::new(labels, SimTime::ZERO, ms(10.0), ms(5.0))
    }

    /// Finish with nothing but the given energy meter in the books.
    fn finish_quiet(b: TimeSeriesBuilder, end: f64, energy: &EnergyMeter) -> TimeSeries {
        b.finish(at(end), [], [], [], &[], energy)
    }

    #[test]
    fn samples_fall_on_interval_boundaries() {
        let mut b = builder(1);
        b.advance(at(35.0), 2);
        let ts = finish_quiet(b, 50.0, &meter(&[(0, 0)]));
        let times: Vec<f64> = ts.samples.iter().map(|s| s.t.as_millis()).collect();
        assert_eq!(times, vec![10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!(ts.samples[0].queue_depth, 2);
        assert_eq!(ts.samples[4].queue_depth, 0);
    }

    #[test]
    fn a_straddling_span_gets_partial_credit() {
        let mut b = builder(1);
        // Served 0..15 ms: util at 10 ms = 1.0, at 20 ms = 0.75.
        b.on_batch(0, at(0.0), at(15.0));
        let mut m = meter(&[(900, 172)]);
        m.charge(0, at(0.0), at(15.0), 0, false);
        let ts = finish_quiet(b, 20.0, &m);
        assert!((ts.samples[0].worker_util[0] - 1.0).abs() < 1e-9);
        assert!((ts.samples[1].worker_util[0] - 0.75).abs() < 1e-9);
        assert_eq!(ts.samples[0].inflight_batches, 1);
        assert_eq!(ts.samples[1].inflight_batches, 0);
        // Energy to 10 ms is all busy draw; to 20 ms, 15 busy + 5 idle.
        assert_eq!(ts.samples[0].energy_j, (900u64 * 10_000_000) as f64 / 1e12);
        let want = (900u64 * 15_000_000 + 172 * 5_000_000) as f64 / 1e12;
        assert_eq!(ts.samples[1].energy_j, want);
        assert!((ts.samples[1].worker_power[0] - want / 0.020).abs() < 1e-12);
    }

    #[test]
    fn a_completion_on_a_boundary_counts_in_the_next_row() {
        let b = builder(0);
        // Hit at 2 ms, miss at 9 ms, and a miss exactly on the 10 ms
        // boundary, which belongs to the second window.
        let done = [(at(2.0), ms(1.0)), (at(9.0), ms(9.0)), (at(10.0), ms(9.0))];
        let ts = b.finish(at(20.0), done, [], [], &[], &meter(&[]));
        assert_eq!(ts.samples[0].completed, 2);
        assert!((ts.samples[0].slo_burn - 0.5).abs() < 1e-9);
        assert_eq!(ts.samples[1].completed, 3);
        assert!((ts.samples[1].slo_burn - 1.0).abs() < 1e-9);
    }

    #[test]
    fn shed_rate_is_windowed_over_arrivals() {
        let b = builder(0);
        let arrivals = [at(1.0), at(2.0), at(3.0), at(4.0), at(12.0)];
        // The 4 ms arrival is shed at 4 ms; the 12 ms shed is of a
        // request that arrived in the first window.
        let sheds = [at(4.0), at(12.0)];
        let ts = b.finish(at(30.0), [], arrivals, sheds, &[], &meter(&[]));
        assert!((ts.samples[0].shed_rate - 0.25).abs() < 1e-9);
        assert_eq!(ts.samples[1].shed_rate, 1.0);
        assert_eq!(ts.samples[2].shed_rate, 0.0, "window resets");
        assert_eq!(ts.samples[2].shed, 2, "cumulative column unaffected");
    }

    #[test]
    fn a_circuit_reopened_at_the_instant_it_closed_reads_open() {
        let b = builder(2);
        let outages = [
            OutageRecord { worker: 1, from: at(25.0), until: None },
            OutageRecord { worker: 0, from: at(5.0), until: Some(at(20.0)) },
            OutageRecord { worker: 0, from: at(20.0), until: Some(at(30.0)) },
        ];
        let ts = b.finish(at(30.0), [], [], [], &outages, &meter(&[(0, 0), (0, 0)]));
        assert_eq!(ts.samples[0].circuit, vec![1.0, 0.0]); // t=10
        assert_eq!(ts.samples[1].circuit, vec![1.0, 0.0]); // t=20: reopened
        assert_eq!(ts.samples[2].circuit, vec![0.0, 1.0]); // t=30: closed
    }

    #[test]
    fn a_power_off_on_a_boundary_stops_idle_draw_there() {
        let mut m = meter(&[(900, 172)]);
        m.power_off(0, at(10.0));
        let ts = finish_quiet(builder(1), 20.0, &m);
        let idle_10ms = (172u64 * 10_000_000) as f64 / 1e12;
        assert_eq!(ts.samples[0].energy_j, idle_10ms);
        assert_eq!(ts.samples[1].energy_j, idle_10ms);
    }

    #[test]
    fn a_power_on_on_a_boundary_adds_nothing_to_it() {
        let mut m = meter(&[(900, 172)]);
        m.power_off(0, at(5.0));
        m.power_on(0, at(10.0));
        let ts = finish_quiet(builder(1), 20.0, &m);
        let idle = |ns: u64| (172 * ns) as f64 / 1e12;
        assert_eq!(ts.samples[0].energy_j, idle(5_000_000));
        assert_eq!(ts.samples[1].energy_j, idle(15_000_000));
        // No completions, so img/W stays zero rather than NaN.
        assert_eq!(ts.samples[1].img_per_watt, 0.0);
    }

    #[test]
    fn csv_has_stable_header_and_rows() {
        let mut b =
            TimeSeriesBuilder::new(vec!["vpu x8".into()], SimTime::ZERO, ms(10.0), ms(100.0));
        b.advance(at(10.0), 3);
        b.on_batch(0, at(0.0), at(4.0));
        let ts = finish_quiet(b, 10.0, &meter(&[(0, 0)]));
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
    fn scaling_columns_appear_only_when_enabled() {
        // Without an autoscaler the header is byte-identical to the
        // pre-autoscaling shape.
        let ts = finish_quiet(builder(1), 10.0, &meter(&[(0, 0)]));
        assert!(ts.csv().lines().next().unwrap().ends_with(",energy_j,img_per_watt"));

        let mut b = builder(3);
        b.enable_scaling(3);
        // Drain c at 5 ms (decision + live drop), power it back with a
        // provisioning delay ending at 25 ms (decision at 12 ms), told
        // out of order.
        b.scale_event(at(5.0), -1, 1);
        b.scale_event(at(25.0), 1, 0);
        b.scale_event(at(12.0), 0, 1);
        let ts = finish_quiet(b, 30.0, &meter(&[(0, 0); 3]));
        let header = ts.csv().lines().next().unwrap().to_string();
        assert!(header.ends_with(",energy_j,img_per_watt,live_sticks,scale_events"));
        let live: Vec<usize> = ts.samples.iter().map(|s| s.live_sticks).collect();
        let events: Vec<u64> = ts.samples.iter().map(|s| s.scale_events).collect();
        assert_eq!(live, vec![2, 2, 3]);
        assert_eq!(events, vec![1, 2, 2]);
    }

    #[test]
    fn csv_to_streams_byte_identically_with_bounded_buffer() {
        let mut b = builder(1);
        b.on_batch(0, at(0.0), at(4.0));
        let mut m = meter(&[(900, 172)]);
        m.charge(0, at(0.0), at(4.0), 0, false);
        let ts = b.finish(at(50.0), [(at(4.0), ms(9.0))], [at(0.0)], [], &[], &m);
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
