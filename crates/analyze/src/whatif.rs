//! Causal what-if profiling (E24): counterfactual sensitivity analysis
//! over a recorded trace.
//!
//! Coz-style question: *"if component X ran `f`× as long, what would
//! p99 / throughput / energy look like?"* — answered two ways:
//!
//! 1. **Analytically** (this module): replay the nine-segment
//!    attribution with one component's segment virtually scaled by `f`
//!    in every request's span chain. Exact per-request arithmetic, zero
//!    re-simulation — but *queue-blind*: the counterfactual keeps the
//!    observed queueing/batching schedule frozen, so it cannot see the
//!    second-order relief (or collapse) a real speed change causes in
//!    the queues.
//! 2. **By measurement** (`vpu-bench`'s `whatif` experiment): re-run
//!    the deterministic simulator with the same component's service
//!    model actually scaled via [`ScalePlan`] and diff the reports.
//!
//! The gap between the two is itself the signal: where they agree the
//! component's sensitivity is schedule-linear; where they disagree a
//! queueing transition (batch growth, saturation relief) dominates and
//! critical-path share mis-predicts sensitivity.
//!
//! [`ScalePlan`]: https://en.wikipedia.org/wiki/Causal_profiling
//!
//! Segment mapping (the measured knob each component corresponds to):
//!
//! | component   | segment        | applies to            | measured knob                 |
//! |-------------|----------------|-----------------------|-------------------------------|
//! | `usb-write` | UsbWrite       | VPU-class requests    | `UsbConfig::write_scale`      |
//! | `usb-read`  | UsbRead        | VPU-class requests    | `UsbConfig::read_scale`       |
//! | `exec`      | Exec           | VPU-class requests    | `Myriad2Config::time_scaled`  |
//! | `host`      | Exec           | host-class requests   | `HostConfig::service_scale`   |
//! | `batch-wait`| Formation      | all requests          | `ServeConfig::max_wait`       |
//! | `dispatch`  | DispatchQueue  | all requests          | spawn/cmd/batch overheads     |
//!
//! A request is *VPU-class* when its successful attempt carried USB
//! device detail (`dev.usb_write` present); host batches execute with
//! no USB legs, so the two classes partition the Exec segment cleanly.

use crate::attribution::{Analysis, Breakdown, E2e, Segment};
use crate::energy::EnergyAnalysis;
use crate::span::RequestSpan;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A scalable component of the serving stack — the analytic twin of
/// the measured `ScaleComponent` knob set (same names, same order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Component {
    UsbWrite,
    UsbRead,
    Exec,
    BatchWait,
    Dispatch,
    Host,
}

impl Component {
    pub const ALL: [Component; 6] = [
        Component::UsbWrite,
        Component::UsbRead,
        Component::Exec,
        Component::BatchWait,
        Component::Dispatch,
        Component::Host,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Component::UsbWrite => "usb-write",
            Component::UsbRead => "usb-read",
            Component::Exec => "exec",
            Component::BatchWait => "batch-wait",
            Component::Dispatch => "dispatch",
            Component::Host => "host",
        }
    }

    pub fn parse(s: &str) -> Option<Component> {
        Component::ALL.into_iter().find(|c| c.name() == s)
    }

    /// The attribution segment this component's time lives in.
    pub const fn segment(self) -> Segment {
        match self {
            Component::UsbWrite => Segment::UsbWrite,
            Component::UsbRead => Segment::UsbRead,
            Component::Exec | Component::Host => Segment::Exec,
            Component::BatchWait => Segment::Formation,
            Component::Dispatch => Segment::DispatchQueue,
        }
    }

    /// Whether the component's knob touches this request's span chain.
    /// `exec` and `host` share the Exec segment but partition requests
    /// by worker class: USB device detail marks the VPU class.
    pub fn applies(self, r: &RequestSpan) -> bool {
        match self {
            Component::UsbWrite | Component::UsbRead | Component::Exec => r.dev.usb_write.is_some(),
            Component::Host => r.dev.usb_write.is_none(),
            Component::BatchWait | Component::Dispatch => true,
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One analytic counterfactual: `component` virtually scaled by
/// `factor`, everything else frozen at the observed schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    pub component: String,
    pub factor: f64,
    /// Completed requests in the trace (the prediction population).
    pub completed: usize,
    /// Requests the component actually touches (class match *and* a
    /// nonzero segment).
    pub affected: usize,
    /// Σ scaled-segment time / Σ end-to-end time — the classic
    /// flat-profile share.
    pub seg_share: f64,
    /// Fraction of completed requests whose *critical* (largest)
    /// segment is this component's segment, within its class.
    pub critical_share: f64,
    pub base: E2e,
    pub predicted: E2e,
    /// First arrival → last completion, observed.
    pub base_wall_ms: f64,
    /// Same span with every completion shifted by its request's saved
    /// (or added) segment time.
    pub predicted_wall_ms: f64,
    pub base_rps: f64,
    pub predicted_rps: f64,
    /// Device energy per completed inference, when the trace carries
    /// power lanes.
    pub base_j_per_inference: Option<f64>,
    /// Counterfactual J/inference: each affected request's segment
    /// energy scales with `factor`, net of the idle draw its worker
    /// would have burned anyway over the reclaimed time.
    pub predicted_j_per_inference: Option<f64>,
}

impl Prediction {
    /// Predicted p99 improvement in milliseconds (negative = slowdown).
    pub fn p99_gain_ms(&self) -> f64 {
        self.base.p99_ms - self.predicted.p99_ms
    }
}

/// Per-request counterfactual latency: total − segment + factor×segment
/// for requests the component applies to, untouched otherwise. Ordered
/// like `Analysis::breakdowns` (by request id). Exact at `factor == 1`.
pub fn predicted_latencies_ns(a: &Analysis, c: Component, factor: f64) -> Vec<u64> {
    a.breakdowns.iter().map(|b| predicted_ns(b, &a.forest.requests[&b.id], c, factor)).collect()
}

fn predicted_ns(b: &Breakdown, r: &RequestSpan, c: Component, factor: f64) -> u64 {
    if factor == 1.0 || !c.applies(r) {
        return b.total.nanos();
    }
    let seg = b.seg(c.segment()).nanos();
    b.total.nanos() - seg + (seg as f64 * factor).round() as u64
}

/// Analytic what-if for one component × factor over a recorded trace.
pub fn predict(a: &Analysis, c: Component, factor: f64) -> Prediction {
    assert!(factor > 0.0, "scale factor must be positive");
    let seg = c.segment();
    let completed = a.breakdowns.len();

    let mut affected = 0usize;
    let mut seg_ns = 0u64;
    let mut total_ns = 0u64;
    let mut critical = 0usize;
    let mut pred_ns = Vec::with_capacity(completed);
    // Wall clock: first arrival → last (counterfactually shifted)
    // completion. The shift keeps each request's observed completion
    // order arithmetic exact without re-scheduling anything.
    let mut first_arrive = u64::MAX;
    let mut last_complete = 0u64;
    let mut last_complete_pred = 0u64;

    for b in &a.breakdowns {
        let r = &a.forest.requests[&b.id];
        let p = predicted_ns(b, r, c, factor);
        total_ns += b.total.nanos();
        if c.applies(r) {
            if b.seg(seg).nanos() > 0 {
                affected += 1;
            }
            seg_ns += b.seg(seg).nanos();
            if b.critical == seg {
                critical += 1;
            }
        }
        let complete = r.complete.expect("breakdowns only exist for completed requests");
        first_arrive = first_arrive.min(r.arrive.nanos());
        last_complete = last_complete.max(complete.nanos());
        last_complete_pred = last_complete_pred.max(complete.nanos() - b.total.nanos() + p);
        pred_ns.push(p);
    }

    let base = E2e::of_ns(a.breakdowns.iter().map(|b| b.total.nanos()).collect());
    let predicted = E2e::of_ns(pred_ns);
    let wall = |until: u64| {
        if completed == 0 {
            0.0
        } else {
            until.saturating_sub(first_arrive) as f64 / 1e6
        }
    };
    let (base_wall_ms, predicted_wall_ms) = (wall(last_complete), wall(last_complete_pred));
    let rps = |wall_ms: f64| if wall_ms > 0.0 { completed as f64 / (wall_ms / 1e3) } else { 0.0 };

    let energy = a.energy.as_ref().map(|e| predicted_energy(a, e, c, factor));
    Prediction {
        component: c.name().to_string(),
        factor,
        completed,
        affected,
        seg_share: if total_ns == 0 { 0.0 } else { seg_ns as f64 / total_ns as f64 },
        critical_share: if completed == 0 { 0.0 } else { critical as f64 / completed as f64 },
        base,
        predicted,
        base_wall_ms,
        predicted_wall_ms,
        base_rps: rps(base_wall_ms),
        predicted_rps: rps(predicted_wall_ms),
        base_j_per_inference: energy.map(|(b, _)| b),
        predicted_j_per_inference: energy.map(|(_, p)| p),
    }
}

/// `(base, predicted)` J/inference. Each affected request's segment
/// energy is exact pJ from the power lanes; the counterfactual saving
/// is net of idle draw — reclaiming a span only saves the *difference*
/// between the worker's busy draw and the gated draw it pays anyway.
fn predicted_energy(a: &Analysis, e: &EnergyAnalysis, c: Component, factor: f64) -> (f64, f64) {
    let completed = a.breakdowns.len().max(1) as f64;
    let base_j = e.fleet_pj as f64 / 1e12;
    let by_id: BTreeMap<u64, &crate::energy::RequestEnergy> =
        e.requests.iter().map(|re| (re.id, re)).collect();
    let seg = c.segment() as usize;
    let mut delta_pj = 0.0f64; // positive = saved
    for b in &a.breakdowns {
        let r = &a.forest.requests[&b.id];
        if !c.applies(r) {
            continue;
        }
        let Some(re) = by_id.get(&b.id) else { continue };
        let gross = re.segs[seg] as f64 * (1.0 - factor);
        // Net-of-idle: the busy span's draw tells us the worker's
        // active mW; its ledger the gated mW underneath.
        let net_fraction = r
            .batch
            .and_then(|batch| {
                let ledger = e.workers.iter().find(|w| Some(w.worker) == b.worker)?;
                let span = ledger.busy.iter().find(|s| s.batch == batch)?;
                (span.mw > 0).then(|| 1.0 - ledger.idle_mw as f64 / span.mw as f64)
            })
            .unwrap_or(1.0);
        delta_pj += gross * net_fraction.max(0.0);
    }
    let predicted_j = (e.fleet_pj as f64 - delta_pj).max(0.0) / 1e12;
    (base_j / completed, predicted_j / completed)
}

/// Every component predicted at one factor, ranked by p99 gain — the
/// bottleneck table ("speeding *what* up helps most?").
pub fn rank(a: &Analysis, factor: f64) -> Vec<Prediction> {
    let mut out: Vec<Prediction> =
        Component::ALL.into_iter().map(|c| predict(a, c, factor)).collect();
    out.sort_by(|x, y| y.p99_gain_ms().total_cmp(&x.p99_gain_ms()));
    out
}

/// Human table over a set of predictions (one factor, ranked).
pub fn render(preds: &[Prediction]) -> String {
    let mut s = String::new();
    s.push_str(
        "component   factor  affected  seg%   crit%  p99 ms (base→pred)      Δp99 ms   rps (base→pred)\n",
    );
    for p in preds {
        s.push_str(&format!(
            "{:<11} {:>6.2} {:>9} {:>5.1} {:>7.1}  {:>9.2} → {:<9.2} {:>9.2}  {:>7.1} → {:<7.1}\n",
            p.component,
            p.factor,
            p.affected,
            p.seg_share * 100.0,
            p.critical_share * 100.0,
            p.base.p99_ms,
            p.predicted.p99_ms,
            p.p99_gain_ms(),
            p.base_rps,
            p.predicted_rps,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{DeviceSpans, SpanForest};
    use desim::SimTime;
    use proptest::prelude::*;

    /// Deterministic exponential inter-arrival stream (inverse CDF over
    /// a splitmix64 generator) — no `rand` dependency needed.
    struct Exp {
        state: u64,
        mean_ns: f64,
    }

    impl Exp {
        fn next_ns(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^= z >> 31;
            let u = (z >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            (-(1.0 - u).ln() * self.mean_ns).round() as u64
        }
    }

    /// Build an M/D/1 FIFO queue as a span forest: Poisson arrivals at
    /// `rate`, deterministic service `service_ns`, single VPU-class
    /// worker. Queue wait lands in DispatchQueue, service in Exec.
    fn md1_forest(n: u64, rate_per_sec: f64, service_ns: u64, seed: u64) -> SpanForest {
        let mut forest = SpanForest::default();
        let mut exp = Exp { state: seed, mean_ns: 1e9 / rate_per_sec };
        let mut arrive = 0u64;
        let mut free_at = 0u64;
        for id in 0..n {
            arrive += exp.next_ns();
            let start = arrive.max(free_at);
            let end = start + service_ns;
            free_at = end;
            forest.requests.insert(
                id,
                RequestSpan {
                    id,
                    arrive: SimTime(arrive),
                    admit: Some(SimTime(arrive)),
                    batch_close: Some(SimTime(arrive)),
                    dispatches: vec![(SimTime(arrive), Some(id), Some(0))],
                    complete: Some(SimTime(end)),
                    batch: Some(id),
                    worker: Some(0),
                    dev: DeviceSpans {
                        usb_write: Some((SimTime(start), SimTime(start))),
                        exec: Some((SimTime(start), SimTime(end))),
                        usb_read: Some((SimTime(end), SimTime(end))),
                    },
                    ..RequestSpan::default()
                },
            );
            forest.end = SimTime(end);
        }
        forest
    }

    fn mean_wait_ns(a: &Analysis) -> f64 {
        let sum: u64 = a.breakdowns.iter().map(|b| b.seg(Segment::DispatchQueue).nanos()).sum();
        sum as f64 / a.breakdowns.len() as f64
    }

    #[test]
    fn identity_prediction_is_a_no_op() {
        let a = Analysis::from_forest(md1_forest(400, 70.0, 10_000_000, 7));
        for c in Component::ALL {
            let p = predict(&a, c, 1.0);
            assert_eq!(p.base, p.predicted, "{c} changed stats at f=1");
            assert_eq!(p.base_wall_ms, p.predicted_wall_ms);
            assert_eq!(p.base_rps, p.predicted_rps);
        }
    }

    #[test]
    fn exec_prediction_shifts_every_request_by_its_own_segment() {
        let a = Analysis::from_forest(md1_forest(300, 70.0, 10_000_000, 3));
        let f = 0.5;
        let pred = predicted_latencies_ns(&a, Component::Exec, f);
        for (b, &p) in a.breakdowns.iter().zip(&pred) {
            let seg = b.seg(Segment::Exec).nanos();
            assert_eq!(p, b.total.nanos() - seg + (seg as f64 * f).round() as u64);
        }
        // `host` never applies to VPU-class requests: pure no-op.
        let host = predict(&a, Component::Host, f);
        assert_eq!(host.affected, 0);
        assert_eq!(host.base, host.predicted);
    }

    /// Pollaczek–Khinchine: the analytic prediction is queue-blind, so
    /// against a *re-simulated* M/D/1 with scaled service its error is
    /// exactly the queue-wait relief — which P-K quantifies:
    /// `W = λ s² / (2 (1 − λs))` for deterministic service.
    #[test]
    fn md1_blind_spot_matches_pollaczek_khinchine() {
        let (n, rate, s) = (6000u64, 70.0f64, 10_000_000u64); // ρ = 0.7
        let f = 0.5;
        let base = Analysis::from_forest(md1_forest(n, rate, s, 42));
        let scaled = Analysis::from_forest(md1_forest(n, rate, (s as f64 * f) as u64, 42));

        let pk = |srv_ns: f64| {
            let lambda = rate / 1e9;
            lambda * srv_ns * srv_ns / (2.0 * (1.0 - lambda * srv_ns))
        };
        // The simulated queues agree with the analytic M/D/1 wait.
        let (w_base, w_scaled) = (mean_wait_ns(&base), mean_wait_ns(&scaled));
        assert!(
            (w_base - pk(s as f64)).abs() / pk(s as f64) < 0.15,
            "base sim vs P-K: {w_base} vs {}",
            pk(s as f64)
        );
        assert!((w_scaled - pk(s as f64 * f)).abs() / pk(s as f64 * f) < 0.15);

        // Queue-blind prediction keeps the *base* wait; measurement
        // enjoys the scaled one. The gap is the wait difference, and
        // the prediction is pessimistic (over-estimates latency).
        let p = predict(&base, Component::Exec, f);
        let measured_mean = scaled.e2e.mean_ms;
        let gap_ms = p.predicted.mean_ms - measured_mean;
        let pk_gap_ms = (w_base - w_scaled) / 1e6;
        assert!(gap_ms > 0.0, "speedup must relieve the queue");
        assert!(
            (gap_ms - pk_gap_ms).abs() / pk_gap_ms < 0.15,
            "blind spot {gap_ms:.3} ms vs P-K wait relief {pk_gap_ms:.3} ms"
        );
    }

    #[test]
    fn rank_orders_by_p99_gain() {
        let a = Analysis::from_forest(md1_forest(500, 70.0, 10_000_000, 11));
        let ranked = rank(&a, 0.5);
        assert_eq!(ranked.len(), Component::ALL.len());
        for pair in ranked.windows(2) {
            assert!(pair[0].p99_gain_ms() >= pair[1].p99_gain_ms());
        }
        // At ρ=0.7 the M/D/1 queue wait (mean ρs/2(1−ρ) ≈ 11.7 ms)
        // dwarfs the 5 ms exec gain: dispatch ranks first, exec second.
        assert_eq!(ranked[0].component, "dispatch");
        assert_eq!(ranked[1].component, "exec");
        let table = render(&ranked);
        assert!(table.contains("exec"));
        assert!(table.lines().count() == 1 + ranked.len());
    }

    proptest! {
        /// Monotone + bounded: predicted per-request latency is
        /// non-decreasing in `f`, equals the observed latency at 1.0,
        /// and never drops below latency − segment.
        #[test]
        fn predicted_latency_monotone_in_factor(
            seed in 0u64..1000,
            f1 in 0.25f64..1.75,
            f2 in 0.25f64..1.75,
        ) {
            let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
            let a = Analysis::from_forest(md1_forest(60, 70.0, 10_000_000, seed));
            for c in Component::ALL {
                let at_lo = predicted_latencies_ns(&a, c, lo);
                let at_hi = predicted_latencies_ns(&a, c, hi);
                let at_one = predicted_latencies_ns(&a, c, 1.0);
                for (i, b) in a.breakdowns.iter().enumerate() {
                    prop_assert!(at_lo[i] <= at_hi[i] + 1, "{c} not monotone");
                    prop_assert_eq!(at_one[i], b.total.nanos());
                    let floor = b.total.nanos() - b.seg(c.segment()).nanos();
                    prop_assert!(at_lo[i] >= floor);
                }
            }
        }
    }
}
