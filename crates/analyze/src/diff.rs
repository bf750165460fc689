//! Paired A/B trace diffing with a machine-readable verdict.
//!
//! Two runs of the same seeded workload produce identical arrivals, so
//! their traces join exactly on request id and every latency delta is a
//! *paired* observation — policy A vs policy B on the same request, the
//! strongest comparison the determinism of the simulator buys us. The
//! verdict is symmetric by construction: `diff(a, b)` mirrors
//! `diff(b, a)` with Improved and Regressed swapped, and `diff(a, a)`
//! is all-neutral — both are property-tested.

use crate::attribution::{Analysis, Segment};
use serde::{Deserialize, Serialize};

/// Neutrality thresholds: a delta is Neutral unless it clears BOTH the
/// absolute floor (ignore sub-noise shifts) and the relative one.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiffConfig {
    /// Minimum |delta| in ms (or units of the metric) to be non-neutral.
    pub abs_floor: f64,
    /// Minimum |delta| as a percentage of `max(|a|, |b|)`.
    pub rel_pct: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { abs_floor: 0.5, rel_pct: 5.0 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    Improved,
    Regressed,
    Neutral,
}

impl Verdict {
    pub const fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Neutral => "neutral",
        }
    }
}

/// One metric compared across the two runs. `delta = b - a`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDelta {
    pub metric: String,
    pub a: f64,
    pub b: f64,
    pub delta: f64,
    /// Delta relative to `max(|a|, |b|)`, in percent (symmetric under
    /// swapping the runs).
    pub rel_pct: f64,
    pub verdict: Verdict,
    /// Whether this metric participates in the regression gate.
    pub gated: bool,
}

impl MetricDelta {
    fn of(
        metric: &str,
        a: f64,
        b: f64,
        lower_is_better: bool,
        gated: bool,
        cfg: &DiffConfig,
    ) -> Self {
        let delta = b - a;
        let denom = a.abs().max(b.abs());
        let rel_pct = if denom == 0.0 { 0.0 } else { delta / denom * 100.0 };
        // An unchanged metric is neutral even at zero thresholds.
        let significant =
            delta != 0.0 && delta.abs() >= cfg.abs_floor && rel_pct.abs() >= cfg.rel_pct;
        let verdict = if !significant {
            Verdict::Neutral
        } else if (delta < 0.0) == lower_is_better {
            Verdict::Improved
        } else {
            Verdict::Regressed
        };
        MetricDelta { metric: metric.to_string(), a, b, delta, rel_pct, verdict, gated }
    }
}

/// Per-request paired deltas, classified with the same thresholds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PerRequest {
    pub improved: usize,
    pub regressed: usize,
    pub neutral: usize,
    /// Mean of `latency(b) - latency(a)` over joined requests, ms.
    pub mean_delta_ms: f64,
    /// Largest single-request regression (positive) in ms.
    pub max_regression_ms: f64,
    /// Largest single-request improvement (positive) in ms.
    pub max_improvement_ms: f64,
}

/// The full diff of two runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDiff {
    /// Requests completed in both runs (the paired population).
    pub joined: usize,
    /// Completed only in run A / only in run B.
    pub only_a: usize,
    pub only_b: usize,
    pub config: DiffConfig,
    /// End-to-end metrics; `gated` rows drive [`TraceDiff::regression`].
    pub metrics: Vec<MetricDelta>,
    /// Per-segment mean deltas (informational, never gated).
    pub segments: Vec<MetricDelta>,
    pub per_request: PerRequest,
    /// True when any gated metric regressed — the CI exit-code signal.
    pub regression: bool,
}

/// Diff two analyses (`a` = baseline, `b` = candidate).
pub fn diff(a: &Analysis, b: &Analysis, cfg: &DiffConfig) -> TraceDiff {
    let mut metrics = Vec::new();
    let mut m = |name: &str, va: f64, vb: f64, lower: bool, gated: bool| {
        metrics.push(MetricDelta::of(name, va, vb, lower, gated, cfg));
    };
    m("latency_mean_ms", a.e2e.mean_ms, b.e2e.mean_ms, true, true);
    m("latency_p50_ms", a.e2e.p50_ms, b.e2e.p50_ms, true, true);
    m("latency_p95_ms", a.e2e.p95_ms, b.e2e.p95_ms, true, true);
    m("latency_p99_ms", a.e2e.p99_ms, b.e2e.p99_ms, true, true);
    m("latency_max_ms", a.e2e.max_ms, b.e2e.max_ms, true, false);
    m("completed", a.e2e.count as f64, b.e2e.count as f64, false, true);
    m("shed", a.shed.total() as f64, b.shed.total() as f64, true, true);
    // Energy deltas when both traces carry power lanes. Informational
    // (never gated): a policy trading joules for latency should fail
    // the gate only on the latency rows.
    if let (Some(ea), Some(eb)) = (&a.energy, &b.energy) {
        use ncsw_obs::joules;
        m("energy_fleet_j", joules(ea.fleet_pj), joules(eb.fleet_pj), true, false);
        m("energy_wasted_j", joules(ea.wasted_pj), joules(eb.wasted_pj), true, false);
        m("energy_idle_j", joules(ea.idle_pj), joules(eb.idle_pj), true, false);
        let jpr = |e: &crate::energy::EnergyAnalysis, n: usize| {
            if n == 0 {
                0.0
            } else {
                joules(e.fleet_pj) / n as f64
            }
        };
        m("j_per_inference", jpr(ea, a.e2e.count), jpr(eb, b.e2e.count), true, false);
    }

    let seg_mean = |x: &Analysis, s: Segment| x.table.rows[s as usize].mean_ms;
    let segments = Segment::ALL
        .into_iter()
        .map(|s| MetricDelta::of(s.name(), seg_mean(a, s), seg_mean(b, s), true, false, cfg))
        .collect();

    let mut per = PerRequest::default();
    let mut joined = 0usize;
    let mut only_a = 0usize;
    let mut sum_delta = 0.0f64;
    let b_by_id: std::collections::BTreeMap<u64, f64> =
        b.breakdowns.iter().map(|x| (x.id, x.total.as_millis())).collect();
    for ba in &a.breakdowns {
        let Some(&vb) = b_by_id.get(&ba.id) else {
            only_a += 1;
            continue;
        };
        let va = ba.total.as_millis();
        joined += 1;
        let d = MetricDelta::of("req", va, vb, true, false, cfg);
        match d.verdict {
            Verdict::Improved => per.improved += 1,
            Verdict::Regressed => per.regressed += 1,
            Verdict::Neutral => per.neutral += 1,
        }
        sum_delta += d.delta;
        if d.delta > 0.0 {
            per.max_regression_ms = per.max_regression_ms.max(d.delta);
        } else {
            per.max_improvement_ms = per.max_improvement_ms.max(-d.delta);
        }
    }
    let only_b = b.breakdowns.len() - joined;
    per.mean_delta_ms = if joined == 0 { 0.0 } else { sum_delta / joined as f64 };

    let regression =
        metrics.iter().any(|m: &MetricDelta| m.gated && m.verdict == Verdict::Regressed);
    TraceDiff {
        joined,
        only_a,
        only_b,
        config: *cfg,
        metrics,
        segments,
        per_request: per,
        regression,
    }
}

impl TraceDiff {
    /// Human-readable rendering (the `repro diff` stdout).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "joined {} requests ({} only in A, {} only in B); thresholds: \
             |delta| >= {} and >= {}%",
            self.joined, self.only_a, self.only_b, self.config.abs_floor, self.config.rel_pct
        );
        let _ = writeln!(
            out,
            "\n{:<16} {:>12} {:>12} {:>10} {:>8}  verdict",
            "metric", "A", "B", "delta", "rel"
        );
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<16} {:>12.3} {:>12.3} {:>+10.3} {:>+7.1}%  {}{}",
                m.metric,
                m.a,
                m.b,
                m.delta,
                m.rel_pct,
                m.verdict.name(),
                if m.gated { " (gated)" } else { "" }
            );
        }
        let _ = writeln!(out, "\nper-segment mean deltas:");
        for m in &self.segments {
            let _ = writeln!(
                out,
                "{:<16} {:>12.3} {:>12.3} {:>+10.3} {:>+7.1}%  {}",
                m.metric,
                m.a,
                m.b,
                m.delta,
                m.rel_pct,
                m.verdict.name()
            );
        }
        let p = &self.per_request;
        let _ = writeln!(
            out,
            "\nper-request: {} improved, {} regressed, {} neutral; mean delta {:+.3} ms, \
             worst regression {:.3} ms, best improvement {:.3} ms",
            p.improved,
            p.regressed,
            p.neutral,
            p.mean_delta_ms,
            p.max_regression_ms,
            p.max_improvement_ms
        );
        let _ = writeln!(
            out,
            "\nverdict: {}",
            if self.regression { "REGRESSED" } else { "no regression" }
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn md(a: f64, b: f64) -> MetricDelta {
        MetricDelta::of("m", a, b, true, true, &DiffConfig::default())
    }

    #[test]
    fn thresholds_gate_the_verdict() {
        assert_eq!(md(100.0, 100.3).verdict, Verdict::Neutral, "below abs floor");
        assert_eq!(md(100.0, 102.0).verdict, Verdict::Neutral, "below rel pct");
        assert_eq!(md(100.0, 110.0).verdict, Verdict::Regressed);
        assert_eq!(md(110.0, 100.0).verdict, Verdict::Improved);
        assert_eq!(md(0.0, 0.0).verdict, Verdict::Neutral);
        let zero = DiffConfig { abs_floor: 0.0, rel_pct: 0.0 };
        assert_eq!(MetricDelta::of("m", 100.0, 100.0, true, true, &zero).verdict, Verdict::Neutral);
        assert_eq!(
            MetricDelta::of("m", 100.0, 100.1, true, true, &zero).verdict,
            Verdict::Regressed
        );
        // Higher-is-better flips direction.
        let m = MetricDelta::of("c", 100.0, 110.0, false, true, &DiffConfig::default());
        assert_eq!(m.verdict, Verdict::Improved);
    }

    #[test]
    fn verdicts_are_symmetric_under_swap() {
        for (a, b) in [(100.0, 110.0), (100.0, 100.2), (3.0, 0.0), (0.0, 3.0)] {
            let fwd = md(a, b);
            let rev = md(b, a);
            assert_eq!(fwd.delta, -rev.delta);
            let mirror = match fwd.verdict {
                Verdict::Improved => Verdict::Regressed,
                Verdict::Regressed => Verdict::Improved,
                Verdict::Neutral => Verdict::Neutral,
            };
            assert_eq!(rev.verdict, mirror, "a={a} b={b}");
        }
    }
}
