//! E18 — paired A/B policy comparison over the phase-event stream.
//!
//! Runs the observed serving experiment twice on the same seeded
//! workload — identical arrivals, different dispatch policy — exports
//! both Chrome traces, re-parses them through the analyzer (the same
//! path `repro diff` takes on files from disk), and joins the runs
//! request-by-request. Because the simulator is deterministic, every
//! per-request delta is a paired observation of policy A vs policy B on
//! the *same* request, and the verdict is reproducible byte-for-byte —
//! which is what lets CI gate on it.

use crate::report;
use crate::scale::Scale;
use crate::serve_bench::{traced_serve, TRACED_FLEET};
use desim::Duration;
use ncsw_analyze::{diff, Analysis, AttributionTable, DiffConfig, TraceDiff};
use ncsw_serve::{DispatchPolicy, GrayConfig};
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AbExp {
    pub scale: Scale,
    pub fleet: String,
    pub requests: usize,
    pub slo_ms: f64,
    pub baseline: String,
    pub candidate: String,
    /// Latency attribution of each run, from the parsed traces.
    pub baseline_table: AttributionTable,
    pub candidate_table: AttributionTable,
    pub diff: TraceDiff,
}

pub fn ab_exp_with(
    scale: Scale,
    slo: Duration,
    baseline: DispatchPolicy,
    candidate: DispatchPolicy,
) -> AbExp {
    let sample = Duration::from_millis(10.0);
    let run = |policy| traced_serve(scale, slo, policy, sample, None, GrayConfig::default(), None);
    let (a, b) = (run(baseline), run(candidate));
    // Analyze through the exported JSON, not the in-memory log, so the
    // experiment also covers the parser round trip end to end.
    let an_a = Analysis::from_chrome(&a.chrome_json).expect("baseline trace parses");
    let an_b = Analysis::from_chrome(&b.chrome_json).expect("candidate trace parses");
    let d = diff(&an_a, &an_b, &DiffConfig::default());
    AbExp {
        scale,
        fleet: TRACED_FLEET.to_string(),
        requests: a.requests,
        slo_ms: slo.as_millis(),
        baseline: baseline.name().to_string(),
        candidate: candidate.name().to_string(),
        baseline_table: an_a.table,
        candidate_table: an_b.table,
        diff: d,
    }
}

impl AbExp {
    pub fn print(&self) {
        report::header(&format!(
            "E18 — paired A/B diff (fleet {}, {} req, SLO {} ms, scale {}): {} -> {}",
            self.fleet,
            self.requests,
            self.slo_ms,
            self.scale.name(),
            self.baseline,
            self.candidate
        ));
        print!("{}", self.diff.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_ab_diff_is_deterministic_and_joins_the_runs() {
        let run = || {
            ab_exp_with(
                Scale::Tiny,
                Duration::from_millis(500.0),
                DispatchPolicy::RoundRobin,
                DispatchPolicy::CostAware,
            )
        };
        let e = run();
        // Same seeded arrivals: the paired join must cover requests.
        assert!(e.diff.joined > 0, "{:?}", e.diff);
        // The verdict artifact CI gates on is byte-identical across
        // repeats of the same comparison.
        let again = run();
        assert_eq!(
            serde_json::to_string(&e.diff).unwrap(),
            serde_json::to_string(&again.diff).unwrap()
        );
    }

    #[test]
    fn same_policy_ab_diff_is_all_neutral() {
        let e = ab_exp_with(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::CostAware,
            DispatchPolicy::CostAware,
        );
        assert!(!e.diff.regression, "{:?}", e.diff);
        assert_eq!(e.diff.only_a, 0);
        assert_eq!(e.diff.only_b, 0);
        for m in e.diff.metrics.iter().chain(&e.diff.segments) {
            assert_eq!(m.delta, 0.0, "{m:?}");
        }
        assert_eq!(e.diff.per_request.improved, 0);
        assert_eq!(e.diff.per_request.regressed, 0);
    }
}
