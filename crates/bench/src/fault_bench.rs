//! E17 — failover: tail latency and SLO attainment vs injected
//! failures.
//!
//! The paper's pitch for the NCS is redundancy: sticks are cheap enough
//! to deploy several, so losing one mid-run should cost a latency blip,
//! not an outage. This experiment quantifies that claim on a 4-VPU
//! fleet: sweep the number of mid-run stick unplugs (each reconnecting
//! after a while), under plain `Reject` admission vs `DeadlineAware`
//! shedding, and report p99, SLO attainment, MTTR, and the retry
//! overhead the failover path added. The paper has no such figure —
//! this is the robustness extension of E15 on the same calibrated
//! devices.

use crate::report;
use crate::scale::Scale;
use desim::Duration;
use ncsw::ModelBundle;
use ncsw_analyze::Analysis;
use ncsw_faults::{FaultEvent, FaultPlan};
use ncsw_serve::{
    serve_observed, ArrivalProcess, FleetSpec, ObsConfig, ServeConfig, ServeReport, ShedPolicy,
};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// Four independent single-stick VPU workers — enough redundancy that
/// one loss is absorbable and three losses clearly are not.
pub const FAILOVER_FLEET: &str = "vpu+vpu+vpu+vpu";

/// Offered load as a fraction of nameplate capacity: high enough that
/// losing workers bites, low enough that the healthy fleet attains the
/// SLO.
pub const FAILOVER_LOAD_FRACTION: f64 = 0.7;

/// Numbers of injected mid-run failures the sweep compares.
pub const FAILURE_COUNTS: [usize; 4] = [0, 1, 2, 3];

/// One (failure count, shed policy) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailoverPoint {
    pub failures: usize,
    pub shed_policy: String,
    /// Fraction of *generated* requests that completed within the SLO.
    pub slo_attainment: f64,
    /// p99 latency of completions overlapping an outage window, derived
    /// by the trace analyzer from the run's phase-event stream (the
    /// test cross-checks it against `report.faults`).
    pub p99_during_outage_ms: f64,
    pub report: ServeReport,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FailoverExp {
    pub scale: Scale,
    pub fleet: String,
    pub requests: usize,
    pub offered_rps: f64,
    pub slo_ms: f64,
    pub points: Vec<FailoverPoint>,
}

fn requests(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 200,
        Scale::Small => 1_200,
        Scale::Paper => 6_000,
    }
}

/// Unplug `k` distinct workers mid-run, staggered across the expected
/// horizon, each reconnecting after 12% of it — so outages overlap at
/// k >= 2 and the fleet is briefly down to half capacity.
pub fn staggered_unplugs(k: usize, horizon_secs: f64) -> FaultPlan {
    let mut plan = FaultPlan::empty();
    for i in 0..k {
        let at = horizon_secs * (0.20 + 0.10 * i as f64);
        plan.push(
            Some(i),
            FaultEvent::StickUnplug {
                at: Duration::from_secs(at),
                reconnect_after: Some(Duration::from_secs(horizon_secs * 0.12)),
            },
        );
    }
    plan
}

pub fn failover_exp_with(scale: Scale, slo: Duration) -> FailoverExp {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = requests(scale);
    let spec = FleetSpec::parse(FAILOVER_FLEET).expect("valid fleet spec");
    let probe = spec.build(&model);
    let capacity_rps = spec.capacity_rps(&probe);
    let max_batch = spec.preferred_batch(&probe);
    drop(probe);
    let rate = capacity_rps * FAILOVER_LOAD_FRACTION;
    let horizon_secs = n as f64 / rate;

    let mut points = Vec::new();
    for &k in &FAILURE_COUNTS {
        for shed in [ShedPolicy::Reject, ShedPolicy::DeadlineAware] {
            let cfg = ServeConfig { max_batch, slo, shed, ..ServeConfig::default() };
            let mut workers = spec.build(&model);
            if k > 0 {
                workers = staggered_unplugs(k, horizon_secs).apply(workers, cfg.seed);
            }
            let load = ArrivalProcess::Poisson { rate_per_sec: rate };
            // Observed run: the phase-event stream feeds the analyzer,
            // which attributes the tail during failover from the trace
            // alone (no access to the server's internal records).
            let obs_cfg =
                ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() };
            let (outcome, obs) = serve_observed(&mut workers, &cfg, &load, n, &obs_cfg);
            let analysis = Analysis::of(&obs.events);
            let good = outcome.completed.iter().filter(|r| r.latency() <= slo).count();
            points.push(FailoverPoint {
                failures: k,
                shed_policy: shed.name().to_string(),
                slo_attainment: good as f64 / n.max(1) as f64,
                p99_during_outage_ms: analysis.p99_during_outages_ms(),
                report: ServeReport::of(&outcome, &cfg),
            });
        }
    }
    FailoverExp {
        scale,
        fleet: FAILOVER_FLEET.to_string(),
        requests: n,
        offered_rps: rate,
        slo_ms: slo.as_millis(),
        points,
    }
}

impl FailoverExp {
    pub fn print(&self) {
        report::header(&format!(
            "E17 — failover sweep (fleet {}, {} req at {:.1} req/s, p99 SLO {} ms, scale {})",
            self.fleet,
            self.requests,
            self.offered_rps,
            self.slo_ms,
            self.scale.name()
        ));
        println!(
            "{:>5} {:>15} {:>8} {:>9} {:>8} {:>8} {:>9} {:>9} {:>9}",
            "fails",
            "shed policy",
            "p99 ms",
            "p99@fail",
            "attain%",
            "shed%",
            "retries/r",
            "mttr ms",
            "outages"
        );
        for p in &self.points {
            let r = &p.report;
            println!(
                "{:>5} {:>15} {:>8.1} {:>9.1} {:>8.1} {:>8.1} {:>9.3} {:>9.1} {:>9}",
                p.failures,
                p.shed_policy,
                r.latency.p99_ms,
                p.p99_during_outage_ms,
                p.slo_attainment * 100.0,
                r.shed_rate * 100.0,
                r.faults.retries_per_request,
                r.faults.mttr_ms,
                r.faults.outages
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_failover_sweep_is_conservative_and_reports_faults() {
        let e = failover_exp_with(Scale::Tiny, Duration::from_millis(500.0));
        assert_eq!(e.points.len(), FAILURE_COUNTS.len() * 2);
        for p in &e.points {
            let r = &p.report;
            // Nothing silently lost: every generated request completed
            // or was shed with a recorded cause.
            assert_eq!(r.completed + r.shed, e.requests, "{p:?}");
            // The analyzer's trace-derived tail-during-failover must
            // agree exactly with the server's own fault report — two
            // independent paths to the same number.
            assert!(
                (p.p99_during_outage_ms - r.faults.p99_during_failover_ms).abs() < 1e-9,
                "analyzer {} vs report {}: {p:?}",
                p.p99_during_outage_ms,
                r.faults.p99_during_failover_ms
            );
            if p.failures == 0 {
                assert_eq!(r.faults.injected, 0, "healthy run injected faults: {p:?}");
                assert_eq!(r.faults.outages, 0);
            }
        }
        // With failures injected, the machinery must actually engage.
        let worst = e.points.iter().find(|p| p.failures == 3 && p.shed_policy == "reject").unwrap();
        assert!(worst.report.faults.injected > 0, "{worst:?}");
        assert!(worst.report.faults.retries > 0, "{worst:?}");
        assert!(worst.report.faults.outages > 0, "{worst:?}");
        assert!(worst.report.faults.mttr_ms > 0.0, "{worst:?}");
        // Failures cost tail latency or goodput relative to healthy.
        let healthy =
            e.points.iter().find(|p| p.failures == 0 && p.shed_policy == "reject").unwrap();
        assert!(
            worst.slo_attainment <= healthy.slo_attainment,
            "attainment should not improve under failures: {} vs {}",
            worst.slo_attainment,
            healthy.slo_attainment
        );
    }
}
