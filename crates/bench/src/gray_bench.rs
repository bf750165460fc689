//! E22 — gray-failure resilience: fail-slow and wire corruption vs the
//! serve-side defenses.
//!
//! PR 7's E17 covers *fail-stop* faults: the stick vanishes, the host
//! sees an error, the breaker opens. Gray failures are nastier — the
//! stick keeps answering, just slowly (fail-slow) or wrongly (bit-flips,
//! duplicated or dropped completions at the USB boundary), and nothing
//! errors. This experiment injects those faults on one worker of a
//! 4-VPU fleet and compares three arms per scenario:
//!
//! * **baseline** — no faults, defenses off (the PR 7 behavior);
//! * **defenseless** — faults injected, defenses off: the gray worker
//!   silently drags the tail, corrupted results reach the client;
//! * **defended** — faults injected, [`GrayConfig::defended`] on:
//!   verify-on-complete catches corruption, latency-outlier quarantine
//!   benches the fail-slow stick, hedged dispatch races the straggler.
//!
//! The headline number is the fraction of the fail-slow p99 degradation
//! the defenses claw back — the acceptance gate requires at least half —
//! next to what hedging cost in duplicated (wasted) energy, reported in
//! exact integer picojoules. The paper has no such figure; this extends
//! its redundancy pitch (§V) to failures the host is never told about.

use crate::report;
use crate::scale::Scale;
use desim::Duration;
use ncsw::ModelBundle;
use ncsw_faults::{FaultEvent, FaultPlan};
use ncsw_serve::{serve, ArrivalProcess, FleetSpec, GrayConfig, ServeConfig, ServeReport};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// Same redundant fleet and load point as E17 (`fault_bench`), so the
/// fail-stop and gray-failure sweeps are directly comparable.
pub const GRAY_FLEET: &str = "vpu+vpu+vpu+vpu";
pub const GRAY_LOAD_FRACTION: f64 = 0.7;

/// Fail-slow service-time inflation factors the sweep injects.
pub const FAILSLOW_FACTORS: [f64; 2] = [3.0, 6.0];

/// Per-image wire corruption probabilities the sweep injects.
pub const CORRUPT_PROBS: [f64; 2] = [0.02, 0.08];

/// One arm of a scenario (baseline / defenseless / defended).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrayCell {
    pub arm: String,
    /// Fraction of *generated* requests completed within the SLO.
    pub slo_attainment: f64,
    pub report: ServeReport,
}

/// One injected gray-failure scenario with its three arms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrayScenario {
    pub label: String,
    /// The `--faults` spec that reproduces the injection.
    pub spec: String,
    pub baseline: GrayCell,
    pub defenseless: GrayCell,
    pub defended: GrayCell,
    /// Fraction of the p99 degradation (defenseless − baseline) that
    /// the defenses recovered; 1.0 when there was nothing to recover.
    pub p99_recovered_frac: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GrayExp {
    pub scale: Scale,
    pub fleet: String,
    pub requests: usize,
    pub offered_rps: f64,
    pub slo_ms: f64,
    pub scenarios: Vec<GrayScenario>,
}

fn requests(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 200,
        Scale::Small => 1_200,
        Scale::Paper => 6_000,
    }
}

/// A sustained fail-slow window on worker 0: 15% into the expected
/// horizon the stick starts serving `factor`× slow, silently, for 60%
/// of the horizon — long enough that quarantine, probation re-entry and
/// hedging all engage.
pub fn failslow_plan(factor: f64, horizon_secs: f64) -> FaultPlan {
    let mut plan = FaultPlan::empty();
    plan.push(
        Some(0),
        FaultEvent::FailSlow {
            at: Duration::from_secs(horizon_secs * 0.15),
            duration: Duration::from_secs(horizon_secs * 0.60),
            factor,
        },
    );
    plan
}

/// Wire corruption on worker 0 for the whole run.
pub fn corrupt_plan(per_image_prob: f64) -> FaultPlan {
    let mut plan = FaultPlan::empty();
    plan.push(Some(0), FaultEvent::ResultCorrupt { per_image_prob });
    plan
}

/// Duplicated and dropped completions on worker 0 — the exactly-once
/// and sequence-gap scenario.
pub fn wire_plan(per_image_prob: f64) -> FaultPlan {
    let mut plan = FaultPlan::empty();
    plan.push(Some(0), FaultEvent::DuplicateCompletion { per_image_prob });
    plan.push(Some(0), FaultEvent::DroppedCompletion { per_image_prob });
    plan
}

pub fn gray_exp_with(scale: Scale, slo: Duration) -> GrayExp {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = requests(scale);
    let spec = FleetSpec::parse(GRAY_FLEET).expect("valid fleet spec");
    let probe = spec.build(&model);
    let capacity_rps = spec.capacity_rps(&probe);
    let max_batch = spec.preferred_batch(&probe);
    drop(probe);
    let rate = capacity_rps * GRAY_LOAD_FRACTION;
    let horizon_secs = n as f64 / rate;

    let run_cell = |arm: &str, plan: Option<&FaultPlan>, gray: GrayConfig| -> GrayCell {
        let cfg = ServeConfig { max_batch, slo, gray, ..ServeConfig::default() };
        let mut workers = spec.build(&model);
        if let Some(plan) = plan {
            workers = plan.apply(workers, cfg.seed);
        }
        let load = ArrivalProcess::Poisson { rate_per_sec: rate };
        let outcome = serve(&mut workers, &cfg, &load, n);
        let good = outcome.completed.iter().filter(|r| r.latency() <= slo).count();
        GrayCell {
            arm: arm.to_string(),
            slo_attainment: good as f64 / n.max(1) as f64,
            report: ServeReport::of(&outcome, &cfg),
        }
    };

    // One faultless baseline serves every scenario: its seed and load
    // stream are identical across arms, so p99 deltas are pure fault
    // plus defense effects.
    let baseline = run_cell("baseline", None, GrayConfig::default());

    let mut scenarios = Vec::new();
    let mut scenario = |label: String, spec_str: String, plan: FaultPlan| {
        let defenseless = run_cell("defenseless", Some(&plan), GrayConfig::default());
        let defended = run_cell("defended", Some(&plan), GrayConfig::defended());
        let degraded = defenseless.report.latency.p99_ms - baseline.report.latency.p99_ms;
        let recovered = defenseless.report.latency.p99_ms - defended.report.latency.p99_ms;
        let p99_recovered_frac = if degraded > 1e-9 { recovered / degraded } else { 1.0 };
        scenarios.push(GrayScenario {
            label,
            spec: spec_str,
            baseline: baseline.clone(),
            defenseless,
            defended,
            p99_recovered_frac,
        });
    };

    for &factor in &FAILSLOW_FACTORS {
        let plan = failslow_plan(factor, horizon_secs);
        scenario(format!("fail-slow x{factor}"), plan.to_spec(), plan);
    }
    for &p in &CORRUPT_PROBS {
        let plan = corrupt_plan(p);
        scenario(format!("corrupt p={p}"), plan.to_spec(), plan);
    }
    let plan = wire_plan(0.05);
    scenario("dup+drop p=0.05".to_string(), plan.to_spec(), plan);

    GrayExp {
        scale,
        fleet: GRAY_FLEET.to_string(),
        requests: n,
        offered_rps: rate,
        slo_ms: slo.as_millis(),
        scenarios,
    }
}

impl GrayExp {
    /// Worst (lowest) recovered fraction across the fail-slow
    /// scenarios — the number the acceptance gate checks.
    pub fn worst_failslow_recovery(&self) -> f64 {
        self.scenarios
            .iter()
            .filter(|s| s.label.starts_with("fail-slow"))
            .map(|s| s.p99_recovered_frac)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn print(&self) {
        report::header(&format!(
            "E22 — gray-failure sweep (fleet {}, {} req at {:.1} req/s, p99 SLO {} ms, scale {})",
            self.fleet,
            self.requests,
            self.offered_rps,
            self.slo_ms,
            self.scale.name()
        ));
        println!(
            "{:>16} {:>12} {:>8} {:>8} {:>7} {:>7} {:>6} {:>6} {:>10} {:>12}",
            "scenario",
            "arm",
            "p99 ms",
            "attain%",
            "integ",
            "surf",
            "hedge",
            "quar",
            "waste J",
            "waste pJ"
        );
        for s in &self.scenarios {
            for cell in [&s.baseline, &s.defenseless, &s.defended] {
                let g = &cell.report.gray;
                println!(
                    "{:>16} {:>12} {:>8.1} {:>8.1} {:>7} {:>7} {:>6} {:>6} {:>10.4} {:>12}",
                    s.label,
                    cell.arm,
                    cell.report.latency.p99_ms,
                    cell.slo_attainment * 100.0,
                    g.stats.integrity_fails,
                    g.stats.corrupt_surfaced + g.stats.drops_surfaced,
                    g.stats.hedges,
                    g.stats.quarantines,
                    g.hedge_wasted_j,
                    g.stats.hedge_wasted_pj
                );
            }
            println!("{:>16} p99 degradation recovered: {:.0}%", "", s.p99_recovered_frac * 100.0);
        }
        println!(
            "\nworst fail-slow p99 recovery: {:.0}% (gate: >= 50%)",
            self.worst_failslow_recovery() * 100.0
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_gray_sweep_defends_against_gray_failures() {
        let e = gray_exp_with(Scale::Tiny, Duration::from_millis(500.0));
        assert_eq!(e.scenarios.len(), FAILSLOW_FACTORS.len() + CORRUPT_PROBS.len() + 1);
        for s in &e.scenarios {
            for cell in [&s.baseline, &s.defenseless, &s.defended] {
                let r = &cell.report;
                assert_eq!(r.completed + r.shed, e.requests, "{}: {}", s.label, cell.arm);
            }
            // The baseline arm must never touch the gray machinery.
            let b = &s.baseline.report.gray.stats;
            assert_eq!((b.hedges, b.quarantines, b.integrity_fails), (0, 0, 0), "{}", s.label);
            // With defenses on, nothing corrupted or dropped may reach
            // the client.
            let d = &s.defended.report.gray.stats;
            assert_eq!(d.corrupt_surfaced, 0, "{}", s.label);
            assert_eq!(d.drops_surfaced, 0, "{}", s.label);
        }
        // Defenseless corruption must actually surface bad results —
        // otherwise the defended arm's zero is vacuous.
        let c = e.scenarios.iter().find(|s| s.label.starts_with("corrupt")).unwrap();
        assert!(
            c.defenseless.report.gray.stats.corrupt_surfaced > 0,
            "defenseless corruption surfaced nothing: {c:?}"
        );
        // Every integrity rejection was retried or shed, never served.
        let d = &c.defended.report.gray.stats;
        assert!(d.integrity_fails > 0, "{d:?}");
        // Fail-slow: quarantine + hedging engage and recover at least
        // half of the p99 degradation (the E22 acceptance gate).
        for s in e.scenarios.iter().filter(|s| s.label.starts_with("fail-slow")) {
            let d = &s.defended.report.gray.stats;
            assert!(d.hedges > 0 || d.quarantines > 0, "{}: defenses idle: {d:?}", s.label);
            assert!(
                s.p99_recovered_frac >= 0.5,
                "{}: recovered only {:.0}% of p99 degradation",
                s.label,
                s.p99_recovered_frac * 100.0
            );
        }
        // Hedge energy is accounted exactly: wasted joules follow the
        // integer picojoule ledger.
        for s in &e.scenarios {
            let g = &s.defended.report.gray;
            assert!(
                (g.hedge_wasted_j - g.stats.hedge_wasted_pj as f64 * 1e-12).abs() < 1e-15,
                "{g:?}"
            );
        }
    }
}
