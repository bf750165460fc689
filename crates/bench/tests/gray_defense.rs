//! End-to-end checks of the gray-failure defenses: a defended run under
//! injected gray faults must actually *engage* (hedges, quarantines,
//! integrity rejections), and everything it records must survive the
//! trace validator — on the homogeneous chaos fleet and on the
//! heterogeneous traced fleet alike.

use desim::Duration;
use ncsw::ModelBundle;
use ncsw_faults::{FaultEvent, FaultPlan};
use ncsw_obs::chrome_trace;
use ncsw_serve::{serve_observed, ArrivalProcess, FleetSpec, GrayConfig, ObsConfig, ServeConfig};
use vpu_bench::gray_bench::{failslow_plan, GRAY_FLEET, GRAY_LOAD_FRACTION};
use vpu_bench::trace_check;
use vpu_nn::googlenet::Variant;

/// Run the E22 fleet under a mid-run fail-slow with defenses on and
/// return the outcome plus its validated trace summary.
fn defended_failslow_run() -> (ncsw_serve::ServeOutcome, trace_check::TraceCheck) {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let spec = FleetSpec::parse(GRAY_FLEET).unwrap();
    let workers = spec.build(&model);
    let rate = spec.capacity_rps(&workers) * GRAY_LOAD_FRACTION;
    let max_batch = spec.preferred_batch(&workers);
    let n = 200;
    let horizon_secs = n as f64 / rate;
    let cfg = ServeConfig { max_batch, gray: GrayConfig::defended(), ..ServeConfig::default() };
    let mut workers = failslow_plan(6.0, horizon_secs).apply(workers, cfg.seed);
    let load = ArrivalProcess::Poisson { rate_per_sec: rate };
    let ocfg = ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() };
    let (outcome, obs) = serve_observed(&mut workers, &cfg, &load, n, &ocfg);
    let check = trace_check::validate(&chrome_trace(&obs.events))
        .expect("defended fail-slow trace must satisfy every invariant");
    (outcome, check)
}

#[test]
fn defended_failslow_run_hedges_quarantines_and_validates() {
    let (outcome, check) = defended_failslow_run();
    // The defenses must engage — and the trace must agree with the
    // outcome's own counters, not just be internally consistent.
    assert!(outcome.gray.hedges > 0, "fail-slow under load must trigger hedges");
    assert!(outcome.gray.quarantines > 0, "a 6x stretch must quarantine the worker");
    assert_eq!(check.hedges as u64, outcome.gray.hedges);
    assert_eq!(check.quarantines as u64, outcome.gray.quarantines);
    assert_eq!(check.hedge_wins as u64, outcome.gray.hedge_wins);
    assert_eq!(check.hedge_cancels as u64, outcome.gray.hedge_cancels);
    // Every quarantined worker re-enters on probation within the run.
    assert_eq!(check.probations as u64, outcome.gray.probations);
}

#[test]
fn heterogeneous_traced_fleet_engages_defenses() {
    // Regression: a heterogeneous fleet mixes a fast GPU with a slow
    // pipelined VPU stick that serves only a handful of batches all
    // run, so a fail-slow pinned there used to sail under the hedge's
    // `min_samples` arming bar (and can never string together enough
    // consecutive outliers to quarantine). The fleet-wide ratio
    // histogram — fed mostly by the healthy majority — must still arm
    // within a tiny run and hedge the stick's stretched batches.
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let spec = FleetSpec::parse("cpu+gpu+8xvpu").unwrap();
    let workers = spec.build(&model);
    let rate = spec.capacity_rps(&workers) * 0.7;
    let max_batch = spec.preferred_batch(&workers);
    let n = 200;
    let horizon_secs = n as f64 / rate;
    let mut plan = FaultPlan::empty();
    plan.push(
        Some(2), // the 8xvpu worker
        FaultEvent::FailSlow {
            at: Duration::from_secs(horizon_secs * 0.15),
            duration: Duration::from_secs(horizon_secs * 0.60),
            factor: 6.0,
        },
    );
    let cfg = ServeConfig { max_batch, gray: GrayConfig::defended(), ..ServeConfig::default() };
    let mut workers = plan.apply(workers, cfg.seed);
    let load = ArrivalProcess::Poisson { rate_per_sec: rate };
    let ocfg = ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() };
    let (outcome, obs) = serve_observed(&mut workers, &cfg, &load, n, &ocfg);
    let check = trace_check::validate(&chrome_trace(&obs.events))
        .expect("defended heterogeneous trace must satisfy every invariant");
    assert!(
        outcome.gray.hedges > 0,
        "the slow minority worker must get hedged: {:?}",
        outcome.gray
    );
    assert_eq!(check.hedges as u64, outcome.gray.hedges);
    // Hedge losers are charged as wasted energy, in exact picojoules.
    assert!(outcome.gray.hedge_wins == 0 || outcome.gray.hedge_wasted_pj > 0);
}

#[test]
fn defended_corruption_run_rejects_and_validates() {
    // Wire corruption + duplicates + drops on one worker: verify-on-
    // complete must reject every damaged batch (nothing surfaces), and
    // the trace must carry resolved IntegrityFail events.
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let spec = FleetSpec::parse(GRAY_FLEET).unwrap();
    let workers = spec.build(&model);
    let rate = spec.capacity_rps(&workers) * GRAY_LOAD_FRACTION;
    let max_batch = spec.preferred_batch(&workers);
    let cfg = ServeConfig { max_batch, gray: GrayConfig::defended(), ..ServeConfig::default() };
    let mut plan = FaultPlan::empty();
    plan.push(Some(0), FaultEvent::ResultCorrupt { per_image_prob: 0.08 });
    plan.push(Some(0), FaultEvent::DuplicateCompletion { per_image_prob: 0.05 });
    plan.push(Some(0), FaultEvent::DroppedCompletion { per_image_prob: 0.05 });
    let mut workers = plan.apply(workers, cfg.seed);
    let load = ArrivalProcess::Poisson { rate_per_sec: rate };
    let ocfg = ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() };
    let (outcome, obs) = serve_observed(&mut workers, &cfg, &load, 200, &ocfg);
    let check = trace_check::validate(&chrome_trace(&obs.events))
        .expect("defended corruption trace must satisfy every invariant");
    assert!(outcome.gray.integrity_fails > 0, "corruption must be caught");
    assert_eq!(outcome.gray.corrupt_surfaced, 0, "no corrupt result may surface");
    assert_eq!(outcome.gray.drops_surfaced, 0, "no dropped slot may surface");
    assert_eq!(check.integrity_fails as u64, outcome.gray.integrity_fails);
}
