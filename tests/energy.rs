//! Fleet-wide energy telemetry: end-to-end conservation.
//!
//! The server integrates island power models over virtual-clock busy
//! spans in exact integer picojoules (pJ = mW x ns). The exported
//! Chrome trace carries the same ledger as per-worker power counter
//! lanes, and the analyzer re-integrates those samples and attributes
//! the active energy across requests and latency segments. These tests
//! close the loop on *real* serving runs — healthy and faulted — and
//! require the books to balance exactly, as u64 equalities, at every
//! level: trace vs server, attribution vs active energy, per-request
//! segment splits vs the request's share.

use vpu_coprocessor::analyze::Analysis;
use vpu_coprocessor::experiments::serve_bench::{traced_serve, TracedServe};
use vpu_coprocessor::experiments::Scale;
use vpu_coprocessor::faults::FaultPlan;
use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
use vpu_coprocessor::sim::Duration;

fn tiny_run(faults: Option<&FaultPlan>) -> TracedServe {
    traced_serve(
        Scale::Tiny,
        Duration::from_millis(500.0),
        DispatchPolicy::CostAware,
        Duration::from_millis(10.0),
        faults,
        GrayConfig::default(),
        None,
    )
}

/// All the exact-conservation laws, checked against one traced run.
fn assert_books_balance(run: &TracedServe) {
    let analysis = Analysis::from_chrome(&run.chrome_json).expect("exported trace parses");
    let e = analysis.energy.as_ref().expect("observed traces carry power lanes");

    // Law 1: the trace alone re-integrates the server's exact total.
    // Not "close" — the same u64, because both sides compute pJ = mW*ns
    // from the same step function.
    assert_eq!(e.fleet_pj, run.report.energy.fleet_pj, "trace vs server fleet energy");
    assert_eq!(e.fleet_pj, e.active_pj + e.wasted_pj + e.idle_pj, "fleet split");

    // Law 2: attribution is lossless — every active picojoule lands on
    // exactly one completed request.
    assert_eq!(e.attributed_pj, e.active_pj, "attributed vs active");
    let request_sum: u64 = e.requests.iter().map(|r| r.pj).sum();
    assert_eq!(request_sum, e.attributed_pj, "per-request sum");

    // Law 3: each request's nine-segment split telescopes to its share.
    for r in &e.requests {
        let segs: u64 = r.segs.iter().sum();
        assert_eq!(segs, r.pj, "request {} segment split", r.id);
    }

    // Law 4: per-worker ledgers tile the fleet total.
    let worker_sum: u64 = e.workers.iter().map(|w| w.total_pj).sum();
    assert_eq!(worker_sum, e.fleet_pj, "per-worker tiling");

    // The float views are just the integers at the display edge.
    let fleet_j = e.fleet_pj as f64 * 1e-12;
    assert!((run.report.energy.fleet_j - fleet_j).abs() <= 1e-9 * fleet_j.max(1.0));
}

#[test]
fn energy_books_balance_exactly_on_a_healthy_run() {
    let run = tiny_run(None);
    assert!(run.report.energy.fleet_pj > 0, "energy must integrate");
    assert_books_balance(&run);
}

#[test]
fn energy_books_balance_exactly_under_faults_and_waste_is_charged() {
    // Mid-run faults make workers fail batches and fail over: the
    // failed attempts' latency is never attributed to a request, but
    // their energy was really drawn — it must appear as *wasted*
    // energy, and every conservation law must still hold exactly.
    let plan =
        FaultPlan::parse("execerr@0.2,w1:unplug@200ms:reconnect@600ms").expect("valid fault spec");
    let run = tiny_run(Some(&plan));
    assert!(run.report.faults.injected > 0, "the plan must actually bite");
    assert_books_balance(&run);

    let analysis = Analysis::from_chrome(&run.chrome_json).unwrap();
    let e = analysis.energy.unwrap();
    assert!(e.wasted_pj > 0, "failed attempts must charge wasted energy");
    // Wasted joules surface in the server report too, in agreement.
    let wasted_j = e.wasted_pj as f64 * 1e-12;
    assert!((run.report.energy.wasted_j - wasted_j).abs() <= 1e-9 * wasted_j.max(1.0));
}

#[test]
fn faults_cost_energy_relative_to_the_healthy_run() {
    // Same seeded arrivals, same fleet: the faulted run can only burn
    // *more* total energy per completion (retries + wasted attempts),
    // never less per completed inference than the healthy run's actual
    // work — and the wasted split is where the difference shows.
    let healthy = tiny_run(None);
    let plan = FaultPlan::parse("execerr@0.3").expect("valid fault spec");
    let faulted = tiny_run(Some(&plan));
    assert_eq!(healthy.report.energy.wasted_j, 0.0, "healthy runs waste nothing");
    assert!(faulted.report.energy.wasted_j > 0.0);
    assert!(
        faulted.report.energy.j_per_inference > healthy.report.energy.j_per_inference,
        "faults must raise J/inference: {} vs {}",
        faulted.report.energy.j_per_inference,
        healthy.report.energy.j_per_inference
    );
}

#[test]
fn traced_energy_report_is_byte_identical_across_runs() {
    // The whole energy block is integer-derived, so its JSON must
    // reproduce byte-for-byte — including under faults.
    let plan = FaultPlan::parse("execerr@0.2").expect("valid fault spec");
    let ser = |r: &TracedServe| serde_json::to_string(&r.report.energy).expect("serialize");
    assert_eq!(ser(&tiny_run(Some(&plan))), ser(&tiny_run(Some(&plan))));
    assert_eq!(ser(&tiny_run(None)), ser(&tiny_run(None)));
}

#[test]
fn energy_books_balance_exactly_on_a_dynamic_fleet() {
    // Autoscaling power-gates sticks mid-run, so the per-worker power
    // step functions now contain genuine off windows. Every exact
    // conservation law must survive that: the trace re-integrates the
    // server's fleet total, attribution stays lossless, and the ledger
    // additionally proves the gating reclaimed real idle energy.
    use vpu_coprocessor::experiments::autoscale_bench::traced_autoscale;
    for policy in ["reactive", "oracle"] {
        let run = traced_autoscale(Scale::Tiny, policy, Duration::from_millis(10.0), None);
        assert_books_balance(&run);
        let s = run.report.scaling.as_ref().expect("autoscaled runs report a scaling block");
        assert!(s.scale_downs > 0, "{policy}: low load must trigger drains: {s:?}");
        assert!(s.reclaimed_pj > 0, "{policy}: gated windows must reclaim idle energy");
        assert!(
            s.stick_seconds < s.static_stick_seconds,
            "{policy}: a dynamic fleet must pay fewer powered stick-seconds \
             ({} vs {})",
            s.stick_seconds,
            s.static_stick_seconds
        );
    }
}
