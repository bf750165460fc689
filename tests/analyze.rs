//! End-to-end trace analysis: a real observed serving run, exported to
//! Chrome trace JSON, parsed back and attributed — with the exactness
//! and determinism guarantees the `repro analyze` / `repro diff` CLI
//! (and the CI regression gate built on it) depend on.

use vpu_coprocessor::analyze::{diff, Analysis, DiffConfig, Verdict};
use vpu_coprocessor::experiments::serve_bench::traced_serve;
use vpu_coprocessor::experiments::Scale;
use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
use vpu_coprocessor::sim::Duration;

fn tiny_run(policy: DispatchPolicy) -> String {
    let (slo, sample) = (Duration::from_millis(500.0), Duration::from_millis(10.0));
    traced_serve(Scale::Tiny, slo, policy, sample, None, GrayConfig::default(), None).chrome_json
}

#[test]
fn attribution_of_a_real_run_is_exact_and_accounts_for_every_request() {
    let run = traced_serve(
        Scale::Tiny,
        Duration::from_millis(500.0),
        DispatchPolicy::CostAware,
        Duration::from_millis(10.0),
        None,
        GrayConfig::default(),
        None,
    );
    let analysis = Analysis::from_chrome(&run.chrome_json).expect("exported trace parses");
    // Every request the server reported is in the trace, with the same
    // completed/shed split.
    assert_eq!(analysis.e2e.count, run.report.completed, "completed mismatch");
    assert_eq!(analysis.shed.total(), run.report.shed, "shed mismatch");
    assert_eq!(analysis.forest.requests.len(), run.requests, "request mismatch");
    // The tentpole invariant: per-segment sums equal end-to-end latency
    // exactly — not approximately — for every completed request.
    assert!(!analysis.breakdowns.is_empty());
    for b in &analysis.breakdowns {
        assert!(b.exact(), "request {} lost time: {b:?}", b.id);
    }
    // The attribution table totals to the summed end-to-end latency.
    let table_ms: f64 = analysis.table.rows.iter().map(|r| r.total_ms).sum();
    let e2e_ms = analysis.e2e.mean_ms * analysis.e2e.count as f64;
    assert!((table_ms - e2e_ms).abs() < 1e-6, "table {table_ms} vs e2e {e2e_ms}");
    // Exactly one critical segment per completed request.
    let criticals: usize = analysis.table.rows.iter().map(|r| r.critical).sum();
    assert_eq!(criticals, analysis.breakdowns.len());
}

#[test]
fn self_diff_is_neutral_and_verdict_json_is_byte_identical() {
    let a = Analysis::from_chrome(&tiny_run(DispatchPolicy::CostAware)).unwrap();
    let d = diff(&a, &a, &DiffConfig::default());
    assert!(!d.regression);
    for m in d.metrics.iter().chain(&d.segments) {
        assert_eq!(m.verdict, Verdict::Neutral, "{}", m.metric);
        assert_eq!(m.delta, 0.0);
    }
    // The verdict file CI gates on reproduces byte-for-byte: same seed,
    // same policies, same JSON.
    let again = {
        let a = Analysis::from_chrome(&tiny_run(DispatchPolicy::CostAware)).unwrap();
        let b = Analysis::from_chrome(&tiny_run(DispatchPolicy::RoundRobin)).unwrap();
        serde_json::to_string(&diff(&a, &b, &DiffConfig::default())).unwrap()
    };
    let first = {
        let a = Analysis::from_chrome(&tiny_run(DispatchPolicy::CostAware)).unwrap();
        let b = Analysis::from_chrome(&tiny_run(DispatchPolicy::RoundRobin)).unwrap();
        serde_json::to_string(&diff(&a, &b, &DiffConfig::default())).unwrap()
    };
    assert_eq!(first, again);
}

#[test]
fn paired_runs_join_on_request_id_and_flamegraph_is_deterministic() {
    let a = Analysis::from_chrome(&tiny_run(DispatchPolicy::RoundRobin)).unwrap();
    let b = Analysis::from_chrome(&tiny_run(DispatchPolicy::CostAware)).unwrap();
    let d = diff(&a, &b, &DiffConfig::default());
    // Identical seeded arrivals: the paired join is total.
    assert_eq!(d.only_a, 0, "{d:?}");
    assert_eq!(d.only_b, 0, "{d:?}");
    assert_eq!(d.joined, a.e2e.count.min(b.e2e.count));
    // Folded stacks reproduce and cover the full attributed time.
    let f1 = vpu_coprocessor::analyze::folded(&a);
    let f2 = vpu_coprocessor::analyze::folded(&a);
    assert_eq!(f1, f2);
    assert!(f1.lines().all(|l| l.starts_with("serve;")), "{f1}");
}
