//! E23 — scalable observability: the cost/fidelity curve of tail-based
//! trace sampling.
//!
//! One busy faulted serving run on the heterogeneous fleet, recorded
//! four ways: full fidelity, `--sample all` (must be byte-identical to
//! full), `1-in-10` and `1-in-100` tail sampling. Sampling is passive —
//! the served outcome is bit-identical across arms — so the sweep
//! isolates what observability itself costs: events recorded, exported
//! trace bytes and recorder ns/event, against what fidelity survives:
//! every anomalous request's full chain (test-enforced) and a p99
//! recovered from the sampled trace alone.
//!
//! The p99 recovery uses the top-K reservoir: with `C` completions,
//! nearest-rank p99 is the `k = C - ceil(0.99 C) + 1`-th largest
//! latency, so any sample that keeps the K >= k slowest requests (plus
//! all SLO violators) reconstructs the *exact* full-trace p99 from a
//! fraction of the bytes.

use crate::report;
use crate::scale::Scale;
use crate::serve_bench::{observed_artifacts, TRACED_FLEET};
use desim::Duration;
use ncsw::ModelBundle;
use ncsw_analyze::{Outcome, SpanForest};
use ncsw_obs::{prof, EventLog, SamplePolicy, SampleStats};
use ncsw_serve::{serve_observed, ArrivalProcess, FleetSpec, ObsConfig, ServeConfig};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// Offered load as a fraction of fleet capacity: busy enough that SLO
/// violations and sheds exist, calm enough that they stay rare — the
/// regime where tail sampling pays.
const LOAD_FRACTION: f64 = 0.9;

/// Mid-run stick outage: guarantees faulted (retried/failed-over)
/// requests whose chains the sampler must retain.
const FAULTS: &str = "unplug@500ms:reconnect@900ms";

/// One recording arm of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SamplePoint {
    /// `full` (no sampler) or the `--sample` spec.
    pub spec: String,
    pub events_recorded: u64,
    pub trace_bytes: u64,
    /// Full-fidelity trace bytes / this arm's trace bytes.
    pub bytes_ratio: f64,
    /// Recorder wall ns per recorded event (profiled).
    pub ns_per_event: f64,
    /// Requests whose chains the exported trace retains.
    pub requests_kept: u64,
    /// Anomalous requests (shed / SLO-violating / faulted) present.
    pub anomalies_kept: usize,
    /// Every anomalous request's chain is byte-identical to the full
    /// run's.
    pub anomalies_intact: bool,
    /// Nearest-rank p99 recovered from this arm's trace alone.
    pub p99_ms: f64,
    pub p99_err_ms: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SampleExp {
    pub scale: Scale,
    pub requests: usize,
    pub slo_ms: f64,
    pub fleet: String,
    pub offered_rps: f64,
    pub faults: String,
    /// Completed requests (identical across arms — sampling is passive).
    pub completed: usize,
    /// Anomalous requests in the full run.
    pub anomalies: usize,
    pub full_p99_ms: f64,
    pub points: Vec<SamplePoint>,
    /// The E23 gate: `all` byte-identical to full, 1-in-100 cuts trace
    /// bytes >= 10x, every anomaly chain intact, sampled p99 within
    /// [`P99_TOLERANCE_MS`] of the full-trace p99.
    pub sampling_ok: bool,
}

/// How far a sampled-trace p99 may sit from the full-trace p99. The
/// reservoir makes the estimator exact in this protocol; the tolerance
/// only absorbs float formatting.
pub const P99_TOLERANCE_MS: f64 = 1.0;

fn requests_for(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 2_000,
        Scale::Small => 8_000,
        Scale::Paper => 20_000,
    }
}

struct Arm {
    log: EventLog,
    stats: Option<SampleStats>,
    overhead: ncsw_obs::OverheadLedger,
}

/// Nearest-rank p99 over the completed requests of `forest`, recovered
/// from the k-th largest kept latency (`completed` is the *full* run's
/// completion count). `None` when the trace kept fewer than k chains.
fn p99_from_forest(forest: &SpanForest, completed: usize) -> Option<f64> {
    if completed == 0 {
        return None;
    }
    let rank = (99 * completed).div_ceil(100); // ceil(0.99 C), 1-indexed ascending
    let k = completed - rank + 1; // k-th largest
    let mut lat: Vec<u64> = forest
        .requests
        .values()
        .filter(|r| r.outcome() == Outcome::Completed)
        .filter_map(|r| r.latency().map(|d| d.nanos()))
        .collect();
    if lat.len() < k {
        return None;
    }
    lat.sort_unstable_by(|a, b| b.cmp(a));
    Some(lat[k - 1] as f64 / 1e6)
}

/// Ids of anomalous requests: shed, SLO-violating, or faulted
/// (retried). These are exactly the sampler's always-keep triggers that
/// tag individual requests.
fn anomaly_ids(forest: &SpanForest, slo: Duration) -> Vec<u64> {
    forest
        .requests
        .values()
        .filter(|r| {
            r.outcome() == Outcome::Shed || r.retries > 0 || r.latency().is_some_and(|d| d > slo)
        })
        .map(|r| r.id)
        .collect()
}

pub fn sample_exp(scale: Scale) -> SampleExp {
    let slo = Duration::from_millis(500.0);
    let n = requests_for(scale);
    let top_k = (n / 50).max(32);
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let spec = FleetSpec::parse(TRACED_FLEET).expect("valid fleet spec");
    let probe = spec.build(&model);
    let capacity_rps = spec.capacity_rps(&probe);
    let max_batch = spec.preferred_batch(&probe);
    drop(probe);
    let rate = capacity_rps * LOAD_FRACTION;
    let plan = ncsw_faults::FaultPlan::parse(FAULTS).expect("valid fault spec");

    let run = |sample: Option<SamplePolicy>| -> Arm {
        let cfg = ServeConfig { max_batch, slo, ..ServeConfig::default() };
        let mut workers = plan.apply(spec.build(&model), cfg.seed);
        let load = ArrivalProcess::Poisson { rate_per_sec: rate };
        let ocfg = ObsConfig { sample_every: Duration::from_millis(10.0), sample };
        // Profile each arm so the ledger carries recorder ns/event —
        // the wall cost of observing, not of serving.
        prof::start();
        let (_outcome, mut obs) = serve_observed(&mut workers, &cfg, &load, n, &ocfg);
        let art = observed_artifacts(&mut obs);
        prof::stop();
        Arm { log: obs.events, stats: obs.sample, overhead: art.overhead }
    };

    let specs: [Option<SamplePolicy>; 4] = [
        None,
        Some(SamplePolicy::all()),
        Some(SamplePolicy::parse(&format!("1-in-10+top{top_k}")).expect("valid spec")),
        Some(SamplePolicy::parse(&format!("1-in-100+top{top_k}")).expect("valid spec")),
    ];

    let full = run(None);
    let full_forest = SpanForest::build(&full.log);
    let completed =
        full_forest.requests.values().filter(|r| r.outcome() == Outcome::Completed).count();
    let anomalies = anomaly_ids(&full_forest, slo);
    let full_p99 = p99_from_forest(&full_forest, completed).unwrap_or(f64::NAN);
    let full_bytes = full.overhead.trace_bytes;
    let full_chains = full.log.group_by(|e| e.ctx.request_id);

    let mut points = Vec::new();
    for s in &specs {
        let arm = if s.is_none() { None } else { Some(run(s.clone())) };
        let arm = arm.as_ref().unwrap_or(&full);
        let forest = SpanForest::build(&arm.log);
        let kept_anoms: Vec<u64> =
            anomalies.iter().copied().filter(|id| forest.requests.contains_key(id)).collect();
        // Intact = the anomalous request's event chain is exactly the
        // full run's, not merely present.
        let kept_chains = arm.log.group_by(|e| e.ctx.request_id);
        let intact = kept_anoms.len() == anomalies.len()
            && anomalies.iter().all(|id| kept_chains.get(id) == full_chains.get(id));
        let p99 = p99_from_forest(&forest, completed).unwrap_or(f64::NAN);
        points.push(SamplePoint {
            spec: s.as_ref().map_or("full".to_string(), |p| p.spec()),
            events_recorded: arm.overhead.events_recorded,
            trace_bytes: arm.overhead.trace_bytes,
            bytes_ratio: full_bytes as f64 / arm.overhead.trace_bytes.max(1) as f64,
            ns_per_event: arm.overhead.ns_per_event(),
            requests_kept: arm
                .stats
                .as_ref()
                .map_or(forest.requests.len() as u64, |st| st.requests_kept),
            anomalies_kept: kept_anoms.len(),
            anomalies_intact: intact,
            p99_ms: p99,
            p99_err_ms: (p99 - full_p99).abs(),
        });
    }

    let by_spec = |needle: &str| points.iter().find(|p| p.spec.starts_with(needle));
    let all_ok = by_spec("all").is_some_and(|p| {
        p.trace_bytes == full_bytes && p.events_recorded == points[0].events_recorded
    });
    let coarse_ok = by_spec("1-in-100").is_some_and(|p| p.bytes_ratio >= 10.0);
    let fidelity_ok = points.iter().all(|p| p.anomalies_intact && p.p99_err_ms <= P99_TOLERANCE_MS);
    SampleExp {
        scale,
        requests: n,
        slo_ms: slo.as_millis(),
        fleet: TRACED_FLEET.to_string(),
        offered_rps: rate,
        faults: FAULTS.to_string(),
        completed,
        anomalies: anomalies.len(),
        full_p99_ms: full_p99,
        points,
        sampling_ok: all_ok && coarse_ok && fidelity_ok,
    }
}

impl SampleExp {
    pub fn point(&self, prefix: &str) -> Option<&SamplePoint> {
        self.points.iter().find(|p| p.spec.starts_with(prefix))
    }

    pub fn print(&self) {
        report::header(&format!(
            "E23 — tail-based trace sampling: {} requests on {} at {:.1} req/s, SLO {} ms, \
             faults {}, scale {}",
            self.requests,
            self.fleet,
            self.offered_rps,
            self.slo_ms,
            self.faults,
            self.scale.name()
        ));
        println!(
            "completed {} ({} anomalous: shed / >SLO / retried), full-trace p99 {:.1} ms",
            self.completed, self.anomalies, self.full_p99_ms
        );
        println!(
            "{:>16} {:>9} {:>12} {:>7} {:>9} {:>6} {:>8} {:>9} {:>8}",
            "spec", "events", "trace B", "ratio", "ns/event", "kept", "anoms", "p99 ms", "err ms"
        );
        for p in &self.points {
            println!(
                "{:>16} {:>9} {:>12} {:>7.1} {:>9.1} {:>6} {:>5}/{:<2} {:>9.1} {:>8.3}",
                p.spec,
                p.events_recorded,
                p.trace_bytes,
                p.bytes_ratio,
                p.ns_per_event,
                p.requests_kept,
                p.anomalies_kept,
                if p.anomalies_intact { "ok" } else { "BROKEN" },
                p.p99_ms,
                p.p99_err_ms
            );
        }
        println!(
            "gate (all==full bytes, 1-in-100 >= 10x smaller, anomaly chains intact, \
             p99 within {} ms): {}",
            P99_TOLERANCE_MS,
            if self.sampling_ok { "ok" } else { "VIOLATED" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sampling_sweep_holds_the_gate() {
        let e = sample_exp(Scale::Tiny);
        assert_eq!(e.points.len(), 4);
        assert!(e.completed > 0, "{e:#?}");
        assert!(e.anomalies > 0, "the faulted overloaded run must produce anomalies");
        assert!(e.sampling_ok, "{e:#?}");
        // The coarse arm is the headline: >= 10x smaller, exact p99.
        let coarse = e.point("1-in-100").unwrap();
        assert!(coarse.bytes_ratio >= 10.0, "{coarse:#?}");
        assert!(coarse.p99_err_ms <= P99_TOLERANCE_MS, "{coarse:#?}");
        assert!(coarse.anomalies_intact, "{coarse:#?}");
        // All-keep arm is byte-for-byte the full recording.
        let all = e.point("all").unwrap();
        assert_eq!(all.trace_bytes, e.points[0].trace_bytes);
    }
}
