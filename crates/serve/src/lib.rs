//! `ncsw-serve` — deterministic online inference serving over the
//! simulated CPU/GPU/multi-VPU fleet.
//!
//! The paper's NCSw framework is batch/throughput-oriented (run 10 000
//! images, report img/s). This crate adds the online story the ROADMAP
//! north star asks for: open-loop request arrivals, admission control
//! with load shedding, deadline-aware dynamic batching, and SLO-aware
//! dispatch across heterogeneous workers — all running on the `desim`
//! virtual clock, so every run is deterministic, machine-independent,
//! and finishes in milliseconds of real time.
//!
//! ```text
//!  ArrivalProcess ──> admission (bounded queue, shed) ──> batcher
//!  (Poisson/MMPP/      │                                  (max_batch
//!   trace, seeded)     └─ ShedPolicy                       or max_wait)
//!                                                            │
//!                  DispatchPolicy (rr / least-outstanding / cost-aware)
//!                                                            │
//!            ServiceHook workers: IntelCpu · NvGpu · IntelVpu (n sticks)
//! ```
//!
//! Quick start:
//!
//! ```
//! use ncsw_serve::{serve, ArrivalProcess, FleetSpec, ServeConfig, ServeReport};
//! use ncsw::ModelBundle;
//! use vpu_nn::googlenet::Variant;
//!
//! let model = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
//! let spec = FleetSpec::parse("cpu+gpu").unwrap();
//! let mut workers = spec.build(&model);
//! let cfg = ServeConfig::default();
//! let load = ArrivalProcess::Poisson { rate_per_sec: 50.0 };
//! let outcome = serve(&mut workers, &cfg, &load, 200);
//! let report = ServeReport::of(&outcome, &cfg);
//! assert_eq!(report.completed + report.shed, 200);
//! ```

pub mod fleet;
pub mod metrics;
pub mod server;
pub mod workload;

/// The log-bucketed histogram now lives in `ncsw-obs`; re-exported so
/// `ncsw_serve::histogram::LogHistogram` keeps resolving.
pub use ncsw_obs::histogram;

pub use fleet::{live_capacity_rps, live_preferred_batch, worker_rps, FleetSpec, WorkerSpec};
pub use metrics::{
    EnergyReport, FaultReport, GrayReport, Percentiles, ScalingReport, ServeReport, ShedBreakdown,
    WorkerEnergy, WorkerReport,
};
/// The decision half of the autoscaling loop lives in `ncsw-ctrl`;
/// re-exported so callers can build policies without a direct dep.
pub use ncsw_ctrl::{self as ctrl, ScaleDecision, ScaleSignals, ScalingPolicy};
pub use ncsw_obs::{
    FlightConfig, FlightRecorder, IncidentSnapshot, LogHistogram, SamplePolicy, SampleStats,
};
pub use server::{
    serve, serve_autoscaled, serve_autoscaled_observed, serve_observed, DispatchPolicy, FaultStats,
    GrayConfig, GrayStats, ObsConfig, OutageRecord, RequestRecord, RobustConfig, ScalingConfig,
    ScalingStats, ServeConfig, ServeObservation, ServeOutcome, ShedCause, ShedPolicy, ShedRecord,
    WorkerStats,
};
pub use workload::ArrivalProcess;

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Duration;
    use ncsw::ModelBundle;
    use std::sync::OnceLock;
    use vpu_nn::googlenet::Variant;

    /// Shared tiny model: properties here are structural, not anchored to
    /// the paper's latencies, so the small cost profile is fine (and keeps
    /// the suite fast).
    fn model() -> &'static ModelBundle {
        static MODEL: OnceLock<ModelBundle> = OnceLock::new();
        MODEL.get_or_init(|| ModelBundle::googlenet_untrained(Variant::Tiny, 1))
    }

    fn run(fleet: &str, cfg: &ServeConfig, rate: f64, n: usize) -> (ServeOutcome, ServeReport) {
        let spec = FleetSpec::parse(fleet).unwrap();
        let mut workers = spec.build(model());
        let load = ArrivalProcess::Poisson { rate_per_sec: rate };
        let outcome = serve(&mut workers, cfg, &load, n);
        let report = ServeReport::of(&outcome, cfg);
        (outcome, report)
    }

    #[test]
    fn requests_are_conserved() {
        let cfg = ServeConfig { queue_capacity: 4, ..ServeConfig::default() };
        let (outcome, report) = run("cpu", &cfg, 5_000.0, 400);
        assert_eq!(outcome.completed.len() + outcome.shed.len(), 400);
        assert!(report.shed > 0, "overload must shed");
    }

    #[test]
    fn timestamps_are_causally_ordered() {
        let (outcome, _) = run("cpu+gpu+2xvpu", &ServeConfig::default(), 2_000.0, 300);
        for r in &outcome.completed {
            assert!(r.arrival <= r.dispatched, "dispatch before arrival: {r:?}");
            assert!(r.dispatched <= r.service_start, "start before dispatch: {r:?}");
            assert!(r.service_start < r.completed, "done before start: {r:?}");
        }
    }

    #[test]
    fn per_worker_completions_are_monotone() {
        let (outcome, _) = run("cpu+gpu", &ServeConfig::default(), 3_000.0, 300);
        let workers = outcome.workers.len();
        for w in 0..workers {
            let mut last = None;
            for r in outcome.completed.iter().filter(|r| r.worker == w) {
                if let Some(prev) = last {
                    assert!(r.completed >= prev, "worker {w} went backwards");
                }
                last = Some(r.completed);
            }
        }
    }

    #[test]
    fn formation_wait_respects_deadline() {
        let cfg = ServeConfig {
            max_wait: Duration::from_millis(5.0),
            max_batch: 64,
            queue_capacity: 1_000,
            ..ServeConfig::default()
        };
        let (outcome, _) = run("gpu", &cfg, 300.0, 300);
        for r in &outcome.completed {
            // A batch closes by deadline or earlier by fill; formation
            // wait can only exceed max_wait by worker-busy stalls, which
            // show up in queue_wait, not here... except when no worker
            // was free at the deadline. Bound it by deadline + one
            // service time.
            assert!(
                r.formation_wait() <= cfg.max_wait + r.service_time() * 4,
                "formation wait unbounded: {r:?}"
            );
        }
    }

    #[test]
    fn drop_oldest_sheds_stalest_first() {
        let cfg = ServeConfig {
            queue_capacity: 2,
            shed: ShedPolicy::DropOldest,
            ..ServeConfig::default()
        };
        let (outcome, _) = run("cpu", &cfg, 5_000.0, 200);
        assert!(!outcome.shed.is_empty());
        for s in &outcome.shed {
            assert!(s.shed_at >= s.arrival, "evicted before arriving: {s:?}");
        }
        // Evicted requests were older than the eviction instant implies.
        assert!(outcome.shed.iter().any(|s| s.shed_at > s.arrival));
    }

    #[test]
    fn policies_are_deterministic_and_distinct() {
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastOutstanding,
            DispatchPolicy::CostAware,
        ] {
            let cfg = ServeConfig { policy, ..ServeConfig::default() };
            let (a, _) = run("cpu+gpu+2xvpu", &cfg, 2_000.0, 250);
            let (b, _) = run("cpu+gpu+2xvpu", &cfg, 2_000.0, 250);
            let key = |o: &ServeOutcome| -> Vec<(u64, u64, usize)> {
                o.completed.iter().map(|r| (r.id, r.completed.nanos(), r.worker)).collect()
            };
            assert_eq!(key(&a), key(&b), "{policy:?} must be deterministic");
        }
    }

    #[test]
    fn observed_run_is_bit_identical_to_plain_run() {
        let cfg = ServeConfig { queue_capacity: 8, ..ServeConfig::default() };
        let (plain, _) = run("cpu+1xvpu", &cfg, 2_000.0, 200);
        let spec = FleetSpec::parse("cpu+1xvpu").unwrap();
        let mut workers = spec.build(model());
        let load = ArrivalProcess::Poisson { rate_per_sec: 2_000.0 };
        let (observed, _) =
            serve_observed(&mut workers, &cfg, &load, 200, &server::ObsConfig::default());
        assert_eq!(plain.completed, observed.completed, "instrumentation changed the outcome");
        assert_eq!(plain.shed, observed.shed);
    }

    #[test]
    fn observation_captures_chain_series_and_metrics() {
        let cfg = ServeConfig { queue_capacity: 8, ..ServeConfig::default() };
        let spec = FleetSpec::parse("cpu+2xvpu").unwrap();
        let mut workers = spec.build(model());
        let load = ArrivalProcess::Poisson { rate_per_sec: 2_000.0 };
        let (outcome, obs) =
            serve_observed(&mut workers, &cfg, &load, 200, &server::ObsConfig::default());

        // At least one VPU-served request must expose the full
        // Arrive→…→Complete phase chain with non-decreasing stamps.
        let vpu_worker = 1; // cpu is worker 0
        let by_request = obs.events.group_by(|e| e.ctx.request_id);
        let chained = outcome
            .completed
            .iter()
            .filter(|r| r.worker == vpu_worker)
            .filter(|r| {
                by_request.get(&r.id).and_then(|evs| ncsw_obs::request_chain(evs)).is_some()
            })
            .count();
        assert!(chained > 0, "no request exposes the full phase chain");

        // Shed requests carry a Shed event.
        for s in &outcome.shed {
            assert!(
                by_request
                    .get(&s.id)
                    .is_some_and(|evs| evs.iter().any(|e| e.phase == ncsw_obs::Phase::Shed)),
                "shed request {} has no Shed event",
                s.id
            );
        }

        // Time series: sampled, with one utilization column per worker.
        assert!(!obs.series.samples.is_empty(), "no samples");
        assert_eq!(obs.series.worker_labels.len(), workers.len());
        let csv = obs.series.csv();
        assert!(csv.starts_with("time_ms,queue_depth,inflight_batches,completed,shed,slo_burn"));
        assert!(csv.lines().next().unwrap().contains("util_cpu"), "{csv}");

        // Registry: conservation + latency histogram populated.
        let arrived = obs.registry.counter_value("requests.arrived").unwrap();
        let done = obs.registry.counter_value("requests.completed").unwrap();
        let rejected = obs.registry.counter_value("requests.shed.rejected").unwrap();
        let evicted = obs.registry.counter_value("requests.shed.evicted").unwrap();
        assert_eq!(arrived, 200);
        assert_eq!(done + rejected + evicted, 200);
        assert_eq!(done as usize, outcome.completed.len());
        assert_eq!(obs.registry.histogram_of("latency.e2e").unwrap().len(), done);
    }

    #[test]
    fn shed_breakdown_distinguishes_reject_from_eviction() {
        let reject = ServeConfig { queue_capacity: 2, ..ServeConfig::default() };
        let (_, rep) = run("cpu", &reject, 5_000.0, 200);
        assert!(rep.shed_by_policy.rejected > 0);
        assert_eq!(rep.shed_by_policy.evicted, 0);
        assert_eq!(rep.shed_by_policy.rejected + rep.shed_by_policy.evicted, rep.shed);

        let evict = ServeConfig {
            queue_capacity: 2,
            shed: ShedPolicy::DropOldest,
            ..ServeConfig::default()
        };
        let (outcome, rep) = run("cpu", &evict, 5_000.0, 200);
        assert!(rep.shed_by_policy.evicted > 0);
        assert_eq!(rep.shed_by_policy.rejected, 0);
        assert!(rep.shed_by_policy.evicted_wait_max_ms > 0.0, "evictions burn queue time");
        assert!(outcome.shed.iter().all(|s| s.cause == ShedCause::Evicted));
    }

    /// A policy that never acts: an autoscaled run driven by it must be
    /// indistinguishable from a plain static run.
    struct HoldAll;
    impl ScalingPolicy for HoldAll {
        fn name(&self) -> &'static str {
            "hold-all"
        }
        fn decide(&mut self, _s: &ScaleSignals) -> ScaleDecision {
            ScaleDecision::Hold
        }
    }

    fn autoscale_run(
        fleet: &str,
        rate: f64,
        n: usize,
        policy: &mut dyn ScalingPolicy,
    ) -> ServeOutcome {
        let spec = FleetSpec::parse(fleet).unwrap();
        let mut workers = spec.build(model());
        let cfg = ServeConfig::default();
        let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..Default::default() };
        let load = ArrivalProcess::Poisson { rate_per_sec: rate };
        server::serve_autoscaled(&mut workers, &cfg, &load, n, &scaling, policy)
    }

    #[test]
    fn a_hold_policy_is_passive_and_controller_off_paths_are_unchanged() {
        let (plain, _) = run("4*vpu", &ServeConfig::default(), 100.0, 200);
        let held = autoscale_run("4*vpu", 100.0, 200, &mut HoldAll);
        assert_eq!(plain.completed, held.completed, "holding controller changed the run");
        assert_eq!(plain.shed, held.shed);
        assert_eq!(plain.faults, held.faults);
        assert!(plain.scaling.is_none(), "static run must not carry a scaling block");
        let stats = held.scaling.as_ref().expect("autoscaled run carries scaling stats");
        assert_eq!(stats.policy, "hold-all");
        assert_eq!((stats.scale_ups, stats.scale_downs), (0, 0));
        assert!(stats.ticks > 0, "controller never ticked");
        // With nothing ever gated, the ledger reclaims nothing.
        let horizon = held.energy_horizon();
        assert_eq!(held.energy.reclaimed_pj(horizon), 0);
    }

    #[test]
    fn autoscaled_runs_are_deterministic_per_policy() {
        for name in ncsw_ctrl::POLICY_NAMES {
            let mut p1 = ncsw_ctrl::policy(name).unwrap();
            let mut p2 = ncsw_ctrl::policy(name).unwrap();
            let a = autoscale_run("8*vpu", 15.0, 150, p1.as_mut());
            let b = autoscale_run("8*vpu", 15.0, 150, p2.as_mut());
            assert_eq!(a.completed, b.completed, "{name} run not deterministic");
            assert_eq!(a.shed, b.shed, "{name}");
            assert_eq!(a.scaling, b.scaling, "{name} scaling stats not deterministic");
        }
    }

    #[test]
    fn reactive_autoscaling_reclaims_idle_energy_at_low_load() {
        let mut p = ncsw_ctrl::policy("reactive").unwrap();
        let outcome = autoscale_run("8*vpu", 15.0, 200, p.as_mut());
        let stats = outcome.scaling.as_ref().unwrap();
        assert!(stats.scale_downs > 0, "low load must drain sticks: {stats:?}");
        let horizon = outcome.energy_horizon();
        assert!(outcome.energy.reclaimed_pj(horizon) > 0, "gating must reclaim idle energy");
        // Every request still gets served or shed, and the report's
        // scaling block mirrors the ledger.
        assert_eq!(outcome.completed.len() + outcome.shed.len(), 200);
        let report = ServeReport::of(&outcome, &ServeConfig::default());
        let block = report.scaling.expect("scaling block");
        assert_eq!(block.reclaimed_pj, outcome.energy.reclaimed_pj(horizon));
        assert!(block.stick_seconds < block.static_stick_seconds, "{block:?}");
    }

    #[test]
    fn cost_aware_beats_round_robin_on_heterogeneous_fleet() {
        let mk = |policy| ServeConfig { policy, ..ServeConfig::default() };
        // The 1-stick VPU is far slower than the hosts; round-robin gives
        // it an equal share and pays for it in the tail.
        let (_, rr) = run("cpu+gpu+1xvpu", &mk(DispatchPolicy::RoundRobin), 1_500.0, 400);
        let (_, ca) = run("cpu+gpu+1xvpu", &mk(DispatchPolicy::CostAware), 1_500.0, 400);
        assert!(
            ca.latency.p99_ms <= rr.latency.p99_ms,
            "cost-aware p99 {} > round-robin p99 {}",
            ca.latency.p99_ms,
            rr.latency.p99_ms
        );
    }
}
