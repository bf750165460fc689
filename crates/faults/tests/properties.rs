//! Property tests of serving under injected faults: for any fault plan
//! — unplugs with or without reconnect, throttles, USB degradation,
//! transient exec errors — every admitted request either completes
//! exactly once or is shed with a recorded cause, and the run's
//! causal structure survives failover.

use desim::Duration;
use ncsw::ModelBundle;
use ncsw_faults::{FaultEvent, FaultPlan};
use ncsw_serve::{serve, ArrivalProcess, FleetSpec, ServeConfig, ShedPolicy};
use proptest::prelude::*;
use std::collections::HashSet;
use vpu_nn::googlenet::Variant;

fn model() -> ModelBundle {
    ModelBundle::googlenet_untrained(Variant::Tiny, 1)
}

const FLEETS: [&str; 3] = ["cpu+gpu", "vpu+vpu", "cpu+vpu+vpu+vpu"];

/// Raw sample for one fault: (kind, worker, at_s, dur_s, factor, prob).
type FaultSample = (usize, usize, f64, f64, f64, f64);

fn build_fault((kind, _, at, dur, factor, prob): FaultSample) -> FaultEvent {
    match kind {
        0 => FaultEvent::StickUnplug {
            at: Duration::from_secs(at),
            // Reuse `prob` as the coin for permanent-vs-healing unplugs.
            reconnect_after: (prob < 0.75).then(|| Duration::from_secs(dur)),
        },
        1 => FaultEvent::ThermalThrottle {
            at: Duration::from_secs(at),
            duration: Duration::from_secs(dur),
            slowdown: factor,
        },
        2 => FaultEvent::UsbDegrade {
            at: Duration::from_secs(at),
            duration: Duration::from_secs(dur),
            factor,
        },
        _ => FaultEvent::TransientExecError { per_batch_prob: 0.01 + prob * 0.29 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exactly-once under faults: admitted requests complete once or
    /// shed with a cause; nothing is lost, duplicated, or invented.
    #[test]
    fn faulted_serving_conserves_requests(
        fleet_idx in 0usize..3,
        faults in prop::collection::vec(
            (0usize..4, 0usize..4, 0.0f64..8.0, 0.1f64..4.0, 1.1f64..4.0, 0.0f64..1.0),
            0..4,
        ),
        rate in 20.0f64..400.0,
        n in 50usize..200,
        seed in 0u64..1_000,
    ) {
        let spec = FleetSpec::parse(FLEETS[fleet_idx]).unwrap();
        let mut workers = spec.build(&model());
        let fleet_len = workers.len();
        let mut plan = FaultPlan::empty();
        for sample in &faults {
            plan.push(Some(sample.1 % fleet_len), build_fault(*sample));
        }
        workers = plan.apply(workers, seed);

        let cfg = ServeConfig {
            queue_capacity: 8 + (seed % 32) as usize,
            shed: match seed % 3 {
                0 => ShedPolicy::Reject,
                1 => ShedPolicy::DropOldest,
                _ => ShedPolicy::DeadlineAware,
            },
            seed,
            ..ServeConfig::default()
        };
        let load = ArrivalProcess::Poisson { rate_per_sec: rate };
        let outcome = serve(&mut workers, &cfg, &load, n);

        prop_assert_eq!(outcome.completed.len() + outcome.shed.len(), n);
        let mut ids = HashSet::new();
        for id in outcome
            .completed
            .iter()
            .map(|r| r.id)
            .chain(outcome.shed.iter().map(|s| s.id))
        {
            prop_assert!(ids.insert(id), "request {} accounted twice", id);
            prop_assert!((id as usize) < n, "unknown request id {}", id);
        }

        // Causality survives failover: the successful dispatch instant
        // still sits between arrival and service start.
        for r in &outcome.completed {
            prop_assert!(r.arrival <= r.dispatched, "{:?}", r);
            prop_assert!(r.dispatched <= r.service_start, "{:?}", r);
            prop_assert!(r.service_start < r.completed, "{:?}", r);
            prop_assert!(r.attempts >= 1 && r.attempts <= cfg.robust.max_attempts, "{:?}", r);
        }
        for s in &outcome.shed {
            prop_assert!(s.shed_at >= s.arrival, "{:?}", s);
        }

        // Retry accounting is consistent with what completed.
        let retried = outcome.completed.iter().filter(|r| r.attempts > 1).count() as u64;
        prop_assert!(outcome.faults.retries >= retried, "retries under-counted");
        if plan.is_empty() {
            prop_assert_eq!(outcome.faults.injected, 0);
        }
    }
}
