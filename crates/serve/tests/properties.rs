//! Property tests of the serving loop: conservation, causal ordering,
//! per-worker virtual-clock monotonicity — over random fleets, loads,
//! queue bounds, batcher limits, shed policies, and seeds.

use desim::Duration;
use ncsw::ModelBundle;
use ncsw_serve::{serve, ArrivalProcess, FleetSpec, ServeConfig, ShedPolicy};
use proptest::prelude::*;
use std::collections::HashSet;
use vpu_nn::googlenet::Variant;

/// Structural properties hold for any model.
fn model() -> ModelBundle {
    ModelBundle::googlenet_untrained(Variant::Tiny, 1)
}

const FLEETS: [&str; 5] = ["cpu", "gpu", "cpu+gpu", "2xvpu", "cpu+gpu+2xvpu"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation — every generated request is accounted for exactly
    /// once (the loop drains fully, so nothing is in flight at exit) —
    /// plus causal ordering of each request's lifecycle and monotone
    /// completions per worker.
    #[test]
    fn serving_invariants(
        fleet_idx in 0usize..FLEETS.len(),
        rate in 20.0f64..5_000.0,
        n in 50usize..250,
        cap in 1usize..64,
        max_batch in 1usize..16,
        seed in 0u64..1_000,
    ) {
        let cfg = ServeConfig {
            queue_capacity: cap,
            shed: if seed % 2 == 0 { ShedPolicy::Reject } else { ShedPolicy::DropOldest },
            max_batch,
            max_wait: Duration::from_millis(1.0 + (seed % 80) as f64),
            seed,
            ..ServeConfig::default()
        };
        let spec = FleetSpec::parse(FLEETS[fleet_idx]).unwrap();
        let mut workers = spec.build(&model());
        let load = ArrivalProcess::Poisson { rate_per_sec: rate };
        let outcome = serve(&mut workers, &cfg, &load, n);

        // Conservation: admitted = completed + shed, no request lost or
        // duplicated, no request invented.
        prop_assert_eq!(outcome.generated, n);
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

        // Causality: arrival -> batch close -> service start -> result.
        for r in &outcome.completed {
            prop_assert!(r.arrival >= outcome.epoch);
            prop_assert!(r.arrival <= r.dispatched, "dispatched before arrival: {:?}", r);
            prop_assert!(r.dispatched <= r.service_start, "started before dispatch: {:?}", r);
            prop_assert!(r.service_start < r.completed, "completed before start: {:?}", r);
            prop_assert!(r.batch >= 1 && r.batch <= max_batch);
            prop_assert!(r.worker < outcome.workers.len());
        }
        for s in &outcome.shed {
            prop_assert!(s.shed_at >= s.arrival, "shed before arrival: {:?}", s);
        }

        // Virtual-clock monotonicity: each worker's completions never
        // move backwards (devices self-serialize).
        for w in 0..outcome.workers.len() {
            let mut last = None;
            for r in outcome.completed.iter().filter(|r| r.worker == w) {
                if let Some(prev) = last {
                    prop_assert!(r.completed >= prev, "worker {} clock went backwards", w);
                }
                last = Some(r.completed);
            }
        }
    }
}
