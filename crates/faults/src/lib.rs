//! # ncsw-faults — deterministic fault injection for the serving fleet
//!
//! The paper's case for the VPU is that sticks are cheap enough to
//! deploy *redundantly* as co-processors — which only pays off if the
//! serving layer survives a stick disappearing mid-run. This crate
//! provides the failure model: a seeded, virtual-clock-scheduled
//! [`FaultPlan`] of [`FaultEvent`]s (stick unplug, thermal throttle,
//! USB degradation, transient exec errors), applied via the
//! [`FaultyWorker`] wrapper around any [`ServiceHook`] worker, so the
//! CPU/GPU/VPU device models are all injectable without modification.
//!
//! The dispatcher in `ncsw-serve` consumes failures through
//! `ServiceHook::try_serve_obs` and reacts with bounded retries,
//! failover and circuit breaking; this crate only *produces* them.
//! Determinism contract: the same `(plan, fleet, seed)` triple injects
//! the identical fault sequence, and the empty plan is a strict no-op
//! (byte-identical outcomes to an unwrapped fleet).
//!
//! ```
//! use ncsw_faults::FaultPlan;
//! use ncsw_serve::FleetSpec;
//! use ncsw::ModelBundle;
//! use vpu_nn::googlenet::Variant;
//!
//! let model = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
//! let workers = FleetSpec::parse("vpu+vpu+vpu+vpu").unwrap().build(&model);
//! let plan = FaultPlan::parse("unplug@2s:reconnect@4s").unwrap();
//! let workers = plan.apply(workers, 2012); // still Vec<Box<dyn ServiceHook>>
//! assert_eq!(workers.len(), 4);
//! ```

pub mod plan;
pub mod worker;

pub use plan::{FaultEvent, FaultPlan, PlannedFault};
pub use worker::{FaultyWorker, DETECT_LATENCY};

use desim::SimTime;
use ncsw::service::ServiceHook;

impl FaultPlan {
    /// Wrap every worker of `fleet` with its scheduled faults. The
    /// plan's relative instants are anchored to the fleet-ready epoch
    /// (the latest worker boot instant — the same epoch the serving
    /// loop starts the arrival clock from). Faults with no explicit
    /// worker pin target the *last* worker; pins beyond the fleet are
    /// an error.
    pub fn apply(&self, fleet: Vec<Box<dyn ServiceHook>>, seed: u64) -> Vec<Box<dyn ServiceHook>> {
        assert!(!fleet.is_empty(), "cannot apply a fault plan to an empty fleet");
        let epoch = fleet.iter().map(|w| w.busy_until()).max().unwrap_or(SimTime::ZERO);
        let default_target = fleet.len() - 1;
        let mut per_worker: Vec<Vec<FaultEvent>> = vec![Vec::new(); fleet.len()];
        for pf in &self.faults {
            let w = pf.worker.unwrap_or(default_target);
            assert!(
                w < fleet.len(),
                "fault '{}' targets worker {w}, but the fleet has {} workers",
                pf.fault,
                fleet.len()
            );
            per_worker[w].push(pf.fault);
        }
        fleet
            .into_iter()
            .enumerate()
            .map(|(i, inner)| -> Box<dyn ServiceHook> {
                Box::new(FaultyWorker::new(inner, &per_worker[i], epoch, seed, i))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Duration;
    use ncsw::{HostConfig, HostTarget, ModelBundle};
    use vpu_nn::googlenet::Variant;

    fn fleet(n: usize) -> Vec<Box<dyn ServiceHook>> {
        let model = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
        (0..n)
            .map(|_| -> Box<dyn ServiceHook> {
                Box::new(HostTarget::new(model.clone(), HostConfig::xeon_e5()))
            })
            .collect()
    }

    #[test]
    fn apply_preserves_fleet_shape_and_labels() {
        let plan = FaultPlan::parse("unplug@2s").unwrap();
        let wrapped = plan.apply(fleet(3), 2012);
        assert_eq!(wrapped.len(), 3);
        assert!(wrapped.iter().all(|w| w.label() == "cpu"));
    }

    #[test]
    fn unpinned_faults_target_the_last_worker() {
        let plan = FaultPlan::parse("unplug@0s").unwrap();
        let mut ws = plan.apply(fleet(3), 2012);
        let epoch = ws.iter().map(|w| w.busy_until()).max().unwrap();
        let probe = epoch + Duration::from_millis(1.0);
        let mut null = ncsw_obs::NullRecorder;
        use ncsw_obs::BatchObs;
        assert!(ws[0].try_serve_obs(1, probe, &mut BatchObs::disabled(&mut null)).is_ok());
        assert!(ws[1].try_serve_obs(1, probe, &mut BatchObs::disabled(&mut null)).is_ok());
        assert!(ws[2].try_serve_obs(1, probe, &mut BatchObs::disabled(&mut null)).is_err());
    }

    #[test]
    #[should_panic(expected = "targets worker 9")]
    fn out_of_range_pin_panics() {
        let plan = FaultPlan::parse("w9:unplug@1s").unwrap();
        let _ = plan.apply(fleet(2), 2012);
    }
}
