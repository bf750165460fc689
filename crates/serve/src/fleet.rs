//! Fleet construction: turn a spec like `cpu+gpu+8xvpu` into boxed
//! [`ServiceHook`] workers over one shared [`ModelBundle`].

use ncsw::service::ServiceHook;
use ncsw::{HostConfig, HostTarget, IntelVpu, ModelBundle, ScalePlan};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One worker slot of a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerSpec {
    Cpu,
    Gpu,
    /// A multi-stick VPU pipeline with this many NCS devices.
    Vpu {
        devices: usize,
    },
    /// One *elastic* single-stick VPU worker: the unit the autoscaler
    /// may drain and power-gate. `8*vpu` is eight independent sticks
    /// (eight of these), where `8xvpu` is one eight-device pipeline.
    Stick,
}

/// Most elastic sticks one `N*vpu` term may add. The parser expands the
/// term into `N` workers, so an unbounded `N` could exhaust memory.
const MAX_STICKS: usize = 1024;

/// An ordered set of workers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSpec(pub Vec<WorkerSpec>);

impl FleetSpec {
    /// Parse `cpu+gpu+8xvpu` / `1xvpu` / `cpu` style specs. `N*vpu`
    /// adds N independent elastic sticks (autoscalable, at most 1024),
    /// where `Nxvpu` is one N-device pipeline worker.
    pub fn parse(s: &str) -> Option<FleetSpec> {
        let mut out = Vec::new();
        for part in s.split('+') {
            match part {
                "cpu" => out.push(WorkerSpec::Cpu),
                "gpu" => out.push(WorkerSpec::Gpu),
                "vpu" => out.push(WorkerSpec::Vpu { devices: 1 }),
                other => {
                    if let Some((n, rest)) = other.split_once('*') {
                        if rest != "vpu" {
                            return None;
                        }
                        let sticks: usize = n.parse().ok()?;
                        if sticks == 0 || sticks > MAX_STICKS {
                            return None;
                        }
                        out.extend(std::iter::repeat_n(WorkerSpec::Stick, sticks));
                        continue;
                    }
                    let (n, rest) = other.split_once('x')?;
                    if rest != "vpu" {
                        return None;
                    }
                    let devices: usize = n.parse().ok()?;
                    if devices == 0 {
                        return None;
                    }
                    out.push(WorkerSpec::Vpu { devices });
                }
            }
        }
        if out.is_empty() {
            None
        } else {
            Some(FleetSpec(out))
        }
    }

    /// Indices of the elastic (`Stick`) workers — the pool a
    /// `ScalingConfig` hands to the autoscaler.
    pub fn elastic_workers(&self) -> Vec<usize> {
        self.0
            .iter()
            .enumerate()
            .filter(|(_, w)| matches!(w, WorkerSpec::Stick))
            .map(|(i, _)| i)
            .collect()
    }

    /// Instantiate the workers (each gets its own simulated device; the
    /// model bundle is shared — it is `Arc`s inside).
    pub fn build(&self, model: &ModelBundle) -> Vec<Box<dyn ServiceHook>> {
        self.build_scaled(model, &ScalePlan::identity())
    }

    /// [`FleetSpec::build`] with a causal what-if [`ScalePlan`] threaded
    /// into every worker's device config, so estimates, dispatch and
    /// energy metering all see the scaled hardware. The identity plan
    /// builds a byte-identical fleet (each knob guards its multiply);
    /// `ScaleComponent::BatchWait` is a serving-layer knob, so the
    /// fleet itself is also unscaled for it — callers apply
    /// [`ScalePlan::max_wait`] to their `ServeConfig`.
    pub fn build_scaled(&self, model: &ModelBundle, plan: &ScalePlan) -> Vec<Box<dyn ServiceHook>> {
        use ncsw::multivpu::MultiVpuConfig;
        let host = |cfg| HostTarget::new(model.clone(), plan.host_config(cfg));
        let vpu = |devices: usize| {
            IntelVpu::with_config(
                model.clone(),
                plan.vpu_config(MultiVpuConfig::paper_testbed(devices)),
            )
        };
        self.0
            .iter()
            .map(|w| -> Box<dyn ServiceHook> {
                match *w {
                    WorkerSpec::Cpu => Box::new(host(HostConfig::xeon_e5())),
                    WorkerSpec::Gpu => Box::new(host(HostConfig::k4000())),
                    WorkerSpec::Vpu { devices } => Box::new(vpu(devices)),
                    WorkerSpec::Stick => Box::new(vpu(1)),
                }
            })
            .collect()
    }

    /// Largest batch any *live* worker prefers — a sensible `max_batch`
    /// for the batcher serving this fleet. At build time every worker is
    /// live; during a run the dispatcher passes its circuit-breaker mask
    /// via [`live_preferred_batch`] so batching adapts to survivors.
    pub fn preferred_batch(&self, workers: &[Box<dyn ServiceHook>]) -> usize {
        live_preferred_batch(workers, &vec![false; workers.len()])
    }

    /// Estimated aggregate capacity in requests per second of the *live*
    /// workers: each at its preferred batch size, back to back. At build
    /// time this is the nameplate capacity; the dispatcher recomputes it
    /// through [`live_capacity_rps`] with its open-circuit mask so
    /// degradation math and admission use surviving capacity.
    pub fn capacity_rps(&self, workers: &[Box<dyn ServiceHook>]) -> f64 {
        live_capacity_rps(workers, &vec![false; workers.len()])
    }
}

/// Sustained throughput of one worker at its preferred batch size.
pub fn worker_rps(w: &dyn ServiceHook) -> f64 {
    let b = w.preferred_batch();
    b as f64 / w.estimate(b).as_secs()
}

/// Aggregate capacity (requests per second) of the workers whose
/// circuit is *not* open — the surviving capacity the admission
/// controller degrades against. `open[i]` marks worker `i` dead.
pub fn live_capacity_rps(workers: &[Box<dyn ServiceHook>], open: &[bool]) -> f64 {
    workers
        .iter()
        .enumerate()
        .filter(|(i, _)| !open.get(*i).copied().unwrap_or(false))
        .map(|(_, w)| worker_rps(w.as_ref()))
        .sum()
}

/// Largest preferred batch among non-open-circuit workers (falls back
/// to the whole fleet when every circuit is open, so the batcher always
/// has a positive limit).
pub fn live_preferred_batch(workers: &[Box<dyn ServiceHook>], open: &[bool]) -> usize {
    let live = workers
        .iter()
        .enumerate()
        .filter(|(i, _)| !open.get(*i).copied().unwrap_or(false))
        .map(|(_, w)| w.preferred_batch())
        .max();
    live.or_else(|| workers.iter().map(|w| w.preferred_batch()).max()).unwrap_or(1)
}

impl fmt::Display for FleetSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut i = 0;
        let mut first = true;
        while i < self.0.len() {
            if !first {
                write!(f, "+")?;
            }
            first = false;
            match self.0[i] {
                WorkerSpec::Cpu => write!(f, "cpu")?,
                WorkerSpec::Gpu => write!(f, "gpu")?,
                WorkerSpec::Vpu { devices } => write!(f, "{devices}xvpu")?,
                WorkerSpec::Stick => {
                    // Collapse a run of consecutive sticks back into the
                    // `N*vpu` the spec was parsed from.
                    let run =
                        self.0[i..].iter().take_while(|w| matches!(w, WorkerSpec::Stick)).count();
                    write!(f, "{run}*vpu")?;
                    i += run;
                    continue;
                }
            }
            i += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        for s in ["cpu", "gpu", "1xvpu", "8xvpu", "cpu+gpu+8xvpu", "8*vpu", "cpu+gpu+4*vpu"] {
            let spec = FleetSpec::parse(s).expect(s);
            assert_eq!(spec.to_string(), s);
        }
        assert_eq!(FleetSpec::parse("vpu"), Some(FleetSpec(vec![WorkerSpec::Vpu { devices: 1 }])));
        assert!(FleetSpec::parse("tpu").is_none());
        assert!(FleetSpec::parse("0xvpu").is_none());
        assert!(FleetSpec::parse("0*vpu").is_none());
        assert_eq!(FleetSpec::parse("1024*vpu").map(|f| f.0.len()), Some(MAX_STICKS));
        assert!(FleetSpec::parse("1025*vpu").is_none());
        assert!(FleetSpec::parse("3*gpu").is_none());
        assert!(FleetSpec::parse("").is_none());
    }

    #[test]
    fn elastic_workers_are_the_stick_indices() {
        let spec = FleetSpec::parse("cpu+2*vpu+gpu+1*vpu").unwrap();
        assert_eq!(spec.0.len(), 5);
        assert_eq!(spec.elastic_workers(), vec![1, 2, 4]);
        // `Nxvpu` pipelines are *not* elastic: a pipeline is one worker.
        assert!(FleetSpec::parse("cpu+8xvpu").unwrap().elastic_workers().is_empty());
        // Sticks parse as independent single-stick workers.
        assert_eq!(FleetSpec::parse("3*vpu").unwrap().0, vec![WorkerSpec::Stick; 3]);
    }

    #[test]
    fn live_capacity_counts_only_closed_circuits() {
        let model = ncsw::ModelBundle::googlenet_untrained(vpu_nn::googlenet::Variant::Tiny, 1);
        let spec = FleetSpec::parse("cpu+gpu+2xvpu").unwrap();
        let workers = spec.build(&model);
        let nameplate = spec.capacity_rps(&workers);
        let each: Vec<f64> = workers.iter().map(|w| worker_rps(w.as_ref())).collect();
        assert!((nameplate - each.iter().sum::<f64>()).abs() < 1e-9);

        // Opening the GPU's circuit removes exactly its share.
        let open = vec![false, true, false];
        let surviving = live_capacity_rps(&workers, &open);
        assert!((surviving - (nameplate - each[1])).abs() < 1e-9);
        assert!(surviving < nameplate);

        // Preferred batch adapts to survivors (hosts prefer 8, the
        // 2-stick VPU prefers 2) and falls back when everyone is open.
        assert_eq!(spec.preferred_batch(&workers), 8);
        assert_eq!(live_preferred_batch(&workers, &[true, true, false]), 2);
        assert_eq!(live_preferred_batch(&workers, &[true, true, true]), 8);
    }
}
