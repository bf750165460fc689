//! Timing decorators for the two trait-object layers the serving loop
//! calls into: the device workers ([`ServiceHook`]) and the autoscaling
//! controller ([`ScalingPolicy`]). Each forwards every trait method to
//! the wrapped object unchanged, so a decorated fleet simulates exactly
//! what the bare fleet does; the submission calls are also timed as
//! spans and, on the device layer, counted by the split clock.

use crate::marks;
use crate::trace::span_items;
use desim::{Duration, SimTime};
use ncsw::service::{BatchRun, ServeError, ServiceHook};
use ncsw_ctrl::{PrimeContext, ScaleDecision, ScaleSignals, ScalingPolicy};
use ncsw_obs::{BatchObs, EnergyProfile};

/// Span name of a worker's device calls, by worker kind.
pub fn device_span(label: &str) -> &'static str {
    if label.starts_with("vpu") {
        "device.vpu"
    } else {
        "device.host"
    }
}

/// A worker whose batch submissions are timed as spans named `name`
/// and, when it `ticks`, counted by [`marks::device_call`].
pub struct Timed {
    inner: Box<dyn ServiceHook>,
    name: &'static str,
    ticks: bool,
}

impl Timed {
    pub fn new(inner: Box<dyn ServiceHook>, name: &'static str, ticks: bool) -> Timed {
        Timed { inner, name, ticks }
    }

    fn submit<T>(&mut self, batch: usize, f: impl FnOnce(&mut dyn ServiceHook) -> T) -> T {
        if self.ticks {
            marks::device_call();
        }
        let inner = self.inner.as_mut();
        span_items(self.name, batch, || f(inner))
    }
}

/// Wrap every worker in a [`Timed`] decorator; `name` picks the span
/// name from the worker's label.
pub fn wrap(
    fleet: Vec<Box<dyn ServiceHook>>,
    name: impl Fn(&str) -> &'static str,
    ticks: bool,
) -> Vec<Box<dyn ServiceHook>> {
    fleet
        .into_iter()
        .map(|w| -> Box<dyn ServiceHook> {
            let n = name(&w.label());
            Box::new(Timed::new(w, n, ticks))
        })
        .collect()
}

impl ServiceHook for Timed {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn serve(&mut self, batch: usize, ready: SimTime) -> BatchRun {
        self.submit(batch, |w| w.serve(batch, ready))
    }

    fn estimate(&self, batch: usize) -> Duration {
        self.inner.estimate(batch)
    }

    fn busy_until(&self) -> SimTime {
        self.inner.busy_until()
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }

    fn max_batch(&self) -> Option<usize> {
        self.inner.max_batch()
    }

    fn energy_profile(&self) -> EnergyProfile {
        self.inner.energy_profile()
    }

    fn serve_obs(&mut self, batch: usize, ready: SimTime, obs: &mut BatchObs<'_>) -> BatchRun {
        self.submit(batch, |w| w.serve_obs(batch, ready, obs))
    }

    fn try_serve_obs(
        &mut self,
        batch: usize,
        ready: SimTime,
        obs: &mut BatchObs<'_>,
    ) -> Result<BatchRun, ServeError> {
        self.submit(batch, |w| w.try_serve_obs(batch, ready, obs))
    }
}

/// A scaling policy whose `decide` calls are timed as `ctrl.decide`.
pub struct TimedPolicy<'a> {
    pub inner: &'a mut dyn ScalingPolicy,
}

impl ScalingPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prime(&mut self, arrivals: &[SimTime], ctx: &PrimeContext) {
        self.inner.prime(arrivals, ctx)
    }

    fn decide(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        span_items("ctrl.decide", 0, || self.inner.decide(signals))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw::ModelBundle;
    use ncsw_faults::FaultPlan;
    use ncsw_obs::NullRecorder;
    use ncsw_serve::FleetSpec;
    use vpu_nn::googlenet::Variant;

    /// Every query method answers exactly as the bare worker does, and
    /// every submission method returns the bare worker's result, for
    /// CPU, GPU (the only `max_batch` bound) and VPU workers, bare and
    /// fault-wrapped. Fault wrappers may fail a batch, which only
    /// `try_serve_obs` can report.
    #[test]
    fn timed_workers_forward_every_method() {
        let model = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
        let spec = FleetSpec::parse("cpu+gpu+2xvpu").unwrap();
        let plan = FaultPlan::parse("execerr@0.5").unwrap();
        let fleets = |timed: bool, faulty: bool| {
            let inner = spec.build(&model);
            let inner = if timed { wrap(inner, device_span, true) } else { inner };
            if !faulty {
                return inner;
            }
            let outer = plan.apply(inner, 7);
            if timed {
                wrap(outer, |_| "faults", false)
            } else {
                outer
            }
        };
        let mut null = NullRecorder;
        for faulty in [false, true] {
            let (mut bare, mut timed) = (fleets(false, faulty), fleets(true, faulty));
            for (b, t) in bare.iter_mut().zip(timed.iter_mut()) {
                assert_eq!(b.label(), t.label());
                assert_eq!(b.estimate(3), t.estimate(3));
                assert_eq!(b.busy_until(), t.busy_until());
                assert_eq!(b.preferred_batch(), t.preferred_batch());
                assert_eq!(b.max_batch(), t.max_batch());
                assert_eq!(b.energy_profile(), t.energy_profile());
                let at = b.busy_until();
                for _ in 0..6 {
                    let x = b.try_serve_obs(2, at, &mut BatchObs::disabled(&mut null));
                    let y = t.try_serve_obs(2, at, &mut BatchObs::disabled(&mut null));
                    assert_eq!(x.as_ref().map(|r| &r.done), y.as_ref().map(|r| &r.done));
                    assert_eq!(x.err(), y.err());
                    if !faulty {
                        let x = b.serve_obs(1, at, &mut BatchObs::disabled(&mut null));
                        let y = t.serve_obs(1, at, &mut BatchObs::disabled(&mut null));
                        assert_eq!(x.done, y.done);
                        assert_eq!(b.serve(2, at).done, t.serve(2, at).done);
                    }
                }
                assert_eq!(b.busy_until(), t.busy_until());
            }
        }
    }

    #[test]
    fn timed_policy_forwards_name_prime_and_decide() {
        let mut bare = ncsw_ctrl::policy("reactive").unwrap();
        let mut inner = ncsw_ctrl::policy("reactive").unwrap();
        let mut timed = TimedPolicy { inner: inner.as_mut() };
        assert_eq!(bare.name(), timed.name());
        let ctx = PrimeContext {
            epoch: SimTime::ZERO,
            tick: Duration::from_millis(50.0),
            provision_delay: Duration::from_millis(200.0),
            stick_rps: 10.0,
            base_rps: 0.0,
            total_sticks: 8,
            min_live: 1,
        };
        bare.prime(&[], &ctx);
        timed.prime(&[], &ctx);
        for (depth, burn) in [(0, 0.0), (60, 0.9), (60, 0.9), (0, 0.0), (0, 0.0)] {
            let s = ScaleSignals {
                now: SimTime::ZERO,
                queue_depth: depth,
                queue_capacity: 64,
                fast_burn: burn,
                slow_burn: burn,
                shed_rate: 0.0,
                arrival_rps: 40.0,
                live: 4,
                provisioning: 0,
                gated: 4,
                open_circuits: 0,
                quarantined: 0,
                stick_rps: 10.0,
                base_rps: 0.0,
            };
            assert_eq!(bare.decide(&s), timed.decide(&s));
        }
    }
}
