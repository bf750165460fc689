//! [`FaultyWorker`] — a [`ServiceHook`] wrapper that injects the
//! scheduled faults of a [`FaultPlan`](crate::FaultPlan) into any
//! worker, so CPU/GPU/VPU device models are all injectable without
//! modification.
//!
//! The wrapper owns the *reported* timeline: a throttled batch is
//! stretched around its true start instant, and the wrapper's
//! `busy_until` horizon tracks the stretched end, so consecutive
//! reported spans never overlap even though the inner device's own
//! (unstretched) timeline runs ahead. With no scheduled faults every
//! call passes straight through — a fleet wrapped with the empty plan
//! is byte-identical to an unwrapped one.

use crate::plan::FaultEvent;
use desim::{Duration, SimTime};
use ncsw::service::{BatchRun, FailureKind, ServeError, ServiceHook, WireReport};
use ncsw_obs::{BatchObs, Ctx, Event, Lane, Phase};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use vpu_num::rng;

/// Host-side latency of noticing a dead stick (the NCAPI call errors
/// out after the USB layer gives up — fast, but never free).
pub const DETECT_LATENCY: Duration = Duration(1_000_000); // 1 ms

/// An unavailability window: `[from, until)` (`None` = forever).
#[derive(Debug, Clone, Copy)]
struct Outage {
    from: SimTime,
    until: Option<SimTime>,
}

/// A service-time stretch window: batches starting in `[from, until)`
/// take `factor`× their nominal time. `silent` stretches (gray
/// fail-slow) emit no `FaultInject` event — the latency itself is the
/// only signal the host gets.
#[derive(Debug, Clone, Copy)]
struct Stretch {
    from: SimTime,
    until: SimTime,
    factor: f64,
    silent: bool,
}

/// Per-image wire-fault probabilities at the USB completion boundary.
#[derive(Debug, Clone, Copy, Default)]
struct WireProbs {
    corrupt: f64,
    duplicate: f64,
    drop: f64,
}

impl WireProbs {
    fn any(&self) -> bool {
        self.corrupt > 0.0 || self.duplicate > 0.0 || self.drop > 0.0
    }
}

/// A fault-injectable wrapper around any fleet worker.
pub struct FaultyWorker {
    inner: Box<dyn ServiceHook>,
    outages: Vec<Outage>,
    stretches: Vec<Stretch>,
    exec_err_prob: f64,
    wire: WireProbs,
    rng: ChaCha8Rng,
    /// Independent stream for wire-fault draws, so adding a corruption
    /// plan never perturbs the exec-error sequence (and vice versa).
    wire_rng: ChaCha8Rng,
    /// Reported busy horizon (>= the inner device's own horizon once
    /// any batch has been stretched or burned by a failed attempt).
    busy: SimTime,
}

impl FaultyWorker {
    /// Wrap `inner` with the faults scheduled for it. `epoch` anchors
    /// the plan's relative instants; `seed`+`worker_index` derive the
    /// independent stream for transient-error draws.
    pub fn new(
        inner: Box<dyn ServiceHook>,
        faults: &[FaultEvent],
        epoch: SimTime,
        seed: u64,
        worker_index: usize,
    ) -> FaultyWorker {
        let mut outages = Vec::new();
        let mut stretches = Vec::new();
        let mut exec_err_prob: f64 = 0.0;
        let mut wire = WireProbs::default();
        // A plan may name instants up to u64::MAX ns past the epoch; one
        // past the end of virtual time never comes.
        let after = |t: SimTime, d: Duration| SimTime(t.nanos().saturating_add(d.nanos()));
        for f in faults {
            match *f {
                FaultEvent::StickUnplug { at, reconnect_after } => outages.push(Outage {
                    from: after(epoch, at),
                    until: reconnect_after.map(|d| after(after(epoch, at), d)),
                }),
                FaultEvent::ThermalThrottle { at, duration, slowdown } => stretches.push(Stretch {
                    from: after(epoch, at),
                    until: after(after(epoch, at), duration),
                    factor: slowdown,
                    silent: false,
                }),
                FaultEvent::UsbDegrade { at, duration, factor } => stretches.push(Stretch {
                    from: after(epoch, at),
                    until: after(after(epoch, at), duration),
                    factor,
                    silent: false,
                }),
                FaultEvent::FailSlow { at, duration, factor } => stretches.push(Stretch {
                    from: after(epoch, at),
                    until: after(after(epoch, at), duration),
                    factor,
                    silent: true,
                }),
                FaultEvent::TransientExecError { per_batch_prob } => {
                    exec_err_prob = exec_err_prob.max(per_batch_prob)
                }
                FaultEvent::ResultCorrupt { per_image_prob } => {
                    wire.corrupt = wire.corrupt.max(per_image_prob)
                }
                FaultEvent::DuplicateCompletion { per_image_prob } => {
                    wire.duplicate = wire.duplicate.max(per_image_prob)
                }
                FaultEvent::DroppedCompletion { per_image_prob } => {
                    wire.drop = wire.drop.max(per_image_prob)
                }
            }
        }
        let busy = inner.busy_until();
        FaultyWorker {
            inner,
            outages,
            stretches,
            exec_err_prob,
            wire,
            rng: rng::indexed_stream(seed, "fault-exec", worker_index as u64),
            wire_rng: rng::indexed_stream(seed, "fault-wire", worker_index as u64),
            busy,
        }
    }

    /// Whether the device is unplugged at `t` (reconnect pending or
    /// permanent).
    pub fn unplugged(&self, t: SimTime) -> bool {
        self.outages.iter().any(|o| o.from <= t && o.until.is_none_or(|u| t < u))
    }

    /// Combined service-time multiplier for a batch starting at `t`
    /// (overlapping throttle and USB windows compound).
    fn stretch_factor(&self, t: SimTime) -> f64 {
        self.stretches
            .iter()
            .filter(|s| s.from <= t && t < s.until)
            .map(|s| s.factor)
            .product::<f64>()
    }

    /// Whether any *visible* (non-gray) stretch window covers `t`: only
    /// those emit a `FaultInject` event; fail-slow stays silent.
    fn stretch_visible(&self, t: SimTime) -> bool {
        self.stretches.iter().any(|s| s.from <= t && t < s.until && !s.silent)
    }

    /// Seeded per-image wire-fault draws at the completion boundary, in
    /// a fixed (corrupt, duplicate, drop) order per slot. A dropped
    /// completion can't also be delivered corrupted or twice — the drop
    /// wins.
    fn inject_wire(&mut self, run: &mut BatchRun) {
        if !self.wire.any() {
            return;
        }
        let mut rep = WireReport::default();
        for slot in 0..run.done.len() {
            if self.wire.corrupt > 0.0 && self.wire_rng.gen::<f64>() < self.wire.corrupt {
                rep.corrupted.push(slot);
            }
            if self.wire.duplicate > 0.0 && self.wire_rng.gen::<f64>() < self.wire.duplicate {
                rep.duplicated.push(slot);
            }
            if self.wire.drop > 0.0 && self.wire_rng.gen::<f64>() < self.wire.drop {
                rep.dropped.push(slot);
            }
        }
        rep.corrupted.retain(|s| !rep.dropped.contains(s));
        rep.duplicated.retain(|s| !rep.dropped.contains(s));
        if !rep.is_clean() {
            run.wire = Some(rep);
        }
    }

    fn fault_ctx(&self, obs: &BatchObs<'_>) -> Ctx {
        Ctx { request_id: None, batch_id: Some(obs.batch_id), worker: Some(obs.worker) }
    }
}

impl ServiceHook for FaultyWorker {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn try_serve_obs(
        &mut self,
        batch: usize,
        ready: SimTime,
        obs: &mut BatchObs<'_>,
    ) -> Result<BatchRun, ServeError> {
        let t0 = SimTime::max_of(ready, self.busy_until());

        if self.unplugged(t0) {
            // Fail fast: the attempt burns only the detection latency,
            // and the dead device accrues no work.
            let at = t0 + DETECT_LATENCY;
            if obs.enabled() {
                let ctx = self.fault_ctx(obs);
                obs.rec.record(Event::span(
                    Phase::FaultInject,
                    Lane::Worker(obs.worker),
                    t0,
                    at,
                    ctx,
                ));
            }
            return Err(ServeError { at, kind: FailureKind::Unplugged });
        }

        if self.exec_err_prob > 0.0 && self.rng.gen::<f64>() < self.exec_err_prob {
            // Died mid-execution: the device burned half the nominal
            // service time before the host noticed, and stays busy for
            // it (the work is wasted, not free).
            let at = t0 + self.inner.estimate(batch) * 0.5 + DETECT_LATENCY;
            self.busy = SimTime::max_of(self.busy, at);
            if obs.enabled() {
                let ctx = self.fault_ctx(obs);
                obs.rec.record(Event::span(
                    Phase::FaultInject,
                    Lane::Worker(obs.worker),
                    t0,
                    at,
                    ctx,
                ));
            }
            return Err(ServeError { at, kind: FailureKind::TransientExec });
        }

        let factor = self.stretch_factor(t0);
        let mut run = self.inner.try_serve_obs(batch, t0, obs)?;
        if factor > 1.0 {
            // Stretch the host-visible completion instants around the
            // true start. The inner device's sub-spans (USB legs, SHAVE
            // exec) keep their nominal shape — the throttle shows up as
            // the gap between the last device span and the stretched
            // completions.
            let start = run.start;
            let stretch = |t: SimTime| start + (t - start) * factor;
            run.end = stretch(run.end);
            for t in &mut run.done {
                *t = stretch(*t);
            }
            // Gray fail-slow windows inflate latency with no fault
            // event; throttle/USB windows announce themselves.
            if self.stretch_visible(t0) && obs.enabled() {
                let ctx = self.fault_ctx(obs);
                obs.rec.record(Event::instant(
                    Phase::FaultInject,
                    Lane::Worker(obs.worker),
                    t0,
                    ctx,
                ));
            }
        }
        self.busy = SimTime::max_of(self.busy, run.end);
        self.inject_wire(&mut run);
        Ok(run)
    }

    fn estimate(&self, batch: usize) -> Duration {
        self.inner.estimate(batch)
    }

    fn busy_until(&self) -> SimTime {
        SimTime::max_of(self.inner.busy_until(), self.busy)
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }

    fn max_batch(&self) -> Option<usize> {
        self.inner.max_batch()
    }

    fn energy_profile(&self) -> ncsw_obs::EnergyProfile {
        self.inner.energy_profile()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw::ModelBundle;
    use ncsw::{HostConfig, HostTarget, IntelVpu};
    use vpu_nn::googlenet::Variant;

    fn model() -> ModelBundle {
        ModelBundle::googlenet_untrained(Variant::Tiny, 1)
    }

    fn cpu() -> Box<dyn ServiceHook> {
        Box::new(HostTarget::new(model(), HostConfig::xeon_e5()))
    }

    fn ms(v: f64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn no_faults_is_a_passthrough() {
        let mut plain = cpu();
        let epoch = plain.busy_until();
        let mut wrapped = FaultyWorker::new(cpu(), &[], epoch, 7, 0);
        let a = plain.serve(4, epoch);
        let b = wrapped.serve(4, epoch);
        assert_eq!(a.done, b.done, "empty plan changed timing");
        assert_eq!(plain.busy_until(), wrapped.busy_until());
        assert_eq!(plain.label(), wrapped.label());
        assert_eq!(plain.energy_profile(), wrapped.energy_profile(), "profile must pass through");
    }

    #[test]
    fn unplug_fails_fast_until_reconnect() {
        let inner = cpu();
        let epoch = inner.busy_until();
        let faults = [FaultEvent::StickUnplug { at: ms(10.0), reconnect_after: Some(ms(20.0)) }];
        let mut w = FaultyWorker::new(inner, &faults, epoch, 7, 0);
        let mut null = ncsw_obs::NullRecorder;
        // Dispatch inside the outage window: fails at t + detect.
        let t = epoch + ms(15.0);
        let err = w
            .try_serve_obs(1, t, &mut BatchObs::disabled(&mut null))
            .expect_err("unplugged worker must fail");
        assert_eq!(err.kind, FailureKind::Unplugged);
        assert_eq!(err.at, t + DETECT_LATENCY);
        // After reconnect the worker serves again.
        let run = w
            .try_serve_obs(1, epoch + ms(30.0), &mut BatchObs::disabled(&mut null))
            .expect("reconnected worker must serve");
        assert!(run.start >= epoch + ms(30.0));
    }

    #[test]
    fn a_fault_past_the_end_of_virtual_time_never_fires() {
        let mut plain = cpu();
        let epoch = plain.busy_until();
        let faults = [
            FaultEvent::StickUnplug { at: Duration(u64::MAX), reconnect_after: None },
            FaultEvent::FailSlow { at: Duration(u64::MAX - 1), duration: ms(1.0), factor: 6.0 },
        ];
        let mut w = FaultyWorker::new(cpu(), &faults, epoch, 7, 0);
        let mut null = ncsw_obs::NullRecorder;
        let run = w.try_serve_obs(4, epoch, &mut BatchObs::disabled(&mut null)).unwrap();
        assert_eq!(run.done, plain.serve(4, epoch).done);
    }

    #[test]
    fn throttle_stretches_the_reported_span_without_overlap() {
        let mut plain = cpu();
        let epoch = plain.busy_until();
        let baseline = plain.serve(1, epoch);
        let nominal = baseline.end - baseline.start;
        let inner = cpu();
        let faults =
            [FaultEvent::ThermalThrottle { at: ms(0.0), duration: ms(60_000.0), slowdown: 2.0 }];
        let mut w = FaultyWorker::new(inner, &faults, epoch, 7, 0);
        let mut null = ncsw_obs::NullRecorder;
        let a = w.try_serve_obs(1, epoch, &mut BatchObs::disabled(&mut null)).unwrap();
        let got = a.end - a.start;
        assert!(
            got.nanos().abs_diff(nominal.nanos() * 2) <= 2,
            "throttled span {got} vs nominal {nominal}"
        );
        // The next batch queues behind the *stretched* horizon.
        let b = w.try_serve_obs(1, epoch, &mut BatchObs::disabled(&mut null)).unwrap();
        assert!(b.start >= a.end, "stretched spans must not overlap");
    }

    #[test]
    fn transient_errors_are_seeded_and_deterministic() {
        let fire = |seed: u64| -> Vec<bool> {
            let inner = cpu();
            let epoch = inner.busy_until();
            let faults = [FaultEvent::TransientExecError { per_batch_prob: 0.5 }];
            let mut w = FaultyWorker::new(inner, &faults, epoch, seed, 3);
            let mut null = ncsw_obs::NullRecorder;
            (0..16)
                .map(|_| w.try_serve_obs(1, epoch, &mut BatchObs::disabled(&mut null)).is_err())
                .collect()
        };
        assert_eq!(fire(7), fire(7), "same seed must replay");
        assert!(fire(7).iter().any(|&e| e), "p=0.5 over 16 draws should fire");
        assert!(fire(7).iter().any(|&e| !e), "p=0.5 over 16 draws should also pass");
    }

    #[test]
    fn fail_slow_stretches_silently() {
        let mut plain = cpu();
        let epoch = plain.busy_until();
        let baseline = plain.serve(1, epoch);
        let nominal = baseline.end - baseline.start;
        let faults = [FaultEvent::FailSlow { at: ms(0.0), duration: ms(60_000.0), factor: 4.0 }];
        let mut w = FaultyWorker::new(cpu(), &faults, epoch, 7, 0);
        let mut log = ncsw_obs::EventLog::new();
        let run = w
            .try_serve_obs(
                1,
                epoch,
                &mut BatchObs { rec: &mut log, batch_id: 0, worker: 0, ids: &[5] },
            )
            .unwrap();
        let got = run.end - run.start;
        assert!(
            got.nanos().abs_diff(nominal.nanos() * 4) <= 4,
            "fail-slow span {got} vs nominal {nominal}"
        );
        // The whole point of the gray fault: no FaultInject announces it.
        assert!(
            log.events().iter().all(|e| e.phase != Phase::FaultInject),
            "fail-slow must not emit FaultInject"
        );
        assert!(run.wire.is_none(), "fail-slow is a latency fault, not a wire fault");
    }

    #[test]
    fn wire_faults_are_seeded_and_drop_wins() {
        let run_with = |seed: u64| -> Vec<ncsw::service::WireReport> {
            let faults = [
                FaultEvent::ResultCorrupt { per_image_prob: 0.3 },
                FaultEvent::DuplicateCompletion { per_image_prob: 0.3 },
                FaultEvent::DroppedCompletion { per_image_prob: 0.3 },
            ];
            let inner = cpu();
            let epoch = inner.busy_until();
            let mut w = FaultyWorker::new(inner, &faults, epoch, seed, 0);
            let mut null = ncsw_obs::NullRecorder;
            (0..8)
                .map(|_| {
                    w.try_serve_obs(4, epoch, &mut BatchObs::disabled(&mut null))
                        .unwrap()
                        .wire
                        .unwrap_or_default()
                })
                .collect()
        };
        let a = run_with(7);
        assert_eq!(a, run_with(7), "same seed must replay the same wire faults");
        assert!(a.iter().any(|r| !r.is_clean()), "p=0.3 over 32 slots must fire");
        for rep in &a {
            for s in &rep.dropped {
                assert!(!rep.corrupted.contains(s) && !rep.duplicated.contains(s), "drop wins");
            }
        }
        // Wire draws come from their own stream: the exec-error pattern
        // of a run without wire faults is unchanged when they're added.
        let exec_only = |wire: bool| -> Vec<bool> {
            let mut faults = vec![FaultEvent::TransientExecError { per_batch_prob: 0.5 }];
            if wire {
                faults.push(FaultEvent::ResultCorrupt { per_image_prob: 0.5 });
            }
            let inner = cpu();
            let epoch = inner.busy_until();
            let mut w = FaultyWorker::new(inner, &faults, epoch, 7, 0);
            let mut null = ncsw_obs::NullRecorder;
            (0..16)
                .map(|_| w.try_serve_obs(1, epoch, &mut BatchObs::disabled(&mut null)).is_err())
                .collect()
        };
        assert_eq!(exec_only(false), exec_only(true), "wire stream must not perturb exec stream");
    }

    /// The provided `serve`/`serve_obs` wrappers return exactly what the
    /// one device call returns on a twin worker, for each device bare
    /// and inside an empty-plan wrapper.
    #[test]
    fn provided_wrappers_match_the_device_call() {
        let devices: [fn() -> Box<dyn ServiceHook>; 3] = [
            || Box::new(HostTarget::new(model(), HostConfig::xeon_e5())),
            || Box::new(HostTarget::new(model(), HostConfig::k4000())),
            || Box::new(IntelVpu::new(model(), 2)),
        ];
        let mut null = ncsw_obs::NullRecorder;
        for device in devices {
            for faulty in [false, true] {
                let build = || -> Box<dyn ServiceHook> {
                    let inner = device();
                    if !faulty {
                        return inner;
                    }
                    let epoch = inner.busy_until();
                    Box::new(FaultyWorker::new(inner, &[], epoch, 7, 0))
                };
                let (mut call, mut plain, mut observed) = (build(), build(), build());
                let at = call.busy_until();
                for batch in [1, 3, 8] {
                    let want =
                        call.try_serve_obs(batch, at, &mut BatchObs::disabled(&mut null)).unwrap();
                    let label = call.label();
                    assert_eq!(plain.serve(batch, at), want, "{label} (wrapped: {faulty}): serve");
                    let got = observed.serve_obs(batch, at, &mut BatchObs::disabled(&mut null));
                    assert_eq!(got, want, "{label} (wrapped: {faulty}): serve_obs");
                }
            }
        }
    }

    #[test]
    fn vpu_wrapper_keeps_per_image_completions() {
        let inner: Box<dyn ServiceHook> = Box::new(IntelVpu::new(model(), 4));
        let epoch = inner.busy_until();
        let mut w = FaultyWorker::new(inner, &[], epoch, 7, 0);
        let run = w.serve(8, epoch);
        assert_eq!(run.done.len(), 8);
        assert!(run.done.iter().any(|&t| t < run.end), "waves must stagger");
    }
}
