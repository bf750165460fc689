//! Target devices (paper Fig. 3, right side). Each is driven through
//! the one device interface, [`crate::ServiceHook`].

use crate::model::ModelBundle;
use crate::multivpu::{MultiVpu, MultiVpuConfig};
use crate::service::{BatchRun, ServeError, ServiceHook};
use desim::{Duration, SimTime};
use hostsim::{HostConfig, HostDevice};
use myriad2::power::PowerModel;
use ncsw_obs::{BatchObs, Ctx, EnergyProfile, Event, Lane, Phase};
use std::sync::Arc;
use vpu_nn::cost::NetworkCost;

/// Watts to the integer milliwatts the energy meter integrates with.
fn mw(watts: f64) -> u64 {
    (watts * 1e3).round() as u64
}

/// A host target — the Caffe-MKL CPU, the Caffe-cuDNN GPU or a §VII
/// comparator, whichever [`HostConfig`] preset it is built from.
pub struct HostTarget {
    dev: HostDevice,
    /// The FP32 cost profile every batch is timed with.
    cost: Arc<NetworkCost>,
}

impl HostTarget {
    pub fn new(model: ModelBundle, cfg: HostConfig) -> Self {
        HostTarget { dev: HostDevice::new(cfg), cost: model.cost32 }
    }
}

impl ServiceHook for HostTarget {
    fn label(&self) -> String {
        self.dev.config().name.to_string()
    }

    fn try_serve_obs(
        &mut self,
        batch: usize,
        ready: SimTime,
        obs: &mut BatchObs<'_>,
    ) -> Result<BatchRun, ServeError> {
        let run = self.dev.run_batch(&self.cost, batch, ready);
        if obs.enabled() {
            let ctx =
                Ctx { request_id: None, batch_id: Some(obs.batch_id), worker: Some(obs.worker) };
            obs.rec.record(Event::span(
                Phase::Exec,
                Lane::Worker(obs.worker),
                run.start,
                run.end,
                ctx,
            ));
        }
        Ok(BatchRun { start: run.start, end: run.end, done: vec![run.end; batch], wire: None })
    }

    fn estimate(&self, batch: usize) -> Duration {
        self.dev.batch_duration(&self.cost, batch)
    }

    fn busy_until(&self) -> SimTime {
        self.dev.now()
    }

    fn preferred_batch(&self) -> usize {
        8
    }

    fn max_batch(&self) -> Option<usize> {
        self.dev.max_batch(&self.cost)
    }

    fn energy_profile(&self) -> EnergyProfile {
        let cfg = self.dev.config();
        EnergyProfile::new(self.label(), mw(cfg.tdp_w), mw(cfg.idle_w), mw(cfg.tdp_w))
    }
}

/// Most sticks one VPU target or one `N*vpu` fleet term may drive: each
/// stick is a simulated device, so an unbounded count could exhaust
/// memory.
pub const MAX_STICKS: usize = 1024;

/// The multi-stick VPU target. The paper couples the number of active
/// sticks to the batch size: a throughput run streams it every image in
/// one call and windows the results by `devices`
/// ([`crate::runner::Feed::Stream`]).
pub struct IntelVpu {
    mv: MultiVpu,
    /// Calibrated latency model for online dispatch: makespan of one
    /// pipeline wave (`devices` images) and the marginal cost of each
    /// further wave, measured on a throwaway pipeline at construction.
    svc_first_wave: Duration,
    svc_per_wave: Duration,
}

impl IntelVpu {
    pub fn new(model: ModelBundle, devices: usize) -> Self {
        IntelVpu::with_config(model, MultiVpuConfig::paper_testbed(devices))
    }

    pub fn with_config(model: ModelBundle, cfg: MultiVpuConfig) -> Self {
        let n = cfg.devices;
        // Calibrate the dispatch-time estimate on throwaway pipelines so
        // the served instance's virtual clock stays untouched: one wave
        // gives the fill latency, three waves give the steady-state
        // marginal wave cost.
        let one = MultiVpu::new(cfg.clone(), &model).run_pipeline(n).makespan();
        let three = MultiVpu::new(cfg.clone(), &model).run_pipeline(3 * n).makespan();
        let per_wave = if three > one { (three - one) / 2 } else { one };
        let mv = MultiVpu::new(cfg, &model);
        IntelVpu { mv, svc_first_wave: one, svc_per_wave: per_wave }
    }

    pub fn pipeline_mut(&mut self) -> &mut MultiVpu {
        &mut self.mv
    }
}

impl ServiceHook for IntelVpu {
    fn label(&self) -> String {
        format!("vpu x{}", self.mv.devices())
    }

    fn try_serve_obs(
        &mut self,
        batch: usize,
        ready: SimTime,
        obs: &mut BatchObs<'_>,
    ) -> Result<BatchRun, ServeError> {
        let report = self.mv.run_pipeline_obs(batch, ready, obs);
        Ok(BatchRun { start: report.start, end: report.end, done: report.result_times, wire: None })
    }

    fn estimate(&self, batch: usize) -> Duration {
        let waves = batch.div_ceil(self.mv.devices()) as u64;
        self.svc_first_wave + self.svc_per_wave * waves.saturating_sub(1)
    }

    fn busy_until(&self) -> SimTime {
        self.mv.busy_until()
    }

    fn preferred_batch(&self) -> usize {
        self.mv.devices()
    }

    /// A `vpu xN` worker draws N chips' worth: every SHAVE island plus
    /// CMX/DDR active while a wave runs (900 mW/chip default), gated
    /// islands between batches (172 mW/chip), whole-stick peak power as
    /// the Eq. 1 TDP (2.5 W/stick, the paper's conservative framing).
    fn energy_profile(&self) -> EnergyProfile {
        let pm = PowerModel::of(&self.mv.config().ncs.chip);
        let d = self.mv.devices() as u64;
        EnergyProfile::new(
            self.label(),
            d * pm.busy_mw(),
            d * pm.gated_mw(),
            d * mw(ncs_platform::PEAK_POWER_W),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBundle;
    use hostsim::HostConfig;
    use vpu_nn::googlenet::Variant;

    fn model() -> ModelBundle {
        ModelBundle::googlenet_untrained(Variant::Full, 1)
    }

    #[test]
    fn hosts_serialize_consecutive_batches() {
        let mut cpu = HostTarget::new(model(), HostConfig::xeon_e5());
        let a = cpu.serve(4, SimTime::ZERO);
        let b = cpu.serve(4, SimTime::ZERO);
        assert!(b.start >= a.end, "second batch must queue behind the first");
        assert_eq!(a.done.len(), 4);
        assert_eq!(cpu.busy_until(), b.end);
    }

    #[test]
    fn host_estimate_matches_nominal_latency() {
        let cpu = HostTarget::new(model(), HostConfig::xeon_e5());
        // Paper anchor: 26.0 ms at batch 1.
        let ms = ServiceHook::estimate(&cpu, 1).as_millis();
        assert!((25.2..26.8).contains(&ms), "cpu estimate {ms} ms");
    }

    #[test]
    fn vpu_serves_incrementally_with_per_image_completions() {
        let mut vpu = IntelVpu::new(model(), 4);
        let boot = vpu.busy_until();
        let late = boot + Duration::from_millis(500.0);
        let run = vpu.serve(8, late);
        assert!(run.start >= late, "batch must not start before dispatch");
        assert_eq!(run.done.len(), 8);
        assert!(run.done.iter().all(|&t| t > run.start && t <= run.end));
        // Two waves on four sticks: completions are staggered, not
        // all-at-end like the host devices.
        assert!(run.done.iter().any(|&t| t < run.end));
    }

    #[test]
    fn vpu_estimate_tracks_wave_count() {
        let vpu = IntelVpu::new(model(), 4);
        let one = vpu.estimate(4);
        let three = vpu.estimate(12);
        // Paper anchor: one wave ~ a single-stick inference (~100.7 ms).
        let ms = one.as_millis();
        assert!((90.0..115.0).contains(&ms), "first wave {ms} ms");
        assert!(three > one * 2, "extra waves must add cost");
        // Steady state approaches the 8-stick per-image anchor shape:
        // marginal wave cost well below two serial inferences.
        assert!((three - one).as_millis() < 2.5 * ms);
    }

    #[test]
    fn host_serve_obs_matches_plain_timing_and_emits_batch_span() {
        let mut plain = HostTarget::new(model(), HostConfig::xeon_e5());
        let mut observed = HostTarget::new(model(), HostConfig::xeon_e5());
        let a = plain.serve(4, SimTime::ZERO);
        let mut log = ncsw_obs::EventLog::new();
        let ids = [10u64, 11, 12, 13];
        let b = observed.serve_obs(
            4,
            SimTime::ZERO,
            &mut BatchObs { rec: &mut log, batch_id: 3, worker: 2, ids: &ids },
        );
        assert_eq!(a.done, b.done, "instrumentation changed timing");
        assert_eq!(log.len(), 1, "hosts emit one batch-level span");
        let ev = log.events()[0];
        assert_eq!(ev.phase, Phase::Exec);
        assert_eq!(ev.lane, Lane::Worker(2));
        assert_eq!(ev.ctx.batch_id, Some(3));
        assert_eq!((ev.start, ev.end), (b.start, Some(b.end)));
    }

    #[test]
    fn energy_profiles_derive_from_the_power_models() {
        let cpu = HostTarget::new(model(), HostConfig::xeon_e5());
        let p = cpu.energy_profile();
        assert_eq!((p.busy_mw, p.idle_mw, p.tdp_mw), (80_000, 15_000, 80_000));
        let gpu = HostTarget::new(model(), HostConfig::k4000());
        let p = gpu.energy_profile();
        assert_eq!((p.busy_mw, p.idle_mw, p.tdp_mw), (80_000, 13_000, 80_000));
        // 4 sticks: 4 × (900 busy / 172 gated / 2500 peak) mW.
        let vpu = IntelVpu::new(model(), 4);
        let p = vpu.energy_profile();
        assert_eq!(p.label, "vpu x4");
        assert_eq!((p.busy_mw, p.idle_mw, p.tdp_mw), (3_600, 688, 10_000));
    }

    #[test]
    fn the_energy_profile_is_the_one_tdp_source() {
        // Eq. (1)'s TDP is read back as `watts(tdp_mw)`: it must be the
        // configured figure bit for bit.
        let tiny = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
        for cfg in
            [HostConfig::xeon_e5(), HostConfig::k4000(), HostConfig::v100(), HostConfig::knl()]
        {
            let tdp = ncsw_obs::watts(HostTarget::new(tiny.clone(), cfg).energy_profile().tdp_mw);
            assert_eq!(tdp.to_bits(), cfg.tdp_w.to_bits(), "{}", cfg.name);
        }
        for n in 1..=32 {
            let tdp = ncsw_obs::watts(IntelVpu::new(tiny.clone(), n).energy_profile().tdp_mw);
            let peak = ncs_platform::PEAK_POWER_W * n as f64;
            assert_eq!(tdp.to_bits(), peak.to_bits(), "{n} sticks");
        }
    }

    #[test]
    fn gpu_max_batch_bounded_by_memory() {
        let gpu = HostTarget::new(model(), HostConfig::k4000());
        let cap = gpu.max_batch().expect("gpu reports a bound");
        assert!(cap >= 8, "paper sweeps to batch 8, must fit: {cap}");
        assert!(!gpu.dev.batch_fits(&gpu.cost, cap + 1));
    }
}
