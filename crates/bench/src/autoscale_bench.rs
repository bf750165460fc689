//! E20 — autoscaled serving: closed-loop fleet scaling vs the static
//! fleet.
//!
//! E19 put an exact number on the cost of headroom: at 0.2x load the
//! idle draw of a provisioned-for-peak fleet is a large fraction of
//! total energy. E20 closes the loop. An elastic fleet of independent
//! VPU sticks (`8*vpu`) serves the same Poisson load under the three
//! `ncsw-ctrl` policies — reactive, predictive, oracle — and the
//! controller drains and power-gates sticks the load does not need.
//! The interesting column is `reclaimed_j`: the *exact* idle energy
//! the gated windows avoided (integer `idle_mw x ns` off the same
//! ledger every conservation law runs on), bought at an SLO-attainment
//! delta that should stay within a point of the static fleet. The
//! oracle bounds what any controller could reclaim; the gap from
//! reactive to oracle is the price of having no foresight.

use crate::report;
use crate::scale::Scale;
use crate::serve_bench::TracedServe;
use desim::Duration;
use ncsw::ModelBundle;
use ncsw_serve::{
    serve, serve_autoscaled, serve_autoscaled_observed, ArrivalProcess, FleetSpec, ObsConfig,
    ScalingConfig, ServeConfig, ServeOutcome, ServeReport,
};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// The elastic fleet: eight independent single-stick VPU workers (the
/// autoscaling unit), as opposed to `8xvpu`, one eight-device pipeline.
pub const AUTOSCALE_FLEET: &str = "8*vpu";

/// Offered load fractions of nameplate capacity. 0.2x is where E19
/// showed idle headroom dominating; 0.8x leaves little to reclaim.
pub const AUTOSCALE_LOADS: [f64; 3] = [0.2, 0.5, 0.8];

/// `static` plus the three controller policies, in foresight order.
pub const AUTOSCALE_POLICIES: [&str; 4] = ["static", "reactive", "predictive", "oracle"];

/// One (load, policy) cell of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyPoint {
    /// `static` or a `ncsw-ctrl` policy name.
    pub policy: String,
    pub offered_frac: f64,
    pub offered_rps: f64,
    /// Fraction of generated requests completed within the SLO.
    pub attainment: f64,
    /// Attainment minus the static fleet's at the same load (zero for
    /// the static row itself).
    pub attainment_delta: f64,
    pub goodput_rps: f64,
    pub p99_ms: f64,
    pub fleet_j: f64,
    /// Idle energy the power-gated windows avoided (exact pJ).
    pub reclaimed_pj: u64,
    pub reclaimed_j: f64,
    /// Powered elastic stick-seconds vs what a static fleet pays.
    pub stick_seconds: f64,
    pub static_stick_seconds: f64,
    pub scale_ups: u64,
    pub scale_downs: u64,
}

/// The E20 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AutoscaleExp {
    pub scale: Scale,
    pub fleet: String,
    pub capacity_rps: f64,
    pub requests_per_point: usize,
    pub slo_ms: f64,
    /// For each load fraction: the static baseline, then the policies
    /// in increasing-foresight order.
    pub points: Vec<PolicyPoint>,
    /// Acceptance gate, checked at the lowest load: every policy
    /// reclaims energy, `oracle >= predictive >= reactive` on reclaimed
    /// joules, and every policy holds attainment within one point of
    /// the static fleet.
    pub policy_order_ok: bool,
}

fn requests_per_point(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 160,
        Scale::Small => 1_500,
        Scale::Paper => 10_000,
    }
}

fn attainment(outcome: &ServeOutcome, cfg: &ServeConfig) -> f64 {
    let good = outcome.completed.iter().filter(|r| r.latency() <= cfg.slo).count();
    good as f64 / outcome.generated.max(1) as f64
}

fn point_of(
    outcome: &ServeOutcome,
    cfg: &ServeConfig,
    policy: &str,
    frac: f64,
    rate: f64,
    static_attainment: f64,
) -> PolicyPoint {
    let report = ServeReport::of(outcome, cfg);
    let att = attainment(outcome, cfg);
    let (reclaimed_pj, reclaimed_j, stick_s, static_s, ups, downs) = match &report.scaling {
        Some(s) => (
            s.reclaimed_pj,
            s.reclaimed_j,
            s.stick_seconds,
            s.static_stick_seconds,
            s.scale_ups,
            s.scale_downs,
        ),
        None => {
            // Static baseline: every stick powered for the horizon.
            let horizon_s = (outcome.energy_horizon() - outcome.epoch).as_secs();
            let sticks = outcome.workers.len() as f64 * horizon_s;
            (0, 0.0, sticks, sticks, 0, 0)
        }
    };
    PolicyPoint {
        policy: policy.to_string(),
        offered_frac: frac,
        offered_rps: rate,
        attainment: att,
        attainment_delta: att - static_attainment,
        goodput_rps: report.goodput_rps,
        p99_ms: report.latency.p99_ms,
        fleet_j: report.energy.fleet_j,
        reclaimed_pj,
        reclaimed_j,
        stick_seconds: stick_s,
        static_stick_seconds: static_s,
        scale_ups: ups,
        scale_downs: downs,
    }
}

/// Run E20: the elastic fleet swept over load fractions under the
/// static baseline and all three scaling policies.
pub fn autoscale_exp(scale: Scale) -> AutoscaleExp {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = requests_per_point(scale);
    let spec = FleetSpec::parse(AUTOSCALE_FLEET).expect("valid fleet spec");
    let probe = spec.build(&model);
    let capacity_rps = spec.capacity_rps(&probe);
    let max_batch = spec.preferred_batch(&probe);
    drop(probe);
    let cfg = ServeConfig { max_batch, ..ServeConfig::default() };
    let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };

    let mut points = Vec::new();
    for &frac in &AUTOSCALE_LOADS {
        let rate = capacity_rps * frac;
        let load = ArrivalProcess::Poisson { rate_per_sec: rate };

        // Static baseline: same fleet, controller off.
        let mut workers = spec.build(&model);
        let baseline = serve(&mut workers, &cfg, &load, n);
        let static_att = attainment(&baseline, &cfg);
        points.push(point_of(&baseline, &cfg, "static", frac, rate, static_att));

        for name in ncsw_ctrl::POLICY_NAMES {
            let mut policy = ncsw_ctrl::policy(name).expect("known policy");
            let mut workers = spec.build(&model);
            let outcome = serve_autoscaled(&mut workers, &cfg, &load, n, &scaling, policy.as_mut());
            points.push(point_of(&outcome, &cfg, name, frac, rate, static_att));
        }
    }

    let policy_order_ok = order_ok(&points, AUTOSCALE_LOADS[0]);
    AutoscaleExp {
        scale,
        fleet: AUTOSCALE_FLEET.to_string(),
        capacity_rps,
        requests_per_point: n,
        slo_ms: cfg.slo.as_millis(),
        points,
        policy_order_ok,
    }
}

/// The acceptance predicate at one load fraction (see
/// [`AutoscaleExp::policy_order_ok`]).
fn order_ok(points: &[PolicyPoint], frac: f64) -> bool {
    let at = |name: &str| {
        points.iter().find(|p| p.policy == name && (p.offered_frac - frac).abs() < 1e-9)
    };
    let (Some(reactive), Some(predictive), Some(oracle)) =
        (at("reactive"), at("predictive"), at("oracle"))
    else {
        return false;
    };
    let all = [reactive, predictive, oracle];
    all.iter().all(|p| p.reclaimed_pj > 0)
        && oracle.reclaimed_pj >= predictive.reclaimed_pj
        && predictive.reclaimed_pj >= reactive.reclaimed_pj
        && all.iter().all(|p| p.attainment_delta >= -0.01)
}

impl AutoscaleExp {
    pub fn point(&self, policy: &str, frac: f64) -> Option<&PolicyPoint> {
        self.points.iter().find(|p| p.policy == policy && (p.offered_frac - frac).abs() < 1e-9)
    }

    pub fn print(&self) {
        report::header(&format!(
            "E20 — autoscaled serving: {} ({:.1} req/s nameplate), {} req/point, SLO {} ms, \
             scale {}",
            self.fleet,
            self.capacity_rps,
            self.requests_per_point,
            self.slo_ms,
            self.scale.name()
        ));
        for &frac in &AUTOSCALE_LOADS {
            println!("\noffered load {:.2}x nameplate", frac);
            println!(
                "{:>10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>9} {:>6} {:>6}",
                "policy",
                "attain%",
                "Δ pts",
                "p99 ms",
                "fleet J",
                "reclaim J",
                "stick·s",
                "ups",
                "downs"
            );
            for p in self.points.iter().filter(|p| (p.offered_frac - frac).abs() < 1e-9) {
                println!(
                    "{:>10} {:>8.2} {:>8.2} {:>8.1} {:>10.3} {:>10.3} {:>9.1} {:>6} {:>6}",
                    p.policy,
                    p.attainment * 100.0,
                    p.attainment_delta * 100.0,
                    p.p99_ms,
                    p.fleet_j,
                    p.reclaimed_j,
                    p.stick_seconds,
                    p.scale_ups,
                    p.scale_downs
                );
            }
        }
        println!(
            "\npolicy order (oracle >= predictive >= reactive on reclaimed J at {:.1}x, \
             attainment within 1 pt of static): {}",
            AUTOSCALE_LOADS[0],
            if self.policy_order_ok { "ok" } else { "VIOLATED" }
        );
    }
}

/// One fully observed autoscaled run at the low-load point, exporting
/// the same artifact bundle as `traced_serve`: Chrome trace (now with
/// `Drain` / `ScaleDown` / `ScaleUp` events and power lanes that go
/// dark while a stick is gated), the time series CSV with the
/// `live_sticks` / `scale_events` columns, and the metric summary.
/// `sample` enables tail-based trace sampling (the `repro autoscale
/// --sample SPEC` path); sampling is passive, so the autoscaled outcome
/// and series are identical to the unsampled run.
pub fn traced_autoscale(
    scale: Scale,
    policy_name: &str,
    sample_every: Duration,
    sample: Option<ncsw_obs::SamplePolicy>,
) -> TracedServe {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = requests_per_point(scale);
    let spec = FleetSpec::parse(AUTOSCALE_FLEET).expect("valid fleet spec");
    let mut workers = spec.build(&model);
    let capacity_rps = spec.capacity_rps(&workers);
    let max_batch = spec.preferred_batch(&workers);
    let cfg = ServeConfig { max_batch, ..ServeConfig::default() };
    let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };
    let mut policy = ncsw_ctrl::policy(policy_name)
        .unwrap_or_else(|| panic!("unknown scaling policy '{policy_name}'"));

    let rate = capacity_rps * AUTOSCALE_LOADS[0];
    let load = ArrivalProcess::Poisson { rate_per_sec: rate };
    let ocfg = ObsConfig { sample_every, sample: sample.clone() };
    let (outcome, mut obs) =
        serve_autoscaled_observed(&mut workers, &cfg, &load, n, &scaling, policy.as_mut(), &ocfg);
    let art = crate::serve_bench::observed_artifacts(&mut obs);
    let mut replay = format!("repro autoscale --scale {} --ctrl {policy_name}", scale.name());
    if let Some(p) = &sample {
        replay.push_str(&format!(" --sample {}", p.spec()));
    }
    let incidents = crate::serve_bench::incident_bundles(&obs, cfg.seed, &art.summary, &replay);
    TracedServe {
        fleet: AUTOSCALE_FLEET.to_string(),
        requests: n,
        offered_rps: rate,
        report: ServeReport::of(&outcome, &cfg),
        chrome_json: art.chrome_json,
        series_csv: art.series_csv,
        summary: art.summary,
        slo_alerts: art.slo_alerts,
        overhead: art.overhead,
        sample: obs.sample.clone(),
        incidents,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_autoscale_orders_policies_and_reclaims_idle_energy() {
        let e = autoscale_exp(Scale::Tiny);
        assert_eq!(e.points.len(), AUTOSCALE_LOADS.len() * AUTOSCALE_POLICIES.len());
        assert!(e.policy_order_ok, "policy ordering violated: {:#?}", e.points);

        // The acceptance bar: at 0.2x load even the foresight-free
        // reactive policy reclaims a substantial fraction of the idle
        // headroom E19 priced, within a point of static attainment.
        let stat = e.point("static", 0.2).unwrap();
        let reactive = e.point("reactive", 0.2).unwrap();
        let idle_headroom_j = stat.fleet_j; // upper bound on idle
        assert!(
            reactive.reclaimed_j > 0.05 * idle_headroom_j,
            "reactive reclaimed {:.3} J of a {:.3} J static fleet",
            reactive.reclaimed_j,
            idle_headroom_j
        );
        assert!(reactive.attainment_delta >= -0.01, "{reactive:#?}");
        // The oracle bounds everyone and pays fewer stick-seconds.
        let oracle = e.point("oracle", 0.2).unwrap();
        assert!(oracle.stick_seconds < stat.stick_seconds);
        assert!(oracle.fleet_j < stat.fleet_j, "gating must cut fleet energy");
    }

    #[test]
    fn traced_autoscale_exports_scaling_columns_and_events() {
        let t = traced_autoscale(Scale::Tiny, "reactive", Duration::from_millis(10.0), None);
        let header = t.series_csv.lines().next().unwrap();
        assert!(
            header.ends_with(",live_sticks,scale_events"),
            "autoscaled series must export scaling columns: {header}"
        );
        assert!(t.chrome_json.contains("\"Drain\""), "trace must carry Drain events");
        assert!(t.chrome_json.contains("\"ScaleDown\""));
        let scaling = t.report.scaling.as_ref().expect("scaling block");
        assert!(scaling.scale_downs > 0);
        assert!(scaling.reclaimed_pj > 0);
        // The live_sticks column actually moves.
        let live_col = header.split(',').position(|c| c == "live_sticks").unwrap();
        let mut lives: Vec<&str> =
            t.series_csv.lines().skip(1).map(|l| l.split(',').nth(live_col).unwrap()).collect();
        lives.dedup();
        assert!(lives.len() > 1, "live_sticks never changed: {lives:?}");
    }

    #[test]
    fn reactive_spins_up_replacements_during_an_outage() {
        // Gate-friendly low load, then unplug a *live* stick (w0 — the
        // controller drains from the top, so index 0 stays up) long
        // enough for the breaker to stay open across controller ticks.
        let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
        let spec = FleetSpec::parse(AUTOSCALE_FLEET).unwrap();
        let workers = spec.build(&model);
        let capacity_rps = spec.capacity_rps(&workers);
        let max_batch = spec.preferred_batch(&workers);
        let cfg = ServeConfig { max_batch, ..ServeConfig::default() };
        let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..Default::default() };
        let plan = ncsw_faults::FaultPlan::parse("w0:unplug@2s:reconnect@6s").unwrap();
        let mut workers = plan.apply(workers, cfg.seed);
        let load = ArrivalProcess::Poisson { rate_per_sec: capacity_rps * 0.3 };
        let mut policy = ncsw_ctrl::policy("reactive").unwrap();
        let outcome = serve_autoscaled(&mut workers, &cfg, &load, 300, &scaling, policy.as_mut());
        let stats = outcome.scaling.as_ref().unwrap();
        assert!(!outcome.faults.outages.is_empty(), "the unplug must open a circuit");
        assert!(
            stats.replacements > 0,
            "a multi-tick outage must spin up replacement sticks: {stats:?}"
        );
    }
}
