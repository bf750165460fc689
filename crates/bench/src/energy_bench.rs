//! E19 — online img/W under load vs the paper's offline Eq. 1.
//!
//! Fig. 8a computes throughput-per-Watt from a closed-loop batch sweep
//! and a nameplate TDP — a device that is always busy and always charged
//! its peak power. An online fleet is neither: it idles between
//! arrivals (gated islands still draw power) and it burns energy on
//! failed attempts. This experiment sweeps offered load and compares,
//! per fleet:
//!
//! - **img/W (measured)** — completions over *integrated* device energy
//!   from the island power models ([`ncsw_obs::EnergyMeter`]),
//! - **img/W (Eq. 1)** — the paper's accounting: goodput over summed
//!   nameplate TDP,
//! - the **energy cost of headroom** — the idle share of fleet energy,
//!   which Eq. 1 cannot see and which dominates at low load.

use crate::fig8::PAPER_8A;
use crate::report;
use crate::scale::Scale;
use desim::Duration;
use ncsw::ModelBundle;
use ncsw_serve::{serve, ArrivalProcess, DispatchPolicy, FleetSpec, ServeConfig, ServeReport};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// Fleets compared (same specs as E15).
pub const FLEETS: [&str; 3] = ["1xvpu", "8xvpu", "cpu+gpu+8xvpu"];

/// Offered load fractions of estimated capacity.
pub const LOAD_FRACTIONS: [f64; 4] = [0.2, 0.5, 0.8, 1.0];

/// One load point's energy accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyPoint {
    pub offered_frac: f64,
    pub offered_rps: f64,
    pub goodput_rps: f64,
    /// Completions over integrated joules (the measured truth).
    pub img_per_watt: f64,
    /// The paper's Eq. 1: goodput over summed nameplate TDP.
    pub img_per_watt_tdp: f64,
    pub j_per_inference: f64,
    /// Idle (gated) energy as a share of fleet energy — the cost of
    /// headroom.
    pub idle_share: f64,
    pub wasted_j: f64,
    pub fleet_j: f64,
}

/// One fleet's energy sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyFleet {
    pub fleet: String,
    pub capacity_rps: f64,
    /// The offline Fig. 8a reference for this fleet's device class
    /// (img/W at the paper's quoted batch point), where one exists.
    pub offline_img_per_watt: Option<f64>,
    pub points: Vec<EnergyPoint>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyExp {
    pub scale: Scale,
    pub requests_per_point: usize,
    pub slo_ms: f64,
    pub fleets: Vec<EnergyFleet>,
}

fn requests_per_point(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 160,
        Scale::Small => 1_500,
        Scale::Paper => 10_000,
    }
}

pub fn energy_exp_with(scale: Scale, slo: Duration) -> EnergyExp {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = requests_per_point(scale);
    let mut fleets = Vec::new();
    for fleet in FLEETS {
        let spec = FleetSpec::parse(fleet).expect("valid fleet spec");
        let probe = spec.build(&model);
        let capacity_rps = spec.capacity_rps(&probe);
        let max_batch = spec.preferred_batch(&probe);
        drop(probe);
        let offline_img_per_watt = match fleet {
            // Fig. 8a charges one stick TDP per active VPU, so its
            // ratio is per-stick and applies to both VPU fleet sizes.
            "1xvpu" | "8xvpu" => Some(PAPER_8A[2].1),
            _ => None,
        };

        let mut points = Vec::new();
        for &frac in &LOAD_FRACTIONS {
            let cfg = ServeConfig {
                max_batch,
                slo,
                policy: DispatchPolicy::CostAware,
                ..ServeConfig::default()
            };
            let mut workers = spec.build(&model);
            let rate = capacity_rps * frac;
            let load = ArrivalProcess::Poisson { rate_per_sec: rate };
            let outcome = serve(&mut workers, &cfg, &load, n);
            let r = ServeReport::of(&outcome, &cfg);
            let e = &r.energy;
            points.push(EnergyPoint {
                offered_frac: frac,
                offered_rps: rate,
                goodput_rps: r.goodput_rps,
                img_per_watt: e.img_per_watt,
                img_per_watt_tdp: e.img_per_watt_tdp,
                j_per_inference: e.j_per_inference,
                idle_share: if e.fleet_j > 0.0 { e.idle_j / e.fleet_j } else { 0.0 },
                wasted_j: e.wasted_j,
                fleet_j: e.fleet_j,
            });
        }
        fleets.push(EnergyFleet {
            fleet: fleet.to_string(),
            capacity_rps,
            offline_img_per_watt,
            points,
        });
    }
    EnergyExp { scale, requests_per_point: n, slo_ms: slo.as_millis(), fleets }
}

impl EnergyExp {
    pub fn print(&self) {
        report::header(&format!(
            "E19 — online img/W vs offline Eq. 1 ({} req/point, SLO {} ms, scale {})",
            self.requests_per_point,
            self.slo_ms,
            self.scale.name()
        ));
        for f in &self.fleets {
            let offline = f
                .offline_img_per_watt
                .map(|v| format!("Fig. 8a offline ref {v:.2} img/W"))
                .unwrap_or_else(|| "no single-device Fig. 8a ref".to_string());
            println!(
                "\nfleet {}  (capacity est {:.1} req/s; {})",
                f.fleet, f.capacity_rps, offline
            );
            println!(
                "{:>5} {:>9} {:>11} {:>11} {:>9} {:>7} {:>9}",
                "load", "goodput", "img/W meas", "img/W Eq.1", "J/inf", "idle%", "wasted J"
            );
            for p in &f.points {
                println!(
                    "{:>5.2} {:>9.1} {:>11.2} {:>11.2} {:>9.3} {:>7.1} {:>9.3}",
                    p.offered_frac,
                    p.goodput_rps,
                    p.img_per_watt,
                    p.img_per_watt_tdp,
                    p.j_per_inference,
                    p.idle_share * 100.0,
                    p.wasted_j
                );
            }
            if let (Some(lo), Some(hi)) = (f.points.first(), f.points.last()) {
                println!(
                    "  headroom cost: J/inf {:.3} at {:.1}x load vs {:.3} at {:.1}x — \
                     idle islands charge {:.1}% of fleet energy at low load",
                    lo.j_per_inference,
                    lo.offered_frac,
                    hi.j_per_inference,
                    hi.offered_frac,
                    lo.idle_share * 100.0
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_sweep_shows_the_cost_of_headroom() {
        let e = energy_exp_with(Scale::Tiny, Duration::from_millis(500.0));
        assert_eq!(e.fleets.len(), FLEETS.len());
        for f in &e.fleets {
            assert_eq!(f.points.len(), LOAD_FRACTIONS.len());
            let lo = &f.points[0];
            let hi = f.points.last().unwrap();
            // Idle headroom dominates at low load and shrinks with it.
            assert!(lo.idle_share > hi.idle_share, "{}: idle share must fall", f.fleet);
            // Amortizing the idle draw over more completions makes each
            // inference cheaper.
            assert!(
                lo.j_per_inference > hi.j_per_inference,
                "{}: J/inf {} -> {}",
                f.fleet,
                lo.j_per_inference,
                hi.j_per_inference
            );
            for p in &f.points {
                assert!(p.fleet_j > 0.0, "{}: energy must integrate", f.fleet);
                assert!(p.img_per_watt > 0.0, "{}: img/W must be positive", f.fleet);
            }
        }
    }

    #[test]
    fn vpu_fleets_beat_their_nameplate_accounting() {
        // The NCS sticks' measured draw (0.9 W chip busy, ~0.17 W
        // gated) is far below the 2.5 W stick TDP Eq. 1 charges, so
        // the measured img/W must beat the TDP-based number at every
        // load point.
        let e = energy_exp_with(Scale::Tiny, Duration::from_millis(500.0));
        for name in ["1xvpu", "8xvpu"] {
            let f = e.fleets.iter().find(|f| f.fleet == name).unwrap();
            for p in &f.points {
                assert!(
                    p.img_per_watt > p.img_per_watt_tdp,
                    "{name}: measured {} <= Eq.1 {}",
                    p.img_per_watt,
                    p.img_per_watt_tdp
                );
            }
        }
    }
}
