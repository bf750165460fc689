//! Power-island model of the Myriad 2 SoC.
//!
//! The NCS implementation uses 20 power islands, one per SHAVE plus
//! islands for the RISC processors, CMX, DDR interface and peripherals
//! (paper §II-B). Idle islands are gated to near zero; the model
//! integrates active power over the busy spans the simulator produces,
//! yielding per-inference energy alongside the paper's TDP-based
//! throughput/W metric.

use crate::arch::Myriad2Config;
use desim::Duration;
use serde::{Deserialize, Serialize};

/// Active power of one SHAVE island, W. The island constants decompose
/// the chip's 0.9 W TDP in proportion to published die-area estimates.
pub const SHAVE_ACTIVE_W: f64 = 0.045;
/// Gated (idle) power of one SHAVE island, W.
pub const SHAVE_IDLE_W: f64 = 0.001;
/// CMX + crossbar active power, W.
pub const CMX_ACTIVE_W: f64 = 0.08;
/// DDR interface active power, W.
pub const DDR_ACTIVE_W: f64 = 0.12;
/// SIPP pipeline active power, W.
pub const SIPP_ACTIVE_W: f64 = 0.05;
/// Always-on islands: 2× LEON RISC, clocks, peripherals, W.
pub const BASE_W: f64 = 0.16;

/// The power islands of one chip: the constants above, with one SHAVE
/// island per SHAVE of its [`Myriad2Config`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    shave_islands: usize,
}

/// Busy-time summary of one simulated interval, produced by the executor.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ActivitySummary {
    /// Sum of per-SHAVE busy time (12 SHAVEs fully busy for 1 ms = 12 ms).
    pub shave_busy: Duration,
    pub cmx_busy: Duration,
    pub ddr_busy: Duration,
    pub sipp_busy: Duration,
    /// Wall-clock (virtual) span of the interval.
    pub span: Duration,
}

impl PowerModel {
    /// The islands of a chip built from `cfg`.
    pub fn of(cfg: &Myriad2Config) -> PowerModel {
        PowerModel { shave_islands: cfg.shaves }
    }

    /// Worst-case chip power with everything switching: the TDP the
    /// paper quotes as 0.9 W.
    pub fn tdp(&self) -> f64 {
        BASE_W
            + self.shave_islands as f64 * SHAVE_ACTIVE_W
            + CMX_ACTIVE_W
            + DDR_ACTIVE_W
            + SIPP_ACTIVE_W
    }

    /// Energy in Joules consumed over one activity summary.
    pub fn energy(&self, a: &ActivitySummary) -> f64 {
        let span_s = a.span.as_secs();
        let shave_busy_s = a.shave_busy.as_secs();
        let shave_idle_s = (span_s * self.shave_islands as f64 - shave_busy_s).max(0.0);
        BASE_W * span_s
            + SHAVE_ACTIVE_W * shave_busy_s
            + SHAVE_IDLE_W * shave_idle_s
            + CMX_ACTIVE_W * a.cmx_busy.as_secs()
            + DDR_ACTIVE_W * a.ddr_busy.as_secs()
            + SIPP_ACTIVE_W * a.sipp_busy.as_secs()
    }

    /// Average power over the summary's span (Watts).
    pub fn avg_power(&self, a: &ActivitySummary) -> f64 {
        let span = a.span.as_secs();
        if span == 0.0 {
            0.0
        } else {
            self.energy(a) / span
        }
    }

    /// Power with `active` of the SHAVE islands unga­ted and the rest
    /// gated — the steady-state draw of a partially occupied chip.
    pub fn steady_power(&self, active_shaves: usize) -> f64 {
        assert!(active_shaves <= self.shave_islands);
        BASE_W
            + active_shaves as f64 * SHAVE_ACTIVE_W
            + (self.shave_islands - active_shaves) as f64 * SHAVE_IDLE_W
            + CMX_ACTIVE_W
            + DDR_ACTIVE_W
    }

    /// Chip draw while an inference batch occupies it, in integer
    /// milliwatts: all SHAVE islands plus CMX and DDR active (the SIPP
    /// imaging pipeline stays gated on the inference path). Integer
    /// because the online energy meter needs `pJ = mW × ns` to hold
    /// exactly; 900 mW with the default decomposition.
    pub fn busy_mw(&self) -> u64 {
        (self.steady_power(self.shave_islands) * 1e3).round() as u64
    }

    /// Gated draw between batches, in integer milliwatts: always-on
    /// islands plus every SHAVE island power-gated (172 mW default).
    pub fn gated_mw(&self) -> u64 {
        ((BASE_W + self.shave_islands as f64 * SHAVE_IDLE_W) * 1e3).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdp_close_to_published() {
        let p = PowerModel::of(&Myriad2Config::default());
        // Paper: 0.9 W TDP for the Myriad 2.
        assert!((p.tdp() - 0.95).abs() < 0.1, "TDP {} too far from 0.9W", p.tdp());
    }

    #[test]
    fn idle_chip_draws_base_power() {
        let p = PowerModel::of(&Myriad2Config::default());
        let a = ActivitySummary { span: Duration::from_secs(1.0), ..Default::default() };
        let e = p.energy(&a);
        // Base + 12 gated SHAVEs.
        let expect = BASE_W + 12.0 * SHAVE_IDLE_W;
        assert!((e - expect).abs() < 1e-9, "{e} vs {expect}");
    }

    #[test]
    fn busy_chip_draws_near_tdp() {
        let p = PowerModel::of(&Myriad2Config::default());
        let s = Duration::from_secs(1.0);
        let a = ActivitySummary {
            shave_busy: Duration::from_secs(12.0),
            cmx_busy: s,
            ddr_busy: s,
            sipp_busy: s,
            span: s,
        };
        let e = p.energy(&a);
        assert!((e - p.tdp()).abs() < 1e-9);
        assert!((p.avg_power(&a) - p.tdp()).abs() < 1e-9);
    }

    #[test]
    fn energy_scales_with_activity() {
        let p = PowerModel::of(&Myriad2Config::default());
        let half = ActivitySummary {
            shave_busy: Duration::from_secs(6.0),
            span: Duration::from_secs(1.0),
            ..Default::default()
        };
        let full = ActivitySummary {
            shave_busy: Duration::from_secs(12.0),
            span: Duration::from_secs(1.0),
            ..Default::default()
        };
        assert!(p.energy(&half) < p.energy(&full));
    }

    #[test]
    fn steady_power_monotone_in_shaves() {
        let p = PowerModel::of(&Myriad2Config::default());
        let mut last = 0.0;
        for k in 0..=12 {
            let w = p.steady_power(k);
            assert!(w > last);
            last = w;
        }
        assert!(p.steady_power(12) < 1.0, "full chip under 1 W");
    }

    #[test]
    fn milliwatt_rates_match_the_island_decomposition() {
        let p = PowerModel::of(&Myriad2Config::default());
        // 160 + 12×45 + 80 + 120 = 900 mW busy; 160 + 12×1 = 172 gated.
        assert_eq!(p.busy_mw(), 900);
        assert_eq!(p.gated_mw(), 172);
        // The integer rates reproduce `energy` on a batch-shaped
        // summary: all SHAVEs + CMX + DDR busy for B inside span H.
        let (b, h) = (Duration(3_000_000), Duration(10_000_000));
        let a = ActivitySummary {
            shave_busy: Duration(12 * b.nanos()),
            cmx_busy: b,
            ddr_busy: b,
            sipp_busy: Duration::ZERO,
            span: h,
        };
        let meter_j =
            (p.busy_mw() * b.nanos() + p.gated_mw() * (h.nanos() - b.nanos())) as f64 / 1e12;
        assert!(
            (meter_j - p.energy(&a)).abs() < 1e-9 * p.energy(&a),
            "{meter_j} vs {}",
            p.energy(&a)
        );
    }

    #[test]
    fn zero_span_power_is_zero() {
        let p = PowerModel::of(&Myriad2Config::default());
        assert_eq!(p.avg_power(&ActivitySummary::default()), 0.0);
    }
}
