//! Power-island model of the Myriad 2 SoC.
//!
//! The NCS implementation uses 20 power islands, one per SHAVE plus
//! islands for the RISC processors, CMX, DDR interface and peripherals
//! (paper §II-B). Idle islands are gated to near zero; the model
//! integrates active power over the busy spans the simulator produces,
//! yielding per-inference energy alongside the paper's TDP-based
//! throughput/W metric.

use desim::Duration;
use serde::{Deserialize, Serialize};

/// Static power parameters (Watts). Defaults decompose the chip's 0.9 W
/// TDP across islands in proportion to published die-area estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Active power of one SHAVE island.
    pub shave_active_w: f64,
    /// Gated (idle) power of one SHAVE island.
    pub shave_idle_w: f64,
    /// CMX + crossbar active power.
    pub cmx_active_w: f64,
    /// DDR interface active power.
    pub ddr_active_w: f64,
    /// SIPP pipeline active power.
    pub sipp_active_w: f64,
    /// Always-on islands: 2× LEON RISC, clocks, peripherals.
    pub base_w: f64,
    /// Number of SHAVE islands.
    pub shave_islands: usize,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            shave_active_w: 0.045,
            shave_idle_w: 0.001,
            cmx_active_w: 0.08,
            ddr_active_w: 0.12,
            sipp_active_w: 0.05,
            base_w: 0.16,
            shave_islands: 12,
        }
    }
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
    /// Worst-case chip power with everything switching: the TDP the
    /// paper quotes as 0.9 W.
    pub fn tdp(&self) -> f64 {
        self.base_w
            + self.shave_islands as f64 * self.shave_active_w
            + self.cmx_active_w
            + self.ddr_active_w
            + self.sipp_active_w
    }

    /// Energy in Joules consumed over one activity summary.
    pub fn energy(&self, a: &ActivitySummary) -> f64 {
        let span_s = a.span.as_secs();
        let shave_busy_s = a.shave_busy.as_secs();
        let shave_idle_s = (span_s * self.shave_islands as f64 - shave_busy_s).max(0.0);
        self.base_w * span_s
            + self.shave_active_w * shave_busy_s
            + self.shave_idle_w * shave_idle_s
            + self.cmx_active_w * a.cmx_busy.as_secs()
            + self.ddr_active_w * a.ddr_busy.as_secs()
            + self.sipp_active_w * a.sipp_busy.as_secs()
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
        self.base_w
            + active_shaves as f64 * self.shave_active_w
            + (self.shave_islands - active_shaves) as f64 * self.shave_idle_w
            + self.cmx_active_w
            + self.ddr_active_w
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
        ((self.base_w + self.shave_islands as f64 * self.shave_idle_w) * 1e3).round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdp_close_to_published() {
        let p = PowerModel::default();
        // Paper: 0.9 W TDP for the Myriad 2.
        assert!((p.tdp() - 0.95).abs() < 0.1, "TDP {} too far from 0.9W", p.tdp());
    }

    #[test]
    fn idle_chip_draws_base_power() {
        let p = PowerModel::default();
        let a = ActivitySummary { span: Duration::from_secs(1.0), ..Default::default() };
        let e = p.energy(&a);
        // Base + 12 gated SHAVEs.
        let expect = p.base_w + 12.0 * p.shave_idle_w;
        assert!((e - expect).abs() < 1e-9, "{e} vs {expect}");
    }

    #[test]
    fn busy_chip_draws_near_tdp() {
        let p = PowerModel::default();
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
        let p = PowerModel::default();
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
        let p = PowerModel::default();
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
        let p = PowerModel::default();
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
        let p = PowerModel::default();
        assert_eq!(p.avg_power(&ActivitySummary::default()), 0.0);
    }
}
