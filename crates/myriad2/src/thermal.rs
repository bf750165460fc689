//! First-order thermal model of the NCS stick.
//!
//! The paper's §V closes with "actual power measurements would be
//! required in future work to understand the practical differences (i.e.,
//! the TDP can be far from the real power draws per device)". This module
//! takes the step the paper defers: the simulator produces real power
//! traces (per-island activity integration), and a lumped RC model turns
//! them into junction temperature — confirming that the passively cooled
//! stick never approaches throttling at inference load, unlike the 80 W
//! hosts it replaces.
//!
//! Model: `C_th · dT/dt = P(t) − (T − T_amb)/R_th`; at a sustained
//! power draw the junction settles at `T_amb + R_th · P`.

use crate::power::ActivitySummary;
use serde::{Deserialize, Serialize};

/// Lumped thermal parameters of the stick (chip + PCB + plastic case,
/// free convection).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalModel {
    /// Junction-to-ambient thermal resistance, K/W. Small passive USB
    /// sticks land near 25–35 K/W; the NCS's aluminium case is at the
    /// good end.
    pub r_th: f64,
    /// Lumped thermal capacitance, J/K (a few grams of silicon + board).
    pub c_th: f64,
    /// Ambient, °C.
    pub t_ambient: f64,
    /// Vendor throttle threshold, °C (the NCSDK reports a thermal
    /// warning at 70 °C and throttles beyond 80 °C).
    pub t_throttle: f64,
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel { r_th: 28.0, c_th: 6.0, t_ambient: 25.0, t_throttle: 80.0 }
    }
}

impl ThermalModel {
    /// Steady-state junction temperature at a constant power draw.
    pub fn steady_state(&self, power_w: f64) -> f64 {
        self.t_ambient + self.r_th * power_w
    }

    /// Thermal time constant in seconds.
    pub fn tau(&self) -> f64 {
        self.r_th * self.c_th
    }

    /// Convenience: temperature after running one activity summary in a
    /// loop indefinitely (steady state at its average power).
    pub fn steady_state_of(
        &self,
        activity: &ActivitySummary,
        power_model: &crate::power::PowerModel,
    ) -> f64 {
        self.steady_state(power_model.avg_power(activity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Myriad2, Myriad2Config};
    use desim::SimTime;
    use vpu_nn::cost::NetworkCost;
    use vpu_num::f16;

    #[test]
    fn steady_state_math() {
        let m = ThermalModel::default();
        assert_eq!(m.steady_state(0.0), 25.0);
        // 1 W through 28 K/W: 53 °C.
        assert!((m.steady_state(1.0) - 53.0).abs() < 1e-12);
        assert!((m.tau() - 168.0).abs() < 1e-9);
    }

    #[test]
    fn stick_never_throttles_at_inference_load() {
        // Real chip activity from the simulator: continuous GoogLeNet.
        let cost = std::sync::Arc::new(NetworkCost::of::<f16>(&vpu_nn::googlenet::full()));
        let mut chip = Myriad2::new(Myriad2Config::default());
        let run = chip.run_cost(&cost, SimTime::ZERO);
        let m = ThermalModel::default();
        let t = m.steady_state_of(&run.activity, chip.power_model());
        // ~0.68 W sustained -> ~44 °C: far below the 80 °C throttle.
        assert!((38.0..55.0).contains(&t), "steady state {t} °C");
        assert!(t < m.t_throttle - 20.0);
    }
}
