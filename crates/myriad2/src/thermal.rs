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
//! Model: a lumped RC, `C_th · dT/dt = P(t) − (T − T_amb)/R_th`. Only
//! its steady state is computed: at a sustained power draw the junction
//! settles at `T_amb + R_th · P`, whatever `C_th` is.

use crate::power::{ActivitySummary, PowerModel};

/// Junction-to-ambient thermal resistance of the stick (chip + PCB +
/// case, free convection), K/W. Small passive USB sticks land near
/// 25–35 K/W; the NCS's aluminium case is at the good end.
pub const R_TH: f64 = 28.0;
/// Ambient, °C.
pub const T_AMBIENT: f64 = 25.0;
/// Vendor throttle threshold, °C (the NCSDK reports a thermal warning
/// at 70 °C and throttles beyond 80 °C).
pub const T_THROTTLE: f64 = 80.0;

/// Steady-state junction temperature at a constant power draw.
pub fn steady_state(power_w: f64) -> f64 {
    T_AMBIENT + R_TH * power_w
}

/// Temperature after running one activity summary in a loop
/// indefinitely (steady state at its average power).
pub fn steady_state_of(activity: &ActivitySummary, power_model: &PowerModel) -> f64 {
    steady_state(power_model.avg_power(activity))
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
        assert_eq!(steady_state(0.0), 25.0);
        // 1 W through 28 K/W: 53 °C.
        assert!((steady_state(1.0) - 53.0).abs() < 1e-12);
    }

    #[test]
    fn stick_never_throttles_at_inference_load() {
        // Real chip activity from the simulator: continuous GoogLeNet.
        let cost = std::sync::Arc::new(NetworkCost::of::<f16>(&vpu_nn::googlenet::full()));
        let mut chip = Myriad2::new(Myriad2Config::default());
        let run = chip.run_cost(&cost, SimTime::ZERO);
        let t = steady_state_of(&run.activity, chip.power_model());
        // ~0.68 W sustained -> ~44 °C: far below the 80 °C throttle.
        assert!((38.0..55.0).contains(&t), "steady state {t} °C");
        assert!(t < T_THROTTLE - 20.0);
    }
}
