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
//! Model: `C_th · dT/dt = P(t) − (T − T_amb)/R_th`, forward-Euler over
//! the activity timeline.

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

/// Temperature trace produced by integrating a power profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalTrace {
    /// (seconds, °C) samples.
    pub samples: Vec<(f64, f64)>,
    pub peak_c: f64,
    pub steady_state_c: f64,
    pub throttled: bool,
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

    /// Integrate a constant-power phase list: `(watts, seconds)` pairs
    /// (e.g. alternating inference/idle), starting from ambient.
    pub fn integrate(&self, phases: &[(f64, f64)]) -> ThermalTrace {
        let dt = 0.05;
        let mut t = self.t_ambient;
        let mut clock = 0.0;
        let mut samples = vec![(0.0, t)];
        let mut peak = t;
        for &(p, secs) in phases {
            let steps = (secs / dt).ceil() as usize;
            for _ in 0..steps {
                let d_t = (p - (t - self.t_ambient) / self.r_th) / self.c_th * dt;
                t += d_t;
                clock += dt;
                peak = peak.max(t);
            }
            samples.push((clock, t));
        }
        let avg_power =
            if clock > 0.0 { phases.iter().map(|&(p, s)| p * s).sum::<f64>() / clock } else { 0.0 };
        ThermalTrace {
            samples,
            peak_c: peak,
            steady_state_c: self.steady_state(avg_power),
            throttled: peak >= self.t_throttle,
        }
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
    fn integration_converges_to_steady_state() {
        let m = ThermalModel::default();
        // Run 10 time constants at constant 0.7 W.
        let trace = m.integrate(&[(0.7, m.tau() * 10.0)]);
        let expect = m.steady_state(0.7);
        let last = trace.samples.last().unwrap().1;
        assert!((last - expect).abs() < 0.2, "{last} vs {expect}");
        assert!(!trace.throttled);
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

    #[test]
    fn an_80w_part_would_throttle_on_this_cooling() {
        // The contrast that motivates the paper: the hosts' class of
        // power draw is impossible in this form factor.
        let m = ThermalModel::default();
        let trace = m.integrate(&[(5.0, 120.0)]);
        assert!(trace.throttled, "5 W in a passive stick must overheat");
    }

    #[test]
    fn duty_cycling_cools_the_chip() {
        let m = ThermalModel::default();
        let busy = m.integrate(&[(0.7, 600.0)]);
        // 50% duty cycle: inference / idle alternation.
        let phases: Vec<(f64, f64)> = (0..60).flat_map(|_| [(0.7, 5.0), (0.17, 5.0)]).collect();
        let duty = m.integrate(&phases);
        assert!(duty.peak_c < busy.peak_c);
    }
}
