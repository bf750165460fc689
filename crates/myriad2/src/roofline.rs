//! Roofline analysis of the chip.
//!
//! Classifies any piece of work by its operational intensity (MACs per
//! DDR byte) against the machine balance point, predicting whether the
//! SHAVE cluster or the LPDDR3 channel bounds it — the analytic
//! companion to the discrete-event model, used to sanity-check layer
//! timings and to explain the zoo/prefetch results (AlexNet's FC layers
//! sit far below the ridge; inception convolutions far above it).

use crate::arch::Myriad2Config;
use serde::{Deserialize, Serialize};

/// Which resource bounds a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    Compute,
    Memory,
}

/// Roofline placement of one piece of work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Operational intensity, MACs per DDR byte.
    pub intensity: f64,
    /// Attainable MAC rate under the roof, MACs/s.
    pub attainable: f64,
    pub bound: Bound,
    /// Predicted execution time in seconds.
    pub seconds: f64,
}

/// The machine roofline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Roofline {
    /// Sustained MAC rate (peak × issue efficiency), MACs/s.
    pub compute_roof: f64,
    /// DDR bandwidth, bytes/s.
    pub memory_roof: f64,
}

impl Roofline {
    /// The chip's roofline at a given sustained efficiency (conv kernels
    /// ~0.2955, MDK GEMM ~0.55 — see [`crate::vliw`]).
    pub fn of(cfg: &Myriad2Config, efficiency: f64) -> Roofline {
        Roofline {
            compute_roof: cfg.peak_macs_per_sec() * efficiency,
            memory_roof: cfg.ddr_bandwidth,
        }
    }

    /// Intensity where the two roofs meet (MACs/byte).
    pub fn ridge(&self) -> f64 {
        self.compute_roof / self.memory_roof
    }

    /// Place a kernel with `macs` of work and `ddr_bytes` of compulsory
    /// traffic.
    pub fn classify(&self, macs: u64, ddr_bytes: u64) -> RooflinePoint {
        let intensity = if ddr_bytes == 0 { f64::INFINITY } else { macs as f64 / ddr_bytes as f64 };
        let attainable = (intensity * self.memory_roof).min(self.compute_roof);
        let bound = if intensity >= self.ridge() { Bound::Compute } else { Bound::Memory };
        RooflinePoint { intensity, attainable, bound, seconds: macs as f64 / attainable }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_nn::cost::NetworkCost;
    use vpu_num::f16;

    fn roof() -> Roofline {
        Roofline::of(&Myriad2Config::default(), 0.2955)
    }

    #[test]
    fn ridge_point() {
        let r = roof();
        // 57.6 GMAC/s × 0.2955 ≈ 17.0 GMAC/s over 4 GB/s ≈ 4.3 MAC/B.
        assert!((4.0..4.6).contains(&r.ridge()), "ridge {}", r.ridge());
    }

    #[test]
    fn inception_convs_are_compute_bound() {
        let cost = NetworkCost::of::<f16>(&vpu_nn::googlenet::full());
        let r = roof();
        let conv2 = cost.layers.iter().find(|l| l.name == "conv2/3x3").unwrap();
        let p = r.classify(conv2.macs, conv2.weight_bytes + conv2.in_bytes + conv2.out_bytes);
        assert_eq!(p.bound, Bound::Compute, "intensity {}", p.intensity);
        assert!(p.intensity > 50.0);
    }

    #[test]
    fn fc_layers_are_memory_bound() {
        let cost = NetworkCost::of::<f16>(&vpu_nn::zoo::alexnet_one_tower());
        let r = roof();
        let fc6 = cost.layers.iter().find(|l| l.name == "fc6").unwrap();
        let p = r.classify(fc6.macs, fc6.weight_bytes + fc6.in_bytes + fc6.out_bytes);
        assert_eq!(p.bound, Bound::Memory, "intensity {}", p.intensity);
        // Every FC MAC reads a fresh fp16 weight: intensity ~0.5 MAC/B.
        assert!(p.intensity < 1.0);
    }

    #[test]
    fn roofline_time_tracks_simulator_for_the_big_conv() {
        // The analytic prediction and the discrete-event simulation must
        // agree within ~30% for a compute-bound layer.
        use crate::{Myriad2, Myriad2Config};
        use desim::SimTime;
        let cost = std::sync::Arc::new(NetworkCost::of::<f16>(&vpu_nn::googlenet::full()));
        let mut chip = Myriad2::new(Myriad2Config::default());
        let run = chip.run_cost(&cost, SimTime::ZERO);
        let layers = run.layers();
        let conv2_sim = layers.iter().find(|l| l.name == "conv2/3x3").unwrap().duration().as_secs();
        let conv2 = cost.layers.iter().find(|l| l.name == "conv2/3x3").unwrap();
        let p = roof().classify(conv2.macs, conv2.weight_bytes + conv2.in_bytes + conv2.out_bytes);
        let ratio = conv2_sim / p.seconds;
        assert!((0.7..1.4).contains(&ratio), "sim {} vs roofline {}", conv2_sim, p.seconds);
    }

    #[test]
    fn zero_traffic_is_infinitely_intense() {
        let p = roof().classify(1_000_000, 0);
        assert_eq!(p.bound, Bound::Compute);
        assert!(p.intensity.is_infinite());
        assert!(p.seconds > 0.0);
    }

    #[test]
    fn gemm_efficiency_moves_the_ridge() {
        let conv = Roofline::of(&Myriad2Config::default(), 0.2955);
        let gemm = Roofline::of(&Myriad2Config::default(), 0.55);
        assert!(gemm.ridge() > conv.ridge());
        assert!(gemm.compute_roof > conv.compute_roof);
    }
}
