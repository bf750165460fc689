//! Thermal-design-power registry and the paper's Eq. (1).

use serde::{Deserialize, Serialize};

/// TDP figures the paper uses in §V.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Tdp {
    /// Intel Xeon E5-2609v2 package.
    pub cpu_w: f64,
    /// NVIDIA Quadro K4000 board.
    pub gpu_w: f64,
    /// Myriad 2 chip alone.
    pub vpu_chip_w: f64,
    /// Whole NCS stick (chip + DDR + USB interface), peak.
    pub ncs_stick_w: f64,
}

impl Default for Tdp {
    fn default() -> Self {
        Tdp { cpu_w: 80.0, gpu_w: 80.0, vpu_chip_w: 0.9, ncs_stick_w: 2.5 }
    }
}

impl Tdp {
    /// TDP of `n` whole NCS sticks (the conservative whole-stick
    /// framing Fig. 8a charges per active stick).
    pub fn multi_stick_w(&self, n: usize) -> f64 {
        self.ncs_stick_w * n as f64
    }
}

/// Eq. (1): ThroughputWatt = (images/second) / TDP.
pub fn throughput_per_watt(images_per_sec: f64, tdp_w: f64) -> f64 {
    assert!(tdp_w > 0.0, "TDP must be positive");
    images_per_sec / tdp_w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let t = Tdp::default();
        assert_eq!(t.cpu_w, 80.0);
        assert_eq!(t.gpu_w, 80.0);
        assert_eq!(t.vpu_chip_w, 0.9);
        assert_eq!(t.ncs_stick_w, 2.5);
    }

    #[test]
    fn eq1_values_from_paper() {
        // Paper §V: one VPU -> 3.97 img/W. One VPU does ~100.7 ms per
        // image = 9.93 img/s; 9.93 / 0.9 W = 11.0 chip-only, or
        // 9.93 / 2.5 = 3.97 per stick — the paper charges stick TDP at
        // batch 1.
        let img_per_sec = 1000.0 / 100.7;
        let per_stick = throughput_per_watt(img_per_sec, 2.5);
        assert!((per_stick - 3.97).abs() < 0.05, "{per_stick}");
        // CPU at batch 8: 44.0 img/s over 80 W = 0.55.
        assert!((throughput_per_watt(44.0, 80.0) - 0.55).abs() < 0.01);
        // GPU: 74.2 img/s over 80 W = 0.93.
        assert!((throughput_per_watt(74.2, 80.0) - 0.9275).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tdp_rejected() {
        throughput_per_watt(1.0, 0.0);
    }
}
