//! Architectural parameters of the Myriad 2 (MA2450 variant, as shipped
//! in the Neural Compute Stick).
//!
//! Sources: the paper's §II, Moloney et al. (Hot Chips 2014) and Barry et
//! al. (IEEE Micro 2015). Where a parameter is not publicly specified the
//! default is chosen so the calibration anchor (100.7 ms per GoogLeNet
//! inference) holds; such values are marked "calibrated".

use serde::{Deserialize, Serialize};

/// Tunable description of one Myriad 2 chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Myriad2Config {
    /// Number of SHAVE vector processors (12 on MA2450).
    pub shaves: usize,
    /// Nominal clock, Hz (600 MHz).
    pub clock_hz: f64,
    /// FP16 lanes per VAU issue (128-bit VAU = 8 × binary16).
    pub vau_lanes: usize,
    /// Fraction of peak VAU issue slots a compiled conv kernel sustains.
    /// **Calibrated** so full-GoogLeNet inference ≈ 100.7 ms on the NCS.
    pub issue_efficiency: f64,
    /// Scalar ops retired per cycle per SHAVE for non-MAC work
    /// (SAU + IAU + CMU working together on pooling/activation code).
    pub scalar_ops_per_cycle: f64,
    /// CMX scratchpad: number of independently arbitrated banks (16).
    pub cmx_banks: usize,
    /// Bytes per CMX bank (128 KB; 16 × 128 KB = 2 MB total).
    pub cmx_bank_bytes: u64,
    /// CMX port width in bytes per cycle per bank (64-bit words).
    pub cmx_bytes_per_cycle: u64,
    /// LPDDR3 effective bandwidth, bytes/s. **Calibrated** from the
    /// 4 GB LPDDR3-933 x32 stack at ~60 % efficiency.
    pub ddr_bandwidth: f64,
    /// First-access DDR latency, ns.
    pub ddr_latency_ns: u64,
    /// LPDDR3 capacity in bytes (4 GB on the NCS variant).
    pub ddr_capacity: u64,
    /// Per-layer dispatch overhead on the LEON RISC runtime scheduler, ns.
    pub risc_dispatch_ns: u64,
    /// SIPP filter pipeline: pixels retired per cycle when a layer is
    /// eligible for hardware filtering.
    pub sipp_pixels_per_cycle: f64,
    /// Whether pooling/LRN layers may use the SIPP pipeline.
    pub sipp_enabled: bool,
    /// Pipelined weight DMA: issue every layer's weight stream ahead in
    /// layer order, bounded only by the DDR channel (idealized deep CMX
    /// staging). Off by default — NCSDK v1.12 streamed weights at layer
    /// dispatch, and the calibration anchors assume that. Ablation-only.
    pub weight_prefetch: bool,
}

impl Myriad2Config {
    /// A config whose every timing source runs `f`× as long (`0.5` = a
    /// chip twice as fast): rate-shaped fields divided by `f`, fixed
    /// latencies multiplied. Used by the causal profiler's what-if exec
    /// scaling; every internal unit clock (SHAVE, CMX, DDR, SIPP, LEON
    /// dispatch) stays mutually consistent because they all derive from
    /// these four fields. `1.0` returns the config unchanged,
    /// byte-identically.
    pub fn time_scaled(&self, f: f64) -> Myriad2Config {
        assert!(f > 0.0, "time scale must be positive");
        if f == 1.0 {
            return self.clone();
        }
        Myriad2Config {
            clock_hz: self.clock_hz / f,
            ddr_bandwidth: self.ddr_bandwidth / f,
            ddr_latency_ns: (self.ddr_latency_ns as f64 * f).round() as u64,
            risc_dispatch_ns: (self.risc_dispatch_ns as f64 * f).round() as u64,
            ..self.clone()
        }
    }
}

impl Default for Myriad2Config {
    fn default() -> Self {
        Myriad2Config {
            shaves: 12,
            clock_hz: 600e6,
            vau_lanes: 8,
            issue_efficiency: 0.2955,
            scalar_ops_per_cycle: 4.0,
            cmx_banks: 16,
            cmx_bank_bytes: 128 * 1024,
            cmx_bytes_per_cycle: 8,
            ddr_bandwidth: 4.0e9,
            ddr_latency_ns: 120,
            ddr_capacity: 4 << 30,
            risc_dispatch_ns: 25_000,
            sipp_pixels_per_cycle: 1.0,
            sipp_enabled: true,
            weight_prefetch: false,
        }
    }
}

impl Myriad2Config {
    /// Total CMX capacity in bytes (2 MB).
    pub fn cmx_bytes(&self) -> u64 {
        self.cmx_banks as u64 * self.cmx_bank_bytes
    }

    /// A config with a different SHAVE count (ablation A3).
    pub fn with_shaves(mut self, shaves: usize) -> Self {
        assert!((1..=12).contains(&shaves), "MA2450 has 1..=12 SHAVEs");
        self.shaves = shaves;
        self
    }

    /// A config with the SIPP pipeline disabled (ablation).
    pub fn without_sipp(mut self) -> Self {
        self.sipp_enabled = false;
        self
    }

    /// A config with double-buffered weight DMA enabled (ablation).
    pub fn with_prefetch(mut self) -> Self {
        self.weight_prefetch = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_architecture() {
        let c = Myriad2Config::default();
        assert_eq!(c.shaves, 12);
        assert_eq!(c.clock_hz, 600e6);
        assert_eq!(c.cmx_banks, 16);
        assert_eq!(c.cmx_bytes(), 2 * 1024 * 1024);
        assert_eq!(c.ddr_capacity, 4 << 30);
        assert_eq!(c.vau_lanes, 8);
    }

    #[test]
    fn shave_ablation_bounds() {
        let c = Myriad2Config::default().with_shaves(4);
        assert_eq!(c.shaves, 4);
    }

    #[test]
    #[should_panic(expected = "1..=12")]
    fn rejects_excess_shaves() {
        Myriad2Config::default().with_shaves(13);
    }

    #[test]
    fn sipp_toggle() {
        assert!(Myriad2Config::default().sipp_enabled);
        assert!(!Myriad2Config::default().without_sipp().sipp_enabled);
    }
}
