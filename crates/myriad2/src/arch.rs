//! Architectural parameters of the Myriad 2 (MA2450 variant, as shipped
//! in the Neural Compute Stick).
//!
//! Sources: the paper's §II, Moloney et al. (Hot Chips 2014) and Barry et
//! al. (IEEE Micro 2015). Where a parameter is not publicly specified the
//! default is chosen so the calibration anchor (100.7 ms per GoogLeNet
//! inference) holds; such values are marked "calibrated".

use serde::{Deserialize, Serialize};

/// The settable part of one Myriad 2 chip: the SHAVE count (ablation
/// A3), weight prefetch (ablation A5), and the four timing sources that
/// [`Myriad2Config::time_scaled`] scales. Every other parameter of the
/// MA2450 is a constant next to the unit that reads it (`shave`, `cmx`,
/// `ddr`, `sipp`, `power`, `thermal`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Myriad2Config {
    /// Number of SHAVE vector processors (12 on MA2450).
    pub shaves: usize,
    /// Nominal clock, Hz (600 MHz).
    pub clock_hz: f64,
    /// LPDDR3 effective bandwidth, bytes/s. **Calibrated** from the
    /// 4 GB LPDDR3-933 x32 stack at ~60 % efficiency.
    pub ddr_bandwidth: f64,
    /// First-access DDR latency, ns.
    pub ddr_latency_ns: u64,
    /// Per-layer dispatch overhead on the LEON RISC runtime scheduler, ns.
    pub risc_dispatch_ns: u64,
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

    /// A config with a different SHAVE count (ablation A3).
    pub fn with_shaves(mut self, shaves: usize) -> Self {
        assert!((1..=12).contains(&shaves), "MA2450 has 1..=12 SHAVEs");
        self.shaves = shaves;
        self
    }

    /// A config with double-buffered weight DMA enabled (ablation).
    pub fn with_prefetch(mut self) -> Self {
        self.weight_prefetch = true;
        self
    }
}

impl Default for Myriad2Config {
    fn default() -> Self {
        Myriad2Config {
            shaves: 12,
            clock_hz: 600e6,
            ddr_bandwidth: 4.0e9,
            ddr_latency_ns: 120,
            risc_dispatch_ns: 25_000,
            weight_prefetch: false,
        }
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
        assert_eq!(crate::ddr::DDR_CAPACITY, 4 << 30);
        assert_eq!(crate::shave::VAU_LANES, 8);
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
}
