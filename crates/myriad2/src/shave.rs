//! SHAVE VLIW vector processor issue model.
//!
//! Each SHAVE issues Variable-Length Long Instruction Word packets that
//! can drive its functional units in parallel (paper Fig. 1): the 128-bit
//! VAU performs 8 FP16 MACs per cycle, while the SAU/IAU/CMU handle
//! scalar, integer and compare/move work, and the two 64-bit LSUs feed
//! data from CMX. The issue model converts a layer's operation counts
//! into SHAVE cycles.

use serde::{Deserialize, Serialize};

/// FP16 lanes per VAU issue (128-bit VAU = 8 × binary16).
pub const VAU_LANES: usize = 8;

/// Fraction of peak VAU issue slots a compiled NCSDK conv kernel
/// sustains. **Calibrated** so full-GoogLeNet inference ≈ 100.7 ms on
/// the NCS.
pub const ISSUE_EFFICIENCY: f64 = 0.2955;

/// Scalar ops retired per cycle per SHAVE for non-MAC work (SAU + IAU +
/// CMU working together on pooling/activation code).
pub const SCALAR_OPS_PER_CYCLE: f64 = 4.0;

/// Functional units of one SHAVE (used for profiling attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FunctionalUnit {
    /// 128-bit Vector Arithmetic Unit.
    Vau,
    /// 32-bit Scalar Arithmetic Unit.
    Sau,
    /// 32-bit Integer Arithmetic Unit.
    Iau,
    /// 128-bit Compare-and-Move Unit.
    Cmu,
    /// Load-Store Units (2 × 64-bit).
    Lsu,
    /// Predicate/branch units.
    Bru,
}

/// Cycle estimate for a block of work on the SHAVE cluster, before
/// splitting across processors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkCycles {
    /// Cycles spent on VAU MAC issue.
    pub vau: u64,
    /// Cycles spent on scalar/compare work (pool, ReLU, LRN).
    pub scalar: u64,
    /// Cycles the LSUs need to stream operands from CMX.
    pub lsu: u64,
}

impl WorkCycles {
    /// Total cycles assuming VLIW overlap: the VAU stream dominates when
    /// compute-bound, the LSU stream when load-bound; scalar work rides
    /// in otherwise-empty slots up to half its volume.
    pub fn total(&self) -> u64 {
        let dominant = self.vau.max(self.lsu);
        dominant.max(self.scalar) + self.scalar.min(dominant) / 2
    }
}

/// Convert a MAC count into cluster-wide VAU cycles at `lanes` MACs
/// per issue.
///
/// `macs / lanes` is the ideal issue count; dividing by the sustained
/// issue `efficiency` accounts for software pipelining gaps, edge
/// handling and im2col address arithmetic that real kernels exhibit
/// ([`ISSUE_EFFICIENCY`] for the NCSDK's).
pub fn mac_cycles(macs: u64, lanes: usize, efficiency: f64) -> u64 {
    if macs == 0 {
        return 0;
    }
    let ideal = macs as f64 / lanes as f64;
    (ideal / efficiency).ceil() as u64
}

/// Convert scalar op counts (pooling windows, ReLU clamps, LRN taps)
/// into cycles.
pub fn scalar_cycles(ops: u64) -> u64 {
    if ops == 0 {
        return 0;
    }
    (ops as f64 / SCALAR_OPS_PER_CYCLE).ceil() as u64
}

/// LSU cycles to stream `bytes` through the two 64-bit load/store ports
/// (16 bytes per cycle total).
pub fn lsu_cycles(bytes: u64) -> u64 {
    bytes.div_ceil(16)
}

/// Estimate the cycles one layer occupies on the SHAVE cluster (not yet
/// divided by the number of processors), its MACs issued at `lanes` and
/// `efficiency` (see [`mac_cycles`]).
pub fn layer_cycles(
    macs: u64,
    aux_ops: u64,
    stream_bytes: u64,
    lanes: usize,
    efficiency: f64,
) -> WorkCycles {
    WorkCycles {
        vau: mac_cycles(macs, lanes, efficiency),
        scalar: scalar_cycles(aux_ops),
        lsu: lsu_cycles(stream_bytes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_cycles_scale_with_efficiency() {
        // 8 000 MACs at 8 lanes is 1 000 ideal issues; the calibrated
        // efficiency stretches them to ceil(1000 / 0.2955) = 3385.
        let ideal = mac_cycles(8_000, VAU_LANES, 1.0);
        assert_eq!(ideal, 8_000 / VAU_LANES as u64);
        assert_eq!(ideal, 1_000);
        let real = mac_cycles(8_000, VAU_LANES, ISSUE_EFFICIENCY);
        assert!(real > ideal);
        assert_eq!(real, (1000.0 / ISSUE_EFFICIENCY).ceil() as u64);
        assert_eq!(real, 3385);
    }

    #[test]
    fn zero_work_is_free() {
        assert_eq!(mac_cycles(0, VAU_LANES, ISSUE_EFFICIENCY), 0);
        assert_eq!(scalar_cycles(0), 0);
        assert_eq!(lsu_cycles(0), 0);
        assert_eq!(layer_cycles(0, 0, 0, VAU_LANES, ISSUE_EFFICIENCY).total(), 0);
    }

    #[test]
    fn scalar_cycles_respect_throughput() {
        assert_eq!(scalar_cycles(400), 100);
        assert_eq!(scalar_cycles(401), 101);
    }

    #[test]
    fn lsu_streaming() {
        assert_eq!(lsu_cycles(16), 1);
        assert_eq!(lsu_cycles(17), 2);
        assert_eq!(lsu_cycles(1600), 100);
    }

    #[test]
    fn vliw_overlap_hides_scalar_work() {
        // Compute-dominated: scalar ops partially hide under VAU slots.
        let w = WorkCycles { vau: 1000, scalar: 100, lsu: 50 };
        assert_eq!(w.total(), 1000 + 50);
        // Scalar-only layer pays full freight.
        let s = WorkCycles { vau: 0, scalar: 500, lsu: 10 };
        assert_eq!(s.total(), 500 + 5);
        // Load-bound layer.
        let l = WorkCycles { vau: 100, scalar: 0, lsu: 900 };
        assert_eq!(l.total(), 900);
    }

    #[test]
    fn conv_layer_is_compute_bound() {
        // GoogLeNet conv2/3x3: 864 MMACs-ish region; check VAU dominates.
        let w = layer_cycles(100_000_000, 1_000_000, 2_000_000, VAU_LANES, ISSUE_EFFICIENCY);
        assert!(w.vau > w.lsu);
        assert!(w.vau > w.scalar);
    }
}
