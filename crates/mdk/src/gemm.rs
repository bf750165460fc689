//! LAMA-style GEMM on the chip: timing model + real-numerics validation.

use crate::tiling::TilingPlan;
use desim::{Duration, SimTime};
use myriad2::exec::KernelWork;
use myriad2::Myriad2;
use serde::{Deserialize, Serialize};
use vpu_num::f16;
use vpu_tensor::kernels::gemm as host_gemm;
use vpu_tensor::AccumMode;

/// Arithmetic precision of the offloaded GEMM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GemmPrecision {
    /// Native binary16: 8 VAU lanes.
    Fp16,
    /// IEEE binary32: 4 VAU lanes (128-bit VAU).
    Fp32,
}

impl GemmPrecision {
    pub fn elem_bytes(self) -> usize {
        match self {
            GemmPrecision::Fp16 => 2,
            GemmPrecision::Fp32 => 4,
        }
    }

    pub fn vau_lanes(self) -> usize {
        match self {
            GemmPrecision::Fp16 => 8,
            GemmPrecision::Fp32 => 4,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            GemmPrecision::Fp16 => "fp16",
            GemmPrecision::Fp32 => "fp32",
        }
    }
}

/// Sustained VAU issue efficiency of the hand-tuned GEMM inner loop.
/// Hand-scheduled VLIW GEMM sustains far more of peak than the general
/// NCSDK convolution kernels (Ionica & Gregg report >50 % on Myriad 1).
pub const GEMM_ISSUE_EFFICIENCY: f64 = 0.55;

/// Measured result of one offloaded GEMM.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmRun {
    pub precision: GemmPrecision,
    pub plan: TilingPlan,
    pub duration: Duration,
    pub energy_j: f64,
    /// Achieved Gflop/s (2 flops per MAC, the BLAS convention).
    pub gflops: f64,
    /// Gflop/s per Watt of measured chip power (Ionica & Gregg's metric).
    pub gflops_per_watt: f64,
}

/// Build the chip work description for a planned GEMM.
pub fn kernel_for(plan: &TilingPlan, precision: GemmPrecision) -> KernelWork {
    KernelWork {
        name: format!(
            "{}gemm-{}x{}x{} (tile {})",
            if precision == GemmPrecision::Fp16 { "h" } else { "s" },
            plan.m,
            plan.k,
            plan.n,
            plan.tile
        ),
        macs: plan.macs(),
        // Loop bookkeeping: one IAU op per inner-product strip element.
        aux_ops: plan.macs() / plan.tile_k.max(1) as u64,
        cmx_bytes: plan.cmx_bytes(),
        ddr_bytes: plan.ddr_bytes(),
        vau_lanes: Some(precision.vau_lanes()),
        issue_efficiency: Some(GEMM_ISSUE_EFFICIENCY),
    }
}

/// Offload one `m×k×n` GEMM to `chip`, starting no earlier than `ready`.
pub fn gemm_on_chip(
    chip: &mut Myriad2,
    m: usize,
    k: usize,
    n: usize,
    precision: GemmPrecision,
    ready: SimTime,
) -> GemmRun {
    let slice = (myriad2::cmx::CMX_BYTES / chip.config().shaves as u64) as usize;
    let plan = TilingPlan::plan(m, k, n, precision.elem_bytes(), slice);
    let work = kernel_for(&plan, precision);
    let run = chip.run_kernels(&[work], ready);
    let secs = run.duration().as_secs();
    let gflops = 2.0 * plan.macs() as f64 / secs / 1e9;
    let avg_w = chip.power_model().avg_power(&run.activity);
    GemmRun {
        precision,
        plan,
        duration: run.duration(),
        energy_j: run.energy_j,
        gflops,
        gflops_per_watt: gflops / avg_w.max(1e-9),
    }
}

/// Execute the GEMM numerics for real at the offload precision and
/// return the result widened to f32 (validation path for small sizes).
pub fn gemm_numerics(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    precision: GemmPrecision,
) -> Vec<f32> {
    match precision {
        GemmPrecision::Fp32 => {
            let mut c = vec![0.0f32; m * n];
            host_gemm::gemm(m, k, n, a, b, &mut c, AccumMode::Widened);
            c
        }
        GemmPrecision::Fp16 => {
            let ah: Vec<f16> = a.iter().map(|&x| f16::from_f32(x)).collect();
            let bh: Vec<f16> = b.iter().map(|&x| f16::from_f32(x)).collect();
            let mut ch = vec![f16::ZERO; m * n];
            host_gemm::gemm(m, k, n, &ah, &bh, &mut ch, AccumMode::Native);
            ch.iter().map(|h| h.to_f32()).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use myriad2::Myriad2Config;

    fn chip() -> Myriad2 {
        Myriad2::new(Myriad2Config::default())
    }

    #[test]
    fn fp16_gemm_reaches_tens_of_gflops() {
        let mut c = chip();
        let r = gemm_on_chip(&mut c, 1024, 1024, 1024, GemmPrecision::Fp16, SimTime::ZERO);
        // 12 SHAVEs x 8 lanes x 600 MHz x 0.55 ≈ 63 Gflop/s ceiling (x2 fl/MAC).
        assert!((40.0..70.0).contains(&r.gflops), "fp16 {} Gflop/s", r.gflops);
        assert!(r.gflops_per_watt > 40.0, "{} Gflop/s/W", r.gflops_per_watt);
    }

    #[test]
    fn fp32_runs_at_half_the_lanes() {
        let mut c = chip();
        let h = gemm_on_chip(&mut c, 1024, 1024, 1024, GemmPrecision::Fp16, SimTime::ZERO);
        let s = gemm_on_chip(&mut c, 1024, 1024, 1024, GemmPrecision::Fp32, SimTime::ZERO);
        let ratio = h.gflops / s.gflops;
        assert!((1.6..2.4).contains(&ratio), "fp16/fp32 ratio {ratio}");
    }

    #[test]
    fn small_gemm_dominated_by_overheads() {
        let mut c = chip();
        let small = gemm_on_chip(&mut c, 64, 64, 64, GemmPrecision::Fp16, SimTime::ZERO);
        let big = gemm_on_chip(&mut c, 1024, 1024, 1024, GemmPrecision::Fp16, SimTime::ZERO);
        assert!(small.gflops < big.gflops / 2.0, "small {} vs big {}", small.gflops, big.gflops);
    }

    #[test]
    fn energy_scales_with_problem_size() {
        let mut c = chip();
        let a = gemm_on_chip(&mut c, 256, 256, 256, GemmPrecision::Fp16, SimTime::ZERO);
        let b = gemm_on_chip(&mut c, 512, 512, 512, GemmPrecision::Fp16, SimTime::ZERO);
        assert!(b.energy_j > 4.0 * a.energy_j, "8x work must cost >4x energy");
    }

    #[test]
    fn numerics_fp16_vs_fp32_bounded() {
        use rand::Rng;
        let (m, k, n) = (16, 32, 16);
        let mut rng = vpu_num::rng::seeded(4);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let c32 = gemm_numerics(m, k, n, &a, &b, GemmPrecision::Fp32);
        let c16 = gemm_numerics(m, k, n, &a, &b, GemmPrecision::Fp16);
        let mut max_err = 0.0f32;
        for (x, y) in c32.iter().zip(&c16) {
            max_err = max_err.max((x - y).abs());
        }
        assert!(max_err > 0.0, "fp16 must differ");
        assert!(max_err < 0.05, "fp16 error {max_err}");
    }

    #[test]
    fn kernel_description_is_complete() {
        let plan = TilingPlan::plan(512, 512, 512, 2, 128 * 1024);
        let w = kernel_for(&plan, GemmPrecision::Fp16);
        assert_eq!(w.macs, 512u64.pow(3));
        assert_eq!(w.vau_lanes, Some(8));
        assert!(w.ddr_bytes > 0);
        assert!(w.name.contains("hgemm"));
    }
}
