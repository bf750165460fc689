//! Host-side offload context: the MDK analogue of the NCSw target API.

use crate::gemm::{gemm_numerics, gemm_on_chip, GemmPrecision, GemmRun};
use desim::SimTime;
use myriad2::{Myriad2, Myriad2Config};

/// A general-purpose offload session on one chip.
///
/// ```
/// use mdk::MdkContext;
/// use myriad2::Myriad2Config;
/// let mut ctx = MdkContext::new(Myriad2Config::default());
/// let run = ctx.hgemm(512, 512, 512);
/// assert!(run.gflops > 40.0);            // tens of Gflop/s at ~0.7 W
/// assert!(run.gflops_per_watt > 40.0);   // vs ~3 for the Xeon
/// ```
///
/// The future-work vision of the paper (§VII): "scientific applications
/// could then use the VPU chips to offload certain operations that
/// involve tensor computation". This context plays the role the NCAPI
/// graph handle plays for inference: own the chip, queue kernels, report
/// achieved Gflops and Gflops/W.
pub struct MdkContext {
    chip: Myriad2,
}

impl MdkContext {
    pub fn new(cfg: Myriad2Config) -> Self {
        MdkContext { chip: Myriad2::new(cfg) }
    }

    /// Offload a single-precision GEMM (timing/energy simulation).
    pub fn sgemm(&mut self, m: usize, k: usize, n: usize) -> GemmRun {
        gemm_on_chip(&mut self.chip, m, k, n, GemmPrecision::Fp32, SimTime::ZERO)
    }

    /// Offload a half-precision GEMM (timing/energy simulation).
    pub fn hgemm(&mut self, m: usize, k: usize, n: usize) -> GemmRun {
        gemm_on_chip(&mut self.chip, m, k, n, GemmPrecision::Fp16, SimTime::ZERO)
    }

    /// Offload a GEMM *and* compute its numerics at the device precision;
    /// returns `(run, C)` with `C` widened to f32. Use for validation and
    /// for applications that consume the results.
    pub fn gemm_with_numerics(
        &mut self,
        m: usize,
        k: usize,
        n: usize,
        a: &[f32],
        b: &[f32],
        precision: GemmPrecision,
    ) -> (GemmRun, Vec<f32>) {
        assert_eq!(a.len(), m * k, "A dims");
        assert_eq!(b.len(), k * n, "B dims");
        let run = gemm_on_chip(&mut self.chip, m, k, n, precision, SimTime::ZERO);
        let c = gemm_numerics(m, k, n, a, b, precision);
        (run, c)
    }

    /// Gflops/W of a host CPU doing the same GEMM at its sustained rate
    /// (for the comparison tables): MKL-class efficiency on the paper's
    /// Xeon against its 80 W TDP.
    pub fn cpu_reference_gflops_per_watt() -> f64 {
        let cfg = hostsim::HostConfig::xeon_e5();
        let sustained = cfg.peak_macs_per_sec * 0.75 * 2.0 / 1e9; // GEMM sustains more than conv
        sustained / cfg.tdp_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_queues_kernels_serially() {
        let mut ctx = MdkContext::new(Myriad2Config::default());
        let a = ctx.hgemm(512, 512, 512);
        let b = ctx.hgemm(512, 512, 512);
        assert_eq!(a.duration, b.duration, "identical work, identical time");
    }

    #[test]
    fn numerics_match_direct_path() {
        use rand::Rng;
        let mut rng = vpu_num::rng::seeded(9);
        let (m, k, n) = (8, 8, 8);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut ctx = MdkContext::new(Myriad2Config::default());
        let (_, c) = ctx.gemm_with_numerics(m, k, n, &a, &b, GemmPrecision::Fp32);
        let direct = gemm_numerics(m, k, n, &a, &b, GemmPrecision::Fp32);
        assert_eq!(c, direct);
    }

    #[test]
    fn vpu_wins_the_per_watt_comparison_decisively() {
        let mut ctx = MdkContext::new(Myriad2Config::default());
        let vpu = ctx.sgemm(1024, 1024, 1024);
        let cpu = MdkContext::cpu_reference_gflops_per_watt();
        // The whole premise of the paper: 1 W class chip vs 80 W hosts.
        assert!(
            vpu.gflops_per_watt > 10.0 * cpu,
            "vpu {} vs cpu {} Gflop/s/W",
            vpu.gflops_per_watt,
            cpu
        );
    }

    #[test]
    #[should_panic(expected = "A dims")]
    fn dimension_mismatch_rejected() {
        let mut ctx = MdkContext::new(Myriad2Config::default());
        ctx.gemm_with_numerics(4, 4, 4, &[0.0; 3], &[0.0; 16], GemmPrecision::Fp32);
    }
}
