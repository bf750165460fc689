//! The host's vector width, chosen at run time.
//!
//! The hot numeric loops (the GEMM rows in `vpu-tensor` and the
//! Box–Muller transform of image noise in [`crate::rng`]) pick the widest
//! [`Width`] this CPU runs. The first three widths are the same plain
//! Rust compiled once per width with `#[target_feature]`: they differ
//! only in which instructions LLVM may select. Each runs the same IEEE
//! adds and multiplies in the same order for every element (Rust never
//! contracts them into FMA), so every width returns the same bits.
//!
//! [`Width::Avx512Fp16`] is different code: hand-written intrinsics that
//! keep binary16 values in binary16 registers and compute with the
//! CPU's own half-precision `vmulph` and `vaddph`, never a fused
//! multiply-add. Each rounds once to binary16, which is the result the
//! f32 emulation (`f16::round_f32` after an f32 op) gives, so this width
//! returns the same bits too. The exhaustive pair check in `half.rs`
//! holds the two instructions to the reference on all 2^32 operand pairs.
//!
//! The Box–Muller loop in [`crate::rng`] also dispatches on [`Width`],
//! and runs its AVX-512 build at [`Width::Avx512Fp16`].

/// A vector instruction set a kernel can be compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// The compilation target's baseline (SSE2 on x86-64).
    Base,
    /// AVX2: 256-bit integer and float lanes.
    Avx2,
    /// AVX-512 F, BW and VL: 512-bit lanes and mask registers.
    Avx512,
    /// AVX-512 as above plus AVX512-FP16: native binary16 arithmetic,
    /// 32 lanes per register.
    Avx512Fp16,
}

impl Width {
    /// Every width, narrowest first.
    pub const ALL: [Width; 4] = [Width::Base, Width::Avx2, Width::Avx512, Width::Avx512Fp16];

    /// The widest version this CPU runs.
    pub fn detect() -> Width {
        Width::ALL.into_iter().rev().find(|w| w.is_supported()).unwrap_or(Width::Base)
    }

    /// Whether this CPU runs code compiled for `self`. The checks are
    /// cached by `std`, so a call costs an atomic load.
    pub fn is_supported(self) -> bool {
        match self {
            Width::Base => true,
            #[cfg(target_arch = "x86_64")]
            Width::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Width::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vl")
            }
            #[cfg(target_arch = "x86_64")]
            Width::Avx512Fp16 => {
                Width::Avx512.is_supported() && std::arch::is_x86_feature_detected!("avx512fp16")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Lower-case name, as `ncsw info` prints it.
    pub fn name(self) -> &'static str {
        match self {
            Width::Base => "base",
            Width::Avx2 => "avx2",
            Width::Avx512 => "avx512",
            Width::Avx512Fp16 => "avx512fp16",
        }
    }

    /// Every width this CPU runs, narrowest first, for the differential
    /// tests that compare each with [`Width::Base`]. Prints a `note:` on
    /// stderr for each width it lacks, so a skipped version shows.
    pub fn supported() -> Vec<Width> {
        let (yes, no): (Vec<Width>, Vec<Width>) =
            Width::ALL.into_iter().partition(|w| w.is_supported());
        for w in no {
            eprintln!("note: this CPU lacks {}; that version is not checked", w.name());
        }
        yes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_picks_the_widest_supported() {
        let w = Width::detect();
        assert!(w.is_supported());
        assert!(Width::ALL.iter().filter(|&&x| x > w).all(|x| !x.is_supported()));
        assert!(Width::Base.is_supported());
        assert_eq!(Width::supported().last(), Some(&w));
        assert_eq!(rand_chacha::wide_refills(), Width::Avx2.is_supported());
    }
}
