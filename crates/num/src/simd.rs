//! The host's vector width, chosen at run time.
//!
//! The hot numeric loops (the GEMM rows in `vpu-tensor`) are written once
//! in plain Rust and compiled once per [`Width`] with
//! `#[target_feature]`; the caller picks the widest version this CPU runs.
//! The versions differ only in which instructions LLVM may select. Each
//! runs the same IEEE adds and multiplies in the same order for every
//! element (Rust never contracts them into FMA), so every width returns
//! the same bits.

/// A vector instruction set a kernel can be compiled for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// The compilation target's baseline (SSE2 on x86-64).
    Base,
    /// AVX2: 256-bit integer and float lanes.
    Avx2,
    /// AVX-512 F, BW and VL: 512-bit lanes and mask registers.
    Avx512,
}

impl Width {
    /// Every width, narrowest first.
    pub const ALL: [Width; 3] = [Width::Base, Width::Avx2, Width::Avx512];

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
