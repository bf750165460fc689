//! Numeric foundations for the VPU co-processor reproduction.
//!
//! The Myriad 2 VPU computes natively in IEEE-754 binary16 ("FP16", the
//! `half` type in the NCSDK headers). No FP16 hardware is assumed on the
//! host, so [`half::f16`] provides a bit-exact software implementation with
//! round-to-nearest-even semantics, including subnormals, infinities and
//! NaN propagation. All VPU-side arithmetic in the simulator goes through
//! this type, which is what makes the FP32-vs-FP16 accuracy experiments
//! (paper Fig. 7) meaningful rather than cosmetic.
//!
//! The crate also hosts the descriptive statistics used for the error bars
//! in every figure ([`stats`]) and the deterministic seeded RNG streams
//! ([`rng`]) that keep every experiment reproducible bit-for-bit, and the
//! run-time choice of the host's vector width ([`simd`]).

pub mod half;
pub mod rng;
pub mod simd;
pub mod stats;

pub use half::f16;
pub use stats::{OnlineStats, Summary};
