//! Architectural simulator for the Movidius Myriad 2 VPU (MA2450).
//!
//! Models the chip the paper describes in §II: twelve SHAVE VLIW vector
//! processors ([`shave`]), the 2 MB banked CMX scratchpad ([`cmx`]), the
//! LPDDR3 stacked memory channel ([`ddr`]), the SIPP hardware filter
//! pipeline ([`sipp`]), and the twenty power islands ([`power`]).
//!
//! The [`exec`] module maps network layers onto these resources and is the
//! heart of the timing model: per-layer compute time comes from a VLIW
//! issue model over the layer's multiply-accumulate count, memory time
//! from the DDR/CMX traffic, and the layer takes the maximum of the two
//! (the memory fabric is designed to overlap, §II-A). The chip reads only
//! a `vpu-nn` cost profile and does no arithmetic; the binary16 outputs
//! come from `vpu-nn` directly.
//!
//! Calibration: a single free parameter (the VLIW issue efficiency,
//! [`shave::ISSUE_EFFICIENCY`]) is set so that one full
//! GoogLeNet inference lands at the paper's measured ~100.7 ms (including
//! the NCS platform overheads added by the `ncs-platform` crate). Every
//! other number — batch scaling, multi-VPU scaling, crossovers — emerges
//! from the simulation.

pub mod arch;
pub mod cmx;
pub mod ddr;
pub mod exec;
pub mod power;
pub mod shave;
pub mod sipp;
pub mod thermal;

pub use arch::Myriad2Config;
pub use exec::{LayerTiming, Myriad2, NetworkRun};
