//! Experiment harness: regenerates every figure of the paper's
//! evaluation (§IV–§V), plus the anchor scalars quoted in the text, the
//! Fig. 4 execution timeline, and three ablations of design choices the
//! simulator exposes.
//!
//! Each experiment is a pure function of a [`Scale`] returning a
//! serializable result with a `print()` that emits the same rows/series
//! the paper reports, next to the paper's own numbers. The CLI binary
//! (`repro`) maps one sub-command to each experiment; EXPERIMENTS.md
//! records the paper-vs-measured comparison.

// Report text goes through `ncsw::write_stdout` (ncsw's `print!` and
// `println!` shadow std's in every module of this crate).
#[macro_use]
extern crate ncsw;

pub mod ab_bench;
pub mod ablations;
pub mod anchors;
pub mod autoscale_bench;
pub mod chaos_bench;
pub mod csv;
pub mod energy_bench;
pub mod fault_bench;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod future_work;
pub mod gray_bench;
pub mod layers;
pub mod mdk_gemm;
pub mod power_bench;
pub mod report;
pub mod sample_bench;
pub mod scale;
pub mod serve_bench;
pub mod sim_bench;
pub mod stream_bench;
pub mod timeline;
pub mod trace_check;
pub mod whatif_bench;
pub mod zoo_bench;

pub use scale::Scale;
