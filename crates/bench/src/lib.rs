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

/// `print!` for this crate and `repro`: report text goes through
/// [`report::write_stdout`], the one writer of report output, which ends
/// the process quietly on a closed pipe where std's `print!` panics.
/// Defined before the modules so that it shadows std's in all of them.
#[macro_export]
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::report::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`report::write_stdout`], as [`print!`].
#[macro_export]
macro_rules! println {
    () => {
        $crate::report::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::report::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

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
