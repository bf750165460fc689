//! NCSw — the Neural Compute Stick Wrapper.
//!
//! This crate is the paper's primary software contribution (§III): a
//! small inference framework over pluggable *sources* and *targets*,
//! mirroring the class diagram of Fig. 3:
//!
//! ```text
//! Application ── SourceImage ──┬─ ImageFolder
//!              │               └─ MpiStream
//!              └─ ServiceHook ─┬─ HostTarget (HostConfig preset: Caffe-MKL
//!                              │              CPU, Caffe-cuDNN GPU, V100, KNL)
//!                              └─ IntelVpu   (NCAPI, multi-stick)
//! ```
//!
//! The multi-VPU target implements the paper's Fig. 4 execution pipeline:
//! one (virtual) host thread per stick, round-robin image assignment,
//! FIFO-depth-2 pipelining, and result collection in queueing order —
//! overlapping USB transfers with on-device execution across sticks.
//!
//! The two measurements stay apart, as in the paper. Throughput and
//! energy come from the discrete-event simulation (virtual time): a
//! target reads only the cost profiles of its [`ModelBundle`] and does no
//! arithmetic. Classification outputs come from real arithmetic on the
//! bundle's compiled networks — f32 for the host targets, software
//! binary16 for the VPU — through [`runner::predictions_fp32`] and
//! [`runner::predictions_fp16`]. The [`runner`] module glues both into
//! the experiment-shaped reports the figures use.

/// `print!` for report text: it goes through [`write_stdout`], the one
/// writer of CLI output, which ends the process quietly on a closed pipe
/// where std's `print!` panics. The `ncsw` and `repro` binaries import
/// it (`vpu-bench` with `#[macro_use]`), shadowing std's.
#[macro_export]
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`], as [`print!`].
#[macro_export]
macro_rules! println {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write report text to stdout. A reader that closed the pipe early
/// (`ncsw ... | head -1`) ends the process quietly with status 0; any
/// other write error prints one `error:` line and exits with status 1.
pub fn write_stdout(text: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(text) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: cannot write to stdout: {e}");
        std::process::exit(1);
    }
}

pub mod metrics;
pub mod model;
pub mod multivpu;
pub mod runner;
pub mod service;
pub mod source;
pub mod target;

pub use metrics::{AccuracyReport, ConfidenceDiffReport, ThroughputReport};
pub use model::ModelBundle;
pub use multivpu::MultiVpu;
pub use service::{BatchRun, FailureKind, ScaleComponent, ScalePlan, ServeError, ServiceHook};
// Device-config crate, re-exported so downstream layers (e.g. fleet
// builders threading a `ScalePlan`) can name host configs without a
// direct dependency edge.
pub use hostsim;
pub use hostsim::HostConfig;
pub use source::{ImageFolder, MpiStream, SourceImage};
pub use target::{HostTarget, IntelVpu, MAX_STICKS};
