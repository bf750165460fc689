//! NCSw — the Neural Compute Stick Wrapper.
//!
//! This crate is the paper's primary software contribution (§III): a
//! small inference framework over pluggable *sources* and *targets*,
//! mirroring the class diagram of Fig. 3:
//!
//! ```text
//! Application ── SourceImage ──┬─ ImageFolder
//!              │               └─ MpiStream
//!              └─ TargetDevice ─┬─ HostTarget (HostConfig preset: Caffe-MKL
//!                               │              CPU, Caffe-cuDNN GPU, V100, KNL)
//!                               └─ IntelVpu   (NCAPI, multi-stick)
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
pub use target::{HostTarget, IntelVpu, TargetDevice, MAX_STICKS};
