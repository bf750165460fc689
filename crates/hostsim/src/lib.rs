//! Host reference devices: the CPU and GPU implementations the paper
//! compares the multi-VPU configuration against.
//!
//! The paper's CPU baseline is the Intel-optimized Caffe-MKL fork on a
//! dual-socket Xeon E5-2609v2 (2 × 4 cores @ 2.5 GHz, AVX); the GPU
//! baseline is Caffe-cuDNN on a Quadro K4000 (768 CUDA cores, 3 GB
//! GDDR5). Neither stack is runnable here, so each device is an
//! **analytic batch-timing model** over a `vpu_nn` cost profile, with
//! mechanistic parameters (core/SM counts, SIMD widths,
//! sustained-efficiency factors, fixed per-batch framework overhead)
//! calibrated to the paper's anchor latencies — 26.0 ms (CPU) and
//! 25.9 ms (GPU) at batch 1.
//!
//! The devices only time; they do no arithmetic. MKL and cuDNN both
//! compute in IEEE f32, so the accuracy experiments run the f32 forward
//! of `vpu_nn` directly (`ncsw::runner`).
//!
//! Batch-scaling *shape* then emerges: the CPU is already fully parallel
//! at batch 1 so batching only amortizes framework overhead (paper: 1.1×
//! at batch 8); the GPU amortizes its large per-batch launch/occupancy
//! cost (paper: 1.9×).

pub mod accel;
pub mod cpu;
pub mod gpu;
pub mod power;

pub use cpu::{CpuConfig, CpuDevice};
pub use gpu::{GpuConfig, GpuDevice};
pub use power::{throughput_per_watt, Tdp};

use desim::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// Timing record for one batched inference call on a host device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostRun {
    pub start: SimTime,
    pub end: SimTime,
    pub batch: usize,
}

impl HostRun {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}
