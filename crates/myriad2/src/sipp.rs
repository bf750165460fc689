//! Streaming Image Processing Pipeline (SIPP) model.
//!
//! The Myriad 2 carries fully programmable hardware-accelerated kernels
//! for common 5×5-neighbourhood image operations (tone mapping, Harris,
//! HoG, denoise, …), each with a local controller that reads/writes CMX
//! through a crossbar and can retire one completed output pixel per cycle
//! (paper §II-A). For CNN inference the NCSDK can route pooling-style
//! sliding-window layers through these filters, freeing SHAVE issue slots
//! — modelled here as a parallel FIFO engine with per-pixel throughput.

use crate::arch::Myriad2Config;
use desim::resource::Busy;
use desim::{Duration, FifoResource, SimTime};

/// Output pixels the filter pipeline retires per cycle (one per cycle per
/// local controller, paper §II-A).
pub const SIPP_PIXELS_PER_CYCLE: f64 = 1.0;

/// The filter pipeline: one streaming engine the window layers share.
#[derive(Debug, Clone)]
pub struct SippPipeline {
    pub(crate) engine: FifoResource,
    clock_hz: f64,
}

impl SippPipeline {
    pub fn new(cfg: &Myriad2Config) -> Self {
        SippPipeline { engine: FifoResource::new("sipp"), clock_hz: cfg.clock_hz }
    }

    /// Can this layer kind be routed to the pipeline? Only local
    /// fixed-window operations qualify; GEMM-lowered convolutions and
    /// fully-connected layers stay on the SHAVEs.
    pub fn eligible(&self, mnemonic: &str) -> bool {
        matches!(mnemonic, "maxpool" | "avgpool" | "lrn")
    }

    /// Stream `pixels` output pixels through the window-reduce filter.
    pub fn run(&mut self, ready: SimTime, pixels: u64) -> Busy {
        if pixels == 0 {
            return Busy { start: ready, end: ready };
        }
        let cycles = (pixels as f64 / SIPP_PIXELS_PER_CYCLE).ceil() as u64;
        self.engine.acquire(ready, Duration::for_cycles(cycles, self.clock_hz))
    }

    pub fn busy_total(&self) -> Duration {
        self.engine.busy_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sipp() -> SippPipeline {
        SippPipeline::new(&Myriad2Config::default())
    }

    #[test]
    fn pixel_throughput() {
        let mut s = sipp();
        // 600k pixels at 1 px/cycle @600 MHz = 1 ms.
        let b = s.run(SimTime(0), 600_000);
        assert_eq!(b.end - b.start, Duration::from_millis(1.0));
    }

    #[test]
    fn runs_share_the_engine() {
        let mut s = sipp();
        let a = s.run(SimTime(0), 1_000);
        let b = s.run(SimTime(0), 1_000);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn eligibility() {
        let s = sipp();
        assert!(s.eligible("maxpool"));
        assert!(s.eligible("avgpool"));
        assert!(s.eligible("lrn"));
        assert!(!s.eligible("conv"));
        assert!(!s.eligible("fc"));
        assert!(!s.eligible("softmax"));
    }

    #[test]
    fn zero_pixels_instant() {
        let mut s = sipp();
        let b = s.run(SimTime(3), 0);
        assert_eq!(b.start, b.end);
    }
}
