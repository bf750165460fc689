//! LPDDR3 stacked-memory channel model.
//!
//! The MA2450 stacks 4 GB of LPDDR3 on package, reached through the
//! 128-bit AXI fabric (paper Fig. 1). The channel is modelled as a serial
//! FIFO resource with a fixed first-word latency plus bandwidth-limited
//! streaming — adequate for layer-granularity simulation where transfers
//! are hundreds of kilobytes.

use crate::arch::Myriad2Config;
use desim::resource::Busy;
use desim::{Duration, FifoResource, SimTime};

/// LPDDR3 capacity in bytes (4 GB on the NCS variant).
pub const DDR_CAPACITY: u64 = 4 << 30;

/// The DDR channel plus a simple footprint accountant.
#[derive(Debug, Clone)]
pub struct DdrChannel {
    pub(crate) chan: FifoResource,
    bandwidth: f64,
    latency: Duration,
    allocated: u64,
}

impl DdrChannel {
    pub fn new(cfg: &Myriad2Config) -> Self {
        DdrChannel {
            chan: FifoResource::new("lpddr3"),
            bandwidth: cfg.ddr_bandwidth,
            latency: Duration::from_nanos(cfg.ddr_latency_ns),
            allocated: 0,
        }
    }

    /// Transfer `bytes` through the channel starting no earlier than
    /// `ready`; returns the busy interval.
    pub fn transfer(&mut self, ready: SimTime, bytes: u64) -> Busy {
        if bytes == 0 {
            return Busy { start: ready, end: ready };
        }
        let service = self.latency + Duration::for_bytes(bytes, self.bandwidth);
        self.chan.acquire(ready, service)
    }

    /// Record a resident allocation (graph file, activation arenas).
    /// Returns false if the 4 GB stack would overflow.
    pub fn reserve(&mut self, bytes: u64) -> bool {
        if self.allocated + bytes > DDR_CAPACITY {
            return false;
        }
        self.allocated += bytes;
        true
    }

    pub fn release(&mut self, bytes: u64) {
        self.allocated = self.allocated.saturating_sub(bytes);
    }

    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    pub fn busy_total(&self) -> Duration {
        self.chan.busy_total()
    }

    pub fn available_at(&self) -> SimTime {
        self.chan.available_at()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddr() -> DdrChannel {
        DdrChannel::new(&Myriad2Config::default())
    }

    #[test]
    fn transfer_time_is_latency_plus_streaming() {
        let mut d = ddr();
        // 4 MB at 4 GB/s = 1 ms, plus 120 ns latency.
        let b = d.transfer(SimTime(0), 4_000_000);
        let expect = Duration::from_nanos(120) + Duration::for_bytes(4_000_000, 4.0e9);
        assert_eq!(b.end - b.start, expect);
    }

    #[test]
    fn transfers_serialize() {
        let mut d = ddr();
        let a = d.transfer(SimTime(0), 1_000_000);
        let b = d.transfer(SimTime(0), 1_000_000);
        assert_eq!(b.start, a.end);
    }

    #[test]
    fn zero_bytes_instant() {
        let mut d = ddr();
        let b = d.transfer(SimTime(9), 0);
        assert_eq!(b.start, b.end);
    }

    #[test]
    fn capacity_accounting() {
        let mut d = ddr();
        assert!(d.reserve(1 << 30));
        assert!(d.reserve(2 << 30));
        assert_eq!(d.allocated(), 3 << 30);
        // Fourth gigabyte fits exactly; a fifth does not.
        assert!(d.reserve(1 << 30));
        assert!(!d.reserve(1));
        d.release(1 << 30);
        assert!(d.reserve(512 << 20));
    }

    #[test]
    fn busy_accumulates() {
        let mut d = ddr();
        d.transfer(SimTime(0), 4_000_000);
        d.transfer(SimTime(0), 4_000_000);
        assert!(d.busy_total() >= Duration::from_millis(2.0));
    }
}
