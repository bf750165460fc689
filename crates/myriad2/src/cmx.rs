//! Connection Matrix (CMX) scratchpad model.
//!
//! 2 MB of multi-ported SRAM in 16 independently arbitrated banks of
//! 128 KB (each four 32 KB RAM instances of 4096 × 64-bit words). SHAVEs
//! and SIPP filters reach the banks through a crossbar; requests to
//! *different* banks proceed in parallel, requests to the *same* bank
//! serialize — which is exactly what the bank-conflict model below
//! charges. The software-controlled allocator mirrors the MDK convention
//! of giving each SHAVE a 128 KB slice.

use crate::arch::Myriad2Config;
use desim::{Duration, FifoResource, SimTime};
use serde::{Deserialize, Serialize};

/// A CMX allocation (software-managed; no hardware protection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CmxSlice {
    pub offset: u64,
    pub len: u64,
}

/// Allocation failure: the working set exceeds the 2 MB scratchpad and
/// the layer must stream through DDR instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CmxFull {
    pub requested: u64,
    pub free: u64,
}

/// The banked scratchpad: bump allocator + per-bank timing.
#[derive(Debug, Clone)]
pub struct Cmx {
    bank_bytes: u64,
    pub(crate) banks: Vec<FifoResource>,
    bytes_per_cycle: u64,
    clock_hz: f64,
    next_free: u64,
}

impl Cmx {
    pub fn new(cfg: &Myriad2Config) -> Self {
        Cmx {
            bank_bytes: cfg.cmx_bank_bytes,
            banks: (0..cfg.cmx_banks).map(|i| FifoResource::new(format!("cmx{i}"))).collect(),
            bytes_per_cycle: cfg.cmx_bytes_per_cycle,
            clock_hz: cfg.clock_hz,
            next_free: 0,
        }
    }

    pub fn capacity(&self) -> u64 {
        self.bank_bytes * self.banks.len() as u64
    }

    pub fn free_bytes(&self) -> u64 {
        self.capacity() - self.next_free
    }

    /// Bump-allocate a slice (layer working buffers). The NCSDK runtime
    /// resets the arena between layers; callers use [`Cmx::reset`].
    pub fn alloc(&mut self, len: u64) -> Result<CmxSlice, CmxFull> {
        if len > self.free_bytes() {
            return Err(CmxFull { requested: len, free: self.free_bytes() });
        }
        let slice = CmxSlice { offset: self.next_free, len };
        self.next_free += len;
        Ok(slice)
    }

    /// Release the whole arena (between layers).
    pub fn reset(&mut self) {
        self.next_free = 0;
    }

    /// Which bank a byte address falls in (byte-interleaved by 128 KB
    /// blocks, matching the 16 × 128 KB organization).
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.bank_bytes) as usize) % self.banks.len()
    }

    /// Move `len` bytes starting at `addr` through the crossbar: the
    /// transfer is striped across the banks it touches, each bank doing
    /// its share at the port width, all in parallel (different banks) but
    /// queued behind earlier traffic to the same bank.
    pub fn access(&mut self, ready: SimTime, addr: u64, len: u64) -> desim::resource::Busy {
        if len == 0 {
            return desim::resource::Busy { start: ready, end: ready };
        }
        let mut remaining = len;
        let mut cursor = addr;
        let mut start = SimTime(u64::MAX);
        let mut end = SimTime::ZERO;
        while remaining > 0 {
            let bank = self.bank_of(cursor);
            let in_bank = (self.bank_bytes - cursor % self.bank_bytes).min(remaining);
            let cycles = in_bank.div_ceil(self.bytes_per_cycle);
            let busy = self.banks[bank].acquire(ready, Duration::for_cycles(cycles, self.clock_hz));
            start = start.min(busy.start);
            end = SimTime::max_of(end, busy.end);
            cursor += in_bank;
            remaining -= in_bank;
        }
        desim::resource::Busy { start, end }
    }

    /// Aggregate busy time over all banks.
    pub fn busy_total(&self) -> Duration {
        self.banks.iter().map(|b| b.busy_total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmx() -> Cmx {
        Cmx::new(&Myriad2Config::default())
    }

    #[test]
    fn capacity_is_2mb() {
        assert_eq!(cmx().capacity(), 2 * 1024 * 1024);
    }

    #[test]
    fn alloc_and_reset() {
        let mut c = cmx();
        let a = c.alloc(100_000).unwrap();
        assert_eq!(a.offset, 0);
        let b = c.alloc(100_000).unwrap();
        assert_eq!(b.offset, 100_000);
        assert_eq!(c.free_bytes(), c.capacity() - 200_000);
        c.reset();
        assert_eq!(c.free_bytes(), c.capacity());
    }

    #[test]
    fn alloc_overflow_reports_free_space() {
        let mut c = cmx();
        c.alloc(2 * 1024 * 1024 - 10).unwrap();
        let err = c.alloc(100).unwrap_err();
        assert_eq!(err.requested, 100);
        assert_eq!(err.free, 10);
    }

    #[test]
    fn bank_mapping() {
        let c = cmx();
        assert_eq!(c.bank_of(0), 0);
        assert_eq!(c.bank_of(128 * 1024), 1);
        assert_eq!(c.bank_of(15 * 128 * 1024), 15);
        // Wraps past 2 MB.
        assert_eq!(c.bank_of(16 * 128 * 1024), 0);
    }

    #[test]
    fn same_bank_accesses_serialize() {
        let mut c = cmx();
        let a = c.access(SimTime(0), 0, 8_000);
        let b = c.access(SimTime(0), 0, 8_000);
        assert!(b.start >= a.end, "same-bank access must queue");
    }

    #[test]
    fn different_banks_run_in_parallel() {
        let mut c = cmx();
        let a = c.access(SimTime(0), 0, 8_000);
        let b = c.access(SimTime(0), 128 * 1024, 8_000);
        assert_eq!(a.start, b.start, "different banks should not conflict");
        assert_eq!(a.end, b.end);
    }

    #[test]
    fn striped_access_spans_banks() {
        let mut c = cmx();
        // 256 KB starting at bank boundary touches banks 0 and 1 in
        // parallel: wall time equals one bank's share.
        let whole = c.access(SimTime(0), 0, 256 * 1024);
        let mut c2 = cmx();
        let single = c2.access(SimTime(0), 0, 128 * 1024);
        assert_eq!(whole.end, single.end);
    }

    #[test]
    fn zero_length_access_is_instant() {
        let mut c = cmx();
        let b = c.access(SimTime(42), 0, 0);
        assert_eq!(b.start, b.end);
        assert_eq!(b.start, SimTime(42));
    }

    #[test]
    fn port_width_sets_throughput() {
        let mut c = cmx();
        // 8 bytes/cycle at 600 MHz: 8000 bytes = 1000 cycles = 1667 ns.
        let b = c.access(SimTime(0), 0, 8_000);
        let expect = Duration::for_cycles(1_000, 600e6);
        assert_eq!(b.end - b.start, expect);
    }
}
