//! Connection Matrix (CMX) scratchpad model.
//!
//! 2 MB of multi-ported SRAM in 16 independently arbitrated banks of
//! 128 KB (each four 32 KB RAM instances of 4096 × 64-bit words). SHAVEs
//! and SIPP filters reach the banks through a crossbar; requests to
//! *different* banks proceed in parallel, requests to the *same* bank
//! serialize — which is exactly what the bank-conflict model below
//! charges.

use crate::arch::Myriad2Config;
use desim::{Duration, FifoResource, SimTime};

/// Independently arbitrated CMX banks (16).
pub const CMX_BANKS: usize = 16;

/// Bytes per CMX bank (128 KB).
pub const CMX_BANK_BYTES: u64 = 128 * 1024;

/// Total CMX capacity: 16 × 128 KB = 2 MB.
pub const CMX_BYTES: u64 = CMX_BANKS as u64 * CMX_BANK_BYTES;

/// CMX port width in bytes per cycle per bank (64-bit words).
pub const CMX_BYTES_PER_CYCLE: u64 = 8;

/// The banked scratchpad: per-bank timing.
#[derive(Debug, Clone)]
pub struct Cmx {
    pub(crate) banks: Vec<FifoResource>,
    clock_hz: f64,
}

impl Cmx {
    pub fn new(cfg: &Myriad2Config) -> Self {
        Cmx {
            banks: (0..CMX_BANKS).map(|i| FifoResource::new(format!("cmx{i}"))).collect(),
            clock_hz: cfg.clock_hz,
        }
    }

    /// Which bank a byte address falls in (byte-interleaved by 128 KB
    /// blocks, matching the 16 × 128 KB organization).
    pub fn bank_of(&self, addr: u64) -> usize {
        ((addr / CMX_BANK_BYTES) as usize) % CMX_BANKS
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
            let in_bank = (CMX_BANK_BYTES - cursor % CMX_BANK_BYTES).min(remaining);
            let cycles = in_bank.div_ceil(CMX_BYTES_PER_CYCLE);
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
        assert_eq!(CMX_BYTES, 2 * 1024 * 1024);
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
