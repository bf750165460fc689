//! USB 3.0 topology model.
//!
//! The paper's testbed (Fig. 5) connects 8 NCS devices: 2 on motherboard
//! root ports and 6 through two external USB 3.0 hubs (3 each). Bulk
//! transfers to hub-attached devices pass store-and-forward through the
//! hub's uplink before crossing the root controller, so simultaneous
//! loads to sticks on the same hub serialize twice — the "data
//! transferring" penalty the paper observes in multi-VPU scaling.

use desim::resource::Busy;
use desim::{Duration, FifoResource, SimTime};
use serde::{Deserialize, Serialize};

/// Where a device is plugged in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UsbPort {
    /// Directly on a root (motherboard) port.
    Root,
    /// Behind external hub `hub_index`.
    Hub(usize),
}

/// Effective bulk throughput of the root controller, bytes/s (5 Gb/s
/// signalling lands near 450 MB/s of bulk payload).
pub const ROOT_BANDWIDTH: f64 = 450e6;

/// Effective bulk throughput of a hub uplink, bytes/s.
pub const HUB_BANDWIDTH: f64 = 450e6;

/// Per-transfer protocol/command overhead on the root, ns.
pub const COMMAND_OVERHEAD_NS: u64 = 100_000;

/// Extra per-transfer latency added by a hub hop, ns.
pub const HUB_LATENCY_NS: u64 = 50_000;

/// Driver backoff before retrying a transfer that hit a transient
/// error, ns.
pub const RETRY_PENALTY_NS: u64 = 2_000_000;

/// Seed of the transient-error stream.
pub const FAULT_SEED: u64 = 2012;

/// The settable part of the bus: transient errors (ablation A4) and the
/// what-if scaling of tensor transfers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UsbConfig {
    /// Probability a bulk transfer hits a transient error and the driver
    /// retries it (NCS sticks are known for these under hub contention).
    /// 0 disables fault injection (the default).
    pub error_rate: f64,
    /// What-if scaling of host→device tensor transfers (`0.5` = a bus
    /// twice as fast on writes). Applies to the wire + command time of
    /// scaled transfers only; boot-time firmware/graph uploads always
    /// run at `1.0`. `1.0` is byte-identical to a config without the
    /// knob — the causal profiler's passivity guarantee.
    pub write_scale: f64,
    /// What-if scaling of device→host result transfers.
    pub read_scale: f64,
}

impl Default for UsbConfig {
    fn default() -> Self {
        UsbConfig { error_rate: 0.0, write_scale: 1.0, read_scale: 1.0 }
    }
}

/// One resource occupancy recorded by the bus tap: which leg of the
/// fabric was held (`hub: None` = the root controller) over
/// `start..end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapSpan {
    pub hub: Option<usize>,
    pub start: SimTime,
    pub end: SimTime,
}

/// The host's USB fabric: one root controller, any number of hubs.
#[derive(Debug, Clone)]
pub struct UsbBus {
    cfg: UsbConfig,
    root: FifoResource,
    hubs: Vec<FifoResource>,
    transfers: u64,
    errors: u64,
    tap: Option<Vec<TapSpan>>,
}

impl UsbBus {
    pub fn new(cfg: UsbConfig, hub_count: usize) -> Self {
        UsbBus {
            cfg,
            root: FifoResource::new("usb-root"),
            hubs: (0..hub_count).map(|i| FifoResource::new(format!("usb-hub{i}"))).collect(),
            transfers: 0,
            errors: 0,
            tap: None,
        }
    }

    /// Enable/disable the occupancy tap. Disabled (the default) costs
    /// nothing; enabled, every hub/root leg of every transfer is
    /// recorded until drained with [`UsbBus::take_tap`].
    pub fn set_tap(&mut self, on: bool) {
        self.tap = if on { Some(Vec::new()) } else { None };
    }

    /// Drain spans recorded since the last call (empty if tap is off).
    pub fn take_tap(&mut self) -> Vec<TapSpan> {
        match &mut self.tap {
            Some(spans) => std::mem::take(spans),
            None => Vec::new(),
        }
    }

    /// Transfers completed (including retried ones, once).
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Transient errors injected so far.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    pub fn hub_count(&self) -> usize {
        self.hubs.len()
    }

    pub fn config(&self) -> &UsbConfig {
        &self.cfg
    }

    /// Move `bytes` between host and a device on `port`, starting no
    /// earlier than `ready`. Returns the end-to-end busy interval.
    ///
    /// With fault injection enabled, a transfer may hit up to three
    /// transient errors, each costing the retry backoff plus a second
    /// pass over the wire — deterministic per `(FAULT_SEED, transfer#)`.
    pub fn transfer(&mut self, port: UsbPort, ready: SimTime, bytes: u64) -> Busy {
        self.transfer_scaled(port, ready, bytes, 1.0)
    }

    /// [`UsbBus::transfer`] with the wire + command time scaled by the
    /// what-if factor (callers pass [`UsbConfig::write_scale`] /
    /// [`UsbConfig::read_scale`] per direction). Retry backoff is driver
    /// time and stays unscaled; the retried wire pass scales.
    pub fn transfer_scaled(&mut self, port: UsbPort, ready: SimTime, bytes: u64, f: f64) -> Busy {
        use rand::Rng;
        let seq = self.transfers;
        self.transfers += 1;
        let mut busy = self.transfer_once(port, ready, bytes, f);
        if self.cfg.error_rate > 0.0 {
            let mut stream = vpu_num::rng::indexed_stream(FAULT_SEED, "usb-fault", seq);
            for _attempt in 0..3 {
                if stream.gen::<f64>() >= self.cfg.error_rate {
                    break;
                }
                self.errors += 1;
                let retry_at = busy.end + Duration::from_nanos(RETRY_PENALTY_NS);
                let retry = self.transfer_once(port, retry_at, bytes, f);
                busy = Busy { start: busy.start, end: retry.end };
            }
        }
        busy
    }

    /// `1.0` bypasses the multiply entirely, so an identity what-if plan
    /// is byte-identical to the unscaled bus.
    fn scaled(service: Duration, f: f64) -> Duration {
        if f == 1.0 {
            service
        } else {
            service * f
        }
    }

    fn transfer_once(&mut self, port: UsbPort, ready: SimTime, bytes: u64, f: f64) -> Busy {
        let mut t = ready;
        let mut start = None;
        if let UsbPort::Hub(h) = port {
            assert!(h < self.hubs.len(), "hub {h} not present (have {})", self.hubs.len());
            let service = Self::scaled(
                Duration::from_nanos(HUB_LATENCY_NS) + Duration::for_bytes(bytes, HUB_BANDWIDTH),
                f,
            );
            let busy = self.hubs[h].acquire(t, service);
            if let Some(tap) = &mut self.tap {
                tap.push(TapSpan { hub: Some(h), start: busy.start, end: busy.end });
            }
            start = Some(busy.start);
            t = busy.end;
        }
        let service = Self::scaled(
            Duration::from_nanos(COMMAND_OVERHEAD_NS) + Duration::for_bytes(bytes, ROOT_BANDWIDTH),
            f,
        );
        let busy = self.root.acquire(t, service);
        if let Some(tap) = &mut self.tap {
            tap.push(TapSpan { hub: None, start: busy.start, end: busy.end });
        }
        Busy { start: start.unwrap_or(busy.start), end: busy.end }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> UsbBus {
        UsbBus::new(UsbConfig::default(), 2)
    }

    #[test]
    fn root_transfer_time() {
        let mut b = bus();
        // 450 KB at 450 MB/s = 1 ms, plus 0.1 ms command overhead.
        let busy = b.transfer(UsbPort::Root, SimTime(0), 450_000);
        assert_eq!(busy.end - busy.start, Duration::from_millis(1.1));
    }

    #[test]
    fn hub_adds_store_and_forward() {
        let mut direct = bus();
        let mut hubbed = bus();
        let d = direct.transfer(UsbPort::Root, SimTime(0), 450_000);
        let h = hubbed.transfer(UsbPort::Hub(0), SimTime(0), 450_000);
        assert!(h.end - h.start > d.end - d.start, "hub path must be slower");
    }

    #[test]
    fn root_serializes_concurrent_loads() {
        let mut b = bus();
        let a = b.transfer(UsbPort::Root, SimTime(0), 450_000);
        let c = b.transfer(UsbPort::Root, SimTime(0), 450_000);
        assert!(c.start >= a.end, "second root transfer must queue");
        let _ = Duration::from_nanos(1);
    }

    #[test]
    fn same_hub_devices_contend_twice() {
        let mut b = bus();
        let a = b.transfer(UsbPort::Hub(0), SimTime(0), 450_000);
        let c = b.transfer(UsbPort::Hub(0), SimTime(0), 450_000);
        // Second transfer waits for the first's hub occupancy.
        assert!(c.start >= a.start + Duration::from_millis(1.0));
    }

    #[test]
    fn different_hubs_overlap_on_uplink() {
        let mut b = bus();
        let a = b.transfer(UsbPort::Hub(0), SimTime(0), 450_000);
        let c = b.transfer(UsbPort::Hub(1), SimTime(0), 450_000);
        // Hub stages overlap; only the root hop serializes.
        assert!(c.end < a.end + Duration::from_millis(1.2));
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn missing_hub_panics() {
        bus().transfer(UsbPort::Hub(7), SimTime(0), 1);
    }

    #[test]
    fn zero_byte_command_costs_only_overhead() {
        let mut b = bus();
        let busy = b.transfer(UsbPort::Root, SimTime(0), 0);
        assert_eq!(busy.end - busy.start, Duration::from_nanos(100_000));
    }

    #[test]
    fn fault_injection_slows_transfers_deterministically() {
        let faulty = UsbConfig { error_rate: 0.5, ..UsbConfig::default() };
        let mut a = UsbBus::new(faulty.clone(), 0);
        let mut b = UsbBus::new(faulty, 0);
        let mut clean = UsbBus::new(UsbConfig::default(), 0);
        let mut slow_total = Duration::ZERO;
        let mut clean_total = Duration::ZERO;
        for i in 0..50u64 {
            let t = SimTime(i * 10_000_000);
            let fa = a.transfer(UsbPort::Root, t, 450_000);
            let fb = b.transfer(UsbPort::Root, t, 450_000);
            assert_eq!(fa, fb, "fault stream must be deterministic");
            slow_total += fa.end - fa.start;
            clean_total += {
                let c = clean.transfer(UsbPort::Root, t, 450_000);
                c.end - c.start
            };
        }
        assert!(a.errors() > 5, "expected injected errors, got {}", a.errors());
        assert!(slow_total > clean_total, "faults must cost time");
        assert_eq!(clean.errors(), 0);
    }

    #[test]
    fn tap_records_hub_and_root_legs() {
        let mut b = bus();
        b.transfer(UsbPort::Root, SimTime(0), 450_000);
        assert!(b.take_tap().is_empty(), "tap off by default");
        b.set_tap(true);
        let busy = b.transfer(UsbPort::Hub(1), SimTime(0), 450_000);
        let spans = b.take_tap();
        assert_eq!(spans.len(), 2, "hub leg + root leg");
        assert_eq!(spans[0].hub, Some(1));
        assert_eq!(spans[1].hub, None);
        assert_eq!(spans[0].start, busy.start);
        assert_eq!(spans[1].end, busy.end);
        assert!(spans[1].start >= spans[0].end, "store-and-forward order");
        assert!(b.take_tap().is_empty(), "drained");
    }

    #[test]
    fn tap_does_not_change_timing() {
        let mut plain = bus();
        let mut tapped = bus();
        tapped.set_tap(true);
        for i in 0..10u64 {
            let t = SimTime(i * 500_000);
            assert_eq!(
                plain.transfer(UsbPort::Hub(0), t, 200_000),
                tapped.transfer(UsbPort::Hub(0), t, 200_000)
            );
        }
    }

    #[test]
    fn fault_free_default() {
        let mut b = bus();
        for i in 0..100u64 {
            b.transfer(UsbPort::Root, SimTime(i * 2_000_000), 450_000);
        }
        assert_eq!(b.errors(), 0);
        assert_eq!(b.transfers(), 100);
    }
}
