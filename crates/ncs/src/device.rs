//! One Neural Compute Stick: firmware, RISC run queue, embedded Myriad 2.

use crate::usb::UsbPort;
use desim::{Duration, FifoResource, SimTime};
use myriad2::exec::NetworkRun;
use myriad2::{thermal, Myriad2, Myriad2Config};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;
use vpu_nn::cost::NetworkCost;

/// Firmware upload + RTOS boot after `mvncOpenDevice` (~0.9 s).
pub const FIRMWARE_BOOT: Duration = Duration(900_000_000);

/// Maximum inferences in flight on one stick (NCSDK v1 allows 2).
pub const FIFO_DEPTH: usize = 2;

/// Stick peak power (USB interface + DDR + chip), Watts: the TDP the
/// paper's Eq. 1 charges per stick. The paper quotes 2.5 W peak for the
/// NCS versus 0.9 W chip TDP.
pub const PEAK_POWER_W: f64 = 2.5;

/// Stick-level parameters (on top of the chip's own config).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NcsConfig {
    pub chip: Myriad2Config,
    /// LEON command processing per queue operation, ns. **Calibrated**
    /// with the USB constants so one GoogLeNet inference totals 100.7 ms.
    pub risc_cmd_overhead_ns: u64,
}

impl Default for NcsConfig {
    fn default() -> Self {
        NcsConfig { chip: Myriad2Config::default(), risc_cmd_overhead_ns: 550_000 }
    }
}

/// Device lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceState {
    Closed,
    Booting,
    Ready,
}

/// An inference accepted by the stick but not yet collected by the host.
#[derive(Debug, Clone)]
pub struct Pending {
    /// Instant the result is ready for USB readback.
    pub completion: SimTime,
    pub run: NetworkRun,
}

/// Errors surfaced by the device (mirrors `mvncStatus` codes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// Operation on a closed/unbooted device.
    NotOpen,
    /// `load_tensor`/`get_result` without an allocated graph.
    NoGraph,
    /// `get_result` with nothing in flight.
    NothingQueued,
    /// Graph file exceeds device DDR.
    GraphTooLarge,
}

/// One simulated stick.
#[derive(Debug, Clone)]
pub struct NcsDevice {
    cfg: NcsConfig,
    chip: Myriad2,
    port: UsbPort,
    state: DeviceState,
    ready_at: SimTime,
    graph: Option<Arc<NetworkCost>>,
    risc: FifoResource,
    pending: VecDeque<Pending>,
    inferences: u64,
}

impl NcsDevice {
    pub fn new(index: usize, port: UsbPort, cfg: NcsConfig) -> Self {
        NcsDevice {
            chip: Myriad2::new(cfg.chip.clone()),
            risc: FifoResource::new(format!("risc{index}")),
            cfg,
            port,
            state: DeviceState::Closed,
            ready_at: SimTime::ZERO,
            graph: None,
            pending: VecDeque::new(),
            inferences: 0,
        }
    }

    pub fn port(&self) -> UsbPort {
        self.port
    }

    pub fn state(&self) -> DeviceState {
        self.state
    }

    pub fn chip(&self) -> &Myriad2 {
        &self.chip
    }

    pub fn inferences_completed(&self) -> u64 {
        self.inferences
    }

    /// Begin firmware boot (the USB transfer of the firmware image is
    /// charged by the API layer); device is usable from the returned time.
    pub fn boot(&mut self, at: SimTime) -> SimTime {
        self.state = DeviceState::Ready;
        self.ready_at = at + FIRMWARE_BOOT;
        self.ready_at
    }

    /// Store the compiled graph (weights already transferred over USB by
    /// the API layer). Graph swaps are allowed; the old one is dropped.
    pub fn alloc_graph(
        &mut self,
        at: SimTime,
        cost: Arc<NetworkCost>,
    ) -> Result<SimTime, DeviceError> {
        if self.state != DeviceState::Ready {
            return Err(DeviceError::NotOpen);
        }
        if !self.chip.load_graph(cost.total_weight_bytes()) {
            return Err(DeviceError::GraphTooLarge);
        }
        let done = SimTime::max_of(at, self.ready_at)
            + Duration::from_nanos(self.cfg.risc_cmd_overhead_ns);
        self.graph = Some(cost);
        Ok(done)
    }

    /// Earliest time a new `load_tensor` may be accepted given the FIFO
    /// depth: with the queue full, the host blocks until a slot frees.
    pub fn accept_ready(&self, at: SimTime) -> SimTime {
        let mut t = SimTime::max_of(at, self.ready_at);
        if self.pending.len() >= FIFO_DEPTH {
            let idx = self.pending.len() - FIFO_DEPTH;
            t = SimTime::max_of(t, self.pending[idx].completion);
        }
        t
    }

    /// Input tensor arrived on-device at `arrival` (USB transfer done):
    /// queue the inference through the RISC scheduler and the chip.
    /// Returns the completion instant.
    pub fn submit(&mut self, arrival: SimTime) -> Result<SimTime, DeviceError> {
        if self.state != DeviceState::Ready {
            return Err(DeviceError::NotOpen);
        }
        let cost = self.graph.clone().ok_or(DeviceError::NoGraph)?;
        let cmd = Duration::from_nanos(self.cfg.risc_cmd_overhead_ns);
        let sched = self.risc.acquire(SimTime::max_of(arrival, self.ready_at), cmd);
        let run = self.chip.run_cost(&cost, sched.end);
        // Completion notification also crosses the RISC processors.
        let notify = self.risc.acquire(run.end, cmd);
        let completion = notify.end;
        self.pending.push_back(Pending { completion, run });
        self.inferences += 1;
        Ok(completion)
    }

    /// Collect the oldest in-flight inference (FIFO order, as the NCSDK
    /// returns results). The caller blocks until its completion.
    pub fn collect(&mut self) -> Result<Pending, DeviceError> {
        if self.state != DeviceState::Ready {
            return Err(DeviceError::NotOpen);
        }
        self.pending.pop_front().ok_or(DeviceError::NothingQueued)
    }

    /// Steady-state junction temperature at the chip's lifetime-average
    /// power — the `NC_DEVICE_THERMAL_STATS` analogue. Ambient when the
    /// device has not run yet.
    pub fn thermal_c(&self) -> f64 {
        let activity = self.chip.lifetime_activity();
        if activity.span == Duration::ZERO {
            return thermal::T_AMBIENT;
        }
        thermal::steady_state_of(&activity, self.chip.power_model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vpu_nn::googlenet;
    use vpu_num::f16;

    fn cost() -> Arc<NetworkCost> {
        Arc::new(NetworkCost::of::<f16>(&googlenet::full()))
    }

    fn ready_device() -> NcsDevice {
        let mut d = NcsDevice::new(0, UsbPort::Root, NcsConfig::default());
        d.boot(SimTime::ZERO);
        d.alloc_graph(SimTime::ZERO, cost()).unwrap();
        d
    }

    #[test]
    fn lifecycle_enforced() {
        let mut d = NcsDevice::new(0, UsbPort::Root, NcsConfig::default());
        assert_eq!(d.state(), DeviceState::Closed);
        assert_eq!(d.alloc_graph(SimTime::ZERO, cost()), Err(DeviceError::NotOpen));
        assert_eq!(d.submit(SimTime::ZERO), Err(DeviceError::NotOpen));
        let up = d.boot(SimTime::ZERO);
        assert_eq!(up, SimTime::ZERO + Duration::from_millis(900.0));
        assert_eq!(d.state(), DeviceState::Ready);
        // No graph yet.
        assert_eq!(d.submit(up), Err(DeviceError::NoGraph));
    }

    #[test]
    fn boot_delay_gates_first_inference() {
        let mut d = NcsDevice::new(0, UsbPort::Root, NcsConfig::default());
        d.boot(SimTime::ZERO);
        d.alloc_graph(SimTime::ZERO, cost()).unwrap();
        let done = d.submit(SimTime::ZERO).unwrap();
        assert!(done > SimTime::ZERO + Duration::from_millis(900.0));
    }

    #[test]
    fn single_inference_latency() {
        let mut d = ready_device();
        let t0 = SimTime::ZERO + Duration::from_secs(2.0);
        let done = d.submit(t0).unwrap();
        let ms = (done - t0).as_millis();
        // Chip ~98.2 ms plus two RISC command hops.
        assert!((98.0..101.5).contains(&ms), "device latency {ms} ms");
    }

    #[test]
    fn fifo_order_and_collection() {
        let mut d = ready_device();
        let t0 = SimTime::ZERO + Duration::from_secs(2.0);
        let c1 = d.submit(t0).unwrap();
        let c2 = d.submit(t0).unwrap();
        assert!(c2 > c1, "second inference completes later");
        let p1 = d.collect().unwrap();
        assert_eq!(p1.completion, c1);
        let p2 = d.collect().unwrap();
        assert_eq!(p2.completion, c2);
        assert_eq!(d.collect().unwrap_err(), DeviceError::NothingQueued);
        assert_eq!(d.inferences_completed(), 2);
    }

    #[test]
    fn fifo_depth_blocks_third_load() {
        let d0 = ready_device();
        let mut d = d0;
        let t0 = SimTime::ZERO + Duration::from_secs(2.0);
        assert_eq!(d.accept_ready(t0), t0);
        let c1 = d.submit(t0).unwrap();
        d.submit(t0).unwrap();
        // Queue is full (depth 2): next load gated on the first completion.
        assert_eq!(d.accept_ready(t0), c1);
        d.collect().unwrap();
        assert_eq!(d.accept_ready(t0), t0);
    }

    #[test]
    fn graph_too_large_rejected() {
        let mut d = NcsDevice::new(0, UsbPort::Root, NcsConfig::default());
        d.boot(SimTime::ZERO);
        let mut big = NetworkCost::of::<f16>(&googlenet::tiny());
        big.total_params = 3 << 30; // 6 GB of fp16 weights
        assert_eq!(d.alloc_graph(SimTime::ZERO, Arc::new(big)), Err(DeviceError::GraphTooLarge));
    }

    #[test]
    fn thermal_stats_track_load() {
        let mut d = ready_device();
        let ambient = d.thermal_c();
        assert_eq!(ambient, 25.0, "idle device reads ambient");
        // Run back-to-back inferences: the chip is ~100% duty-cycled.
        let t0 = SimTime::ZERO + Duration::from_secs(2.0);
        let mut t = t0;
        for _ in 0..4 {
            t = d.submit(t).unwrap();
            d.collect().unwrap();
        }
        let hot = d.thermal_c();
        assert!(hot > ambient + 5.0, "busy stick must warm up: {hot}");
        assert!(hot < thermal::T_THROTTLE, "inference load must not throttle ({hot} °C)");
    }
}
