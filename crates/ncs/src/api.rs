//! The Neural Compute API (NCAPI) facade.
//!
//! Mirrors the `mvnc` C API the paper builds NCSw on (Listing 1):
//!
//! | NCSDK                | here                       |
//! |----------------------|----------------------------|
//! | `mvncGetDeviceName`  | [`Ncapi::enumerate`]       |
//! | `mvncOpenDevice`     | [`Ncapi::open_device`]     |
//! | `mvncAllocateGraph`  | [`Ncapi::alloc_graph`]     |
//! | `mvncLoadTensor`     | [`Ncapi::load_tensor`]     |
//! | `mvncGetResult`      | [`Ncapi::get_result`]      |
//!
//! Calls take and return **virtual host time**: `load_tensor` returns at
//! the instant the input has crossed USB and the execution is queued
//! (non-blocking with respect to the inference itself); `get_result`
//! returns at the instant the oldest in-flight result has been read back
//! (blocking). This reproduces the MPI-like decoupling the paper exploits
//! for multi-stick overlap.

use crate::device::{DeviceError, Pending};
use crate::fleet::Fleet;
use desim::{Duration, SimTime};
use std::sync::Arc;
use vpu_nn::cost::NetworkCost;

/// User-space + kernel driver overhead per API call, ns.
pub const CALL_OVERHEAD_NS: u64 = 250_000;

/// Firmware image size uploaded by `open_device`, bytes.
pub const FIRMWARE_BYTES: u64 = 1_800_000;

/// Errors surfaced to the application (mirrors `mvncStatus`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NcsError {
    /// Device index out of range.
    BadDevice,
    /// Operation before `open_device` completed.
    NotOpen,
    /// No graph allocated on the device.
    NoGraph,
    /// `get_result` with nothing queued.
    NothingQueued,
    /// Graph exceeds device memory.
    GraphTooLarge,
}

impl From<DeviceError> for NcsError {
    fn from(e: DeviceError) -> Self {
        match e {
            DeviceError::NotOpen => NcsError::NotOpen,
            DeviceError::NoGraph => NcsError::NoGraph,
            DeviceError::NothingQueued => NcsError::NothingQueued,
            DeviceError::GraphTooLarge => NcsError::GraphTooLarge,
        }
    }
}

/// Handle to a graph allocated on one device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphHandle {
    pub device: usize,
}

/// A collected inference result.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// Device-side timing/energy record (per-layer profile included).
    pub run: myriad2::exec::NetworkRun,
    /// Instant the inference completed on the stick.
    pub completion: SimTime,
    /// Instant the host call returned with the data.
    pub returned_at: SimTime,
}

/// The API object owning the fleet.
#[derive(Debug, Clone)]
pub struct Ncapi {
    fleet: Fleet,
    io_bytes: Vec<Option<(u64, u64)>>,
}

impl Ncapi {
    pub fn new(fleet: Fleet) -> Self {
        let n = fleet.len();
        Ncapi { fleet, io_bytes: vec![None; n] }
    }

    /// Device count (the NCSDK exposes names; indices suffice here).
    pub fn enumerate(&self) -> usize {
        self.fleet.len()
    }

    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    pub fn fleet_mut(&mut self) -> &mut Fleet {
        &mut self.fleet
    }

    fn call(&self, at: SimTime) -> SimTime {
        at + Duration::from_nanos(CALL_OVERHEAD_NS)
    }

    /// Open a device: upload firmware over USB, boot the RTOS. Returns
    /// the time the device becomes usable.
    pub fn open_device(&mut self, device: usize, at: SimTime) -> Result<SimTime, NcsError> {
        let port = self.device(device)?.port();
        let t = self.call(at);
        let xfer = self.fleet.bus.transfer(port, t, FIRMWARE_BYTES);
        Ok(self.fleet.devices[device].boot(xfer.end))
    }

    /// Allocate (upload) a compiled graph. The transfer ships the FP16
    /// weight payload; returns the handle and the completion time.
    pub fn alloc_graph(
        &mut self,
        device: usize,
        cost: Arc<NetworkCost>,
        at: SimTime,
    ) -> Result<(GraphHandle, SimTime), NcsError> {
        let port = self.device(device)?.port();
        let t = self.call(at);
        let bytes = cost.total_weight_bytes();
        let io = (cost.input_bytes(), cost.output_bytes());
        let xfer = self.fleet.bus.transfer(port, t, bytes);
        let done = self.fleet.devices[device].alloc_graph(xfer.end, cost)?;
        self.io_bytes[device] = Some(io);
        Ok((GraphHandle { device }, done))
    }

    /// Allocate from a compiled graph-file blob (the `mvNCCompile`
    /// output): validates the blob, checks its input geometry against
    /// `spec`, and charges the *actual* blob size to the USB transfer.
    pub fn alloc_compiled(
        &mut self,
        device: usize,
        spec: &vpu_nn::graph::NetworkSpec,
        blob: &[u8],
        at: SimTime,
    ) -> Result<(GraphHandle, SimTime), NcsError> {
        let parsed = crate::graphfile::parse(blob).map_err(|_| NcsError::NoGraph)?;
        let s = spec.input_shape;
        if parsed.input != (s.n as u32, s.c as u32, s.h as u32, s.w as u32) {
            return Err(NcsError::NoGraph);
        }
        let port = self.device(device)?.port();
        let t = self.call(at);
        let cost = Arc::new(NetworkCost::of::<vpu_num::f16>(spec));
        let io = (cost.input_bytes(), cost.output_bytes());
        let xfer = self.fleet.bus.transfer(port, t, blob.len() as u64);
        let done = self.fleet.devices[device].alloc_graph(xfer.end, cost)?;
        self.io_bytes[device] = Some(io);
        Ok((GraphHandle { device }, done))
    }

    /// `mvncLoadTensor`: ship one input, queue the inference. Returns the
    /// host-return instant (transfer complete, execution scheduled).
    pub fn load_tensor(&mut self, graph: GraphHandle, at: SimTime) -> Result<SimTime, NcsError> {
        let dev = graph.device;
        let port = self.device(dev)?.port();
        let (in_bytes, _) = self.io_bytes[dev].ok_or(NcsError::NoGraph)?;
        let t = self.call(at);
        // Block while the device FIFO is full (`FIFO_DEPTH`, 2 in NCSDK v1).
        let accept = self.fleet.devices[dev].accept_ready(t);
        let scale = self.fleet.bus.config().write_scale;
        let xfer = self.fleet.bus.transfer_scaled(port, accept, in_bytes, scale);
        self.fleet.devices[dev].submit(xfer.end)?;
        Ok(xfer.end)
    }

    /// `mvncGetResult`: block until the oldest in-flight inference on the
    /// graph's device finishes, read the output back, return it.
    pub fn get_result(
        &mut self,
        graph: GraphHandle,
        at: SimTime,
    ) -> Result<InferenceResult, NcsError> {
        let dev = graph.device;
        let port = self.device(dev)?.port();
        let (_, out_bytes) = self.io_bytes[dev].ok_or(NcsError::NoGraph)?;
        let t = self.call(at);
        let Pending { completion, run } = self.fleet.devices[dev].collect()?;
        let avail = SimTime::max_of(t, completion);
        let scale = self.fleet.bus.config().read_scale;
        let xfer = self.fleet.bus.transfer_scaled(port, avail, out_bytes, scale);
        let returned_at = self.call(xfer.end);
        Ok(InferenceResult { run, completion, returned_at })
    }

    fn device(&self, idx: usize) -> Result<&crate::device::NcsDevice, NcsError> {
        self.fleet.devices.get(idx).ok_or(NcsError::BadDevice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{NcsConfig, FIFO_DEPTH};
    use crate::fleet::Topology;
    use vpu_nn::googlenet;
    use vpu_num::f16;

    fn cost() -> Arc<NetworkCost> {
        Arc::new(NetworkCost::of::<f16>(&googlenet::full()))
    }

    fn api(n: usize) -> Ncapi {
        Ncapi::new(Fleet::new(n, Topology::PaperTestbed, NcsConfig::default()))
    }

    /// Open + alloc on every device; returns the latest ready time.
    fn setup(api: &mut Ncapi) -> (Vec<GraphHandle>, SimTime) {
        let mut handles = Vec::new();
        let mut ready = SimTime::ZERO;
        for d in 0..api.enumerate() {
            api.open_device(d, SimTime::ZERO).unwrap();
            let (h, t) = api.alloc_graph(d, cost(), SimTime::ZERO).unwrap();
            handles.push(h);
            ready = SimTime::max_of(ready, t);
        }
        (handles, ready)
    }

    #[test]
    fn single_inference_matches_paper_anchor() {
        let mut api = api(1);
        let (handles, ready) = setup(&mut api);
        let t0 = ready;
        let loaded = api.load_tensor(handles[0], t0).unwrap();
        assert!(loaded > t0, "load takes time");
        let res = api.get_result(handles[0], loaded).unwrap();
        let ms = (res.returned_at - t0).as_millis();
        // Paper: 100.7 ms per inference on one NCS (single input).
        assert!((99.0..102.5).contains(&ms), "single-NCS latency {ms} ms");
    }

    #[test]
    fn load_returns_long_before_result() {
        let mut api = api(1);
        let (handles, ready) = setup(&mut api);
        let loaded = api.load_tensor(handles[0], ready).unwrap();
        let res = api.get_result(handles[0], loaded).unwrap();
        let gap = (res.returned_at - loaded).as_millis();
        assert!(gap > 90.0, "inference must overlap host time: gap {gap} ms");
    }

    #[test]
    fn eight_sticks_overlap() {
        let mut api = api(8);
        let (handles, ready) = setup(&mut api);
        let t0 = ready;
        // Round-robin load then round-robin collect (paper Fig. 4).
        let mut t = t0;
        for &h in &handles {
            t = api.load_tensor(h, t).unwrap();
        }
        let mut done = t;
        for &h in &handles {
            let r = api.get_result(h, done).unwrap();
            done = r.returned_at;
        }
        let per_img = (done - t0).as_millis() / 8.0;
        // One batch of 8 with cold pipeline: load stagger + one inference.
        // Paper steady-state is 12.9 ms/img; a single cold batch is a bit
        // worse but must stay well under the 100.7 ms serial cost.
        assert!(per_img < 16.0, "multi-VPU per-image {per_img} ms");
        assert!(per_img > 11.0, "implausibly fast {per_img} ms");
    }

    #[test]
    fn errors_mirror_mvnc_status() {
        let mut api = api(2);
        assert_eq!(api.open_device(9, SimTime::ZERO), Err(NcsError::BadDevice));
        // Graph before open.
        assert_eq!(api.alloc_graph(0, cost(), SimTime::ZERO).unwrap_err(), NcsError::NotOpen);
        api.open_device(0, SimTime::ZERO).unwrap();
        let (h, t) = api.alloc_graph(0, cost(), SimTime::ZERO).unwrap();
        // get_result with empty queue.
        assert_eq!(api.get_result(h, t).unwrap_err(), NcsError::NothingQueued);
        // load on a device with no graph.
        api.open_device(1, SimTime::ZERO).unwrap();
        assert_eq!(api.load_tensor(GraphHandle { device: 1 }, t).unwrap_err(), NcsError::NoGraph);
    }

    #[test]
    fn open_includes_firmware_boot() {
        let mut api = api(1);
        let up = api.open_device(0, SimTime::ZERO).unwrap();
        // Firmware transfer (~4 ms) + 900 ms boot.
        assert!(up.as_millis() > 900.0);
        assert!(up.as_millis() < 1000.0);
    }

    #[test]
    fn results_come_back_in_fifo_order() {
        let mut api = api(1);
        let (handles, ready) = setup(&mut api);
        let h = handles[0];
        let t1 = api.load_tensor(h, ready).unwrap();
        let t2 = api.load_tensor(h, t1).unwrap();
        let r1 = api.get_result(h, t2).unwrap();
        let r2 = api.get_result(h, r1.returned_at).unwrap();
        assert!(r1.completion < r2.completion);
    }

    #[test]
    fn fifo_depth_gates_burst_loads() {
        // NCSDK v1 keeps `FIFO_DEPTH` = 2 inferences in flight.
        assert_eq!(FIFO_DEPTH, 2);
        let mut api = api(1);
        let (handles, ready) = setup(&mut api);
        let h = handles[0];
        // The first `FIFO_DEPTH` loads go through without waiting on a
        // completion...
        let mut t = ready;
        for _ in 0..FIFO_DEPTH {
            t = api.load_tensor(h, t).unwrap();
        }
        assert!((t - ready).as_millis() < 20.0, "burst blocked");
        // ...the next one waits for the first inference to finish.
        let blocked = api.load_tensor(h, t).unwrap();
        assert!((blocked - ready).as_millis() > 90.0, "load returned too early");
    }

    #[test]
    fn alloc_compiled_validates_and_runs() {
        use crate::graphfile;
        let spec = vpu_nn::googlenet::tiny();
        let w = vpu_nn::init::xavier(&spec, 4);
        let blob = graphfile::compile(&spec, &w);
        let mut api = api(1);
        api.open_device(0, SimTime::ZERO).unwrap();
        let (h, ready) = api.alloc_compiled(0, &spec, &blob, SimTime::ZERO).unwrap();
        let loaded = api.load_tensor(h, ready).unwrap();
        let res = api.get_result(h, loaded).unwrap();
        assert!(res.returned_at > loaded);
        // Corrupt blob is rejected.
        let mut bad = blob.to_vec();
        bad[8] ^= 1;
        assert_eq!(api.alloc_compiled(0, &spec, &bad, ready).unwrap_err(), NcsError::NoGraph);
        // Mismatched geometry is rejected.
        let other = vpu_nn::googlenet::mini();
        assert_eq!(api.alloc_compiled(0, &other, &blob, ready).unwrap_err(), NcsError::NoGraph);
    }

    #[test]
    fn per_layer_profile_available() {
        let mut api = api(1);
        let (handles, ready) = setup(&mut api);
        let loaded = api.load_tensor(handles[0], ready).unwrap();
        let res = api.get_result(handles[0], loaded).unwrap();
        assert!(!res.run.layers().is_empty());
        assert!(res.run.energy_j > 0.0);
    }
}
