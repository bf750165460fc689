//! Intel Neural Compute Stick (NCS) platform simulation.
//!
//! The NCS is a USB SoC around the Myriad 2 (paper Fig. 2): two LEON RISC
//! processors run an RTOS that manages the USB link, the firmware, and a
//! run queue feeding the SHAVE cluster. The host talks to it through the
//! Neural Compute API (NCAPI), whose defining feature the paper leans on
//! is the **split non-blocking interface**: `mvncLoadTensor` returns as
//! soon as the input is transferred and the execution queued, and
//! `mvncGetResult` blocks until the inference completes — the MPI-style
//! decoupling that makes multi-stick overlap possible (paper Listing 1).
//!
//! Modules:
//! * [`usb`] — USB 3.0 topology: root controller plus optional hubs
//!   (the paper's testbed hangs 6 of 8 sticks off two hubs, Fig. 5).
//! * [`device`] — one stick: firmware boot, graph storage in LPDDR3,
//!   the RISC run queue, and the embedded [`myriad2::Myriad2`] chip.
//! * [`api`] — the NCAPI facade (`open`, `alloc_graph`, `load_tensor`,
//!   `get_result`). It moves time, not data: a result carries the
//!   stick's timing and energy record, and the output itself is computed
//!   by `vpu-nn`.
//! * [`fleet`] — enumeration and construction of multi-stick testbeds.

pub mod api;
pub mod device;
pub mod fleet;
pub mod graphfile;
pub mod usb;

pub use api::{GraphHandle, Ncapi, NcsError};
pub use device::{NcsConfig, NcsDevice, PEAK_POWER_W};
pub use fleet::{Fleet, Topology};
pub use usb::{TapSpan, UsbBus, UsbPort};
