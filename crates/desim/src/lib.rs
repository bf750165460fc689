//! A small discrete-event simulation kernel.
//!
//! Every device in the reproduction (NCS sticks, the CPU, the GPU) runs
//! against **virtual time**: reported latencies and throughputs come from
//! this kernel, never from wall-clock measurement, so experiments are
//! deterministic and machine-independent while the *numeric* outputs come
//! from real computation.
//!
//! The kernel is timeline-algebraic rather than coroutine-based: model
//! elements are serial FIFO resources ([`FifoResource`]: a USB bus, a RISC
//! command queue) and `k`-parallel server pools ([`ServerPool`]: the 12
//! SHAVE processors), which jobs acquire at a ready time for a service
//! duration. Acquisition returns the busy interval; the layers above turn
//! those into observability events.

pub mod resource;
pub mod time;

pub use resource::{FifoResource, ServerPool};
pub use time::{Duration, SimTime};
