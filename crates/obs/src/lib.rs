//! # ncsw-obs — observability for the simulated NCS fleet
//!
//! Structured event tracing, metrics and time-series sampling over the
//! virtual clock, shared by the serving loop (`ncsw-serve`), the
//! multi-VPU pipeline (`ncsw`) and the USB/device models
//! (`ncs-platform`).
//!
//! The pieces:
//!
//! - [`Event`]/[`Phase`]/[`Lane`]/[`Ctx`] — `Copy` virtual-clock-stamped
//!   events with propagated request context, so one request can be
//!   followed arrival→admission→batch→USB→SHAVE→completion.
//! - [`Recorder`] — the sink trait; [`NullRecorder`] keeps
//!   uninstrumented hot paths allocation-free, [`EventLog`] collects
//!   for export (and for the Fig. 4 Gantt chart the bench layer draws
//!   from its host and VPU spans), [`Tee`] fans out to two sinks at
//!   once. [`request_chain`] is the one full-phase-chain rule, applied
//!   to a request's events (`EventLog::group_by` groups them).
//! - [`Registry`] — an append-only table of named counters, gauges and
//!   log-bucketed [`LogHistogram`]s, built once after a run from its
//!   outcome.
//! - [`TimeSeriesBuilder`]/[`TimeSeries`] — periodic samples of queue
//!   depth, in-flight batches, completions, sheds, SLO burn, and
//!   per-worker utilization, circuit state and power, exported as CSV.
//!   The builder snapshots only queue depth live; `finish` derives
//!   every other column in one pass from the run's books (request
//!   records, [`OutageRecord`]s, the [`EnergyMeter`]).
//! - [`EnergyMeter`]/[`EnergyProfile`] — integer-exact energy
//!   integration (milliwatts × nanoseconds = picojoules) over charged
//!   busy spans, exported as counters, series columns and per-worker
//!   power lanes.
//! - [`chrome_trace`] — deterministic Chrome trace-event JSON
//!   (Perfetto-loadable), one track per lane; `PowerSample` events
//!   render as `ph:"C"` counter tracks. [`ChromeWriter`] /
//!   [`chrome_trace_to`] stream the same bytes incrementally into any
//!   `io::Write` sink with bounded memory.
//! - [`SamplingRecorder`]/[`SamplePolicy`] — tail-based trace
//!   sampling: buffer each request's span chain until its terminal
//!   event, then keep it only for always-keep anomaly triggers, the
//!   top-K-slowest reservoir, or a seeded uniform 1-in-N hash. The
//!   all-keep policy is byte-identical to a full trace.
//! - [`FlightRecorder`] — an always-on bounded ring of recent events
//!   that freezes an [`IncidentSnapshot`] when `CircuitOpen` /
//!   `IntegrityFail` fire (the bench layer adds burn-rate alerts),
//!   feeding `incident_<n>.json` bundles with a replay command.
//! - [`prof`] — *host-side* self-observability: wall-clock scoped
//!   timers over the simulator's own hot loops, the per-run
//!   [`OverheadLedger`] (events recorded, bytes written, ns/event on
//!   the recorder path) and the [`Throughput`] meter
//!   (sim-events/sec, req/sec, virtual-seconds per wall-second).
//!   Strictly passive: profiled runs stay bit-identical on the virtual
//!   clock.

pub mod chrome;
pub mod energy;
pub mod event;
pub mod flight;
pub mod histogram;
pub mod prof;
pub mod recorder;
pub mod registry;
pub mod sample;
pub mod series;

pub use chrome::{chrome_trace, chrome_trace_to, ChromeWriter};
pub use energy::{joules, watts, EnergyMeter, EnergyProfile, EnergyTotals, MeterSpan};
pub use event::{Ctx, Event, Lane, Phase, ShedCause};
pub use flight::{FlightRecorder, IncidentSnapshot};
pub use histogram::LogHistogram;
pub use prof::{
    CountingWrite, OverheadLedger, ProfReport, ProfiledRecorder, Throughput, WriteStats,
};
pub use recorder::{request_chain, BatchObs, EventLog, NullRecorder, Recorder, Tee};
pub use registry::Registry;
pub use sample::{SamplePolicy, SampleStats, SamplingRecorder};
pub use series::{OutageRecord, Sample, TimeSeries, TimeSeriesBuilder};
