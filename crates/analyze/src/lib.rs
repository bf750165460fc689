//! # ncsw-analyze — answers from the phase-event stream
//!
//! `ncsw-obs` records what happened; this crate answers *why the p99
//! was what it was*. It consumes the flat [`ncsw_obs::EventLog`] (or an
//! exported Chrome trace fed back through [`parse_chrome_trace`]) and
//! produces:
//!
//! - [`span::SpanForest`] — the per-request span tree: each request's
//!   Arrive→Admit→Enqueue→BatchClose→Dispatch→UsbWrite→Exec→UsbRead→
//!   Complete chain reconstructed into typed spans, with Shed, Failover
//!   and retry side-branches attached, plus circuit-breaker outage
//!   windows.
//! - [`attribution::Analysis`] — exact latency attribution: every
//!   completed request's end-to-end latency split into telescoping
//!   [`Segment`]s that sum to the total *exactly* (no lost or
//!   double-counted nanoseconds), the deterministic critical segment
//!   per request, and an aggregated attribution table with exact
//!   p50/p95/p99 per segment.
//! - [`energy::EnergyAnalysis`] — exact energy attribution from the
//!   per-worker power lanes: the trace's `PowerSample` counters are
//!   re-integrated into the same picojoule ledger the server
//!   accounted, active spans are split across batch members and the
//!   nine latency segments with integer-exact remainder handling, and
//!   `attributed + wasted + idle == fleet` holds as a `u64` equality.
//! - [`flame::folded`] — the attribution as folded stacks for
//!   flamegraph tooling (`repro analyze --flame out.folded`);
//!   [`flame::folded_energy`] is the same shape with picojoule values.
//! - [`whatif`] — causal what-if profiling: counterfactual predictions
//!   ("component X at `f`× speed") replayed analytically through the
//!   nine-segment attribution, with per-component bottleneck ranking.
//!   Queue-blind by construction; `vpu-bench`'s E24 experiment
//!   validates each prediction against an actually-rescaled re-run.
//! - [`diff`](mod@diff) — paired A/B trace diffing: join two same-seed runs on
//!   request id, per-request and per-phase deltas, and a
//!   machine-readable improved/regressed/neutral verdict with
//!   configurable thresholds (the CI perf-regression gate).
//! - [`burn`] — multi-window SLO burn-rate alerts derived from the
//!   sampled [`ncsw_obs::TimeSeries`], exportable as `SloAlert` spans
//!   on the `alerts` lane of the Chrome trace.

pub mod attribution;
pub mod burn;
pub mod diff;
pub mod energy;
pub mod explain;
pub mod flame;
pub mod parse;
pub mod span;
pub mod whatif;

pub use attribution::{
    Analysis, AttributionTable, Breakdown, E2e, Segment, SegmentRow, ShedCounts,
};
pub use burn::{alert_events, burn_alerts, AlertWindow, BurnConfig};
pub use diff::{diff, DiffConfig, MetricDelta, TraceDiff, Verdict};
pub use energy::{BusySpan, EnergyAnalysis, RequestEnergy, WorkerLedger};
pub use explain::{explain, explain_chrome, explain_chrome_json, explain_request, Explanation};
pub use flame::{folded, folded_energy};
pub use parse::{parse_chrome_trace, parse_chrome_trace_sampled};
pub use span::{DeviceSpans, OutageWindow, Outcome, RequestSpan, SpanForest};
pub use whatif::{predict, rank, Component, Prediction};
