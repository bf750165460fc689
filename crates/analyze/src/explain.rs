//! `repro explain <request-id>`: one request's causal timeline.
//!
//! Builds everything the trace knows about a single request — its
//! chronological event timeline (dispatch attempts, retries, hedges,
//! integrity failures), the nine telescoping latency segments with the
//! critical one marked, and the batch-scoped side events (hedges,
//! quarantines) of every batch that carried it — as a structured
//! [`Explanation`] (the `repro explain --json` shape), with
//! [`Explanation::render`] producing the human timeline. Works on a
//! full trace or a tail-sampled one: sampling keeps kept chains intact,
//! so an anomalous request explains identically either way; a
//! sampled-out request yields a one-line error saying so.

use crate::attribution::{Breakdown, Segment};
use crate::parse::parse_chrome_trace;
use crate::span::{Outcome, SpanForest};
use desim::SimTime;
use ncsw_obs::{Event, EventLog, Phase};
use serde::Serialize;
use std::fmt::Write as _;

/// One timeline (or batch-side) event of an [`Explanation`].
#[derive(Debug, Clone, Serialize)]
pub struct ExplainEvent {
    /// Offset from the request's arrival, ms.
    pub t_ms: f64,
    pub phase: String,
    /// Span duration; `None` for instant events.
    pub dur_ms: Option<f64>,
    pub lane: String,
    pub batch: Option<u64>,
    pub cause: Option<String>,
}

impl ExplainEvent {
    fn of(ev: &Event, t0: SimTime) -> ExplainEvent {
        ExplainEvent {
            t_ms: ev.start.since(t0).as_millis(),
            phase: ev.phase.name().to_string(),
            dur_ms: ev.end.map(|end| end.since(ev.start).as_millis()),
            lane: ev.lane.name(),
            batch: ev.ctx.batch_id,
            cause: ev.cause.map(|c| c.name().to_string()),
        }
    }
}

/// One of the nine telescoping latency segments.
#[derive(Debug, Clone, Serialize)]
pub struct ExplainSegment {
    pub segment: String,
    /// Exact nanoseconds (they sum to the total exactly).
    pub ns: u64,
    pub ms: f64,
    pub critical: bool,
}

/// The structured shape of `repro explain` (and its `--json` output):
/// one request's full causal story.
#[derive(Debug, Clone, Serialize)]
pub struct Explanation {
    pub id: u64,
    /// `completed` | `shed` | `incomplete`.
    pub outcome: String,
    /// Arrival instant, absolute ms into the run.
    pub arrive_ms: f64,
    pub latency_ms: Option<f64>,
    pub worker: Option<u32>,
    pub batch: Option<u64>,
    pub retries: u32,
    pub shed_cause: Option<String>,
    pub shed_after_ms: Option<f64>,
    /// The request's own events, chronological, offsets from arrival.
    pub timeline: Vec<ExplainEvent>,
    /// Hedges/quarantines/failovers on any batch that carried it.
    pub batch_side_events: Vec<ExplainEvent>,
    /// The nine exact segments; empty unless the request completed.
    pub segments: Vec<ExplainSegment>,
    /// Name of the critical (largest) segment, when completed.
    pub critical: Option<String>,
}

/// Build the structured explanation of `id` from a parsed event log.
pub fn explain(log: &EventLog, id: u64) -> Result<Explanation, String> {
    let evs: Vec<&Event> = log.events().iter().filter(|e| e.ctx.request_id == Some(id)).collect();
    if evs.is_empty() {
        return Err(format!(
            "request {id} not in trace (wrong id, or dropped by tail sampling — \
             anomalous chains are always kept)"
        ));
    }
    let forest = SpanForest::build(log);
    let r = forest
        .requests
        .get(&id)
        .ok_or_else(|| format!("request {id} has events but no span tree"))?;
    let t0 = r.arrive;

    let batches: Vec<u64> =
        evs.iter().filter_map(|e| e.ctx.batch_id).fold(Vec::new(), |mut acc, b| {
            if !acc.contains(&b) {
                acc.push(b);
            }
            acc
        });
    let side: Vec<ExplainEvent> = log
        .events()
        .iter()
        .filter(|e| {
            e.ctx.request_id.is_none()
                && e.ctx.batch_id.is_some_and(|b| batches.contains(&b))
                && matches!(
                    e.phase,
                    Phase::Hedge
                        | Phase::HedgeWin
                        | Phase::HedgeCancel
                        | Phase::Quarantine
                        | Phase::Failover
                )
        })
        .map(|e| ExplainEvent::of(e, t0))
        .collect();

    let breakdown = Breakdown::of(r);
    let segments = breakdown
        .as_ref()
        .map(|b| {
            Segment::ALL
                .into_iter()
                .map(|s| ExplainSegment {
                    segment: s.name().to_string(),
                    ns: b.seg(s).nanos(),
                    ms: b.seg(s).as_millis(),
                    critical: s == b.critical,
                })
                .collect()
        })
        .unwrap_or_default();

    Ok(Explanation {
        id,
        outcome: match r.outcome() {
            Outcome::Completed => "completed",
            Outcome::Shed => "shed",
            Outcome::Incomplete => "incomplete",
        }
        .to_string(),
        arrive_ms: t0.as_millis(),
        latency_ms: r.latency().map(|d| d.as_millis()),
        worker: r.worker,
        batch: r.batch,
        retries: r.retries,
        shed_cause: r.shed_cause.map(|c| c.name().to_string()),
        shed_after_ms: r.shed_at.map(|t| t.since(t0).as_millis()),
        timeline: evs.iter().map(|e| ExplainEvent::of(e, t0)).collect(),
        batch_side_events: side,
        segments,
        critical: breakdown.map(|b| b.critical.name().to_string()),
    })
}

impl Explanation {
    /// The human timeline `repro explain` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();

        // Headline: how the story ended.
        match self.outcome.as_str() {
            "completed" => {
                let _ = writeln!(
                    out,
                    "request {}: completed in {:.3} ms on worker {} (batch {}){}",
                    self.id,
                    self.latency_ms.unwrap_or(0.0),
                    self.worker.map_or("?".to_string(), |w| w.to_string()),
                    self.batch.map_or("?".to_string(), |b| b.to_string()),
                    if self.retries > 0 {
                        format!(
                            ", {} retr{}",
                            self.retries,
                            if self.retries == 1 { "y" } else { "ies" }
                        )
                    } else {
                        String::new()
                    }
                );
            }
            "shed" => {
                let _ = writeln!(
                    out,
                    "request {}: shed ({}) {:.3} ms after arrival",
                    self.id,
                    self.shed_cause.as_deref().unwrap_or("unknown"),
                    self.shed_after_ms.unwrap_or(0.0),
                );
            }
            _ => {
                let _ =
                    writeln!(out, "request {}: incomplete in this trace (truncated run?)", self.id);
            }
        }

        // Chronological event timeline, offsets relative to arrival.
        let _ = writeln!(out, "\ntimeline (t=0 at arrival, {:.3} ms absolute):", self.arrive_ms);
        for ev in &self.timeline {
            let _ = write!(out, "  t+{:>9.3} ms  {:<12}", ev.t_ms, ev.phase);
            if let Some(d) = ev.dur_ms {
                let _ = write!(out, " {:>9.3} ms", d);
            } else {
                let _ = write!(out, " {:>12}", "·");
            }
            let _ = write!(out, "  {}", ev.lane);
            if let Some(b) = ev.batch {
                let _ = write!(out, "  batch {b}");
            }
            if let Some(c) = &ev.cause {
                let _ = write!(out, "  cause {c}");
            }
            out.push('\n');
        }

        if !self.batch_side_events.is_empty() {
            let _ = writeln!(out, "\nbatch side events:");
            for ev in &self.batch_side_events {
                let _ = writeln!(
                    out,
                    "  t+{:>9.3} ms  {:<12}  batch {}  {}",
                    ev.t_ms,
                    ev.phase,
                    ev.batch.unwrap_or(0),
                    ev.lane
                );
            }
        }

        // The nine telescoping segments of a completed request.
        if !self.segments.is_empty() {
            let total_ns: u64 = self.segments.iter().map(|s| s.ns).sum();
            let _ = writeln!(
                out,
                "\nlatency attribution ({:.3} ms total, exact):",
                total_ns as f64 / 1e6
            );
            let widest = self.segments.iter().map(|s| s.ns).max().unwrap_or(1).max(1);
            for s in &self.segments {
                let bar = "#".repeat(((s.ns * 24) / widest) as usize);
                let _ = writeln!(
                    out,
                    "  {:<14} {:>9.3} ms {}{}",
                    s.segment,
                    s.ms,
                    bar,
                    if s.critical { "  <- critical" } else { "" }
                );
            }
        }
        out
    }
}

/// Render the causal timeline of `id` from a parsed event log.
pub fn explain_request(log: &EventLog, id: u64) -> Result<String, String> {
    Ok(explain(log, id)?.render())
}

/// [`explain`] over Chrome trace-event JSON (full or sampled).
pub fn explain_chrome_json(json: &str, id: u64) -> Result<Explanation, String> {
    let log = parse_chrome_trace(json)?;
    explain(&log, id)
}

/// [`explain_request`] over Chrome trace-event JSON (full or sampled).
pub fn explain_chrome(json: &str, id: u64) -> Result<String, String> {
    Ok(explain_chrome_json(json, id)?.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw_obs::{chrome_trace, Ctx, Event, Lane, Recorder, ShedCause};

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    fn served_log() -> EventLog {
        let mut log = EventLog::new();
        let r = Ctx::request(7);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), r));
        log.record(Event::instant(Phase::Admit, Lane::Server, t(0), r));
        log.record(Event::instant(Phase::BatchClose, Lane::Queue, t(10), r.with_batch(0)));
        let a = r.with_batch(0).with_worker(1);
        log.record(Event::instant(Phase::Dispatch, Lane::Worker(1), t(10), a));
        log.record(Event::span(Phase::UsbWrite, Lane::Host { worker: 1, dev: 0 }, t(10), t(12), a));
        log.record(Event::span(Phase::Exec, Lane::Vpu { worker: 1, dev: 0 }, t(12), t(60), a));
        log.record(Event::span(Phase::UsbRead, Lane::Host { worker: 1, dev: 0 }, t(60), t(62), a));
        // A hedge launched against the same batch.
        let h = Ctx { request_id: None, batch_id: Some(0), worker: Some(2) };
        log.record(Event::span(Phase::Hedge, Lane::Worker(2), t(30), t(31), h));
        log.record(Event::instant(Phase::Complete, Lane::Server, t(62), a));
        log
    }

    #[test]
    fn explains_a_completed_request_with_segments_and_hedges() {
        let text = explain_request(&served_log(), 7).expect("request present");
        assert!(text.starts_with("request 7: completed in 62.000 ms on worker 1"), "{text}");
        assert!(text.contains("timeline"), "{text}");
        assert!(text.contains("exec"), "{text}");
        assert!(text.contains("batch side events"), "{text}");
        assert!(text.contains("Hedge"), "{text}");
        assert!(text.contains("latency attribution (62.000 ms total"), "{text}");
        assert!(text.contains("<- critical"), "{text}");
        // exec (48 ms) dominates this request.
        let crit_line = text.lines().find(|l| l.contains("<- critical")).expect("critical marker");
        assert!(crit_line.trim_start().starts_with("exec "), "{crit_line}");
    }

    #[test]
    fn structured_explanation_carries_the_same_story() {
        let e = explain(&served_log(), 7).expect("request present");
        assert_eq!(e.outcome, "completed");
        assert_eq!(e.latency_ms, Some(62.0));
        assert_eq!((e.worker, e.batch, e.retries), (Some(1), Some(0), 0));
        assert_eq!(e.timeline.len(), 8, "the request's own events, in order");
        assert_eq!(e.batch_side_events.len(), 1);
        assert_eq!(e.batch_side_events[0].phase, "Hedge");
        // Segments telescope exactly and name the critical one.
        assert_eq!(e.segments.len(), 9);
        assert_eq!(e.segments.iter().map(|s| s.ns).sum::<u64>(), 62_000_000);
        assert_eq!(e.critical.as_deref(), Some("exec"));
        assert!(e.segments.iter().any(|s| s.segment == "exec" && s.critical && s.ns == 48_000_000));
        // And it is what the JSON arm serializes.
        let json = serde_json::to_string_pretty(&e).expect("serialize");
        assert!(json.contains("\"critical\": \"exec\""), "{json}");
    }

    #[test]
    fn explains_a_shed_request_and_rejects_unknown_ids() {
        let mut log = EventLog::new();
        let r = Ctx::request(3);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), r));
        log.record(
            Event::instant(Phase::Shed, Lane::Server, t(4), r).with_cause(ShedCause::Rejected),
        );
        let text = explain_request(&log, 3).unwrap();
        assert!(text.starts_with("request 3: shed (rejected) 4.000 ms after arrival"), "{text}");
        let e = explain(&log, 3).unwrap();
        assert_eq!(e.outcome, "shed");
        assert_eq!(e.shed_cause.as_deref(), Some("rejected"));
        assert!(e.segments.is_empty() && e.critical.is_none());
        let err = explain_request(&log, 99).unwrap_err();
        assert!(err.contains("request 99 not in trace"), "{err}");
        assert!(err.contains("sampling"), "{err}");
    }

    #[test]
    fn explain_round_trips_through_chrome_json() {
        let log = served_log();
        let direct = explain_request(&log, 7).unwrap();
        let via_json = explain_chrome(&chrome_trace(&log), 7).unwrap();
        assert_eq!(direct, via_json);
    }
}
