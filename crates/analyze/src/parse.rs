//! Chrome trace-event JSON → [`EventLog`].
//!
//! The exporter in `ncsw-obs` is lossless for what the analyzer needs:
//! lanes live in `thread_name` metadata, phases are event names,
//! timestamps are exact microseconds with a 3-decimal nanosecond
//! remainder, and the request context rides in `args`. This module
//! inverts it so `repro analyze` / `repro diff` work from trace files
//! alone — no access to the run that produced them.

use desim::SimTime;
use ncsw_obs::{Ctx, Event, EventLog, Lane, Phase, Recorder, SampleStats, ShedCause};
use serde::Deserialize as _;
use serde_json::Value;
use std::collections::BTreeMap;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// `ev[key]` in exact nanoseconds: exported times are `<us>.<ns%1000>`.
/// A missing, negative, non-finite or past-`u64` value is an error.
fn ns_field(ev: &Value, key: &str, i: usize) -> Result<u64, String> {
    let us = ev.get(key).and_then(number).ok_or(format!("event {i}: missing numeric {key}"))?;
    let ns = (us * 1_000.0).round();
    // 2^64 is exact as an f64; NaN fails both comparisons.
    if us >= 0.0 && ns < 18_446_744_073_709_551_616.0 {
        Ok(ns as u64)
    } else {
        Err(format!("event {i}: {key} {us:?} is not a time in [0, 2^64) ns"))
    }
}

/// Parse an exported Chrome trace back into an [`EventLog`]. Strict:
/// unknown phase, lane or cause names, unnamed tracks and impossible
/// timestamps are errors, not skips — a trace that parses here is one
/// the analyzer fully understands.
pub fn parse_chrome_trace(json: &str) -> Result<EventLog, String> {
    parse_chrome_trace_sampled(json).map(|(log, _)| log)
}

/// [`parse_chrome_trace`] plus the tail-sampling ledger of the trace's
/// `sampling` metadata row (`None` on a full-fidelity trace), read in
/// the same walk. A malformed row is an error naming the event.
pub fn parse_chrome_trace_sampled(json: &str) -> Result<(EventLog, Option<SampleStats>), String> {
    let _prof = ncsw_obs::prof::scope("analyze.parse");
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_seq)
        .ok_or("missing traceEvents array".to_string())?;

    // First pass over the metadata: tid → lane from thread_name rows,
    // and the sampling ledger.
    let mut lanes: BTreeMap<u64, Lane> = BTreeMap::new();
    let mut sampling = None;
    for (i, ev) in events.iter().enumerate() {
        if ev.get("ph").and_then(Value::as_str) != Some("M") {
            continue;
        }
        match ev.get("name").and_then(Value::as_str) {
            Some("thread_name") => {
                let tid = ev
                    .get("tid")
                    .and_then(number)
                    .ok_or(format!("metadata event {i}: missing tid"))?
                    as u64;
                let name = ev
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str)
                    .ok_or(format!("metadata event {i}: thread_name without a name"))?;
                let lane = Lane::parse(name)
                    .ok_or(format!("metadata event {i}: unknown lane {name:?}"))?;
                lanes.insert(tid, lane);
            }
            Some("sampling") => {
                let args = ev.get("args").ok_or(format!("event {i}: sampling row without args"))?;
                sampling =
                    Some(SampleStats::from_value(args).map_err(|e| {
                        format!("event {i}: malformed sampling metadata row: {e:?}")
                    })?);
            }
            _ => {}
        }
    }

    let mut log = EventLog::new();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Value::as_str).ok_or(format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        if ph != "X" && ph != "i" && ph != "C" {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        let tid = ev.get("tid").and_then(number).ok_or(format!("event {i}: missing tid"))? as u64;
        let lane = *lanes.get(&tid).ok_or(format!("event {i}: tid {tid} has no thread_name"))?;
        let start = SimTime(ns_field(ev, "ts", i)?);
        let args = ev.get("args");
        let arg = |k: &str| args.and_then(|a| a.get(k)).and_then(number);
        let ctx = Ctx {
            request_id: arg("request_id").map(|v| v as u64),
            batch_id: arg("batch_id").map(|v| v as u64),
            worker: arg("worker").map(|v| v as u32),
        };
        let name =
            ev.get("name").and_then(Value::as_str).ok_or(format!("event {i}: missing name"))?;
        if ph == "C" {
            // Counter sample: the exporter names it after its own lane
            // and carries the reading in args.mw.
            if name != lane.name() {
                return Err(format!("event {i}: counter name {name:?} != lane {:?}", lane.name()));
            }
            let mw = arg("mw").ok_or(format!("event {i}: counter without a numeric mw arg"))?;
            log.record(Event::counter(lane, start, mw as u64, ctx));
            continue;
        }
        let phase = Phase::parse(name).ok_or(format!("event {i}: unknown phase {name:?}"))?;
        let end = if ph == "X" {
            let end = start.nanos().checked_add(ns_field(ev, "dur", i)?);
            Some(SimTime(end.ok_or(format!("event {i}: span end overflows u64 ns"))?))
        } else {
            None
        };
        let cause = match args.and_then(|a| a.get("cause")).and_then(Value::as_str) {
            Some(c) => Some(ShedCause::parse(c).ok_or(format!("event {i}: unknown cause {c:?}"))?),
            None => None,
        };
        log.record(Event { phase, lane, start, end, ctx, cause, value: None });
    }
    Ok((log, sampling))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw_obs::chrome_trace;

    fn t(ms: u64) -> SimTime {
        SimTime(ms * 1_000_000)
    }

    fn sample_log() -> EventLog {
        let mut log = EventLog::new();
        log.record(Event::instant(Phase::Arrive, Lane::Server, SimTime(1_500), Ctx::request(0)));
        log.record(Event::span(
            Phase::Exec,
            Lane::Vpu { worker: 0, dev: 2 },
            SimTime(2_000),
            SimTime(102_500),
            Ctx::request(0).with_batch(1).with_worker(0),
        ));
        log.record(
            Event::span(Phase::Shed, Lane::Queue, t(1), t(5), Ctx::request(9))
                .with_cause(ShedCause::Evicted),
        );
        log.record(Event::counter(
            Lane::Power(0),
            SimTime(2_000),
            900,
            Ctx::NONE.with_batch(1).with_worker(0),
        ));
        log
    }

    #[test]
    fn export_parse_round_trip_is_lossless() {
        let log = sample_log();
        let back = parse_chrome_trace(&chrome_trace(&log)).expect("own export must parse");
        assert_eq!(back.events(), log.events());
    }

    #[test]
    fn strict_about_unknown_names() {
        let json = chrome_trace(&sample_log());
        let bad = json.replace("\"name\":\"Arrive\"", "\"name\":\"Arrived\"");
        assert!(parse_chrome_trace(&bad).unwrap_err().contains("unknown phase"));
        let bad = json.replace("\"cause\":\"evicted\"", "\"cause\":\"vibes\"");
        assert!(parse_chrome_trace(&bad).unwrap_err().contains("unknown cause"));
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{}").is_err());
    }

    #[test]
    fn impossible_timestamps_are_errors_naming_the_event() {
        let json = chrome_trace(&sample_log());
        for (from, to, want) in [
            ("\"ts\":1.500", "\"ts\":-5", "event 9: ts -5.0 is not a time"),
            ("\"dur\":100.500", "\"dur\":1e300", "event 10: dur 1e300 is not a time"),
            (
                "\"ts\":1000.000,\"dur\":4000.000",
                "\"ts\":18446744073709000,\"dur\":4000",
                "event 11: span end overflows",
            ),
            (
                "\"ts\":2.000,\"name\":\"w0.power\"",
                "\"ts\":1e300,\"name\":\"w0.power\"",
                "event 12: ts",
            ),
        ] {
            let bad = json.replacen(from, to, 1);
            assert_ne!(bad, json, "{from}");
            let err = parse_chrome_trace(&bad).unwrap_err();
            assert!(err.starts_with(want), "{err}");
        }
    }
}
