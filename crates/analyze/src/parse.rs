//! Chrome trace-event JSON → [`EventLog`].
//!
//! The exporter in `ncsw-obs` is lossless for what the analyzer needs:
//! lanes live in `thread_name` metadata, phases are event names,
//! timestamps are exact microseconds with a 3-decimal nanosecond
//! remainder, and the request context rides in `args`. This module
//! inverts it so `repro analyze` / `repro diff` work from trace files
//! alone — no access to the run that produced them.
//!
//! The reader never builds a JSON tree. It walks the text with the
//! `serde_json` lexer and decodes each `traceEvents` element into a
//! row of the few fields it reads, borrowing strings from the input,
//! so memory is the input text plus the typed events. The first pass
//! checks the whole document, reads the metadata rows (which may come
//! anywhere; the last `thread_name` of a tid wins) and converts the
//! events while the lanes read so far are final. Only a trace that
//! names a track after an event row needs a second pass over its events.
//! Errors come in one order — a syntax error, then a missing
//! `traceEvents` array, then the first metadata error, then the first
//! event error.

use desim::SimTime;
use ncsw_obs::{Ctx, Event, EventLog, Lane, Phase, Recorder, SampleStats, ShedCause};
use serde::Deserialize as _;
use serde_json::{Error, Parser, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// A `key` time of event `i` in exact nanoseconds: exported times are
/// `<us>.<ns%1000>`. A missing, negative, non-finite or past-`u64`
/// value is an error.
fn ns_field(us: Option<f64>, key: &str, i: usize) -> Result<u64, String> {
    let us = us.ok_or_else(|| format!("event {i}: missing numeric {key}"))?;
    let ns = (us * 1_000.0).round();
    // 2^64 is exact as an f64; NaN fails both comparisons.
    if us >= 0.0 && ns < 18_446_744_073_709_551_616.0 {
        Ok(ns as u64)
    } else {
        Err(format!("event {i}: {key} {us:?} is not a time in [0, 2^64) ns"))
    }
}

/// One field of a row, as the first occurrence of its key gave it.
#[derive(Debug, Default)]
enum Slot<'a> {
    #[default]
    Absent,
    Str(Cow<'a, str>),
    Num(f64),
    /// Present but neither a string nor a number.
    Other,
}

impl<'a> Slot<'a> {
    fn str(&self) -> Option<&str> {
        match self {
            Slot::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<f64> {
        match *self {
            Slot::Num(n) => Some(n),
            _ => None,
        }
    }

    /// Read the value after the key; a repeated key is checked and
    /// dropped (the first occurrence wins).
    fn read(&mut self, p: &mut Parser<'a>) -> Result<(), Error> {
        if !matches!(self, Slot::Absent) {
            return p.skip();
        }
        *self = match p.peek()? {
            b'"' => Slot::Str(p.string()?),
            b'n' | b't' | b'f' | b'[' | b'{' => {
                p.skip()?;
                Slot::Other
            }
            _ => Slot::Num(number(&p.number()?).expect("the lexer reads numbers")),
        };
        Ok(())
    }
}

/// The fields of one `traceEvents` element the reader uses; every
/// other key, and every element that is not an object, is checked and
/// skipped.
#[derive(Debug, Default)]
struct Row<'a> {
    ph: Slot<'a>,
    tid: Slot<'a>,
    ts: Slot<'a>,
    dur: Slot<'a>,
    name: Slot<'a>,
    /// Byte offset of the first `args` value: a `sampling` row is read
    /// again from there as a tree.
    args_at: Option<usize>,
    request_id: Slot<'a>,
    batch_id: Slot<'a>,
    worker: Slot<'a>,
    cause: Slot<'a>,
    mw: Slot<'a>,
    /// `args.name`, the track name of a `thread_name` row.
    arg_name: Slot<'a>,
}

/// Read the object `p` is at with `field(p, key)` per key; any other
/// value is checked and skipped.
fn object<'a>(
    p: &mut Parser<'a>,
    mut field: impl FnMut(&mut Parser<'a>, &str) -> Result<(), Error>,
) -> Result<(), Error> {
    if p.peek()? != b'{' {
        return p.skip();
    }
    p.enter()?;
    p.map(|p, key| field(p, &key))?;
    p.leave();
    Ok(())
}

impl<'a> Row<'a> {
    fn read(p: &mut Parser<'a>) -> Result<Row<'a>, Error> {
        let mut row = Row::default();
        object(p, |p, key| match key {
            "ph" => row.ph.read(p),
            "tid" => row.tid.read(p),
            "ts" => row.ts.read(p),
            "dur" => row.dur.read(p),
            "name" => row.name.read(p),
            "args" if row.args_at.is_none() => {
                row.args_at = Some(p.pos());
                object(p, |p, key| match key {
                    "request_id" => row.request_id.read(p),
                    "batch_id" => row.batch_id.read(p),
                    "worker" => row.worker.read(p),
                    "cause" => row.cause.read(p),
                    "mw" => row.mw.read(p),
                    "name" => row.arg_name.read(p),
                    _ => p.skip(),
                })
            }
            _ => p.skip(),
        })?;
        Ok(row)
    }
}

/// Read the `traceEvents` array `p` is at, handing each element to
/// `each` with its index.
fn rows<'a>(
    p: &mut Parser<'a>,
    mut each: impl FnMut(usize, Row<'a>) -> Result<(), Error>,
) -> Result<(), Error> {
    p.enter()?;
    let mut i = 0;
    p.seq(|p| {
        each(i, Row::read(p)?)?;
        i += 1;
        Ok(())
    })?;
    p.leave();
    Ok(())
}

/// What the metadata rows say: tid → lane from the `thread_name` rows
/// and the `sampling` ledger.
#[derive(Default)]
struct Tracks {
    lanes: BTreeMap<u64, Lane>,
    sampling: Option<SampleStats>,
}

impl Tracks {
    /// Fold in row `i` of `json` if it is a metadata row.
    fn add(&mut self, i: usize, row: &Row, json: &str) -> Result<(), String> {
        if row.ph.str() != Some("M") {
            return Ok(());
        }
        match row.name.str() {
            Some("thread_name") => {
                let tid =
                    row.tid.num().ok_or_else(|| format!("metadata event {i}: missing tid"))? as u64;
                let name = row
                    .arg_name
                    .str()
                    .ok_or_else(|| format!("metadata event {i}: thread_name without a name"))?;
                let lane = Lane::parse(name)
                    .ok_or_else(|| format!("metadata event {i}: unknown lane {name:?}"))?;
                self.lanes.insert(tid, lane);
            }
            Some("sampling") => {
                let at =
                    row.args_at.ok_or_else(|| format!("event {i}: sampling row without args"))?;
                let malformed =
                    |e: Error| format!("event {i}: malformed sampling metadata row: {e}");
                // The row is already checked, so its args read again as a tree.
                let args = Parser::new(&json[at..]).value().map_err(malformed)?;
                self.sampling = Some(SampleStats::from_value(&args).map_err(malformed)?);
            }
            _ => {}
        }
        Ok(())
    }
}

/// Row `i` as an event; `None` for a metadata row.
fn event(i: usize, row: &Row, lanes: &BTreeMap<u64, Lane>) -> Result<Option<Event>, String> {
    let ph = row.ph.str().ok_or_else(|| format!("event {i}: missing ph"))?;
    if ph == "M" {
        return Ok(None);
    }
    if ph != "X" && ph != "i" && ph != "C" {
        return Err(format!("event {i}: unexpected ph {ph:?}"));
    }
    let tid = row.tid.num().ok_or_else(|| format!("event {i}: missing tid"))? as u64;
    let lane =
        *lanes.get(&tid).ok_or_else(|| format!("event {i}: tid {tid} has no thread_name"))?;
    let start = SimTime(ns_field(row.ts.num(), "ts", i)?);
    let ctx = Ctx {
        request_id: row.request_id.num().map(|v| v as u64),
        batch_id: row.batch_id.num().map(|v| v as u64),
        worker: row.worker.num().map(|v| v as u32),
    };
    let name = row.name.str().ok_or_else(|| format!("event {i}: missing name"))?;
    if ph == "C" {
        // Counter sample: the exporter names it after its own lane
        // and carries the reading in args.mw.
        if name != lane.name() {
            return Err(format!("event {i}: counter name {name:?} != lane {:?}", lane.name()));
        }
        let mw =
            row.mw.num().ok_or_else(|| format!("event {i}: counter without a numeric mw arg"))?;
        return Ok(Some(Event::counter(lane, start, mw as u64, ctx)));
    }
    let phase = Phase::parse(name).ok_or_else(|| format!("event {i}: unknown phase {name:?}"))?;
    let end = if ph == "X" {
        let end = start.nanos().checked_add(ns_field(row.dur.num(), "dur", i)?);
        Some(SimTime(end.ok_or_else(|| format!("event {i}: span end overflows u64 ns"))?))
    } else {
        None
    };
    let cause = match row.cause.str() {
        Some(c) => {
            Some(ShedCause::parse(c).ok_or_else(|| format!("event {i}: unknown cause {c:?}"))?)
        }
        None => None,
    };
    Ok(Some(Event { phase, lane, start, end, ctx, cause, value: None }))
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

    // Pass 1: check the document, find the first `traceEvents` key and,
    // if it holds an array, read its rows. Until a `thread_name` row
    // follows an event row the lanes read so far are final, so the
    // events are converted here too.
    let mut p = Parser::new(json);
    let mut events_key = false;
    let mut events_at = None;
    let mut tracks = Tracks::default();
    let mut meta_err = None;
    let mut log = EventLog::new();
    let mut event_err = None;
    let (mut seen_event, mut late_track) = (false, false);
    object(&mut p, |p, key| {
        if key != "traceEvents" || std::mem::replace(&mut events_key, true) {
            return p.skip();
        }
        if p.peek()? != b'[' {
            return p.skip();
        }
        events_at = Some(p.pos());
        rows(p, |i, row| {
            if meta_err.is_none() {
                meta_err = tracks.add(i, &row, json).err();
            }
            let meta = row.ph.str() == Some("M");
            late_track |= seen_event && meta && row.name.str() == Some("thread_name");
            seen_event |= !meta;
            if !late_track && event_err.is_none() {
                match event(i, &row, &tracks.lanes) {
                    Ok(Some(ev)) => log.record(ev),
                    Ok(None) => {}
                    Err(e) => event_err = Some(e),
                }
            }
            Ok(())
        })
    })
    .and_then(|()| p.end())
    .map_err(|e| format!("not valid JSON: {e}"))?;
    let at = events_at.ok_or_else(|| "missing traceEvents array".to_string())?;
    if let Some(e) = meta_err {
        return Err(e);
    }
    if !late_track {
        return match event_err {
            Some(e) => Err(e),
            None => Ok((log, tracks.sampling)),
        };
    }

    // Pass 2: a track was named after an event, so read the events again
    // with the final lanes. The text is known good, so the only error
    // left is an event's.
    log = EventLog::new();
    rows(&mut Parser::new(&json[at..]), |i, row| {
        if let Some(ev) = event(i, &row, &tracks.lanes).map_err(Error::custom)? {
            log.record(ev);
        }
        Ok(())
    })
    .map_err(|e| e.to_string())?;
    Ok((log, tracks.sampling))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ncsw_obs::{chrome_trace, ChromeWriter};
    use proptest::prelude::*;
    use proptest::TestRng;

    /// The tree reader the row reader replaced, kept as its
    /// differential oracle: the whole document as a [`Value`] tree, then
    /// the same two passes over `traceEvents`.
    fn tree_reader(json: &str) -> Result<(EventLog, Option<SampleStats>), String> {
        let doc: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e}"))?;
        let events = doc
            .get("traceEvents")
            .and_then(Value::as_seq)
            .ok_or_else(|| "missing traceEvents array".to_string())?;

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
                        .ok_or_else(|| format!("metadata event {i}: missing tid"))?
                        as u64;
                    let name = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .ok_or_else(|| {
                        format!("metadata event {i}: thread_name without a name")
                    })?;
                    let lane = Lane::parse(name)
                        .ok_or_else(|| format!("metadata event {i}: unknown lane {name:?}"))?;
                    lanes.insert(tid, lane);
                }
                Some("sampling") => {
                    let args = ev
                        .get("args")
                        .ok_or_else(|| format!("event {i}: sampling row without args"))?;
                    sampling =
                        Some(SampleStats::from_value(args).map_err(|e| {
                            format!("event {i}: malformed sampling metadata row: {e}")
                        })?);
                }
                _ => {}
            }
        }

        let mut log = EventLog::new();
        for (i, ev) in events.iter().enumerate() {
            let ph = ev
                .get("ph")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {i}: missing ph"))?;
            if ph == "M" {
                continue;
            }
            if ph != "X" && ph != "i" && ph != "C" {
                return Err(format!("event {i}: unexpected ph {ph:?}"));
            }
            let tid =
                ev.get("tid").and_then(number).ok_or_else(|| format!("event {i}: missing tid"))?
                    as u64;
            let lane = *lanes
                .get(&tid)
                .ok_or_else(|| format!("event {i}: tid {tid} has no thread_name"))?;
            let start = SimTime(ns_field(ev.get("ts").and_then(number), "ts", i)?);
            let args = ev.get("args");
            let arg = |k: &str| args.and_then(|a| a.get(k)).and_then(number);
            let ctx = Ctx {
                request_id: arg("request_id").map(|v| v as u64),
                batch_id: arg("batch_id").map(|v| v as u64),
                worker: arg("worker").map(|v| v as u32),
            };
            let name = ev
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("event {i}: missing name"))?;
            if ph == "C" {
                if name != lane.name() {
                    return Err(format!(
                        "event {i}: counter name {name:?} != lane {:?}",
                        lane.name()
                    ));
                }
                let mw = arg("mw")
                    .ok_or_else(|| format!("event {i}: counter without a numeric mw arg"))?;
                log.record(Event::counter(lane, start, mw as u64, ctx));
                continue;
            }
            let phase =
                Phase::parse(name).ok_or_else(|| format!("event {i}: unknown phase {name:?}"))?;
            let end = if ph == "X" {
                let end =
                    start.nanos().checked_add(ns_field(ev.get("dur").and_then(number), "dur", i)?);
                Some(SimTime(end.ok_or_else(|| format!("event {i}: span end overflows u64 ns"))?))
            } else {
                None
            };
            let cause = match args.and_then(|a| a.get("cause")).and_then(Value::as_str) {
                Some(c) => Some(
                    ShedCause::parse(c).ok_or_else(|| format!("event {i}: unknown cause {c:?}"))?,
                ),
                None => None,
            };
            log.record(Event { phase, lane, start, end, ctx, cause, value: None });
        }
        Ok((log, sampling))
    }

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

    /// A reader's full answer: the events and sampling ledger, or the error.
    type Answer = Result<(Vec<Event>, Option<SampleStats>), String>;

    /// Both readers' answer on `json`.
    fn both(json: &str) -> [Answer; 2] {
        let flat = |r: Result<(EventLog, Option<SampleStats>), String>| {
            r.map(|(log, s)| (log.events().to_vec(), s))
        };
        [flat(parse_chrome_trace_sampled(json)), flat(tree_reader(json))]
    }

    /// The error both readers give on `json`.
    fn error_of(json: &str) -> String {
        let [row, tree] = both(json);
        assert_eq!(row, tree, "{json}");
        row.expect_err(json).to_string()
    }

    #[test]
    fn error_strings_are_pinned() {
        let ev = r#"{"ph":"i","tid":0,"ts":1.000,"name":"Arrive","args":{"request_id":1}}"#;
        let server = r#"{"ph":"M","tid":0,"name":"thread_name","args":{"name":"server"}}"#;
        let doc = |rows: &[&str]| format!("{{\"traceEvents\":[{}]}}", rows.join(","));
        // Metadata after the events it names still names them; a bad
        // metadata row wins over an earlier bad event.
        assert_eq!(error_of(&doc(&[ev, server, "{}"])), "event 2: missing ph");
        let bad_lane = r#"{"ph":"M","tid":1,"name":"thread_name","args":{"name":"w9.nowhere"}}"#;
        assert_eq!(
            error_of(&doc(&["{}", ev, server, bad_lane])),
            "metadata event 3: unknown lane \"w9.nowhere\""
        );
        // A repeated key: the first occurrence wins.
        let dup = r#"{"ph":"Q","ph":"i","tid":0,"ts":1.000,"name":"Arrive"}"#;
        assert_eq!(error_of(&doc(&[server, dup])), "event 1: unexpected ph \"Q\"");
        let dup = r#"{"ph":"i","ph":"Q","tid":0,"ts":1.000,"name":"Arrive"}"#;
        let [row, tree] = both(&doc(&[server, dup]));
        assert_eq!(row, tree);
        assert_eq!(row.unwrap().0.len(), 1);
        // A syntax error wins over everything; then the missing array.
        assert_eq!(error_of(&doc(&[ev, "{"])), "not valid JSON: expected `\"` at byte 87");
        assert_eq!(error_of(r#"{"traceEvents":5,"traceEvents":[]}"#), "missing traceEvents array");
        // The sampling row's error reads as the serde error, not its Debug form.
        let sampling =
            r#"{"ph":"M","tid":0,"name":"sampling","args":{"spec":"1-in-2","requests_seen":"x"}}"#;
        assert_eq!(
            error_of(&doc(&[server, sampling])),
            "event 1: malformed sampling metadata row: expected unsigned integer, found string"
        );
    }

    /// A random log over every lane kind, phase, shed cause and
    /// counter, with optional context fields, and an optional sampling
    /// ledger.
    fn random_log(rng: &mut TestRng) -> (EventLog, Option<SampleStats>) {
        let mut log = EventLog::new();
        for _ in 0..1 + rng.below(14) {
            let (w, d) = (rng.below(3) as u32, rng.below(3) as u32);
            let lane = match rng.below(9) {
                0 => Lane::Server,
                1 => Lane::Queue,
                2 => Lane::Worker(w),
                3 => Lane::Host { worker: w, dev: d },
                4 => Lane::Vpu { worker: w, dev: d },
                5 => Lane::UsbRoot { worker: w },
                6 => Lane::UsbHub { worker: w, hub: d },
                7 => Lane::Alerts,
                _ => Lane::Power(w),
            };
            let mut some = |n: u64| (rng.below(2) == 0).then(|| rng.below(n));
            let ctx = Ctx {
                request_id: some(1 << 40),
                batch_id: some(1000),
                worker: some(8).map(|w| w as u32),
            };
            let start = SimTime(rng.below(1 << 42));
            let phase = Phase::ALL[rng.below(Phase::ALL.len() as u64) as usize];
            let ev = if phase == Phase::PowerSample {
                Event::counter(lane, start, rng.below(1 << 20), ctx)
            } else if rng.below(2) == 0 {
                Event::instant(phase, lane, start, ctx)
            } else {
                Event::span(phase, lane, start, SimTime(start.nanos() + rng.below(1 << 30)), ctx)
            };
            // The exporter writes no cause on a counter row.
            log.record(match rng.below(3) {
                0 if phase != Phase::PowerSample => {
                    ev.with_cause(ShedCause::ALL[rng.below(4) as usize])
                }
                _ => ev,
            });
        }
        let sampling = (rng.below(3) == 0).then(|| SampleStats {
            spec: format!("1-in-{}", 1 + rng.below(100)),
            requests_seen: rng.below(1000),
            requests_kept: rng.below(100),
            uniform: rng.below(10),
            events_kept: rng.below(10_000),
            ..SampleStats::default()
        });
        (log, sampling)
    }

    fn export(log: &EventLog, sampling: Option<&SampleStats>) -> String {
        let mut buf = Vec::new();
        let mut w = ChromeWriter::new(&mut buf, &log.lanes()).unwrap();
        for ev in log.events() {
            w.event(ev).unwrap();
        }
        if let Some(s) = sampling {
            w.sampling(s).unwrap();
        }
        w.finish().unwrap();
        String::from_utf8(buf).unwrap()
    }

    /// An exported document's rows, one per line, between its header
    /// and tail lines; `None` once an edit broke that layout.
    fn rows_of(json: &str) -> Option<(&str, Vec<&str>, &str)> {
        let (head, body) = json.split_once('\n')?;
        let end = body.rfind("\n]}")?;
        let rows = body[..end].split(",\n").collect();
        Some((head, rows, &body[end..]))
    }

    fn with_rows(json: &str, edit: impl FnOnce(&mut Vec<String>)) -> String {
        let Some((head, rows, tail)) = rows_of(json) else { return json.to_string() };
        let mut rows: Vec<String> = rows.into_iter().map(String::from).collect();
        edit(&mut rows);
        format!("{head}\n{}{tail}", rows.join(",\n"))
    }

    /// The top-level members of a one-line object, split at the commas
    /// outside strings and nested values.
    fn members(row: &str) -> Option<Vec<&str>> {
        let inner = row.strip_prefix('{')?.strip_suffix('}')?;
        let (mut depth, mut in_str, mut escaped, mut start) = (0i32, false, false, 0);
        let mut out = Vec::new();
        for (i, c) in inner.char_indices() {
            match c {
                _ if escaped => escaped = false,
                '\\' if in_str => escaped = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                ',' if !in_str && depth == 0 => {
                    out.push(&inner[start..i]);
                    start = i + 1;
                }
                _ => {}
            }
        }
        out.push(&inner[start..]);
        Some(out)
    }

    /// Values an edit splices in: numbers, strings with and without
    /// escapes, literals and containers.
    const VALUES: [&str; 14] = [
        "-5",
        "1e300",
        "0.5",
        "18446744073709551615",
        "18446744073709551616",
        "\"M\"",
        "\"X\"",
        "\"\\u0041rrive\"",
        "\"Arr\\\"ive\"",
        "\"\\ud800\"",
        "null",
        "true",
        "[1,{\"a\":[]}]",
        "{\"name\":\"server\"}",
    ];
    const KEYS: [&str; 12] = [
        "ph",
        "tid",
        "ts",
        "dur",
        "name",
        "args",
        "request_id",
        "batch_id",
        "worker",
        "cause",
        "mw",
        "p\\u0068",
    ];

    /// One edit of an exported trace, `at` picking where and what.
    fn mutate(json: &str, kind: u8, at: u64) -> String {
        let pick = |n: usize, k: u64| (k % n.max(1) as u64) as usize;
        let value = VALUES[pick(VALUES.len(), at / 7)];
        match kind {
            // Swap a number for another value.
            0 => {
                let sites: Vec<usize> = json
                    .match_indices(':')
                    .map(|(i, _)| i + 1)
                    .filter(|&i| json.as_bytes().get(i).is_some_and(u8::is_ascii_digit))
                    .collect();
                let Some(&i) = sites.get(pick(sites.len(), at)) else { return json.to_string() };
                let len = json[i..].bytes().take_while(|c| b"0123456789.".contains(c)).count();
                format!("{}{value}{}", &json[..i], &json[i + len..])
            }
            // Truncate.
            1 => {
                let mut cut = pick(json.len(), at);
                while !json.is_char_boundary(cut) {
                    cut -= 1;
                }
                json[..cut].to_string()
            }
            // Swap two names.
            2 => {
                let names: Vec<(usize, &str)> = json.match_indices("\"name\":\"").collect();
                let (a, b) = (pick(names.len(), at), pick(names.len(), at / 13));
                if names.is_empty() || a == b {
                    return json.to_string();
                }
                let (a, b) = (names[a.min(b)].0 + 8, names[a.max(b)].0 + 8);
                let end = |i: usize| i + json[i..].find('"').unwrap_or(0);
                let (ea, eb) = (end(a), end(b));
                format!(
                    "{}{}{}{}{}",
                    &json[..a],
                    &json[b..eb],
                    &json[ea..b],
                    &json[a..ea],
                    &json[eb..]
                )
            }
            // Move every metadata row after the events.
            3 => with_rows(json, |rows| {
                let (meta, events): (Vec<String>, Vec<String>) =
                    rows.drain(..).partition(|r| r.contains("\"ph\":\"M\""));
                rows.extend(events.into_iter().chain(meta));
            }),
            // A repeated key, first or last in a row or in its args.
            4 => with_rows(json, |rows| {
                let i = pick(rows.len(), at);
                let key = KEYS[pick(KEYS.len(), at / 3)];
                let member = format!("\"{key}\":{value}");
                let row = &mut rows[i];
                match (at / 5) % 4 {
                    0 => row.insert_str(1, &format!("{member},")),
                    1 => row.insert_str(row.len() - 1, &format!(",{member}")),
                    2 => *row = row.replacen("\"args\":{", &format!("\"args\":{{{member},"), 1),
                    _ => *row = row.replacen("\"args\":{", &format!("\"args\":{{{member}"), 1),
                }
            }),
            // Reverse the key order of a row.
            5 => with_rows(json, |rows| {
                let i = pick(rows.len(), at);
                if let Some(mut m) = members(&rows[i]) {
                    m.reverse();
                    rows[i] = format!("{{{}}}", m.join(","));
                }
            }),
            // Write a key or a name with escapes.
            6 => {
                let (from, to) = [
                    ("\"ph\":", "\"p\\u0068\":"),
                    ("\"name\":\"A", "\"name\":\"\\u0041"),
                    ("\"name\":\"w", "\"name\":\"\\u0077"),
                    ("\"cause\":\"", "\"cause\":\"\\/"),
                    ("\"name\":\"", "\"name\":\"\\x"),
                    ("\"name\":\"", "\"name\":\"\\u00"),
                ][pick(6, at)];
                let sites: Vec<usize> = json.match_indices(from).map(|(i, _)| i).collect();
                let Some(&i) = sites.get(pick(sites.len(), at / 6)) else {
                    return json.to_string();
                };
                format!("{}{to}{}", &json[..i], &json[i + from.len()..])
            }
            // An element that is not an object.
            7 => with_rows(json, |rows| {
                let i = pick(rows.len() + 1, at);
                rows.insert(i, value.to_string());
            }),
            // A second traceEvents key, before or after the first.
            8 => {
                let other = ["[]", "5", value, "[{\"ph\":\"M\"}]"][pick(4, at)];
                match json.strip_prefix('{') {
                    Some(rest) if at.is_multiple_of(2) => {
                        format!("{{\"traceEvents\":{other},{rest}")
                    }
                    _ => match json.trim_end().strip_suffix('}') {
                        Some(rest) => format!("{rest},\"traceEvents\":{other}}}"),
                        None => json.to_string(),
                    },
                }
            }
            // Nesting inside args, reaching the depth limit or just past
            // it: args members sit at depth 5.
            _ => with_rows(json, |rows| {
                let i = pick(rows.len(), at);
                let n = serde_json::MAX_DEPTH - 4 + pick(2, at / 3);
                let deep = match (at / 6) % 2 {
                    0 => format!("{}{}", "[".repeat(n), "]".repeat(n)),
                    _ => format!("{}0{}", "[".repeat(n - 1), "]".repeat(n - 1)),
                };
                rows[i] =
                    rows[i].replacen("\"args\":{", &format!("\"args\":{{\"deep\":{deep},"), 1);
            }),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]
        /// The row reader gives the tree reader's answer — the same
        /// events and sampling ledger, or the same error — on exported
        /// logs and on every kind of edit of them.
        #[test]
        fn row_reader_matches_the_tree_reader(
            seed in any::<u64>(),
            edits in proptest::collection::vec((0u8..10, any::<u64>()), 0..4),
        ) {
            let (log, sampling) = random_log(&mut TestRng::new(seed));
            let mut json = export(&log, sampling.as_ref());
            if edits.is_empty() {
                let (events, got) = parse_chrome_trace_sampled(&json).unwrap();
                prop_assert_eq!(events.events(), log.events());
                prop_assert_eq!(got, sampling);
            }
            for &(kind, at) in &edits {
                json = mutate(&json, kind, at);
            }
            let [row, tree] = both(&json);
            prop_assert_eq!(row, tree, "{}", json);
        }
    }
}
