//! Structural validation of exported Chrome trace-event JSON.
//!
//! CI runs a tiny observed serving run, exports the trace, and feeds it
//! back through [`validate`]: the document must parse, carry every
//! expected phase at least once, name its tracks, and contain at least
//! one request whose full Arrive→…→Complete chain appears with
//! non-decreasing timestamps. This closes the loop on the exporter — a
//! trace that renders in Perfetto but silently lost a phase fails here.

use ncsw_obs::{Phase, SampleStats, ShedCause};
use serde::Deserialize as _;
use serde_json::Value;
use std::collections::BTreeMap;

/// Phases every serving trace must contain at least once — derived from
/// [`Phase::REQUEST_CHAIN`] so the checker can never drift from the
/// names the exporter actually writes.
pub const REQUIRED_PHASES: [&str; Phase::REQUEST_CHAIN.len()] = {
    let mut out = [""; Phase::REQUEST_CHAIN.len()];
    let mut i = 0;
    while i < out.len() {
        out[i] = Phase::REQUEST_CHAIN[i].name();
        i += 1;
    }
    out
};

/// What [`validate`] measured about a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceCheck {
    /// Trace events excluding metadata records.
    pub events: usize,
    /// Named tracks (thread_name metadata records).
    pub tracks: usize,
    /// Distinct request ids seen in event args.
    pub requests: usize,
    /// Requests whose full phase chain is present and time-ordered.
    pub chained: usize,
    /// Failover events (each verified against a prior Dispatch on the
    /// same worker).
    pub failovers: usize,
    /// Circuit-breaker outage windows (each verified Exec-free).
    pub outage_windows: usize,
    /// Shed events (each verified to carry a valid cause and to be the
    /// request's final event).
    pub sheds: usize,
    /// Power counter samples (`ph:"C"`, each verified to carry a
    /// numeric `mw` reading).
    pub power_samples: usize,
    /// Drain events (each verified to open a dispatch-free window).
    pub drains: usize,
    /// ScaleUp spans (provisioning windows re-admitting a worker).
    pub scale_ups: usize,
    /// ScaleDown events (each verified outside any Exec span — a stick
    /// may only power-gate after its in-flight batches complete).
    pub scale_downs: usize,
    /// Hedge spans (speculative duplicate dispatches).
    pub hedges: usize,
    /// HedgeWin marks (each verified against a prior Hedge on the same
    /// batch).
    pub hedge_wins: usize,
    /// HedgeCancel marks (same pairing rule as wins).
    pub hedge_cancels: usize,
    /// IntegrityFail marks (each verified to be followed by a retry or
    /// a shed of the same request).
    pub integrity_fails: usize,
    /// Quarantine entries (each verified Exec-free until the matching
    /// Probation re-admits the worker).
    pub quarantines: usize,
    /// Probation re-entries.
    pub probations: usize,
    /// Tail-sampling ledger parsed from the trace's `sampling` metadata
    /// row (`None` = full-fidelity trace).
    pub sampling: Option<SampleStats>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(u) => Some(*u as f64),
        Value::I64(i) => Some(*i as f64),
        Value::F64(f) => Some(*f),
        _ => None,
    }
}

/// Validate `json` as a serving trace. Returns what was found, or a
/// description of the first structural problem.
pub fn validate(json: &str) -> Result<TraceCheck, String> {
    let doc: Value = serde_json::from_str(json).map_err(|e| format!("not valid JSON: {e:?}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_seq)
        .ok_or("missing traceEvents array".to_string())?;

    let mut tracks = 0usize;
    let mut count = 0usize;
    let mut phase_seen: BTreeMap<&str, usize> = BTreeMap::new();
    // request id -> (phase name -> first ts)
    let mut per_request: BTreeMap<u64, BTreeMap<String, f64>> = BTreeMap::new();
    // Failover structure: worker -> event timestamps, in log order.
    let mut dispatches: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut execs: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut failovers: Vec<(u64, f64)> = Vec::new();
    // worker -> (ts, is_open) circuit transitions.
    let mut circuit: BTreeMap<u64, Vec<(f64, bool)>> = BTreeMap::new();
    // Autoscaling structure, per worker in log order.
    let mut exec_spans: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    let mut drains: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut scale_downs: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    // ScaleUp spans end when the stick is provisioned and re-admitted.
    let mut scale_up_ends: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    // request id -> Shed timestamp; request id -> latest event (ts, name).
    let mut shed_at: BTreeMap<u64, f64> = BTreeMap::new();
    let mut latest: BTreeMap<u64, (f64, String)> = BTreeMap::new();
    let mut power_samples = 0usize;
    // Gray-failure structure: hedge spans per batch, win/cancel marks,
    // quarantine/probation instants per worker, integrity rejections
    // and retries per request.
    let mut hedge_starts: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut hedge_marks: Vec<(u64, f64, bool)> = Vec::new(); // (batch, ts, is_win)
    let mut quarantine_at: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut probation_at: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut integrity: Vec<(u64, f64)> = Vec::new(); // (request, ts)
    let mut retry_at: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut sampling: Option<SampleStats> = None;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Value::as_str).ok_or(format!("event {i}: missing ph"))?;
        if ph == "M" {
            match ev.get("name").and_then(Value::as_str) {
                Some("thread_name") => tracks += 1,
                Some("sampling") => {
                    let args =
                        ev.get("args").ok_or(format!("event {i}: sampling row without args"))?;
                    sampling = Some(SampleStats::from_value(args).map_err(|e| {
                        format!("event {i}: malformed sampling metadata row: {e:?}")
                    })?);
                }
                _ => {}
            }
            continue;
        }
        if ph == "C" {
            // A power counter without a reading is unrenderable and
            // breaks the analyzer's exact re-integration.
            ev.get("args")
                .and_then(|a| a.get("mw"))
                .and_then(number)
                .ok_or(format!("event {i}: counter without a numeric mw arg"))?;
            power_samples += 1;
            count += 1;
            continue;
        }
        if ph != "X" && ph != "i" {
            return Err(format!("event {i}: unexpected ph {ph:?}"));
        }
        count += 1;
        let name =
            ev.get("name").and_then(Value::as_str).ok_or(format!("event {i}: missing name"))?;
        let ts = ev.get("ts").and_then(number).ok_or(format!("event {i}: missing numeric ts"))?;
        let mut dur = 0.0;
        if ph == "X" {
            dur = ev.get("dur").and_then(number).ok_or(format!("event {i}: span without dur"))?;
            if dur < 0.0 {
                return Err(format!("event {i}: negative dur"));
            }
        }
        if let Some(&p) = REQUIRED_PHASES.iter().find(|&&p| p == name) {
            *phase_seen.entry(p).or_insert(0) += 1;
        }
        // A Shed must say why: the cause arg is what every downstream
        // consumer (analyzer, flamegraph, post-mortems) keys on.
        if name == "Shed" {
            let cause = ev
                .get("args")
                .and_then(|a| a.get("cause"))
                .and_then(Value::as_str)
                .ok_or(format!("event {i}: Shed without a cause arg"))?;
            if ShedCause::parse(cause).is_none() {
                return Err(format!("event {i}: Shed with unknown cause {cause:?}"));
            }
        }
        if let Some(id) = ev.get("args").and_then(|a| a.get("request_id")).and_then(number) {
            let id = id as u64;
            let slot = per_request.entry(id).or_default();
            let entry = slot.entry(name.to_string()).or_insert(ts);
            if ts < *entry {
                *entry = ts;
            }
            if name == "Shed" {
                // Retry-exhaustion sheds are spans covering the
                // request's whole queued life (arrival -> decision);
                // the *end* is the shed instant the finality and
                // integrity-resolution checks compare against.
                shed_at.entry(id).or_insert(ts + dur);
            }
            let last = latest.entry(id).or_insert((ts, name.to_string()));
            if ts > last.0 {
                *last = (ts, name.to_string());
            }
            if name == "IntegrityFail" {
                integrity.push((id, ts));
            }
            if name == "RetryAttempt" {
                retry_at.entry(id).or_default().push(ts);
            }
        }
        if let Some(w) = ev.get("args").and_then(|a| a.get("worker")).and_then(number) {
            let w = w as u64;
            match name {
                "Dispatch" => dispatches.entry(w).or_default().push(ts),
                "Exec" => {
                    execs.entry(w).or_default().push(ts);
                    exec_spans.entry(w).or_default().push((ts, ts + dur));
                }
                "Failover" => failovers.push((w, ts)),
                "CircuitOpen" => circuit.entry(w).or_default().push((ts, true)),
                "CircuitClose" => circuit.entry(w).or_default().push((ts, false)),
                "Drain" => drains.entry(w).or_default().push(ts),
                "ScaleDown" => scale_downs.entry(w).or_default().push(ts),
                "ScaleUp" => scale_up_ends.entry(w).or_default().push(ts + dur),
                "Quarantine" => quarantine_at.entry(w).or_default().push(ts),
                "Probation" => probation_at.entry(w).or_default().push(ts),
                _ => {}
            }
        }
        if let Some(b) = ev.get("args").and_then(|a| a.get("batch_id")).and_then(number) {
            let b = b as u64;
            match name {
                "Hedge" => hedge_starts.entry(b).or_default().push(ts),
                "HedgeWin" => hedge_marks.push((b, ts, true)),
                "HedgeCancel" => hedge_marks.push((b, ts, false)),
                _ => {}
            }
        }
    }

    for p in REQUIRED_PHASES {
        if !phase_seen.contains_key(p) {
            return Err(format!("phase {p} never appears in the trace"));
        }
    }
    if tracks == 0 {
        return Err("no thread_name metadata (unnamed tracks)".to_string());
    }

    // Failover structure: a Failover must follow a Dispatch on the same
    // worker — the batch it re-plans must actually have been routed.
    for &(w, ts) in &failovers {
        let dispatched_before = dispatches.get(&w).is_some_and(|d| d.iter().any(|&dt| dt <= ts));
        if !dispatched_before {
            return Err(format!("Failover on worker {w} at {ts} without a prior Dispatch"));
        }
    }
    // Circuit windows: transitions alternate open/close in time order,
    // and no Exec starts while a worker's circuit is open (the probe's
    // Exec lands at/after the CircuitClose that re-admitted it).
    let mut outage_windows = 0usize;
    for (w, evs) in &circuit {
        let mut last = f64::MIN;
        for (i, &(ts, is_open)) in evs.iter().enumerate() {
            let expect_open = i % 2 == 0;
            if is_open != expect_open {
                return Err(format!("worker {w}: circuit transitions do not alternate"));
            }
            if ts < last {
                return Err(format!("worker {w}: circuit transitions go backwards"));
            }
            last = ts;
        }
        for pair in evs.chunks(2) {
            let open = pair[0].0;
            let close = if pair.len() == 2 { pair[1].0 } else { f64::INFINITY };
            outage_windows += 1;
            if let Some(xs) = execs.get(w) {
                if let Some(x) = xs.iter().find(|&&x| x >= open && x < close) {
                    return Err(format!(
                        "worker {w}: Exec at {x} inside open-circuit window [{open}, {close})"
                    ));
                }
            }
        }
    }

    // Autoscaling structure. A Drain closes the dispatch window: no
    // Dispatch may target the worker strictly between the Drain and the
    // end of the ScaleUp span that re-provisions it (or ever, if it was
    // never scaled back up).
    for (w, ds) in &drains {
        for &d in ds {
            let readmit = scale_up_ends
                .get(w)
                .into_iter()
                .flatten()
                .copied()
                .filter(|&e| e > d)
                .fold(f64::INFINITY, f64::min);
            if let Some(ts) =
                dispatches.get(w).into_iter().flatten().find(|&&ts| ts > d && ts < readmit)
            {
                return Err(format!(
                    "worker {w}: Dispatch at {ts} inside gated window ({d}, {readmit})"
                ));
            }
        }
        // Every Drain must gate: its ScaleDown lands at/after it.
        let sds = scale_downs.get(w).map(Vec::as_slice).unwrap_or_default();
        if sds.len() != ds.len() {
            return Err(format!(
                "worker {w}: {} Drain(s) but {} ScaleDown(s)",
                ds.len(),
                sds.len()
            ));
        }
        if let Some((d, sd)) = ds.iter().zip(sds).find(|(d, sd)| sd < d) {
            return Err(format!("worker {w}: ScaleDown at {sd} before its Drain at {d}"));
        }
    }
    // A ScaleDown may only land once in-flight work is done: never
    // strictly inside an Exec span on the same worker.
    for (w, sds) in &scale_downs {
        for &sd in sds {
            if let Some((s, e)) =
                exec_spans.get(w).into_iter().flatten().find(|&&(s, e)| sd > s && sd < e)
            {
                return Err(format!(
                    "worker {w}: ScaleDown at {sd} inside in-flight Exec span [{s}, {e})"
                ));
            }
        }
    }

    // Hedge pairing: a win or cancel only makes sense against a hedge
    // that actually started on the same batch, at or before the mark.
    for &(b, ts, is_win) in &hedge_marks {
        let kind = if is_win { "HedgeWin" } else { "HedgeCancel" };
        let started = hedge_starts.get(&b).is_some_and(|hs| hs.iter().any(|&h| h <= ts));
        if !started {
            return Err(format!("{kind} on batch {b} at {ts} without a prior Hedge"));
        }
    }
    // Quarantine windows: from the Quarantine instant until the next
    // Probation on the same worker the dispatcher must route around it
    // — no Exec may start inside the window.
    let mut quarantine_count = 0usize;
    for (w, qs) in &quarantine_at {
        let ps = probation_at.get(w).map(Vec::as_slice).unwrap_or_default();
        for &q in qs {
            quarantine_count += 1;
            let release = ps.iter().copied().filter(|&p| p >= q).fold(f64::INFINITY, f64::min);
            if let Some(x) = execs.get(w).into_iter().flatten().find(|&&x| x >= q && x < release) {
                return Err(format!(
                    "worker {w}: Exec at {x} inside quarantine window [{q}, {release})"
                ));
            }
        }
    }
    // Every integrity rejection must resolve: a retry attempt or a shed
    // of the same request at/after the rejection — corrupt results may
    // never silently surface as completions.
    for &(id, ts) in &integrity {
        let retried = retry_at.get(&id).is_some_and(|rs| rs.iter().any(|&r| r >= ts));
        let is_shed = shed_at.get(&id).is_some_and(|&s| s >= ts);
        if !retried && !is_shed {
            return Err(format!(
                "request {id}: IntegrityFail at {ts} with no retry or shed after it"
            ));
        }
    }

    // A shed request is dead: nothing of it may start after the Shed.
    for (id, &sts) in &shed_at {
        if let Some((t, n)) = latest.get(id) {
            if *t > sts {
                return Err(format!("request {id}: {n} at {t} after its Shed at {sts}"));
            }
        }
    }

    let mut chained = 0usize;
    for stamps in per_request.values() {
        let mut last = f64::MIN;
        let mut ok = true;
        for p in REQUIRED_PHASES {
            match stamps.get(p) {
                Some(&ts) if ts >= last => last = ts,
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            chained += 1;
        }
    }
    if chained == 0 {
        return Err("no request exposes the full time-ordered phase chain".to_string());
    }

    Ok(TraceCheck {
        events: count,
        tracks,
        requests: per_request.len(),
        chained,
        failovers: failovers.len(),
        outage_windows,
        sheds: shed_at.len(),
        power_samples,
        drains: drains.values().map(Vec::len).sum(),
        scale_ups: scale_up_ends.values().map(Vec::len).sum(),
        scale_downs: scale_downs.values().map(Vec::len).sum(),
        hedges: hedge_starts.values().map(Vec::len).sum(),
        hedge_wins: hedge_marks.iter().filter(|m| m.2).count(),
        hedge_cancels: hedge_marks.iter().filter(|m| !m.2).count(),
        integrity_fails: integrity.len(),
        quarantines: quarantine_count,
        probations: probation_at.values().map(Vec::len).sum(),
        sampling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::serve_bench::traced_serve;
    use desim::Duration;
    use ncsw_serve::DispatchPolicy;

    fn tiny_trace() -> String {
        traced_serve(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::CostAware,
            Duration::from_millis(10.0),
            None,
            ncsw_serve::GrayConfig::default(),
            None,
        )
        .chrome_json
    }

    #[test]
    fn tiny_observed_run_produces_a_valid_trace() {
        let json = tiny_trace();
        let check = validate(&json).expect("trace must validate");
        assert!(check.events > 100, "{check:?}");
        assert!(check.tracks >= 3, "{check:?}");
        assert!(check.chained > 0, "{check:?}");
        // The energy meter's power lanes ride in every observed trace.
        assert!(check.power_samples > 0, "{check:?}");
        // A counter stripped of its reading must be caught.
        let bad = json.replace("\"mw\":", "\"xw\":");
        assert_ne!(bad, json, "trace must contain power counters to corrupt");
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("numeric mw"), "{err}");
    }

    fn faulted_trace() -> String {
        // Unplug the VPU worker early enough that the tiny horizon
        // (~1 s) sees the outage, the circuit opening, and a probe.
        let plan = ncsw_faults::FaultPlan::parse("unplug@100ms:reconnect@400ms").unwrap();
        traced_serve(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::CostAware,
            Duration::from_millis(10.0),
            Some(&plan),
            ncsw_serve::GrayConfig::default(),
            None,
        )
        .chrome_json
    }

    #[test]
    fn sampled_trace_validates_and_carries_the_sampling_ledger() {
        let t = traced_serve(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::CostAware,
            Duration::from_millis(10.0),
            None,
            ncsw_serve::GrayConfig::default(),
            Some(ncsw_obs::SamplePolicy::parse("1-in-25").unwrap()),
        );
        // The sampled trace still passes the full grammar: kept chains
        // are intact, so REQUIRED_PHASES and chaining hold.
        let check = validate(&t.chrome_json).expect("sampled trace must validate");
        let s = check.sampling.as_ref().expect("sampling metadata row");
        assert_eq!(s.spec, "1-in-25");
        assert!(s.requests_kept < s.requests_seen, "{s:?}");
        assert!(check.chained > 0, "{check:?}");
        // A full-fidelity trace carries no sampling row.
        assert!(validate(&tiny_trace()).unwrap().sampling.is_none());
        // A corrupted ledger is rejected, not ignored.
        let bad = t.chrome_json.replace("\"requests_seen\":", "\"requests_sxen\":");
        assert_ne!(bad, t.chrome_json);
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("sampling"), "{err}");
    }

    #[test]
    fn faulted_trace_validates_with_failover_structure() {
        let json = faulted_trace();
        let check = validate(&json).expect("faulted trace must validate");
        assert!(check.failovers > 0, "{check:?}");
        assert!(check.outage_windows > 0, "{check:?}");
    }

    #[test]
    fn failover_checks_reject_corrupted_traces() {
        let json = faulted_trace();
        // Non-alternating circuit transitions must be caught.
        let bad = json.replace("\"name\":\"CircuitClose\"", "\"name\":\"CircuitOpen\"");
        assert_ne!(bad, json, "trace must contain a CircuitClose to corrupt");
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("alternate"), "{err}");
        // A Failover with no prior Dispatch on that worker must be
        // caught: strip every Dispatch aimed at the faulted worker (2).
        let bad: String = json
            .lines()
            .map(|l| {
                if l.contains("\"name\":\"Dispatch\"") && l.contains("\"worker\":2") {
                    l.replace("\"name\":\"Dispatch\"", "\"name\":\"Xdispatch\"")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(bad, json);
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("without a prior Dispatch"), "{err}");
    }

    /// A hand-built log with one full-chain request and one shed
    /// request, with the shed's cause and finality under test control.
    fn synthetic_log(shed_cause: Option<ShedCause>, post_shed_event: bool) -> String {
        use desim::SimTime;
        use ncsw_obs::{chrome_trace, Ctx, Event, EventLog, Lane, Recorder as _};
        let t = |ms: u64| SimTime(ms * 1_000_000);
        let mut log = EventLog::new();
        let r = Ctx::request(0).with_batch(0).with_worker(0);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), Ctx::request(0)));
        log.record(Event::instant(Phase::Admit, Lane::Server, t(0), Ctx::request(0)));
        log.record(Event::instant(Phase::BatchClose, Lane::Queue, t(1), r));
        log.record(Event::instant(Phase::Dispatch, Lane::Worker(0), t(1), r));
        log.record(Event::span(Phase::UsbWrite, Lane::Host { worker: 0, dev: 0 }, t(1), t(2), r));
        log.record(Event::span(Phase::Exec, Lane::Vpu { worker: 0, dev: 0 }, t(2), t(3), r));
        log.record(Event::span(Phase::UsbRead, Lane::Host { worker: 0, dev: 0 }, t(3), t(4), r));
        log.record(Event::instant(Phase::Complete, Lane::Server, t(4), r));
        let s = Ctx::request(1);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(5), s));
        let shed = Event::instant(Phase::Shed, Lane::Server, t(6), s);
        log.record(match shed_cause {
            Some(c) => shed.with_cause(c),
            None => shed,
        });
        if post_shed_event {
            log.record(Event::instant(Phase::Admit, Lane::Server, t(7), s));
        }
        chrome_trace(&log)
    }

    #[test]
    fn shed_checks_enforce_cause_and_finality() {
        let ok = synthetic_log(Some(ShedCause::Rejected), false);
        let check = validate(&ok).expect("synthetic trace must validate");
        assert_eq!(check.sheds, 1);
        assert_eq!(check.chained, 1);
        // A Shed with no cause arg is a malformed trace.
        let err = validate(&synthetic_log(None, false)).unwrap_err();
        assert!(err.contains("without a cause"), "{err}");
        // Activity after a request was shed is a lifecycle violation.
        let err = validate(&synthetic_log(Some(ShedCause::Deadline), true)).unwrap_err();
        assert!(err.contains("after its Shed"), "{err}");
        // An unrecognized cause string is rejected, not counted.
        let bad = ok.replace("\"cause\":\"rejected\"", "\"cause\":\"gremlins\"");
        assert_ne!(bad, ok);
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("unknown cause"), "{err}");
    }

    #[test]
    fn autoscaled_trace_validates_with_scaling_structure() {
        let json = crate::autoscale_bench::traced_autoscale(
            Scale::Tiny,
            "reactive",
            Duration::from_millis(10.0),
            None,
        )
        .chrome_json;
        let check = validate(&json).expect("autoscaled trace must validate");
        assert!(check.drains > 0, "{check:?}");
        assert!(check.scale_downs > 0, "{check:?}");
        assert!(check.scale_ups > 0, "{check:?}");
        assert_eq!(check.drains, check.scale_downs, "{check:?}");
        // Stripping the ScaleDowns breaks the Drain pairing.
        let bad = json.replace("\"name\":\"ScaleDown\"", "\"name\":\"XcaleDown\"");
        assert_ne!(bad, json);
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("ScaleDown"), "{err}");
    }

    /// A hand-built log exercising the scaling grammar on worker 1 next
    /// to one fully chained request on worker 0.
    fn synthetic_scaling_log(dispatch_while_gated: bool, scaledown_mid_exec: bool) -> String {
        use desim::SimTime;
        use ncsw_obs::{chrome_trace, Ctx, Event, EventLog, Lane, Recorder as _};
        let t = |ms: u64| SimTime(ms * 1_000_000);
        let mut log = EventLog::new();
        let r = Ctx::request(0).with_batch(0).with_worker(0);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), Ctx::request(0)));
        log.record(Event::instant(Phase::Admit, Lane::Server, t(0), Ctx::request(0)));
        log.record(Event::instant(Phase::BatchClose, Lane::Queue, t(1), r));
        log.record(Event::instant(Phase::Dispatch, Lane::Worker(0), t(1), r));
        log.record(Event::span(Phase::UsbWrite, Lane::Host { worker: 0, dev: 0 }, t(1), t(2), r));
        log.record(Event::span(Phase::Exec, Lane::Vpu { worker: 0, dev: 0 }, t(2), t(3), r));
        log.record(Event::span(Phase::UsbRead, Lane::Host { worker: 0, dev: 0 }, t(3), t(4), r));
        log.record(Event::instant(Phase::Complete, Lane::Server, t(4), r));
        // Worker 1 runs a batch, then is drained and later re-provisioned.
        let w = Ctx { request_id: None, batch_id: None, worker: Some(1) };
        let b = Ctx { request_id: None, batch_id: Some(9), worker: Some(1) };
        log.record(Event::instant(Phase::Dispatch, Lane::Worker(1), t(5), b));
        log.record(Event::span(Phase::Exec, Lane::Vpu { worker: 1, dev: 0 }, t(5), t(8), b));
        let gate = if scaledown_mid_exec { t(6) } else { t(8) };
        log.record(Event::instant(Phase::Drain, Lane::Worker(1), t(6), w));
        log.record(Event::instant(Phase::ScaleDown, Lane::Worker(1), gate, w));
        if dispatch_while_gated {
            log.record(Event::instant(Phase::Dispatch, Lane::Worker(1), t(10), b));
        }
        log.record(Event::span(Phase::ScaleUp, Lane::Worker(1), t(20), t(25), w));
        chrome_trace(&log)
    }

    #[test]
    fn scaling_checks_enforce_gated_windows_and_drain_semantics() {
        let ok = synthetic_scaling_log(false, false);
        let check = validate(&ok).expect("synthetic scaling trace must validate");
        assert_eq!((check.drains, check.scale_downs, check.scale_ups), (1, 1, 1));
        // A Dispatch inside the gated window (after Drain, before the
        // ScaleUp finishes provisioning) is a routing violation.
        let err = validate(&synthetic_scaling_log(true, false)).unwrap_err();
        assert!(err.contains("gated window"), "{err}");
        // Power-gating while a batch is still executing is an energy
        // accounting violation: the drain must wait for in-flight work.
        let err = validate(&synthetic_scaling_log(false, true)).unwrap_err();
        assert!(err.contains("in-flight Exec"), "{err}");
    }

    /// A hand-built log exercising the gray-failure grammar next to one
    /// fully chained request: a hedged batch won by the duplicate, a
    /// quarantine window on worker 1, and one integrity rejection.
    fn synthetic_gray_log(
        strip_hedge: bool,
        exec_in_quarantine: bool,
        orphan_integrity: bool,
    ) -> String {
        use desim::SimTime;
        use ncsw_obs::{chrome_trace, Ctx, Event, EventLog, Lane, Recorder as _};
        let t = |ms: u64| SimTime(ms * 1_000_000);
        let mut log = EventLog::new();
        let r = Ctx::request(0).with_batch(0).with_worker(0);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(0), Ctx::request(0)));
        log.record(Event::instant(Phase::Admit, Lane::Server, t(0), Ctx::request(0)));
        log.record(Event::instant(Phase::BatchClose, Lane::Queue, t(1), r));
        log.record(Event::instant(Phase::Dispatch, Lane::Worker(0), t(1), r));
        log.record(Event::span(Phase::UsbWrite, Lane::Host { worker: 0, dev: 0 }, t(1), t(2), r));
        log.record(Event::span(Phase::Exec, Lane::Vpu { worker: 0, dev: 0 }, t(2), t(4), r));
        log.record(Event::span(Phase::UsbRead, Lane::Host { worker: 0, dev: 0 }, t(4), t(5), r));
        log.record(Event::instant(Phase::Complete, Lane::Server, t(5), r));
        // The primary ran long: batch 0 was hedged onto worker 1, and
        // the duplicate won at t(3).
        let h = Ctx { request_id: None, batch_id: Some(0), worker: Some(1) };
        if !strip_hedge {
            log.record(Event::span(Phase::Hedge, Lane::Worker(1), t(2), t(3), h));
        }
        log.record(Event::instant(Phase::HedgeWin, Lane::Worker(1), t(3), h));
        // Worker 1 is quarantined as fail-slow from t(5) to its
        // probation probe at t(20).
        let w1 = Ctx { request_id: None, batch_id: None, worker: Some(1) };
        log.record(Event::instant(Phase::Quarantine, Lane::Worker(1), t(5), w1));
        if exec_in_quarantine {
            let b = Ctx { request_id: None, batch_id: Some(7), worker: Some(1) };
            log.record(Event::span(Phase::Exec, Lane::Vpu { worker: 1, dev: 0 }, t(10), t(12), b));
        }
        log.record(Event::instant(Phase::Probation, Lane::Worker(1), t(20), w1));
        // Request 1's completion failed its checksum and was retried.
        let s = Ctx::request(1).with_batch(0).with_worker(0);
        log.record(Event::instant(Phase::Arrive, Lane::Server, t(6), Ctx::request(1)));
        log.record(Event::instant(Phase::IntegrityFail, Lane::Worker(0), t(8), s));
        if !orphan_integrity {
            log.record(Event::instant(
                Phase::RetryAttempt,
                Lane::Server,
                t(9),
                Ctx::request(1).with_batch(0),
            ));
            log.record(Event::instant(Phase::Complete, Lane::Server, t(10), s));
        }
        chrome_trace(&log)
    }

    #[test]
    fn gray_checks_enforce_hedge_quarantine_and_integrity_grammar() {
        let ok = synthetic_gray_log(false, false, false);
        let check = validate(&ok).expect("synthetic gray trace must validate");
        assert_eq!((check.hedges, check.hedge_wins, check.hedge_cancels), (1, 1, 0));
        assert_eq!((check.quarantines, check.probations), (1, 1));
        assert_eq!(check.integrity_fails, 1);
        // A HedgeWin with no Hedge on that batch is a phantom duplicate.
        let err = validate(&synthetic_gray_log(true, false, false)).unwrap_err();
        assert!(err.contains("without a prior Hedge"), "{err}");
        // Dispatching work to a quarantined worker defeats the defense.
        let err = validate(&synthetic_gray_log(false, true, false)).unwrap_err();
        assert!(err.contains("quarantine window"), "{err}");
        // An integrity rejection that neither retries nor sheds means
        // the request silently vanished.
        let err = validate(&synthetic_gray_log(false, false, true)).unwrap_err();
        assert!(err.contains("no retry or shed"), "{err}");
    }

    #[test]
    fn validation_rejects_broken_traces() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        // A structurally fine document with no phases.
        let empty = r#"{"traceEvents":[{"ph":"M","name":"thread_name","args":{"name":"t"}}]}"#;
        let err = validate(empty).unwrap_err();
        assert!(err.contains("never appears"), "{err}");
        // Drop one phase from a real trace: must be caught.
        let json = tiny_trace().replace("\"name\":\"Admit\"", "\"name\":\"Xdmit\"");
        let err = validate(&json).unwrap_err();
        assert!(err.contains("Admit"), "{err}");
    }
}
