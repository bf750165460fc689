//! Structural validation of exported Chrome trace-event JSON.
//!
//! CI runs a tiny observed serving run, exports the trace, and feeds it
//! back through [`validate`]: the document must parse with the
//! analyzer's strict reader ([`parse_chrome_trace_sampled`]), carry
//! every phase of [`Phase::REQUEST_CHAIN`] at least once, and contain at
//! least one request whose full Arrive→…→Complete chain appears with
//! non-decreasing timestamps; the failover, scaling and gray-failure
//! grammars are then checked on the typed events. This closes the loop
//! on the exporter — a trace that renders in Perfetto but silently lost
//! a phase fails here.

use desim::SimTime;
use ncsw_analyze::parse_chrome_trace_sampled;
use ncsw_obs::{request_chain, Event, Phase, SampleStats};
use serde::Serialize;

/// What [`validate`] measured about a trace (`repro validate-trace
/// --json` prints it).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TraceCheck {
    /// Trace events excluding metadata records.
    pub events: usize,
    /// Distinct lanes carrying at least one event.
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

/// Start instants of the `phase` events among `evs`, in log order.
fn starts<'a>(evs: &'a [&Event], phase: Phase) -> impl Iterator<Item = SimTime> + 'a {
    evs.iter().filter(move |e| e.phase == phase).map(|e| e.start)
}

/// A window end for error messages; `None` never closes.
fn or_inf(t: Option<SimTime>) -> String {
    t.map_or("inf".to_string(), |t| t.to_string())
}

/// Validate `json` as a serving trace. Returns what was found, or a
/// description of the first structural problem.
pub fn validate(json: &str) -> Result<TraceCheck, String> {
    let (log, sampling) = parse_chrome_trace_sampled(json)?;
    let events = log.events();
    // A Shed must say why: the cause is what every downstream consumer
    // (analyzer, flamegraph, post-mortems) keys on.
    if let Some(e) = events.iter().find(|e| e.phase == Phase::Shed && e.cause.is_none()) {
        return Err(format!("Shed at {} without a cause arg", e.start));
    }
    if let Some(p) = Phase::REQUEST_CHAIN.iter().find(|&&p| !events.iter().any(|e| e.phase == p)) {
        return Err(format!("phase {} never appears in the trace", p.name()));
    }
    let by_request = log.group_by(|e| e.ctx.request_id);
    let mut check = TraceCheck {
        events: log.len(),
        tracks: log.lanes().len(),
        requests: by_request.len(),
        power_samples: events.iter().filter(|e| e.phase == Phase::PowerSample).count(),
        sampling,
        ..TraceCheck::default()
    };
    for (w, evs) in &log.group_by(|e| e.ctx.worker) {
        check_worker(*w, evs, &mut check)?;
    }
    for (b, evs) in &log.group_by(|e| e.ctx.batch_id) {
        check_batch(*b, evs, &mut check)?;
    }
    for (id, evs) in &by_request {
        check_request(*id, evs, &mut check)?;
    }
    if check.chained == 0 {
        return Err("no request exposes the full time-ordered phase chain".to_string());
    }
    Ok(check)
}

/// The failover, circuit, scaling and quarantine grammar of one
/// worker's events.
fn check_worker(w: u32, evs: &[&Event], check: &mut TraceCheck) -> Result<(), String> {
    let dispatches: Vec<SimTime> = starts(evs, Phase::Dispatch).collect();
    let execs: Vec<(SimTime, SimTime)> =
        evs.iter().filter(|e| e.phase == Phase::Exec).map(|e| (e.start, e.finish())).collect();

    // A Failover must follow a Dispatch on the same worker — the batch
    // it re-plans must actually have been routed.
    for f in starts(evs, Phase::Failover) {
        if !dispatches.iter().any(|&d| d <= f) {
            return Err(format!("Failover on worker {w} at {f} without a prior Dispatch"));
        }
        check.failovers += 1;
    }

    // Circuit windows: transitions alternate open/close in time order,
    // and no Exec starts while the circuit is open (the probe's Exec
    // lands at/after the CircuitClose that re-admitted it).
    let circuit: Vec<(SimTime, bool)> = evs
        .iter()
        .filter(|e| matches!(e.phase, Phase::CircuitOpen | Phase::CircuitClose))
        .map(|e| (e.start, e.phase == Phase::CircuitOpen))
        .collect();
    let mut last = SimTime::ZERO;
    for (i, &(ts, is_open)) in circuit.iter().enumerate() {
        if is_open != (i % 2 == 0) {
            return Err(format!("worker {w}: circuit transitions do not alternate"));
        }
        if ts < last {
            return Err(format!("worker {w}: circuit transitions go backwards"));
        }
        last = ts;
    }
    for pair in circuit.chunks(2) {
        let (open, close) = (pair[0].0, pair.get(1).map(|c| c.0));
        check.outage_windows += 1;
        if let Some((x, _)) = execs.iter().find(|&&(x, _)| x >= open && close.is_none_or(|c| x < c))
        {
            return Err(format!(
                "worker {w}: Exec at {x} inside open-circuit window [{open}, {})",
                or_inf(close)
            ));
        }
    }

    // Autoscaling. A Drain closes the dispatch window: no Dispatch may
    // target the worker strictly between the Drain and the end of the
    // ScaleUp span that re-provisions it (or ever, if it was never
    // scaled back up). Every Drain gates: its ScaleDown lands at/after
    // it.
    let drains: Vec<SimTime> = starts(evs, Phase::Drain).collect();
    let scale_downs: Vec<SimTime> = starts(evs, Phase::ScaleDown).collect();
    let scale_up_ends: Vec<SimTime> =
        evs.iter().filter(|e| e.phase == Phase::ScaleUp).map(|e| e.finish()).collect();
    for &d in &drains {
        let readmit = scale_up_ends.iter().copied().filter(|&e| e > d).min();
        if let Some(ts) = dispatches.iter().find(|&&ts| ts > d && readmit.is_none_or(|r| ts < r)) {
            return Err(format!(
                "worker {w}: Dispatch at {ts} inside gated window ({d}, {})",
                or_inf(readmit)
            ));
        }
    }
    if !drains.is_empty() && scale_downs.len() != drains.len() {
        return Err(format!(
            "worker {w}: {} Drain(s) but {} ScaleDown(s)",
            drains.len(),
            scale_downs.len()
        ));
    }
    if let Some((d, sd)) = drains.iter().zip(&scale_downs).find(|(d, sd)| sd < d) {
        return Err(format!("worker {w}: ScaleDown at {sd} before its Drain at {d}"));
    }
    // A ScaleDown may only land once in-flight work is done: never
    // strictly inside an Exec span on the same worker.
    for &sd in &scale_downs {
        if let Some((s, e)) = execs.iter().find(|&&(s, e)| sd > s && sd < e) {
            return Err(format!(
                "worker {w}: ScaleDown at {sd} inside in-flight Exec span [{s}, {e})"
            ));
        }
    }
    check.drains += drains.len();
    check.scale_downs += scale_downs.len();
    check.scale_ups += scale_up_ends.len();

    // Quarantine windows: from the Quarantine instant until the next
    // Probation on the worker the dispatcher must route around it — no
    // Exec may start inside the window.
    let probations: Vec<SimTime> = starts(evs, Phase::Probation).collect();
    for q in starts(evs, Phase::Quarantine) {
        let release = probations.iter().copied().filter(|&p| p >= q).min();
        if let Some((x, _)) = execs.iter().find(|&&(x, _)| x >= q && release.is_none_or(|r| x < r))
        {
            return Err(format!(
                "worker {w}: Exec at {x} inside quarantine window [{q}, {})",
                or_inf(release)
            ));
        }
        check.quarantines += 1;
    }
    check.probations += probations.len();
    Ok(())
}

/// Hedge pairing on one batch: a win or cancel only makes sense against
/// a hedge that actually started on the same batch, at or before the
/// mark.
fn check_batch(b: u64, evs: &[&Event], check: &mut TraceCheck) -> Result<(), String> {
    let hedges: Vec<SimTime> = starts(evs, Phase::Hedge).collect();
    for e in evs.iter().filter(|e| matches!(e.phase, Phase::HedgeWin | Phase::HedgeCancel)) {
        if !hedges.iter().any(|&h| h <= e.start) {
            let (kind, ts) = (e.phase.name(), e.start);
            return Err(format!("{kind} on batch {b} at {ts} without a prior Hedge"));
        }
        match e.phase {
            Phase::HedgeWin => check.hedge_wins += 1,
            _ => check.hedge_cancels += 1,
        }
    }
    check.hedges += hedges.len();
    Ok(())
}

/// One request's lifecycle: integrity rejections resolve, nothing
/// follows a Shed, and whether the full phase chain is present.
fn check_request(id: u64, evs: &[&Event], check: &mut TraceCheck) -> Result<(), String> {
    // Retry-exhaustion sheds are spans covering the request's whole
    // queued life (arrival -> decision); the *end* is the shed instant.
    let shed_at = evs.iter().find(|e| e.phase == Phase::Shed).map(|e| e.finish());
    // Every integrity rejection must resolve: a retry attempt or a shed
    // at/after the rejection — corrupt results may never silently
    // surface as completions.
    for ts in starts(evs, Phase::IntegrityFail) {
        let resolved =
            starts(evs, Phase::RetryAttempt).any(|r| r >= ts) || shed_at.is_some_and(|s| s >= ts);
        if !resolved {
            return Err(format!(
                "request {id}: IntegrityFail at {ts} with no retry or shed after it"
            ));
        }
        check.integrity_fails += 1;
    }
    // A shed request is dead: nothing of it may start after the Shed.
    if let Some(sts) = shed_at {
        if let Some(late) = evs.iter().find(|e| e.start > sts) {
            let (n, t) = (late.phase.name(), late.start);
            return Err(format!("request {id}: {n} at {t} after its Shed at {sts}"));
        }
        check.sheds += 1;
    }
    if request_chain(evs).is_some() {
        check.chained += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use crate::serve_bench::traced_serve;
    use desim::Duration;
    use ncsw_obs::ShedCause;
    use ncsw_serve::DispatchPolicy;

    /// `json` without the event rows `drop` selects. Every row but the
    /// last ends in a comma, so dropping any other keeps valid JSON.
    fn drop_rows(json: &str, drop: impl Fn(&str) -> bool) -> String {
        let kept: Vec<&str> = json.lines().filter(|l| !drop(l)).collect();
        assert!(kept.len() < json.lines().count(), "no rows to drop");
        kept.join("\n")
    }

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
        let bad =
            drop_rows(&json, |l| l.contains("\"name\":\"Dispatch\"") && l.contains("\"worker\":2"));
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
        let bad = drop_rows(&json, |l| l.contains("\"name\":\"ScaleDown\""));
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

    /// Byte ranges of the edit sites in `json`: every number that is an
    /// object value, or every `"name"` string value.
    fn value_sites(json: &str, numbers: bool) -> Vec<std::ops::Range<usize>> {
        let (key, is_value): (&str, fn(u8) -> bool) = if numbers {
            (":", |c| c.is_ascii_digit() || b"-+.eE".contains(&c))
        } else {
            ("\"name\":\"", |c| c != b'"')
        };
        json.match_indices(key)
            .map(|(i, _)| i + key.len())
            .map(|at| at..at + json.as_bytes()[at..].iter().take_while(|&&c| is_value(c)).count())
            .filter(|r| !r.is_empty())
            .collect()
    }

    /// One property-test edit of an exported trace: `kind` 0 replaces a
    /// number with `with`, 1 truncates the document, 2 swaps two names;
    /// `at` picks the site.
    fn mutate(json: &str, kind: u8, at: u64, with: &str) -> String {
        let sites = value_sites(json, kind == 0);
        let pick = |k: u64| sites[(k % sites.len() as u64) as usize].clone();
        match kind {
            0 => {
                let r = pick(at);
                format!("{}{with}{}", &json[..r.start], &json[r.end..])
            }
            1 => json[..(at % json.len() as u64) as usize].to_string(),
            _ => {
                let (a, b) = (pick(at), pick(at / sites.len() as u64));
                let (a, b) = if a.start <= b.start { (a, b) } else { (b, a) };
                if a == b {
                    return json.to_string();
                }
                let (x, y) = (&json[a.clone()], &json[b.clone()]);
                let (head, mid, tail) = (&json[..a.start], &json[a.end..b.start], &json[b.end..]);
                format!("{head}{y}{mid}{x}{tail}")
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        /// The one trace reader never panics: any edit of a real trace —
        /// impossible numbers, truncation, swapped names — parses and
        /// validates to `Ok` or `Err`, and a trace that parses also
        /// attributes and ranks.
        #[test]
        fn the_reader_never_panics_on_mutated_traces(
            edits in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::prelude::any::<u64>(),
                    proptest::sample::select(vec!["-5", "1e300", "0.5", "-0.25", "18446744073709551615"]),
                ),
                1..4,
            )
        ) {
            static TINY: std::sync::OnceLock<String> = std::sync::OnceLock::new();
            let mut json = TINY.get_or_init(tiny_trace).clone();
            for (kind, at, with) in &edits {
                json = mutate(&json, *kind, *at, with);
            }
            if let Ok(log) = ncsw_analyze::parse_chrome_trace(&json) {
                let analysis = ncsw_analyze::Analysis::of(&log);
                let _ = ncsw_analyze::rank(&analysis, 0.5);
            }
            let _ = validate(&json);
        }
    }

    /// The full verdict on every trace shape the grammar covers, pinned
    /// as literals so a change to the reader or the checks that moves
    /// any count fails here.
    #[test]
    fn trace_checks_are_pinned() {
        let traced = |faults: Option<&str>, gray, sample: Option<&str>| {
            let plan = faults.map(|f| ncsw_faults::FaultPlan::parse(f).unwrap());
            traced_serve(
                Scale::Tiny,
                Duration::from_millis(500.0),
                DispatchPolicy::CostAware,
                Duration::from_millis(10.0),
                plan.as_ref(),
                gray,
                sample.map(|s| ncsw_obs::SamplePolicy::parse(s).unwrap()),
            )
            .chrome_json
        };
        let plain = ncsw_serve::GrayConfig::default();
        let cases = [
            ("tiny", tiny_trace()),
            ("faulted", faulted_trace()),
            (
                "autoscaled",
                crate::autoscale_bench::traced_autoscale(
                    Scale::Tiny,
                    "reactive",
                    Duration::from_millis(10.0),
                    None,
                )
                .chrome_json,
            ),
            ("sampled", traced(None, plain, Some("1-in-25"))),
            (
                "gray-wire",
                traced(
                    Some("corrupt@0.05,dup@0.05,drop@0.05,execerr@0.1"),
                    ncsw_serve::GrayConfig::defended(),
                    None,
                ),
            ),
            ("synthetic", synthetic_log(Some(ShedCause::Rejected), false)),
            ("synthetic-scaling", synthetic_scaling_log(false, false)),
            ("synthetic-gray", synthetic_gray_log(false, false, false)),
        ];
        let got: Vec<String> =
            cases.iter().map(|(name, json)| format!("{:?}", validate(json).expect(name))).collect();
        let listing: String = cases
            .iter()
            .zip(&got)
            .map(|((n, _), d)| format!("(\"{n}\", \"{}\"),\n", d.escape_default()))
            .collect();
        let pinned: Vec<&str> = PINNED_CHECKS.iter().map(|(_, d)| *d).collect();
        assert_eq!(got, pinned, "new values:\n{listing}");
    }

    const PINNED_CHECKS: [(&str, &str); 8] = [
        ("tiny", "TraceCheck { events: 1460, tracks: 27, requests: 160, chained: 67, failovers: 0, outage_windows: 0, sheds: 0, power_samples: 56, drains: 0, scale_ups: 0, scale_downs: 0, hedges: 0, hedge_wins: 0, hedge_cancels: 0, integrity_fails: 0, quarantines: 0, probations: 0, sampling: None }"),
        ("faulted", "TraceCheck { events: 1466, tracks: 27, requests: 160, chained: 55, failovers: 3, outage_windows: 1, sheds: 0, power_samples: 58, drains: 0, scale_ups: 0, scale_downs: 0, hedges: 0, hedge_wins: 0, hedge_cancels: 0, integrity_fails: 0, quarantines: 0, probations: 0, sampling: None }"),
        ("autoscaled", "TraceCheck { events: 2301, tracks: 42, requests: 160, chained: 160, failovers: 0, outage_windows: 0, sheds: 0, power_samples: 418, drains: 41, scale_ups: 41, scale_downs: 41, hedges: 0, hedge_wins: 0, hedge_cancels: 0, integrity_fails: 0, quarantines: 0, probations: 0, sampling: None }"),
        ("sampled", "TraceCheck { events: 388, tracks: 25, requests: 37, chained: 15, failovers: 0, outage_windows: 0, sheds: 0, power_samples: 56, drains: 0, scale_ups: 0, scale_downs: 0, hedges: 0, hedge_wins: 0, hedge_cancels: 0, integrity_fails: 0, quarantines: 0, probations: 0, sampling: Some(SampleStats { spec: \"1-in-25\", requests_seen: 160, requests_kept: 37, slo: 0, shed: 0, fault: 0, hedge: 0, quarantine: 0, uniform: 5, reservoir: 32, unterminated: 0, events_seen: 1404, events_kept: 332 }) }"),
        ("gray-wire", "TraceCheck { events: 1681, tracks: 27, requests: 160, chained: 76, failovers: 1, outage_windows: 0, sheds: 0, power_samples: 60, drains: 0, scale_ups: 0, scale_downs: 0, hedges: 1, hedge_wins: 0, hedge_cancels: 1, integrity_fails: 14, quarantines: 0, probations: 0, sampling: None }"),
        ("synthetic", "TraceCheck { events: 10, tracks: 5, requests: 2, chained: 1, failovers: 0, outage_windows: 0, sheds: 1, power_samples: 0, drains: 0, scale_ups: 0, scale_downs: 0, hedges: 0, hedge_wins: 0, hedge_cancels: 0, integrity_fails: 0, quarantines: 0, probations: 0, sampling: None }"),
        ("synthetic-scaling", "TraceCheck { events: 13, tracks: 7, requests: 1, chained: 1, failovers: 0, outage_windows: 0, sheds: 0, power_samples: 0, drains: 1, scale_ups: 1, scale_downs: 1, hedges: 0, hedge_wins: 0, hedge_cancels: 0, integrity_fails: 0, quarantines: 0, probations: 0, sampling: None }"),
        ("synthetic-gray", "TraceCheck { events: 16, tracks: 6, requests: 2, chained: 1, failovers: 0, outage_windows: 0, sheds: 0, power_samples: 0, drains: 0, scale_ups: 0, scale_downs: 0, hedges: 1, hedge_wins: 1, hedge_cancels: 0, integrity_fails: 1, quarantines: 1, probations: 1, sampling: None }"),
    ];

    #[test]
    fn validation_rejects_broken_traces() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        // A structurally fine document with no phases.
        let empty =
            r#"{"traceEvents":[{"ph":"M","name":"thread_name","tid":0,"args":{"name":"server"}}]}"#;
        let err = validate(empty).unwrap_err();
        assert!(err.contains("never appears"), "{err}");
        // Drop one phase from a real trace: must be caught.
        let json = drop_rows(&tiny_trace(), |l| l.contains("\"name\":\"Admit\""));
        let err = validate(&json).unwrap_err();
        assert!(err.contains("Admit"), "{err}");
    }
}
