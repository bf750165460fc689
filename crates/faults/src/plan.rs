//! Deterministic fault schedules and their textual spec form.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s, each optionally pinned
//! to a fleet worker, with all instants expressed *relative to the
//! fleet-ready epoch* (the instant the arrival clock starts). The same
//! plan applied to the same fleet with the same seed always injects the
//! identical fault sequence — faults are part of the experiment, not
//! noise on top of it.

use desim::Duration;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One scheduled fault. Times are relative to the fleet-ready epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The stick (or whole worker) disappears at `at`; submissions fail
    /// fast until it reconnects (`None` = never comes back).
    StickUnplug { at: Duration, reconnect_after: Option<Duration> },
    /// Sustained-load thermal throttling: batches dispatched inside the
    /// window take `slowdown`× their nominal service time (`>= 1`).
    ThermalThrottle { at: Duration, duration: Duration, slowdown: f64 },
    /// USB link degradation (renegotiated to a slower rate, hub
    /// contention): service stretches by `factor` inside the window.
    UsbDegrade { at: Duration, duration: Duration, factor: f64 },
    /// Each dispatched batch independently dies mid-execution with this
    /// probability (seeded draw; the failed attempt burns half the
    /// nominal service time before the host notices).
    TransientExecError { per_batch_prob: f64 },
    /// Gray fail-slow: batches dispatched inside the window take
    /// `factor`× their nominal service time *without any error or
    /// fault event* — unlike [`FaultEvent::ThermalThrottle`], the host
    /// gets no signal beyond the latency itself, so error-driven
    /// circuit breakers are blind to it.
    FailSlow { at: Duration, duration: Duration, factor: f64 },
    /// Each returned image result is independently bit-flipped in
    /// transit with this probability (seeded per-image draw at the USB
    /// completion boundary); the transfer itself reports success.
    ResultCorrupt { per_image_prob: f64 },
    /// Each image completion is independently delivered *twice* with
    /// this probability (a retransmitted USB completion the host must
    /// dedup for exactly-once delivery).
    DuplicateCompletion { per_image_prob: f64 },
    /// Each image completion is independently *lost* with this
    /// probability: the batch reports success but the slot's result
    /// never lands (detectable only via sequence tags).
    DroppedCompletion { per_image_prob: f64 },
}

/// A fault pinned to a worker slot (`None` = the plan's default target,
/// the last worker of the fleet — the newest stick of an `Nxvpu` fleet).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannedFault {
    pub worker: Option<usize>,
    pub fault: FaultEvent,
}

/// A deterministic schedule of faults for one serving run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    pub faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// The empty plan: wrapping a fleet with it is a strict no-op.
    pub fn empty() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    pub fn push(&mut self, worker: Option<usize>, fault: FaultEvent) {
        self.faults.push(PlannedFault { worker, fault });
    }

    /// Parse a `--faults` spec: comma-separated faults, each optionally
    /// prefixed with `wN:` to pin it to worker `N`.
    ///
    /// ```text
    /// unplug@2s:reconnect@4s        stick gone 2s..4s after epoch
    /// w1:unplug@500ms               worker 1 gone forever from 500ms
    /// throttle@1s:for@2s:slow@3     3x slowdown over 1s..3s
    /// usb@1s:for@500ms:factor@2.5   USB stretch over 1s..1.5s
    /// execerr@0.05                  5% of batches die mid-exec
    /// failslow@1s:for@4s:slow@6     silent 6x fail-slow over 1s..5s
    /// corrupt@0.02                  2% of results bit-flip in transit
    /// dup@0.02                      2% of completions delivered twice
    /// drop@0.02                     2% of completions silently lost
    /// ```
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::empty();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (worker, body) = split_worker(part)?;
            plan.push(worker, parse_fault(body)?);
        }
        if plan.is_empty() {
            return Err(format!("empty fault spec '{spec}'"));
        }
        Ok(plan)
    }

    /// Check every worker pin against a fleet of `fleet_size` workers,
    /// returning a one-line error naming the offending fault instead of
    /// the panic [`FaultPlan::apply`] raises. CLI front-ends call this
    /// before applying.
    pub fn validate_pins(&self, fleet_size: usize) -> Result<(), String> {
        for pf in &self.faults {
            if let Some(w) = pf.worker {
                if w >= fleet_size {
                    return Err(format!(
                        "fault '{}' targets worker {w}, but the fleet has only {fleet_size} \
                         workers (w0..w{})",
                        pf.fault,
                        fleet_size - 1
                    ));
                }
            }
        }
        Ok(())
    }

    /// Render the plan back into the `--faults` grammar. The output
    /// parses to an equal plan, so harnesses that synthesize plans
    /// (chaos campaigns, E22) can print a spec the CLI reproduces.
    pub fn to_spec(&self) -> String {
        let dur = duration_spec;
        self.faults
            .iter()
            .map(|pf| {
                let body = match pf.fault {
                    FaultEvent::StickUnplug { at, reconnect_after } => match reconnect_after {
                        Some(back) => format!("unplug@{}:reconnect@{}", dur(at), dur(at + back)),
                        None => format!("unplug@{}", dur(at)),
                    },
                    FaultEvent::ThermalThrottle { at, duration, slowdown } => {
                        format!("throttle@{}:for@{}:slow@{slowdown}", dur(at), dur(duration))
                    }
                    FaultEvent::UsbDegrade { at, duration, factor } => {
                        format!("usb@{}:for@{}:factor@{factor}", dur(at), dur(duration))
                    }
                    FaultEvent::TransientExecError { per_batch_prob } => {
                        format!("execerr@{per_batch_prob}")
                    }
                    FaultEvent::FailSlow { at, duration, factor } => {
                        format!("failslow@{}:for@{}:slow@{factor}", dur(at), dur(duration))
                    }
                    FaultEvent::ResultCorrupt { per_image_prob } => {
                        format!("corrupt@{per_image_prob}")
                    }
                    FaultEvent::DuplicateCompletion { per_image_prob } => {
                        format!("dup@{per_image_prob}")
                    }
                    FaultEvent::DroppedCompletion { per_image_prob } => {
                        format!("drop@{per_image_prob}")
                    }
                };
                match pf.worker {
                    Some(w) => format!("w{w}:{body}"),
                    None => body,
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn split_worker(part: &str) -> Result<(Option<usize>, &str), String> {
    if let Some(rest) = part.strip_prefix('w') {
        if let Some((idx, body)) = rest.split_once(':') {
            // Anything `w...:` shaped before the first `@` is an
            // intended worker pin: reject a malformed index by name
            // instead of falling through to an opaque kind error.
            if !idx.contains('@') {
                return match idx.parse::<usize>() {
                    Ok(w) => Ok((Some(w), body)),
                    Err(_) => Err(format!(
                        "bad worker pin 'w{idx}' in '{part}' (expected wN: with N a \
                                     worker index)"
                    )),
                };
            }
        }
    }
    Ok((None, part))
}

fn parse_fault(body: &str) -> Result<FaultEvent, String> {
    let mut fields = body.split(':');
    let head = fields.next().unwrap_or_default();
    let (kind, arg) =
        head.split_once('@').ok_or_else(|| format!("fault '{body}': expected kind@value"))?;
    match kind {
        "unplug" => {
            let at = parse_duration(arg)?;
            let mut reconnect_after = None;
            for f in fields {
                let Some(v) = f.strip_prefix("reconnect@") else {
                    return Err(format!("unplug: unknown field '{f}'"));
                };
                let back = parse_duration(v)?;
                if back <= at {
                    return Err(format!("unplug: reconnect@{v} is not after unplug instant"));
                }
                reconnect_after = Some(back - at);
            }
            Ok(FaultEvent::StickUnplug { at, reconnect_after })
        }
        "throttle" | "usb" | "failslow" => {
            let at = parse_duration(arg)?;
            let mut duration = None;
            let mut factor = None;
            let factor_key = if kind == "usb" { "factor@" } else { "slow@" };
            for f in fields {
                if let Some(v) = f.strip_prefix("for@") {
                    duration = Some(parse_duration(v)?);
                } else if let Some(v) = f.strip_prefix(factor_key) {
                    factor = Some(parse_factor(v)?);
                } else {
                    return Err(format!("{kind}: unknown field '{f}'"));
                }
            }
            let duration = duration.ok_or_else(|| format!("{kind}: missing for@DURATION"))?;
            let factor =
                factor.ok_or_else(|| format!("{kind}: missing {factor_key}FACTOR (>= 1)"))?;
            Ok(match kind {
                "throttle" => FaultEvent::ThermalThrottle { at, duration, slowdown: factor },
                "failslow" => FaultEvent::FailSlow { at, duration, factor },
                _ => FaultEvent::UsbDegrade { at, duration, factor },
            })
        }
        "execerr" | "corrupt" | "dup" | "drop" => {
            let p: f64 = arg.parse().map_err(|_| format!("{kind}: bad probability '{arg}'"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{kind}: probability {p} outside [0, 1]"));
            }
            if let Some(f) = fields.next() {
                return Err(format!("{kind}: unknown field '{f}'"));
            }
            Ok(match kind {
                "execerr" => FaultEvent::TransientExecError { per_batch_prob: p },
                "corrupt" => FaultEvent::ResultCorrupt { per_image_prob: p },
                "dup" => FaultEvent::DuplicateCompletion { per_image_prob: p },
                _ => FaultEvent::DroppedCompletion { per_image_prob: p },
            })
        }
        other => Err(format!(
            "unknown fault kind '{other}' (expected unplug, throttle, usb, execerr, failslow, \
             corrupt, dup or drop)"
        )),
    }
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, unit) = match s.strip_suffix("ms") {
        Some(n) => (n, 1e6),
        None => match s.strip_suffix('s') {
            Some(n) => (n, 1e9),
            None => (s, 1e9), // bare number: seconds
        },
    };
    let v: f64 = num.parse().map_err(|_| format!("bad duration '{s}'"))?;
    if v < 0.0 {
        return Err(format!("negative duration '{s}'"));
    }
    let ns = (v * unit).round();
    // `u64::MAX as f64` rounds up to 2^64, so every accepted `ns` fits.
    if ns.is_nan() || ns >= u64::MAX as f64 {
        return Err(format!("duration '{s}' is not finite or exceeds {} ns", u64::MAX));
    }
    Ok(Duration::from_nanos(ns as u64))
}

/// `d` in the spec grammar, parsing back to exactly `d`. Below 2^51 ns
/// that is the f64 nearest to `d` in milliseconds. Above it, that f64
/// can parse back a few ns off, so a neighbouring f64 (in ms or s) that
/// lands on `d` is printed instead; `d` came from a parse, so one does.
fn duration_spec(d: Duration) -> String {
    let near = |scale: f64| d.nanos() as f64 / scale;
    [("ms", near(1e6)), ("s", near(1e9))]
        .into_iter()
        .flat_map(|(unit, v)| {
            [0, 1, -1, 2, -2, 3, -3, 4, -4]
                .map(|k| format!("{}{unit}", f64::from_bits(v.to_bits().wrapping_add_signed(k))))
        })
        .find(|spec| parse_duration(spec) == Ok(d))
        .unwrap_or_else(|| format!("{}ms", d.as_millis()))
}

fn parse_factor(s: &str) -> Result<f64, String> {
    let v: f64 = s.parse().map_err(|_| format!("bad factor '{s}'"))?;
    if !v.is_finite() {
        return Err(format!("factor '{s}' is not finite"));
    }
    if v < 1.0 {
        return Err(format!("factor {v} must be >= 1 (a slowdown multiplier)"));
    }
    Ok(v)
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::StickUnplug { at, reconnect_after } => match reconnect_after {
                Some(back) => write!(f, "unplug@{at} reconnect after {back}"),
                None => write!(f, "unplug@{at} (permanent)"),
            },
            FaultEvent::ThermalThrottle { at, duration, slowdown } => {
                write!(f, "throttle@{at} for {duration} x{slowdown}")
            }
            FaultEvent::UsbDegrade { at, duration, factor } => {
                write!(f, "usb-degrade@{at} for {duration} x{factor}")
            }
            FaultEvent::TransientExecError { per_batch_prob } => {
                write!(f, "exec-err p={per_batch_prob}")
            }
            FaultEvent::FailSlow { at, duration, factor } => {
                write!(f, "fail-slow@{at} for {duration} x{factor}")
            }
            FaultEvent::ResultCorrupt { per_image_prob } => {
                write!(f, "result-corrupt p={per_image_prob}")
            }
            FaultEvent::DuplicateCompletion { per_image_prob } => {
                write!(f, "duplicate-completion p={per_image_prob}")
            }
            FaultEvent::DroppedCompletion { per_image_prob } => {
                write!(f, "dropped-completion p={per_image_prob}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn parses_the_ci_spec() {
        let plan = FaultPlan::parse("unplug@2s:reconnect@4s").unwrap();
        assert_eq!(plan.faults.len(), 1);
        assert_eq!(plan.faults[0].worker, None);
        assert_eq!(
            plan.faults[0].fault,
            FaultEvent::StickUnplug { at: ms(2_000.0), reconnect_after: Some(ms(2_000.0)) }
        );
    }

    #[test]
    fn parses_worker_pins_and_multiple_faults() {
        let plan =
            FaultPlan::parse("w2:unplug@500ms,throttle@1s:for@2s:slow@3,execerr@0.05").unwrap();
        assert_eq!(plan.faults.len(), 3);
        assert_eq!(plan.faults[0].worker, Some(2));
        assert_eq!(
            plan.faults[0].fault,
            FaultEvent::StickUnplug { at: ms(500.0), reconnect_after: None }
        );
        assert_eq!(
            plan.faults[1].fault,
            FaultEvent::ThermalThrottle { at: ms(1_000.0), duration: ms(2_000.0), slowdown: 3.0 }
        );
        assert_eq!(plan.faults[2].fault, FaultEvent::TransientExecError { per_batch_prob: 0.05 });
    }

    #[test]
    fn parses_usb_degrade_and_bare_seconds() {
        let plan = FaultPlan::parse("usb@1:for@500ms:factor@2.5").unwrap();
        assert_eq!(
            plan.faults[0].fault,
            FaultEvent::UsbDegrade { at: ms(1_000.0), duration: ms(500.0), factor: 2.5 }
        );
    }

    #[test]
    fn parses_gray_fault_kinds() {
        let plan = FaultPlan::parse("w1:failslow@1s:for@4s:slow@6,corrupt@0.02,dup@0.1,drop@0.01")
            .unwrap();
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(plan.faults[0].worker, Some(1));
        assert_eq!(
            plan.faults[0].fault,
            FaultEvent::FailSlow { at: ms(1_000.0), duration: ms(4_000.0), factor: 6.0 }
        );
        assert_eq!(plan.faults[1].fault, FaultEvent::ResultCorrupt { per_image_prob: 0.02 });
        assert_eq!(plan.faults[2].fault, FaultEvent::DuplicateCompletion { per_image_prob: 0.1 });
        assert_eq!(plan.faults[3].fault, FaultEvent::DroppedCompletion { per_image_prob: 0.01 });
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "unplug",
            "unplug@2s:reconnect@1s",      // reconnect before unplug
            "throttle@1s:slow@2",          // missing duration
            "throttle@1s:for@1s:slow@0.5", // speedup is not a fault
            "execerr@1.5",
            "unplug@-2s",
            "tornado@2s",
            "failslow@1s:slow@2",          // missing duration
            "failslow@1s:for@1s:slow@0.5", // speedup is not a fault
            "corrupt@2",                   // probability out of range
            "dup@-0.1",
            "drop@zzz",
            "wx:unplug@1s", // malformed worker pin
            "w:drop@0.1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "spec '{bad}' must be rejected");
        }
    }

    #[test]
    fn malformed_specs_name_the_offending_token() {
        let err = FaultPlan::parse("wx:unplug@1s").unwrap_err();
        assert!(err.contains("'wx'"), "pin error must name the token: {err}");
        let err = FaultPlan::parse("unplug@1s,tornado@2s").unwrap_err();
        assert!(err.contains("'tornado'"), "kind error must name the token: {err}");
        let err = FaultPlan::parse("corrupt@oops").unwrap_err();
        assert!(err.contains("'oops'"), "probability error must name the token: {err}");
    }

    #[test]
    fn non_finite_and_oversized_values_are_rejected_by_name() {
        // A saturating, a NaN-as-zero and an overflowing duration.
        for (spec, token) in [
            ("unplug@1e308s", "'1e308s'"),
            ("unplug@NaNs", "'NaNs'"),
            ("failslow@0s:for@1e300s:slow@1e300", "'1e300s'"),
            ("unplug@inf", "'inf'"),
            ("unplug@18446744073.71s", "'18446744073.71s'"),
            ("throttle@1s:for@1s:slow@inf", "'inf'"),
            ("usb@1s:for@1s:factor@NaN", "'NaN'"),
        ] {
            let err = FaultPlan::parse(spec).unwrap_err();
            assert!(err.contains(token), "{spec}: error must name {token}: {err}");
            assert_eq!(err.lines().count(), 1, "{spec}: {err}");
        }
        // Just under u64::MAX ns (~584 years) still parses.
        assert!(FaultPlan::parse("unplug@18446744073s").is_ok());
    }

    #[test]
    fn validate_pins_names_out_of_range_faults() {
        let plan = FaultPlan::parse("w9:unplug@1s").unwrap();
        let err = plan.validate_pins(2).unwrap_err();
        assert!(err.contains("worker 9") && err.contains("2 workers"), "{err}");
        assert!(plan.validate_pins(10).is_ok());
        assert!(FaultPlan::parse("unplug@1s").unwrap().validate_pins(1).is_ok());
    }
    #[test]
    fn to_spec_round_trips_every_fault_kind() {
        let spec = "w0:unplug@100ms:reconnect@350ms,w1:throttle@1s:for@2s:slow@3,\
                    usb@1s:for@500ms:factor@2.5,execerr@0.05,\
                    w2:failslow@1s:for@4s:slow@6,corrupt@0.02,dup@0.03,drop@0.04";
        let plan = FaultPlan::parse(spec).unwrap();
        let rendered = plan.to_spec();
        assert_eq!(FaultPlan::parse(&rendered).unwrap(), plan, "render: {rendered}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        #[test]
        fn to_spec_round_trips_any_parsed_duration(
            mantissa in proptest::any::<u64>(),
            shift in 0i32..64,
            unit in proptest::prelude::prop::sample::select(vec!["s", "ms", ""]),
        ) {
            // Spans sub-ns to ~u64::MAX ns, past 2^51 ns where the f64
            // nearest to the value in ms no longer lands on it exactly.
            let v = mantissa as f64 / 2f64.powi(shift);
            let spec = format!("unplug@{v}{unit}:reconnect@{}{unit}", 2.0 * v);
            if let Ok(plan) = FaultPlan::parse(&spec) {
                let rendered = plan.to_spec();
                proptest::prop_assert_eq!(FaultPlan::parse(&rendered), Ok(plan), "{}", rendered);
            }
        }
    }
}
