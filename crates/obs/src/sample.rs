//! Tail-based trace sampling: decide *after* a request terminates
//! whether its span chain is worth keeping.
//!
//! Full traces cannot follow the simulator to million-request sweeps —
//! every phase of every request lands in an unbounded `Vec`. Production
//! tracing systems keep the interesting tail instead: a
//! [`SamplingRecorder`] buffers each request's events until its
//! terminal event (`Complete` or `Shed`) and then keeps the whole chain
//! only if the [`SamplePolicy`] fires. Three kinds of keep decisions
//! compose:
//!
//! 1. **Always-keep triggers** — anomalies whose full causal chain is
//!    the entire point of tracing: SLO violations, sheds, failover /
//!    retry / integrity-failure involvement, hedged batches and
//!    quarantine-flagged batches.
//! 2. **Top-K-slowest reservoir** — the K slowest otherwise-unkept
//!    requests survive, so the extreme tail is retained *exactly* and
//!    high quantiles can be recovered from a sampled trace by rank.
//! 3. **Uniform 1-in-N** — a seeded, order-independent hash of the
//!    request id keeps a representative slice of the happy path.
//!
//! Non-request events (circuit transitions, scaling, power counters,
//! batch-scoped hedges…) always pass through, so a sampled trace still
//! satisfies the full `validate-trace` grammar. Event order is
//! preserved via sequence numbers: the **all-keep policy is
//! byte-identical to an unsampled trace** — the same events in the same
//! order produce the same exported bytes.

use crate::event::{Event, Phase};
use crate::recorder::{EventLog, Recorder};
use desim::Duration;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Default top-K-slowest reservoir size when the spec names none.
pub const DEFAULT_TOP_K: usize = 32;

/// A parsed `--sample` spec: what the [`SamplingRecorder`] keeps.
///
/// Grammar (round-trips through [`SamplePolicy::spec`]):
///
/// - `all` — keep every request (byte-identical to no sampling);
/// - `1-in-<N>` — uniform 1-in-N plus the always-keep triggers and the
///   default top-[`DEFAULT_TOP_K`]-slowest reservoir;
/// - `1-in-<N>+top<K>` — same with an explicit reservoir size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplePolicy {
    /// Keep everything (triggers, reservoir and hashing are moot).
    pub keep_all: bool,
    /// Uniform keep rate: one request in `one_in` (ignored if
    /// `keep_all`).
    pub one_in: u64,
    /// Reservoir size: the K slowest otherwise-dropped requests.
    pub top_k: usize,
}

impl SamplePolicy {
    /// The all-keep policy.
    pub fn all() -> SamplePolicy {
        SamplePolicy { keep_all: true, one_in: 1, top_k: 0 }
    }

    /// Uniform 1-in-N with the default reservoir.
    pub fn one_in(n: u64) -> SamplePolicy {
        SamplePolicy { keep_all: false, one_in: n.max(1), top_k: DEFAULT_TOP_K }
    }

    /// Parse a `--sample` spec. Errors are one line and name the
    /// offending token.
    pub fn parse(spec: &str) -> Result<SamplePolicy, String> {
        if spec == "all" {
            return Ok(SamplePolicy::all());
        }
        let err = || format!("sample spec {spec:?}: expected 'all' or '1-in-<N>[+top<K>]'");
        let body = spec.strip_prefix("1-in-").ok_or_else(err)?;
        let (n, k) = match body.split_once("+top") {
            Some((n, k)) => {
                let k: usize = k
                    .parse()
                    .map_err(|_| format!("sample spec {spec:?}: top-K {k:?} is not a number"))?;
                (n, k)
            }
            None => (body, DEFAULT_TOP_K),
        };
        let n: u64 =
            n.parse().map_err(|_| format!("sample spec {spec:?}: N {n:?} is not a number"))?;
        if n == 0 {
            return Err(format!("sample spec {spec:?}: N must be >= 1"));
        }
        Ok(SamplePolicy { keep_all: false, one_in: n, top_k: k })
    }

    /// Canonical spec string (inverse of [`SamplePolicy::parse`]).
    pub fn spec(&self) -> String {
        if self.keep_all {
            return "all".to_string();
        }
        if self.top_k == DEFAULT_TOP_K {
            format!("1-in-{}", self.one_in)
        } else {
            format!("1-in-{}+top{}", self.one_in, self.top_k)
        }
    }
}

/// Why a kept request survived sampling — the breakdown reported by
/// [`SampleStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeepReason {
    Slo,
    Shed,
    Fault,
    Hedge,
    Quarantine,
}

/// What one sampled run kept and why. Rides on the exported trace as a
/// `sampling` metadata row so `validate-trace` can report it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampleStats {
    /// Canonical policy spec ([`SamplePolicy::spec`]).
    pub spec: String,
    /// Requests that reached a terminal event.
    pub requests_seen: u64,
    /// Requests whose full chain was kept.
    pub requests_kept: u64,
    /// Kept because end-to-end latency exceeded the SLO.
    pub slo: u64,
    /// Kept because the request was shed.
    pub shed: u64,
    /// Kept for failover / retry / integrity-failure involvement.
    pub fault: u64,
    /// Kept because a batch carrying the request was hedged.
    pub hedge: u64,
    /// Kept because a batch carrying the request hit a quarantine.
    pub quarantine: u64,
    /// Kept by the uniform 1-in-N hash.
    pub uniform: u64,
    /// Kept by the top-K-slowest reservoir.
    pub reservoir: u64,
    /// Kept because the run ended before the request terminated.
    pub unterminated: u64,
    /// Events offered to the recorder.
    pub events_seen: u64,
    /// Events that survived into the sampled log.
    pub events_kept: u64,
}

impl SampleStats {
    pub fn requests_dropped(&self) -> u64 {
        self.requests_seen - self.requests_kept
    }

    /// Whether this run kept everything (all-keep spec).
    pub fn keeps_all(&self) -> bool {
        self.spec == "all"
    }

    /// One-line human summary (the `validate-trace` sampling line).
    pub fn render(&self) -> String {
        format!(
            "sampling: spec {} kept {}/{} requests (slo {}, shed {}, fault {}, hedge {}, \
             quarantine {}, top-k {}, uniform {}), {}/{} events",
            self.spec,
            self.requests_kept,
            self.requests_seen,
            self.slo,
            self.shed,
            self.fault,
            self.hedge,
            self.quarantine,
            self.reservoir,
            self.uniform,
            self.events_kept,
            self.events_seen,
        )
    }
}

/// Buffered state of one not-yet-terminal request.
#[derive(Default)]
struct PendingReq {
    events: Vec<(u64, Event)>,
    arrive_ns: Option<u64>,
    flag: Option<KeepReason>,
    batches: Vec<u64>,
}

/// Per-batch trigger state: a batch-scoped anomaly (hedge, failover,
/// quarantine) marks every member request as keep-worthy.
#[derive(Default)]
struct BatchState {
    flag: Option<KeepReason>,
    members: Vec<u64>,
}

/// SplitMix64 finalizer over `(seed, id)` — a deterministic,
/// order-independent per-request coin for the uniform 1-in-N decision.
fn mix(seed: u64, id: u64) -> u64 {
    let mut z = seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`Recorder`] implementing tail-based sampling (see the module
/// docs). Feed it a run, then call [`SamplingRecorder::finish`] to get
/// the sampled [`EventLog`] plus the keep/drop ledger.
pub struct SamplingRecorder {
    policy: SamplePolicy,
    seed: u64,
    slo_ns: u64,
    seq: u64,
    kept: Vec<(u64, Event)>,
    pending: HashMap<u64, PendingReq>,
    batches: HashMap<u64, BatchState>,
    /// Min-heap of reservoir candidates by `(latency, id)`; ties break
    /// on the id, so eviction is fully deterministic.
    reservoir: BinaryHeap<Reverse<(u64, u64)>>,
    held: HashMap<u64, Vec<(u64, Event)>>,
    stats: SampleStats,
}

impl SamplingRecorder {
    /// `seed` drives the uniform hash (use the run's serve seed so the
    /// sampled trace is as reproducible as the run); `slo` is the
    /// latency above which a request is an always-keep SLO violation.
    pub fn new(policy: SamplePolicy, seed: u64, slo: Duration) -> SamplingRecorder {
        let stats = SampleStats { spec: policy.spec(), ..SampleStats::default() };
        SamplingRecorder {
            policy,
            seed,
            slo_ns: slo.nanos(),
            seq: 0,
            kept: Vec::new(),
            pending: HashMap::new(),
            batches: HashMap::new(),
            reservoir: BinaryHeap::new(),
            held: HashMap::new(),
            stats,
        }
    }

    /// Trigger classification of a batch-scoped anomaly phase.
    fn batch_trigger(phase: Phase) -> Option<KeepReason> {
        match phase {
            Phase::Hedge | Phase::HedgeWin | Phase::HedgeCancel => Some(KeepReason::Hedge),
            Phase::Failover => Some(KeepReason::Fault),
            Phase::Quarantine => Some(KeepReason::Quarantine),
            _ => None,
        }
    }

    fn decide(&mut self, id: u64, terminal: &Event) {
        // E23 hot path: one decision per terminated request — the
        // sampler's whole overhead story lives here and in the ring
        // appends, so `--prof` runs break it out by name.
        let _prof = crate::prof::scope("sample.decide");
        let Some(mut req) = self.pending.remove(&id) else { return };
        self.stats.requests_seen += 1;
        let end_ns = terminal.finish().nanos();
        let arrive = req.arrive_ns.unwrap_or(end_ns);
        let latency = end_ns.saturating_sub(arrive);

        // Fold in batch-scoped triggers from every batch that carried
        // this request (hedges and failovers land before their members'
        // terminal events, so the flags are already set here).
        if req.flag.is_none() {
            for b in &req.batches {
                if let Some(f) = self.batches.get(b).and_then(|s| s.flag) {
                    req.flag = Some(f);
                    break;
                }
            }
        }
        let reason = if terminal.phase == Phase::Shed {
            Some(KeepReason::Shed)
        } else if latency > self.slo_ns {
            Some(KeepReason::Slo)
        } else {
            req.flag
        };
        if let Some(reason) = reason {
            match reason {
                KeepReason::Slo => self.stats.slo += 1,
                KeepReason::Shed => self.stats.shed += 1,
                KeepReason::Fault => self.stats.fault += 1,
                KeepReason::Hedge => self.stats.hedge += 1,
                KeepReason::Quarantine => self.stats.quarantine += 1,
            }
            self.stats.requests_kept += 1;
            self.kept.append(&mut req.events);
            return;
        }
        if mix(self.seed, id).is_multiple_of(self.policy.one_in) {
            self.stats.uniform += 1;
            self.stats.requests_kept += 1;
            self.kept.append(&mut req.events);
            return;
        }
        if self.policy.top_k > 0 {
            // Tentative keep: the K slowest candidates survive the run.
            self.reservoir.push(Reverse((latency, id)));
            self.held.insert(id, req.events);
            if self.reservoir.len() > self.policy.top_k {
                let Reverse((_, evicted)) = self.reservoir.pop().expect("non-empty reservoir");
                self.held.remove(&evicted);
            }
        }
    }
}

impl Recorder for SamplingRecorder {
    fn record(&mut self, ev: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.stats.events_seen += 1;
        if self.policy.keep_all {
            self.stats.requests_kept +=
                u64::from(matches!(ev.phase, Phase::Complete | Phase::Shed));
            self.stats.requests_seen +=
                u64::from(matches!(ev.phase, Phase::Complete | Phase::Shed));
            self.kept.push((seq, ev));
            return;
        }
        let Some(id) = ev.ctx.request_id else {
            // Worker / batch / power events always survive — they are
            // what keeps the sampled trace grammatically complete.
            if let Some(reason) = Self::batch_trigger(ev.phase) {
                if let Some(b) = ev.ctx.batch_id {
                    let state = self.batches.entry(b).or_default();
                    state.flag.get_or_insert(reason);
                    // Retro-flag members already buffered.
                    for m in state.members.clone() {
                        if let Some(req) = self.pending.get_mut(&m) {
                            req.flag.get_or_insert(reason);
                        }
                    }
                }
            }
            self.kept.push((seq, ev));
            return;
        };
        let req = self.pending.entry(id).or_default();
        if let Some(b) = ev.ctx.batch_id {
            if !req.batches.contains(&b) {
                req.batches.push(b);
                let state = self.batches.entry(b).or_default();
                state.members.push(id);
                if let Some(f) = state.flag {
                    self.pending.get_mut(&id).expect("just inserted").flag.get_or_insert(f);
                }
            }
        }
        let req = self.pending.get_mut(&id).expect("present");
        if ev.phase == Phase::Arrive {
            req.arrive_ns.get_or_insert(ev.start.nanos());
        }
        if matches!(ev.phase, Phase::RetryAttempt | Phase::IntegrityFail | Phase::Failover) {
            req.flag.get_or_insert(KeepReason::Fault);
        }
        req.events.push((seq, ev));
        if matches!(ev.phase, Phase::Complete | Phase::Shed) {
            self.decide(id, &ev);
        }
    }
}

impl SamplingRecorder {
    /// Resolve the reservoir, restore global event order and return the
    /// sampled log plus the keep/drop ledger.
    pub fn finish(mut self) -> (EventLog, SampleStats) {
        // Reservoir survivors: the K slowest non-triggered requests.
        let mut survivors: Vec<u64> = self.held.keys().copied().collect();
        survivors.sort_unstable();
        for id in survivors {
            let mut evs = self.held.remove(&id).expect("held");
            self.stats.reservoir += 1;
            self.stats.requests_kept += 1;
            self.kept.append(&mut evs);
        }
        // Requests with no terminal event by the end of the run are
        // anomalies in their own right: keep them.
        let mut open: Vec<u64> = self.pending.keys().copied().collect();
        open.sort_unstable();
        for id in open {
            let mut req = self.pending.remove(&id).expect("pending");
            self.stats.requests_seen += 1;
            self.stats.requests_kept += 1;
            self.stats.unterminated += 1;
            self.kept.append(&mut req.events);
        }
        self.kept.sort_unstable_by_key(|&(seq, _)| seq);
        self.stats.events_kept = self.kept.len() as u64;
        let mut log = EventLog::new();
        for (_, ev) in self.kept {
            log.record(ev);
        }
        (log, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Ctx, Lane, ShedCause};
    use desim::SimTime;

    #[test]
    fn spec_grammar_round_trips_and_rejects_junk() {
        for spec in ["all", "1-in-100", "1-in-7+top4"] {
            let p = SamplePolicy::parse(spec).expect(spec);
            assert_eq!(p.spec(), spec, "{spec}");
        }
        // The default top-K collapses back to the short form.
        assert_eq!(SamplePolicy::parse("1-in-9+top32").unwrap().spec(), "1-in-9");
        for bad in ["", "none", "1-in-", "1-in-x", "1-in-0", "1-in-5+topx", "2-in-5"] {
            let err = SamplePolicy::parse(bad).unwrap_err();
            assert!(err.contains("sample spec"), "{bad}: {err}");
            assert!(!err.contains('\n'), "one-line error: {err}");
        }
    }

    /// A tiny synthetic run: `n` requests, request 2 shed, request 5
    /// slow (SLO violation), the rest fast completions.
    fn feed(rec: &mut SamplingRecorder, n: u64) {
        let t = |ms: u64| SimTime(ms * 1_000_000);
        for id in 0..n {
            let base = id * 10;
            rec.record(Event::instant(Phase::Arrive, Lane::Server, t(base), Ctx::request(id)));
            if id == 2 {
                rec.record(
                    Event::instant(Phase::Shed, Lane::Server, t(base + 1), Ctx::request(id))
                        .with_cause(ShedCause::Rejected),
                );
                continue;
            }
            let c = Ctx::request(id).with_batch(id).with_worker(0);
            rec.record(Event::instant(Phase::Dispatch, Lane::Worker(0), t(base + 1), c));
            let done = if id == 5 { base + 600 } else { base + 3 + id % 3 };
            rec.record(Event::instant(Phase::Complete, Lane::Server, t(done), c));
        }
    }

    fn sampled(policy: SamplePolicy, seed: u64, n: u64) -> (EventLog, SampleStats) {
        let mut rec = SamplingRecorder::new(policy, seed, Duration::from_millis(500.0));
        feed(&mut rec, n);
        rec.finish()
    }

    #[test]
    fn decide_is_a_named_profiler_scope() {
        crate::prof::start();
        let (_log, stats) = sampled(SamplePolicy::parse("1-in-4").unwrap(), 7, 20);
        let r = crate::prof::stop();
        let decide = r.scopes.iter().find(|s| s.name == "sample.decide");
        assert_eq!(
            decide.map(|s| s.calls),
            Some(stats.requests_seen),
            "one decision per terminated request: {r:#?}"
        );
    }

    #[test]
    fn all_keep_preserves_every_event_in_order() {
        let (log, stats) = sampled(SamplePolicy::all(), 7, 20);
        // `feed` wants a SamplingRecorder, so replay via a second
        // all-keep pass and compare against the raw log ordering.
        let mut full = EventLog::new();
        let mut rec = SamplingRecorder::new(SamplePolicy::all(), 0, Duration::from_millis(500.0));
        feed(&mut rec, 20);
        for (_, ev) in rec.kept.drain(..) {
            full.record(ev);
        }
        assert_eq!(log.events(), full.events());
        assert_eq!(stats.requests_kept, stats.requests_seen);
        assert_eq!(stats.events_kept, stats.events_seen);
        assert!(stats.keeps_all());
    }

    #[test]
    fn triggers_always_keep_shed_and_slo_chains() {
        let policy = SamplePolicy { keep_all: false, one_in: 1_000_000, top_k: 0 };
        let (log, stats) = sampled(policy, 1, 50);
        assert_eq!(stats.shed, 1, "{stats:?}");
        assert_eq!(stats.slo, 1, "{stats:?}");
        let kept = log.group_by(|e| e.ctx.request_id);
        assert_eq!(kept[&2].len(), 2, "shed chain retained in full");
        assert_eq!(kept[&5].len(), 3, "slow chain retained in full");
        assert!(!kept.contains_key(&7), "happy-path request dropped");
        assert!(stats.requests_dropped() > 0);
    }

    #[test]
    fn reservoir_keeps_exactly_the_k_slowest() {
        let policy = SamplePolicy { keep_all: false, one_in: 1_000_000, top_k: 3 };
        let (log, stats) = sampled(policy, 1, 50);
        assert_eq!(stats.reservoir, 3, "{stats:?}");
        // Completions take 3 + id%3 ms: the slowest non-triggered
        // requests are the highest ids with id%3 == 2.
        let kept: Vec<u64> = log.group_by(|e| e.ctx.request_id).into_keys().collect();
        assert!(kept.contains(&47) && kept.contains(&44), "{kept:?}");
    }

    #[test]
    fn uniform_hash_is_seeded_and_deterministic() {
        let policy = SamplePolicy { keep_all: false, one_in: 4, top_k: 0 };
        let (a, sa) = sampled(policy.clone(), 11, 200);
        let (b, sb) = sampled(policy.clone(), 11, 200);
        assert_eq!(a.events(), b.events(), "same seed, same sample");
        assert_eq!(sa, sb);
        let (c, sc) = sampled(policy, 12, 200);
        assert_ne!(a.events(), c.events(), "different seed, different sample");
        assert!(sa.uniform > 0 && sc.uniform > 0);
        // 1-in-4 of ~200: the hash keeps roughly a quarter.
        assert!((20..=90).contains(&(sa.uniform as usize)), "{sa:?}");
    }

    #[test]
    fn batch_triggers_flag_member_requests() {
        let t = |ms: u64| SimTime(ms * 1_000_000);
        let policy = SamplePolicy { keep_all: false, one_in: 1_000_000, top_k: 0 };
        let mut rec = SamplingRecorder::new(policy, 3, Duration::from_millis(500.0));
        let c = Ctx::request(0).with_batch(9).with_worker(1);
        rec.record(Event::instant(Phase::Arrive, Lane::Server, t(0), Ctx::request(0)));
        rec.record(Event::instant(Phase::Dispatch, Lane::Worker(1), t(1), c));
        // Batch-scoped hedge lands before the member's completion.
        let h = Ctx { request_id: None, batch_id: Some(9), worker: Some(2) };
        rec.record(Event::span(Phase::Hedge, Lane::Worker(2), t(2), t(3), h));
        rec.record(Event::instant(Phase::Complete, Lane::Server, t(4), c));
        let (log, stats) = rec.finish();
        assert_eq!(stats.hedge, 1, "{stats:?}");
        assert_eq!(log.group_by(|e| e.ctx.request_id)[&0].len(), 3, "hedged chain kept in full");
        // The batch-scoped hedge span itself always survives.
        assert!(log.events().iter().any(|e| e.phase == Phase::Hedge));
    }

    #[test]
    fn unterminated_requests_are_kept() {
        let t = |ms: u64| SimTime(ms * 1_000_000);
        let policy = SamplePolicy { keep_all: false, one_in: 1_000_000, top_k: 0 };
        let mut rec = SamplingRecorder::new(policy, 3, Duration::from_millis(500.0));
        rec.record(Event::instant(Phase::Arrive, Lane::Server, t(0), Ctx::request(4)));
        let (log, stats) = rec.finish();
        assert_eq!(stats.unterminated, 1);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn stats_render_is_one_line() {
        let (_, stats) = sampled(SamplePolicy::one_in(4), 9, 40);
        let line = stats.render();
        assert!(line.starts_with("sampling: spec 1-in-4 kept "), "{line}");
        assert!(!line.contains('\n'));
    }
}
