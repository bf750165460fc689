//! `ncsw-ctrl` — closed-loop autoscaling policies on the virtual clock.
//!
//! The serving fleet (ncsw-serve) provisions for peak, but E19 showed
//! idle islands charging up to ~45% of fleet energy at 0.2x load:
//! headroom costs joules whether or not traffic needs it. This crate is
//! the *decision* half of the loop that reclaims it. A
//! [`ScalingPolicy`] consumes a [`ScaleSignals`] snapshot each
//! controller tick — queue depth, two-window SLO burn rate, shed rate,
//! the observed arrival rate, and the live/provisioning/gated split of
//! the elastic VPU sticks — and answers with a [`ScaleDecision`]. The
//! *actuation* half (draining sticks, power-gating them, paying the
//! provisioning delay on scale-up) lives in `ncsw-serve`, which keeps
//! this crate a pure, RNG-free library: same signals in, same decision
//! out, every time.
//!
//! Three policies ship behind the trait, deliberately ordered by how
//! much foresight they are allowed:
//!
//! * [`Reactive`] — sees only the trailing window. Burn-rate
//!   thresholds with hysteresis and a cooldown; drains one stick at a
//!   time, scales up eagerly, and spins up replacements when circuit
//!   breakers stay open (a long `ncsw-faults` outage).
//! * [`Predictive`] — primed with the full arrival trace, looks ahead
//!   a sliding window and provisions for the demand in it, plus one
//!   spare stick for forecast error.
//! * [`Oracle`] — the offline upper bound: knows the whole trace,
//!   gates from the epoch, and tracks the demand curve with exactly
//!   the provisioning lead time and no spare headroom.

use desim::{Duration, SimTime};
use serde::{Deserialize, Serialize};

/// Everything a policy may look at when deciding, sampled by the
/// serve-side controller at one tick. All rates are per second of
/// virtual time; stick counts refer to the *elastic* pool only.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleSignals {
    /// The tick instant.
    pub now: SimTime,
    /// Requests currently queued.
    pub queue_depth: usize,
    /// Configured admission queue capacity.
    pub queue_capacity: usize,
    /// SLO burn rate over the fast window (mean fraction of completions
    /// missing the SLO — same semantics as `ncsw-analyze`'s alerts).
    pub fast_burn: f64,
    /// SLO burn rate over the slow window.
    pub slow_burn: f64,
    /// Fraction of window arrivals shed.
    pub shed_rate: f64,
    /// Observed arrival rate over the trailing window.
    pub arrival_rps: f64,
    /// Elastic sticks currently live (dispatchable).
    pub live: usize,
    /// Elastic sticks paying the provisioning delay.
    pub provisioning: usize,
    /// Elastic sticks power-gated.
    pub gated: usize,
    /// Live workers whose circuit breaker is currently open — the
    /// outage signal replacements react to.
    pub open_circuits: usize,
    /// Live workers quarantined as fail-slow by the serve-side gray
    /// defenses. Quarantined sticks are routed around, so like open
    /// circuits they are committed capacity the dispatcher cannot use.
    pub quarantined: usize,
    /// Nameplate capacity of one elastic stick.
    pub stick_rps: f64,
    /// Nameplate capacity of the always-on (non-elastic) workers.
    pub base_rps: f64,
}

/// What a policy wants done to the elastic pool this tick. `Up` powers
/// on gated sticks (they become usable after the provisioning delay);
/// `Down` drains live sticks (in-flight batches finish, then the stick
/// power-gates). The actuator clamps both to what the pool allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScaleDecision {
    Hold,
    Up(usize),
    Down(usize),
}

/// Offline context handed to [`ScalingPolicy::prime`] before the run:
/// the arrival trace (for lookahead policies) and the fleet constants
/// every policy needs to turn a rate into a stick count.
#[derive(Debug, Clone, PartialEq)]
pub struct PrimeContext {
    /// Virtual instant of the first tick.
    pub epoch: SimTime,
    /// Controller tick interval.
    pub tick: Duration,
    /// Scale-up provisioning delay.
    pub provision_delay: Duration,
    /// Nameplate capacity of one elastic stick.
    pub stick_rps: f64,
    /// Nameplate capacity of the always-on workers.
    pub base_rps: f64,
    /// Size of the elastic pool.
    pub total_sticks: usize,
    /// Floor on live + provisioning sticks the actuator enforces.
    pub min_live: usize,
}

/// One autoscaling policy. Implementations must be deterministic and
/// RNG-free: the serving loop's reproducibility guarantees extend to
/// autoscaled runs only because the controller is a pure function of
/// the (seeded, virtual-time) signals.
pub trait ScalingPolicy {
    /// Stable name, used in reports and the CLI.
    fn name(&self) -> &'static str;

    /// Called once before the run with the full arrival trace. The
    /// reactive policy ignores it; the predictive and oracle policies
    /// keep what foresight they are allowed.
    fn prime(&mut self, _arrivals: &[SimTime], _ctx: &PrimeContext) {}

    /// Called at every controller tick.
    fn decide(&mut self, signals: &ScaleSignals) -> ScaleDecision;
}

/// Sticks needed to serve `rate_rps` on top of the always-on base at
/// the given utilization target. The shared rate→capacity conversion
/// all three policies use, so their orderings come from *foresight and
/// headroom*, not from accounting differences.
pub fn required_sticks(rate_rps: f64, base_rps: f64, stick_rps: f64, util_target: f64) -> usize {
    let residual = (rate_rps - base_rps).max(0.0);
    if residual == 0.0 || stick_rps <= 0.0 || util_target <= 0.0 {
        return 0;
    }
    (residual / (stick_rps * util_target)).ceil() as usize
}

/// Count arrivals in `[from, to)` of a sorted arrival trace.
fn arrivals_in(arrivals: &[SimTime], from: SimTime, to: SimTime) -> usize {
    let lo = arrivals.partition_point(|&a| a < from);
    let hi = arrivals.partition_point(|&a| a < to);
    hi - lo
}

/// Mean arrival rate over `[from, from + window)` of a sorted trace.
fn rate_over(arrivals: &[SimTime], from: SimTime, window: Duration) -> f64 {
    let secs = window.as_secs();
    if secs <= 0.0 {
        return 0.0;
    }
    arrivals_in(arrivals, from, from + window) as f64 / secs
}

// ---------------------------------------------------------------------
// Reactive
// ---------------------------------------------------------------------

// The burn thresholds mirror the two-window alert in `ncsw-analyze`
// (fast 0.5, slow 0.25); the rest encode classic autoscaler hysteresis:
// scale up eagerly, scale down one stick at a time after a calm streak,
// never flap inside the cooldown.

/// Utilization target the observed rate is provisioned against. Lowest
/// of the three policies — reaction lag is paid for with standing
/// headroom.
pub const REACTIVE_TARGET_UTIL: f64 = 0.55;
/// Spare sticks on top of the computed requirement.
pub const REACTIVE_SPARE: usize = 1;
/// Fast-window burn rate that forces a scale-up.
pub const REACTIVE_FAST_BURN: f64 = 0.5;
/// Slow-window burn rate that forces a scale-up.
pub const REACTIVE_SLOW_BURN: f64 = 0.25;
/// Consecutive calm ticks before one stick may drain.
pub const REACTIVE_CALM_TICKS: u32 = 3;
/// Minimum spacing between scale-downs.
pub const REACTIVE_COOLDOWN: Duration = Duration(100_000_000);
/// Consecutive ticks with open circuits before replacements spin up.
pub const REACTIVE_OUTAGE_TICKS: u32 = 2;

/// Burn-rate thresholds with hysteresis and cooldown; no foresight.
#[derive(Debug, Clone, Default)]
pub struct Reactive {
    calm: u32,
    cooldown_until: SimTime,
    outage_streak: u32,
}

impl ScalingPolicy for Reactive {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn decide(&mut self, s: &ScaleSignals) -> ScaleDecision {
        let committed = s.live + s.provisioning;

        // Outage replacement: circuit breakers that stay open — or
        // fail-slow quarantines that persist — across ticks mean
        // capacity the dispatcher cannot use; refill the pool from the
        // gated sticks while the outage lasts.
        let unusable = s.open_circuits + s.quarantined;
        if unusable > 0 {
            self.outage_streak += 1;
            if self.outage_streak >= REACTIVE_OUTAGE_TICKS && s.gated > 0 {
                self.calm = 0;
                return ScaleDecision::Up(unusable.min(s.gated));
            }
        } else {
            self.outage_streak = 0;
        }

        let needed = required_sticks(s.arrival_rps, s.base_rps, s.stick_rps, REACTIVE_TARGET_UTIL)
            + REACTIVE_SPARE;

        // Pressure: the SLO is burning on both windows, or admission is
        // about to shed. Scale straight to the requirement.
        let burning = s.fast_burn >= REACTIVE_FAST_BURN && s.slow_burn >= REACTIVE_SLOW_BURN;
        let pressured = burning || s.queue_depth * 2 >= s.queue_capacity || s.shed_rate > 0.0;
        if pressured && s.gated > 0 {
            self.calm = 0;
            let want = needed.max(committed + 1) - committed;
            return ScaleDecision::Up(want.min(s.gated));
        }

        if needed > committed {
            self.calm = 0;
            return ScaleDecision::Up((needed - committed).min(s.gated));
        }

        // Calm: drain one stick at a time, after a streak, outside the
        // cooldown — hysteresis against flapping on arrival noise.
        if needed < committed && !pressured {
            self.calm += 1;
            if self.calm >= REACTIVE_CALM_TICKS && s.now >= self.cooldown_until {
                self.calm = 0;
                self.cooldown_until = s.now + REACTIVE_COOLDOWN;
                return ScaleDecision::Down(1);
            }
        } else {
            self.calm = 0;
        }
        ScaleDecision::Hold
    }
}

// ---------------------------------------------------------------------
// Predictive
// ---------------------------------------------------------------------

/// Arrival-trace lookahead over a sliding window: provisions for the
/// mean demand across the next `lookahead` of the trace, plus one
/// spare stick. Foresight removes the reaction lag; the spare covers
/// the (deliberate) fact that it plans with a window mean, not the
/// exact curve — short bursts inside the window dilute into the
/// average and are absorbed by the spare and the queue.
#[derive(Debug, Clone, Default)]
pub struct Predictive {
    target_util: f64,
    spare: usize,
    lookahead: Duration,
    arrivals: Vec<SimTime>,
    stick_rps: f64,
    base_rps: f64,
}

impl Predictive {
    pub fn new() -> Predictive {
        Predictive { target_util: 0.7, spare: 1, ..Predictive::default() }
    }
}

impl ScalingPolicy for Predictive {
    fn name(&self) -> &'static str {
        "predictive"
    }

    fn prime(&mut self, arrivals: &[SimTime], ctx: &PrimeContext) {
        self.arrivals = arrivals.to_vec();
        // Look far enough ahead to cover the provisioning delay plus a
        // few ticks of planning slack.
        self.lookahead = ctx.provision_delay + ctx.tick * 4;
        self.stick_rps = ctx.stick_rps;
        self.base_rps = ctx.base_rps;
    }

    fn decide(&mut self, s: &ScaleSignals) -> ScaleDecision {
        let forecast = rate_over(&self.arrivals, s.now, self.lookahead);
        let needed =
            required_sticks(forecast, self.base_rps, self.stick_rps, self.target_util) + self.spare;
        let committed = s.live + s.provisioning;
        match needed.cmp(&committed) {
            std::cmp::Ordering::Greater => ScaleDecision::Up((needed - committed).min(s.gated)),
            std::cmp::Ordering::Less => ScaleDecision::Down(committed - needed),
            std::cmp::Ordering::Equal => ScaleDecision::Hold,
        }
    }
}

// ---------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------

/// The offline upper bound: a pass over the full trace with perfect
/// knowledge. At each tick it holds exactly the sticks the next
/// `tick + provision_delay` of real arrivals require — just enough
/// foresight that every scale-up lands before the load it serves — at
/// a higher utilization target and with no spare. Every joule it
/// reclaims beyond [`Predictive`] is the price of forecast headroom;
/// everything beyond [`Reactive`] is the price of having no trace.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    target_util: f64,
    window: Duration,
    arrivals: Vec<SimTime>,
    stick_rps: f64,
    base_rps: f64,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle { target_util: 0.8, ..Oracle::default() }
    }
}

impl ScalingPolicy for Oracle {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn prime(&mut self, arrivals: &[SimTime], ctx: &PrimeContext) {
        self.arrivals = arrivals.to_vec();
        self.window = ctx.tick + ctx.provision_delay;
        self.stick_rps = ctx.stick_rps;
        self.base_rps = ctx.base_rps;
    }

    fn decide(&mut self, s: &ScaleSignals) -> ScaleDecision {
        let needed = |from: SimTime| {
            let rate = rate_over(&self.arrivals, from, self.window);
            required_sticks(rate, self.base_rps, self.stick_rps, self.target_util)
        };
        let now = needed(s.now);
        let committed = s.live + s.provisioning;
        if now > committed {
            return ScaleDecision::Up((now - committed).min(s.gated));
        }
        // Perfect foresight means never regretting a drain: a stick is
        // released only if the next few windows won't want it back —
        // otherwise the 200 ms re-provision gap would be paid for a
        // stick the trace says is needed, which is flap, not reclaim.
        let horizon = (0..3).map(|k| needed(s.now + self.window * k)).max().unwrap_or(now);
        if horizon < committed {
            ScaleDecision::Down(committed - horizon)
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Policy by CLI name: `reactive`, `predictive` or `oracle`.
pub fn policy(name: &str) -> Option<Box<dyn ScalingPolicy>> {
    match name {
        "reactive" => Some(Box::new(Reactive::default())),
        "predictive" => Some(Box::new(Predictive::new())),
        "oracle" => Some(Box::new(Oracle::new())),
        _ => None,
    }
}

/// The three shipped policy names, in increasing order of foresight.
pub const POLICY_NAMES: [&str; 3] = ["reactive", "predictive", "oracle"];

#[cfg(test)]
mod tests {
    use super::*;

    fn at_ms(ms: f64) -> SimTime {
        SimTime::ZERO + Duration::from_millis(ms)
    }

    fn signals(now: SimTime, rate: f64, live: usize, gated: usize) -> ScaleSignals {
        ScaleSignals {
            now,
            queue_depth: 0,
            queue_capacity: 64,
            fast_burn: 0.0,
            slow_burn: 0.0,
            shed_rate: 0.0,
            arrival_rps: rate,
            live,
            provisioning: 0,
            gated,
            open_circuits: 0,
            quarantined: 0,
            stick_rps: 10.0,
            base_rps: 0.0,
        }
    }

    fn ctx() -> PrimeContext {
        PrimeContext {
            epoch: SimTime::ZERO,
            tick: Duration::from_millis(50.0),
            provision_delay: Duration::from_millis(200.0),
            stick_rps: 10.0,
            base_rps: 0.0,
            total_sticks: 8,
            min_live: 1,
        }
    }

    #[test]
    fn required_sticks_rounds_up_and_respects_the_base() {
        assert_eq!(required_sticks(0.0, 0.0, 10.0, 0.5), 0);
        assert_eq!(required_sticks(16.0, 0.0, 10.0, 0.8), 2);
        assert_eq!(required_sticks(16.1, 0.0, 10.0, 0.8), 3);
        // The always-on base absorbs its share first.
        assert_eq!(required_sticks(16.0, 16.0, 10.0, 0.8), 0);
        assert_eq!(required_sticks(26.0, 16.0, 10.0, 0.5), 2);
    }

    #[test]
    fn reactive_scales_up_under_burn_and_drains_one_at_a_time() {
        let mut p = Reactive::default();
        // Burning on both windows: scale up immediately.
        let mut s = signals(at_ms(100.0), 50.0, 2, 6);
        s.fast_burn = 0.6;
        s.slow_burn = 0.3;
        assert!(matches!(p.decide(&s), ScaleDecision::Up(n) if n >= 1));

        // Calm and overprovisioned: holds through the streak, then
        // drains exactly one stick.
        let mut p = Reactive::default();
        for i in 0..2 {
            let s = signals(at_ms(100.0 * (i + 1) as f64), 5.0, 8, 0);
            assert_eq!(p.decide(&s), ScaleDecision::Hold, "calm streak tick {i}");
        }
        let s = signals(at_ms(300.0), 5.0, 8, 0);
        assert_eq!(p.decide(&s), ScaleDecision::Down(1));
        // Immediately after: inside the cooldown, so it holds.
        let s = signals(at_ms(310.0), 5.0, 7, 1);
        assert_eq!(p.decide(&s), ScaleDecision::Hold);
    }

    #[test]
    fn reactive_replaces_sticks_lost_to_a_long_outage() {
        let mut p = Reactive::default();
        let mut s = signals(at_ms(100.0), 5.0, 3, 5);
        s.open_circuits = 2;
        // First outage tick: not yet (could be a blip).
        assert!(!matches!(p.decide(&s), ScaleDecision::Up(_)));
        // Second consecutive tick with open circuits: replace both.
        assert_eq!(p.decide(&s), ScaleDecision::Up(2));
    }

    #[test]
    fn reactive_replaces_quarantined_fail_slow_sticks() {
        // A persistent quarantine is an outage the breakers never see:
        // the replacement path must treat it like an open circuit.
        let mut p = Reactive::default();
        let mut s = signals(at_ms(100.0), 5.0, 3, 5);
        s.quarantined = 1;
        assert!(!matches!(p.decide(&s), ScaleDecision::Up(_)));
        assert_eq!(p.decide(&s), ScaleDecision::Up(1));
    }

    #[test]
    fn predictive_provisions_for_the_demand_ahead() {
        let mut p = Predictive::new();
        // A burst of 20 arrivals 100 ms out, inside the 400 ms lookahead.
        let mut arrivals: Vec<SimTime> = Vec::new();
        for i in 0..20 {
            arrivals.push(at_ms(100.0) + Duration::from_micros(i as f64));
        }
        p.prime(&arrivals, &ctx());
        let s = signals(SimTime::ZERO, 0.0, 1, 7);
        // 20 arrivals over the 400 ms window = 50 rps forecast -> scale
        // out ahead of the burst.
        match p.decide(&s) {
            ScaleDecision::Up(n) => assert!(n >= 1, "burst ahead must scale up"),
            d => panic!("expected Up, got {d:?}"),
        }
        // Past the burst: drains back toward the spare.
        let s = signals(at_ms(500.0), 0.0, 8, 0);
        assert!(matches!(p.decide(&s), ScaleDecision::Down(_)));
    }

    #[test]
    fn oracle_tracks_the_demand_curve_exactly() {
        let mut o = Oracle::new();
        let arrivals: Vec<SimTime> = (0..100).map(|i| at_ms(10.0 * i as f64)).collect();
        o.prime(&arrivals, &ctx());
        // 100 rps sustained at util 0.8 over 10 rps sticks: 13 needed,
        // pool capped by `gated` on the way up.
        let s = signals(SimTime::ZERO, 100.0, 1, 7);
        assert_eq!(o.decide(&s), ScaleDecision::Up(7));
        // After the trace ends, demand is zero: drain everything (the
        // actuator enforces min_live).
        let s = signals(at_ms(2_000.0), 0.0, 8, 0);
        assert_eq!(o.decide(&s), ScaleDecision::Down(8));
    }

    #[test]
    fn policies_resolve_by_name() {
        for name in POLICY_NAMES {
            let p = policy(name).expect("known policy");
            assert_eq!(p.name(), name);
        }
        assert!(policy("bogus").is_none());
    }
}
