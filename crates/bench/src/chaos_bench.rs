//! Seeded chaos campaigns: randomized fault cocktails against the fully
//! defended server, with machine-checked invariants.
//!
//! Each campaign derives everything — fleet shape, offered load, shed
//! and dispatch policies, and a cocktail of one to three faults drawn
//! from all eight kinds — from a single campaign seed, runs the server
//! with every gray-failure defense on, and checks invariants that must
//! hold under *any* fault cocktail:
//!
//! 1. **Conservation** — every generated request completes or sheds.
//! 2. **Exactly-once** — no request id appears twice across the
//!    completed and shed sets.
//! 3. **Integrity** — zero corrupted or dropped results surfaced to the
//!    client (verification is on).
//! 4. **Energy books** — the fleet picojoule total equals the sum of
//!    the per-worker ledgers at the same horizon, exactly.
//! 5. **Latency telescoping** — formation + queue + service == latency
//!    for every completed request, in exact integer nanoseconds.
//! 6. **Trace grammar** — the run's Chrome trace passes the full
//!    `trace_check` validator (phase chains, USB half-duplex, hedge
//!    pairing, quarantine windows, integrity resolution).
//! 7. **Determinism** — re-running the campaign byte-reproduces the
//!    trace and the report.
//!
//! A failing campaign prints its seed and full spec; `repro chaos
//! --campaigns 1 --seed <campaign_seed>` replays exactly that cocktail.

use crate::report;
use crate::trace_check;
use desim::Duration;
use ncsw::ModelBundle;
use ncsw_faults::{FaultEvent, FaultPlan};
use ncsw_obs::chrome_trace;
use ncsw_serve::{
    serve_observed, ArrivalProcess, DispatchPolicy, FleetSpec, GrayConfig, ObsConfig, ServeConfig,
    ServeOutcome, ServeReport, ShedPolicy,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use vpu_nn::googlenet::Variant;

/// Fleet shapes a campaign may draw (kept small: chaos hunts for logic
/// violations, not throughput numbers).
pub const CHAOS_FLEETS: [&str; 4] = ["vpu+vpu", "vpu+vpu+vpu", "vpu+vpu+vpu+vpu", "cpu+2xvpu"];

/// Everything one campaign derived from its seed — printed verbatim
/// when an invariant fails so the cocktail is reproducible by hand.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignSpec {
    pub campaign_seed: u64,
    pub fleet: String,
    pub load_frac: f64,
    pub requests: usize,
    pub shed: String,
    pub policy: String,
    /// `--faults` grammar for the injected cocktail.
    pub faults: String,
}

/// One campaign that violated at least one invariant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignFailure {
    pub spec: CampaignSpec,
    pub violations: Vec<String>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosReport {
    pub campaigns: usize,
    pub base_seed: u64,
    /// Requests served across all campaigns.
    pub requests_total: usize,
    /// Faults injected across all campaigns (sum of plan lengths).
    pub faults_total: usize,
    pub failures: Vec<CampaignFailure>,
}

impl ChaosReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn print(&self) {
        report::header(&format!(
            "chaos — {} seeded campaigns from seed {} ({} requests, {} faults injected)",
            self.campaigns, self.base_seed, self.requests_total, self.faults_total
        ));
        if self.passed() {
            println!("all campaigns passed every invariant");
            return;
        }
        for f in &self.failures {
            let s = &f.spec;
            println!(
                "\nFAILED campaign seed {} — fleet {}, load {:.2}x, {} req, shed {}, \
                 dispatch {}\n  faults: {}",
                s.campaign_seed, s.fleet, s.load_frac, s.requests, s.shed, s.policy, s.faults
            );
            for v in &f.violations {
                println!("  violated: {v}");
            }
            println!("  replay: repro chaos --campaigns 1 --seed {}", s.campaign_seed);
        }
        println!("\n{} of {} campaigns FAILED", self.failures.len(), self.campaigns);
    }
}

/// Draw one campaign's scenario from its seed.
fn draw_spec(campaign_seed: u64, capacity_of: impl Fn(&str) -> f64) -> (CampaignSpec, FaultPlan) {
    let mut rng = vpu_num::rng::indexed_stream(campaign_seed, "chaos-campaign", 0);
    let fleet = CHAOS_FLEETS[rng.gen_range(0..CHAOS_FLEETS.len())];
    let fleet_size = FleetSpec::parse(fleet).expect("valid fleet spec").0.len();
    let load_frac = 0.5 + 0.7 * rng.gen::<f64>();
    let requests = rng.gen_range(120..240);
    let shed: ShedPolicy = [ShedPolicy::Reject, ShedPolicy::DropOldest, ShedPolicy::DeadlineAware]
        [rng.gen_range(0..3usize)];
    let policy: DispatchPolicy =
        [DispatchPolicy::RoundRobin, DispatchPolicy::LeastOutstanding, DispatchPolicy::CostAware]
            [rng.gen_range(0..3usize)];
    let horizon = requests as f64 / (capacity_of(fleet) * load_frac);

    let mut plan = FaultPlan::empty();
    for _ in 0..rng.gen_range(1..=3) {
        let worker = Some(rng.gen_range(0..fleet_size));
        let at = Duration::from_secs(horizon * (0.1 + 0.5 * rng.gen::<f64>()));
        let dur = Duration::from_secs(horizon * (0.2 + 0.4 * rng.gen::<f64>()));
        let p = 0.01 + 0.09 * rng.gen::<f64>();
        let fault = match rng.gen_range(0..8) {
            0 => FaultEvent::StickUnplug {
                at,
                reconnect_after: Some(Duration::from_secs(horizon * 0.15)),
            },
            1 => FaultEvent::ThermalThrottle {
                at,
                duration: dur,
                slowdown: 1.5 + 2.0 * rng.gen::<f64>(),
            },
            2 => FaultEvent::UsbDegrade { at, duration: dur, factor: 1.3 + rng.gen::<f64>() },
            3 => FaultEvent::TransientExecError { per_batch_prob: p },
            4 => FaultEvent::FailSlow { at, duration: dur, factor: 2.0 + 6.0 * rng.gen::<f64>() },
            5 => FaultEvent::ResultCorrupt { per_image_prob: p },
            6 => FaultEvent::DuplicateCompletion { per_image_prob: p },
            _ => FaultEvent::DroppedCompletion { per_image_prob: p },
        };
        plan.push(worker, fault);
    }

    let spec = CampaignSpec {
        campaign_seed,
        fleet: fleet.to_string(),
        load_frac,
        requests,
        shed: shed.name().to_string(),
        policy: policy.name().to_string(),
        faults: plan.to_spec(),
    };
    (spec, plan)
}

/// Everything invariant checks need from one execution of a campaign.
struct CampaignRun {
    outcome: ServeOutcome,
    chrome_json: String,
    report_json: String,
}

fn execute(spec: &CampaignSpec, plan: &FaultPlan, model: &ModelBundle) -> CampaignRun {
    let fleet = FleetSpec::parse(&spec.fleet).expect("valid fleet spec");
    let workers = fleet.build(model);
    let capacity_rps = fleet.capacity_rps(&workers);
    let max_batch = fleet.preferred_batch(&workers);
    let cfg = ServeConfig {
        max_batch,
        shed: ShedPolicy::parse(&spec.shed).expect("round-trip shed policy"),
        policy: DispatchPolicy::parse(&spec.policy).expect("round-trip dispatch policy"),
        seed: spec.campaign_seed,
        gray: GrayConfig::defended(),
        ..ServeConfig::default()
    };
    let mut workers = plan.apply(workers, cfg.seed);
    let load = ArrivalProcess::Poisson { rate_per_sec: capacity_rps * spec.load_frac };
    let ocfg = ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() };
    let (outcome, obs) = serve_observed(&mut workers, &cfg, &load, spec.requests, &ocfg);
    let report_json =
        serde_json::to_string(&ServeReport::of(&outcome, &cfg)).expect("report serializes");
    CampaignRun { outcome, chrome_json: chrome_trace(&obs.events), report_json }
}

/// Check every invariant against one campaign execution (plus its
/// re-execution for determinism). Returns the violations found.
fn check_invariants(spec: &CampaignSpec, run: &CampaignRun, rerun: &CampaignRun) -> Vec<String> {
    let mut v = Vec::new();
    let o = &run.outcome;

    // 1. Conservation.
    if o.completed.len() + o.shed.len() != o.generated {
        v.push(format!(
            "conservation: {} completed + {} shed != {} generated",
            o.completed.len(),
            o.shed.len(),
            o.generated
        ));
    }

    // 2. Exactly-once delivery.
    let mut ids = BTreeSet::new();
    for id in o.completed.iter().map(|r| r.id).chain(o.shed.iter().map(|s| s.id)) {
        if !ids.insert(id) {
            v.push(format!("exactly-once: request {id} delivered twice"));
        }
    }

    // 3. Integrity: defended runs never surface bad results.
    if o.gray.corrupt_surfaced > 0 || o.gray.drops_surfaced > 0 {
        v.push(format!(
            "integrity: {} corrupted and {} dropped results surfaced with verification on",
            o.gray.corrupt_surfaced, o.gray.drops_surfaced
        ));
    }

    // 4. Energy books balance in exact picojoules.
    let horizon = o.energy_horizon();
    let fleet_pj = o.energy.totals(horizon).fleet_pj();
    let sum_pj: u64 = (0..o.workers.len()).map(|w| o.energy.worker_pj(w, horizon)).sum();
    if fleet_pj != sum_pj {
        v.push(format!("energy: fleet total {fleet_pj} pJ != per-worker sum {sum_pj} pJ"));
    }

    // 5. Latency telescoping, exact.
    for r in &o.completed {
        let sum = r.formation_wait() + r.queue_wait() + r.service_time();
        if sum != r.latency() {
            v.push(format!(
                "telescoping: request {} formation+queue+service {sum} != latency {}",
                r.id,
                r.latency()
            ));
            break;
        }
    }

    // 6. Trace grammar.
    if let Err(e) = trace_check::validate(&run.chrome_json) {
        v.push(format!("trace: {e}"));
    }

    // 7. Determinism: the replayed campaign byte-reproduces the run.
    if run.chrome_json != rerun.chrome_json {
        v.push("determinism: re-run produced a different trace".to_string());
    }
    if run.report_json != rerun.report_json {
        v.push("determinism: re-run produced a different report".to_string());
    }

    let _ = spec;
    v
}

/// Run `campaigns` chaos campaigns derived from `base_seed`. Campaign
/// `i` uses seed `base_seed + i`, so any failure replays in isolation
/// with `--campaigns 1 --seed <campaign_seed>`.
pub fn chaos(campaigns: usize, base_seed: u64) -> ChaosReport {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let mut failures = Vec::new();
    let mut requests_total = 0;
    let mut faults_total = 0;
    for i in 0..campaigns {
        let campaign_seed = base_seed.wrapping_add(i as u64);
        let (spec, plan) = draw_spec(campaign_seed, |fleet| {
            let f = FleetSpec::parse(fleet).expect("valid fleet spec");
            let probe = f.build(&model);
            f.capacity_rps(&probe)
        });
        requests_total += spec.requests;
        faults_total += plan.faults.len();
        let run = execute(&spec, &plan, &model);
        let rerun = execute(&spec, &plan, &model);
        let violations = check_invariants(&spec, &run, &rerun);
        if !violations.is_empty() {
            failures.push(CampaignFailure { spec, violations });
        }
    }
    ChaosReport { campaigns, base_seed, requests_total, faults_total, failures }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_smoke_holds_every_invariant() {
        let r = chaos(5, 22_000);
        assert_eq!(r.campaigns, 5);
        assert!(r.faults_total >= 5, "each campaign injects at least one fault: {r:?}");
        assert!(
            r.passed(),
            "chaos violations:\n{}",
            serde_json::to_string(&r.failures).unwrap_or_default()
        );
    }

    #[test]
    fn chaos_campaigns_are_reproducible() {
        // The whole harness is a pure function of (campaigns, seed):
        // drawing and running the same campaigns twice yields an
        // identical serialized report.
        let a = serde_json::to_string(&chaos(2, 7)).expect("report serializes");
        let b = serde_json::to_string(&chaos(2, 7)).expect("report serializes");
        assert_eq!(a, b);
    }

    #[test]
    fn campaign_specs_vary_with_the_seed() {
        let cap = |_: &str| 40.0;
        let (a, _) = draw_spec(1, cap);
        let (b, _) = draw_spec(2, cap);
        assert_ne!(
            (&a.fleet, a.load_frac, &a.faults),
            (&b.fleet, b.load_frac, &b.faults),
            "adjacent seeds drew identical campaigns"
        );
    }
}
