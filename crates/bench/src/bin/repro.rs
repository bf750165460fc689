//! Experiment CLI: regenerate any figure of the paper or run any
//! extension experiment.
//!
//! ```text
//! cargo run -p vpu-bench --release -- EXPERIMENT [OPERANDS] [--scale tiny|small|paper] [--json [PATH]] [FLAG ...]
//! ```
//!
//! Every experiment is one row of the `EXPERIMENTS` table: its name, the
//! paper figure or extension it reproduces, a one-line description, the
//! flags it reads, whether `all` runs it, and the function that runs it.
//! `repro` with no arguments prints the table. A flag the chosen
//! experiment does not read is rejected with exit 2; `--scale` and
//! `--json` are accepted everywhere. `--json` alone prints the report as
//! JSON to stdout; `--json PATH` writes the JSON to PATH and keeps the
//! text report on stdout.

use desim::Duration;
use ncsw_serve::DispatchPolicy;
use serde::Serialize;
use std::process::ExitCode;
use vpu_bench::{
    ab_bench, ablations, anchors, autoscale_bench, chaos_bench, csv, energy_bench, fault_bench,
    fig6, fig7, fig8, future_work, gray_bench, layers, mdk_gemm, power_bench, report, sample_bench,
    serve_bench, sim_bench, stream_bench, timeline, trace_check, whatif_bench, zoo_bench, Scale,
};

/// The machine-readable shape of `repro analyze --json`.
#[derive(Serialize)]
struct AnalyzeJson {
    table: ncsw_analyze::AttributionTable,
    e2e: ncsw_analyze::E2e,
    shed: ncsw_analyze::ShedCounts,
    outages: usize,
    p99_during_outage_ms: f64,
    slo_alert_windows: usize,
    /// Energy attribution; absent for traces without power lanes.
    energy: Option<EnergyJson>,
}

/// Energy block of `repro analyze --json`. The picojoule fields are
/// exact integers so CI can compare them against the server's own
/// counters with string equality.
#[derive(Serialize)]
struct EnergyJson {
    fleet_pj: u64,
    active_pj: u64,
    wasted_pj: u64,
    idle_pj: u64,
    attributed_pj: u64,
    fleet_j: f64,
    /// Attributed joules per latency segment, in [`ncsw_analyze::Segment::ALL`] order.
    segment_j: Vec<(String, f64)>,
}

impl EnergyJson {
    fn of(e: &ncsw_analyze::EnergyAnalysis) -> EnergyJson {
        EnergyJson {
            fleet_pj: e.fleet_pj,
            active_pj: e.active_pj,
            wasted_pj: e.wasted_pj,
            idle_pj: e.idle_pj,
            attributed_pj: e.attributed_pj,
            fleet_j: ncsw_obs::joules(e.fleet_pj),
            segment_j: ncsw_analyze::Segment::ALL
                .iter()
                .zip(e.segment_pj())
                .map(|(s, pj)| (s.name().to_string(), ncsw_obs::joules(pj)))
                .collect(),
        }
    }
}

/// How a run ends: `Ok` exits 0, `Err(code)` exits with `code` (1 for a
/// failed gate or bad input data, 2 for bad usage).
type Outcome = Result<(), u8>;

/// Exit 1 unless `ok`: the verdict of a gated experiment.
fn gate(ok: bool) -> Outcome {
    ok.then_some(()).ok_or(1)
}

/// One experiment: a row of [`EXPERIMENTS`].
struct Experiment {
    name: &'static str,
    /// Other names that run the same row.
    aliases: &'static [&'static str],
    /// The paper figure, or the EXPERIMENTS.md id, it reproduces.
    id: &'static str,
    about: &'static str,
    /// Positional operands, as named in the usage text.
    operands: &'static str,
    /// The flags it reads, besides `--scale` and `--json`.
    flags: &'static [Flag],
    /// Whether `repro all` runs it.
    in_all: bool,
    run: fn(&Args) -> Outcome,
}

/// A row `repro all` runs.
const fn row(
    name: &'static str,
    id: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Outcome,
) -> Experiment {
    Experiment { name, aliases: &[], id, about, operands: "", flags, in_all: true, run }
}

/// A row `repro all` leaves out, taking `operands`.
const fn solo(operands: &'static str, row: Experiment) -> Experiment {
    Experiment { operands, in_all: false, ..row }
}

/// Where a report goes.
enum Json {
    /// Text on stdout.
    Off,
    /// `--json`: JSON on stdout.
    Stdout,
    /// `--json PATH`: JSON to PATH, text on stdout.
    File(String),
}

/// Every flag value, defaults filled in.
struct Args {
    /// The flags given, in order, with their values as given.
    given: Vec<(Flag, String)>,
    operands: Vec<String>,
    scale: Scale,
    json: Json,
    slo: Duration,
    policy: DispatchPolicy,
    baseline_policy: DispatchPolicy,
    sample_every: Duration,
    sample: Option<ncsw_obs::SamplePolicy>,
    faults: Option<ncsw_faults::FaultPlan>,
    ctrl: String,
    abs_ms: f64,
    rel_pct: f64,
    /// `None` = flag absent: bench-diff defaults to 50, whatif to its
    /// own gate tolerance.
    tol_pct: Option<f64>,
    /// `--components`, `--factors` and `--loads`.
    whatif: whatif_bench::WhatIfConfig,
    campaigns: usize,
    seed: u64,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            given: Vec::new(),
            operands: Vec::new(),
            scale: Scale::Small,
            json: Json::Off,
            slo: Duration::from_millis(500.0),
            policy: DispatchPolicy::CostAware,
            baseline_policy: DispatchPolicy::RoundRobin,
            sample_every: Duration::from_millis(10.0),
            sample: None,
            faults: None,
            ctrl: String::from("reactive"),
            abs_ms: 0.5,
            rel_pct: 5.0,
            tol_pct: None,
            whatif: whatif_bench::WhatIfConfig::default(),
            campaigns: 25,
            seed: vpu_num::rng::DEFAULT_SEED,
        }
    }
}

/// Emit a report that prints its own text.
macro_rules! show {
    ($args:expr, $report:expr) => {
        $args.emit(&$report, |r| r.print())
    };
}

/// Emit a figure and, with `--csv DIR`, write it as `DIR/NAME.csv`.
macro_rules! figure {
    ($args:expr, $name:literal, $report:expr, $csv:path) => {{
        let r = $report;
        $args.write_csv($name, || $csv(&r));
        show!($args, r)
    }};
}

/// A flag: its name and the placeholder for its value in the usage text
/// (empty for a switch).
#[derive(Clone, Copy, PartialEq, Eq)]
struct Flag(&'static str, &'static str);

const SCALE: Flag = Flag("--scale", "tiny|small|paper");
const CSV: Flag = Flag("--csv", "DIR");
const SLO_MS: Flag = Flag("--slo-ms", "MS");
const POLICY: Flag = Flag("--policy", "round-robin|least-outstanding|cost-aware");
const BASELINE_POLICY: Flag = Flag("--baseline-policy", "round-robin|least-outstanding|cost-aware");
const TRACE: Flag = Flag("--trace", "PATH");
const METRICS_CSV: Flag = Flag("--metrics-csv", "PATH");
const SAMPLE_MS: Flag = Flag("--sample-ms", "MS");
const SAMPLE: Flag = Flag("--sample", "all|1-in-N[+topK]");
const FAULTS: Flag = Flag("--faults", "SPEC");
const GRAY: Flag = Flag("--gray", "");
const INCIDENTS: Flag = Flag("--incidents", "DIR");
const CTRL: Flag = Flag("--ctrl", "reactive|predictive|oracle");
const PROF: Flag = Flag("--prof", "");
const FLAME: Flag = Flag("--flame", "PATH");
const FLAME_ENERGY: Flag = Flag("--flame-energy", "PATH");
const ABS_MS: Flag = Flag("--abs-ms", "MS");
const REL_PCT: Flag = Flag("--rel-pct", "PCT");
const TOL_PCT: Flag = Flag("--tol-pct", "PCT");
const COMPONENTS: Flag = Flag("--components", "LIST");
const FACTORS: Flag = Flag("--factors", "LIST");
const LOADS: Flag = Flag("--loads", "LIST");
const CAMPAIGNS: Flag = Flag("--campaigns", "N");
const SEED: Flag = Flag("--seed", "S");

/// Every flag the parser knows; `--json`, whose value is optional, is
/// parsed on its own.
#[rustfmt::skip]
const FLAGS: [Flag; 24] = [
    SCALE, CSV, SLO_MS, POLICY, BASELINE_POLICY, TRACE, METRICS_CSV, SAMPLE_MS, SAMPLE, FAULTS,
    GRAY, INCIDENTS, CTRL, PROF, FLAME, FLAME_ENERGY, ABS_MS, REL_PCT, TOL_PCT, COMPONENTS,
    FACTORS, LOADS, CAMPAIGNS, SEED,
];

/// Largest `--factors` value `whatif` accepts; factors far above it
/// overflow the virtual clock.
const MAX_WHATIF_FACTOR: f64 = 100.0;

/// Smallest `--sample-ms` accepted: finer intervals round toward a zero
/// nanosecond step or emit millions of rows per virtual second.
const MIN_SAMPLE_MS: f64 = 0.001;

/// Smallest `--loads` fraction `whatif` accepts: run time grows as
/// 1/load, and a load of 1e-9 never finishes.
const MIN_WHATIF_LOAD: f64 = 0.001;

/// A finite float `>= min`, or `> 0` when `min` is 0 and `strict`.
fn parse_f64(s: &str, min: f64, strict: bool) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite() && *v >= min && !(strict && *v == 0.0))
}

/// Comma-separated finite positive floats (`0.9,0.75,0.5`), each passing `ok`.
fn parse_f64_list(s: &str, ok: impl Fn(f64) -> bool) -> Option<Vec<f64>> {
    s.split(',').map(|v| parse_f64(v, 0.0, true).filter(|&f| ok(f))).collect()
}

impl Args {
    /// Store `v`, the value of `flag`; else the one-line error naming it.
    fn set(&mut self, flag: Flag, v: &str) -> Result<(), String> {
        let bad = |expected: &str| format!("bad {} '{v}': expected {expected}", flag.0);
        let policy = || DispatchPolicy::parse(v).ok_or_else(|| bad(DISPATCH_POLICIES));
        let millis = |min: f64, expected: &str| {
            parse_f64(v, min, true).map(Duration::from_millis).ok_or_else(|| bad(expected))
        };
        let non_negative = |expected: &str| parse_f64(v, 0.0, false).ok_or_else(|| bad(expected));
        match flag {
            SCALE => self.scale = Scale::parse(v).ok_or_else(|| bad("tiny, small or paper"))?,
            SLO_MS => self.slo = millis(0.0, "a positive number of milliseconds")?,
            POLICY => self.policy = policy()?,
            BASELINE_POLICY => self.baseline_policy = policy()?,
            SAMPLE_MS => {
                self.sample_every = millis(MIN_SAMPLE_MS, "a number of milliseconds >= 0.001")?
            }
            SAMPLE => {
                let p = ncsw_obs::SamplePolicy::parse(v);
                self.sample = Some(p.map_err(|e| format!("bad --sample: {e}"))?)
            }
            FAULTS => {
                let plan = ncsw_faults::FaultPlan::parse(v);
                self.faults = Some(plan.map_err(|e| format!("bad --faults '{v}': {e}"))?)
            }
            CTRL if ncsw_ctrl::POLICY_NAMES.contains(&v) => self.ctrl = v.into(),
            CTRL => return Err(bad(&ncsw_ctrl::POLICY_NAMES.join(", "))),
            ABS_MS => self.abs_ms = non_negative("a non-negative number of milliseconds")?,
            REL_PCT => self.rel_pct = non_negative("a non-negative percentage")?,
            TOL_PCT => self.tol_pct = Some(non_negative("a non-negative percentage")?),
            COMPONENTS => {
                let names = ncsw::ScaleComponent::ALL.map(|c| c.name()).join(",");
                let list: Option<_> = v.split(',').map(ncsw::ScaleComponent::parse).collect();
                self.whatif.components =
                    list.ok_or_else(|| bad(&format!("a comma list of {names}")))?
            }
            FACTORS => {
                let list = parse_f64_list(v, |f| f <= MAX_WHATIF_FACTOR).ok_or_else(|| {
                    bad(&format!("comma-separated positive numbers up to {MAX_WHATIF_FACTOR}"))
                })?;
                self.whatif.factors = list
            }
            LOADS => {
                let list = parse_f64_list(v, |f| f >= MIN_WHATIF_LOAD)
                    .ok_or_else(|| bad(&format!("comma-separated numbers >= {MIN_WHATIF_LOAD}")))?;
                self.whatif.loads = list
            }
            CAMPAIGNS => {
                let n = v.parse::<usize>().ok().filter(|&n| n > 0);
                self.campaigns = n.ok_or_else(|| bad("a positive whole number"))?
            }
            SEED => self.seed = v.parse::<u64>().map_err(|_| bad("a whole number"))?,
            // Paths and switches: their value is read where it is used.
            CSV | TRACE | METRICS_CSV | INCIDENTS | FLAME | FLAME_ENERGY | GRAY | PROF => {}
            Flag(name, _) => unreachable!("{name} is not in FLAGS"),
        }
        self.given.push((flag, v.to_string()));
        Ok(())
    }

    /// Whether any of `flags` was given.
    fn has_any(&self, flags: &[Flag]) -> bool {
        self.given.iter().any(|(f, _)| flags.contains(f))
    }

    /// The value `flag` was last given.
    fn value(&self, flag: Flag) -> Option<&str> {
        self.given.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    /// Write `content` to the path given to `flag`, if it was given.
    fn write(&self, flag: Flag, content: impl FnOnce() -> String) {
        if let Some(path) = self.value(flag) {
            report::write_artifact(path, &content());
        }
    }

    /// The one output path for every report: `--json` prints it as JSON,
    /// `--json PATH` writes the JSON and prints `text`, otherwise `text`.
    fn emit<T: Serialize>(&self, report: &T, text: impl FnOnce(&T)) -> Outcome {
        match &self.json {
            Json::Off => text(report),
            Json::Stdout => {
                println!("{}", serde_json::to_string_pretty(report).expect("serialize"))
            }
            Json::File(path) => {
                report::write_json(path, report);
                text(report);
            }
        }
        Ok(())
    }

    /// `--csv DIR`: write `DIR/NAME.csv`.
    fn write_csv(&self, name: &str, content: impl FnOnce() -> String) {
        if let Some(dir) = self.value(CSV) {
            report::write_csv_in(dir, name, &content());
        }
    }

    /// `--prof` wraps a run in the wall-clock profiler and prints the
    /// scope tree afterwards; the simulated outcome is bit-identical.
    fn profiled<T>(&self, run: impl FnOnce() -> T) -> T {
        if !self.has_any(&[PROF]) {
            return run();
        }
        ncsw_obs::prof::start();
        let r = run();
        eprint!("{}", ncsw_obs::prof::stop().render());
        r
    }

    /// Write an observed run's `--trace`, `--metrics-csv` and
    /// `--incidents` artifacts, then emit its report.
    fn observed(&self, r: &serve_bench::TracedServe) -> Outcome {
        self.write(TRACE, || r.chrome_json.clone());
        self.write(METRICS_CSV, || r.series_csv.clone());
        self.write_incidents(&r.incidents);
        show!(self, r)
    }

    /// `--incidents DIR`: write each bundle as `DIR/incident_<n>.json`.
    fn write_incidents(&self, bundles: &[serve_bench::IncidentBundle]) {
        let Some(dir) = self.value(INCIDENTS) else { return };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(2);
        }
        if bundles.is_empty() {
            eprintln!("{dir}: no incident fired during the run; nothing written");
        }
        for b in bundles {
            report::write_json(&format!("{dir}/incident_{}.json", b.n), b);
        }
    }
}

/// The `--policy`/`--baseline-policy` values.
const DISPATCH_POLICIES: &str = "round-robin, least-outstanding or cost-aware";

/// The experiment table: `repro NAME` runs the row named NAME, `repro all`
/// the rows made with [`row`] in table order, and the usage text lists
/// them all.
#[rustfmt::skip]
static EXPERIMENTS: &[Experiment] = &[
    row("fig6a", "Fig. 6a", "throughput per subset at batch 8: CPU, GPU and 1-8 VPUs", &[CSV],
        |a| figure!(a, "fig6a", fig6::fig6a(a.scale), csv::fig6a_csv)),
    row("fig6b", "Fig. 6b", "normalized throughput scaling per batch size", &[CSV],
        |a| figure!(a, "fig6b", fig6::fig6b(a.scale), csv::fig6b_csv)),
    Experiment { aliases: &["fig7a", "fig7b"], ..row("fig7", "Fig. 7",
        "top-1 error (7a) and confidence gap (7b), FP32 vs FP16", &[CSV],
        |a| figure!(a, "fig7", fig7::fig7(a.scale), csv::fig7_csv)) },
    row("fig8a", "Fig. 8a", "throughput per watt (Eq. 1), batch 1-8", &[CSV],
        |a| figure!(a, "fig8a", fig8::fig8a(a.scale), csv::fig8a_csv)),
    row("fig8b", "Fig. 8b", "projected throughput up to 16 sticks, batch 1-16", &[CSV],
        |a| figure!(a, "fig8b", fig8::fig8b(a.scale), csv::fig8b_csv)),
    row("anchors", "E7", "every scalar anchor of §IV-§V", &[],
        |a| show!(a, anchors::anchors(a.scale))),
    row("timeline", "E8", "Fig. 4 execution timeline of one pipeline run", &[],
        |a| show!(a, timeline::timeline())),
    row("ablation-accum", "A1", "FP16 accumulation mode", &[],
        |a| show!(a, ablations::ablation_accum(a.scale))),
    row("ablation-usb", "A2", "USB hub topology", &[],
        |a| show!(a, ablations::ablation_usb(a.scale))),
    row("ablation-shave", "A3", "SHAVE count sweep", &[],
        |a| show!(a, ablations::ablation_shave())),
    row("ablation-faults", "A4", "USB transfer fault injection", &[],
        |a| show!(a, ablations::ablation_faults(a.scale))),
    row("ablation-prefetch", "A5", "pipelined weight DMA", &[],
        |a| show!(a, ablations::ablation_prefetch())),
    row("ablation-blob", "A6", "blob batching vs multi-stick batching", &[],
        |a| show!(a, ablations::ablation_blob_batch())),
    row("mdk-gemm", "E9", "general-purpose GEMM offload through the MDK (§VII)", &[],
        |a| show!(a, mdk_gemm::mdk_gemm())),
    row("layers", "E10", "per-layer NCSDK-style GoogLeNet profile", &[],
        |a| show!(a, layers::layers())),
    row("zoo", "E11", "SqueezeNet, GoogLeNet and AlexNet on every target", &[],
        |a| show!(a, zoo_bench::zoo_bench())),
    row("stream", "E12", "sustainable MPI-stream offload rates", &[],
        |a| show!(a, stream_bench::stream_bench())),
    row("power", "E13", "measured chip power vs TDP", &[],
        |a| show!(a, power_bench::power_bench(a.scale))),
    row("energy", "E19", "online img/W vs the offline Eq. 1", &[SLO_MS],
        |a| show!(a, energy_bench::energy_exp_with(a.scale, a.slo))),
    row("future-work", "E14", "the §VII comparison with a V100 and a Xeon Phi", &[],
        |a| show!(a, future_work::future_work(a.scale))),
    row("serve", "E15, E16", "online-serving load sweep; one observed run with any of --trace, \
        --metrics-csv, --sample, --faults, --gray, --incidents or --prof",
        &[CSV, SLO_MS, POLICY, TRACE, METRICS_CSV, SAMPLE_MS, SAMPLE, FAULTS, GRAY, INCIDENTS, PROF],
        serve),
    row("failover", "E17", "failover policies under injected faults", &[SLO_MS],
        |a| show!(a, fault_bench::failover_exp_with(a.scale, a.slo))),
    row("autoscale", "E20", "closed-loop autoscaling vs a static fleet; one observed --ctrl \
        run with any of --trace, --metrics-csv, --sample, --incidents or --prof",
        &[TRACE, METRICS_CSV, SAMPLE_MS, SAMPLE, INCIDENTS, CTRL, PROF], autoscale),
    row("bench-sim", "E21", "simulator throughput matrix, BENCH_sim.json-shaped", &[],
        |a| show!(a, sim_bench::sim_bench(a.scale))),
    row("gray", "E22", "gray-failure resilience sweep, defenses off vs on", &[SLO_MS],
        |a| show!(a, gray_bench::gray_exp_with(a.scale, a.slo))),
    row("sample-sweep", "E23", "tail-sampling trace cost vs fidelity", &[],
        |a| show!(a, sample_bench::sample_exp(a.scale))),
    row("whatif", "E24", "causal what-if profiling, each prediction checked by a re-simulation; \
        exit 1 when the gate fails", &[COMPONENTS, FACTORS, LOADS, TOL_PCT, TRACE, CSV], whatif),
    solo("", row("abdiff", "E18", "paired runs of --baseline-policy and --policy, diffed",
        &[SLO_MS, BASELINE_POLICY, POLICY],
        |a| show!(a, ab_bench::ab_exp_with(a.scale, a.slo, a.baseline_policy, a.policy)))),
    solo("", row("chaos", "E22", "seeded chaos campaigns; exit 1 on an invariant violation",
        &[CAMPAIGNS, SEED], |a| {
            let r = chaos_bench::chaos(a.campaigns, a.seed);
            show!(a, r)?;
            gate(r.passed())
        })),
    solo("BASE_SIM_JSON CAND_SIM_JSON", row("bench-diff", "E21", "events/sec verdict of two \
        BENCH_sim.json (--tol-pct default 50); exit 1 on a regression", &[TOL_PCT], bench_diff)),
    solo("PATH", row("validate-trace", "E16", "check an exported Chrome trace; exit 1 if invalid",
        &[], validate_trace)),
    solo("TRACE REQUEST_ID", row("explain", "E23", "one request's causal timeline from a trace",
        &[], explain)),
    solo("TRACE", row("analyze", "E18", "nine-segment latency attribution of a trace",
        &[FLAME, FLAME_ENERGY, PROF], analyze)),
    solo("BASELINE_TRACE CANDIDATE_TRACE", row("diff", "E18",
        "paired A/B verdict of two traces; exit 1 on a regression", &[ABS_MS, REL_PCT], diff)),
    solo("", row("all", "-", "every experiment marked *, in table order", &[CSV], all)),
];

fn all(a: &Args) -> Outcome {
    if let Json::File(path) = &a.json {
        eprintln!("all --json {path}: each report would overwrite the last; use --json alone");
        return Err(2);
    }
    EXPERIMENTS.iter().filter(|e| e.in_all).try_for_each(|e| (e.run)(a))
}

fn serve(a: &Args) -> Outcome {
    if !a.has_any(&[TRACE, METRICS_CSV, SAMPLE, FAULTS, GRAY, INCIDENTS, PROF]) {
        let r = serve_bench::serve_exp_with(a.scale, a.slo, a.policy);
        a.write_csv("serve", || csv::serve_csv(&r));
        return show!(a, r);
    }
    if let Some(plan) = &a.faults {
        let fleet =
            ncsw_serve::FleetSpec::parse(serve_bench::TRACED_FLEET).expect("valid fleet spec");
        if let Err(e) = plan.validate_pins(fleet.0.len()) {
            eprintln!("bad --faults for fleet {}: {e}", serve_bench::TRACED_FLEET);
            return Err(2);
        }
    }
    let gray = match a.has_any(&[GRAY]) {
        true => ncsw_serve::GrayConfig::defended(),
        false => ncsw_serve::GrayConfig::default(),
    };
    let (every, faults) = (a.sample_every, a.faults.as_ref());
    a.observed(&a.profiled(|| {
        serve_bench::traced_serve(a.scale, a.slo, a.policy, every, faults, gray, a.sample.clone())
    }))
}

fn autoscale(a: &Args) -> Outcome {
    if !a.has_any(&[TRACE, METRICS_CSV, SAMPLE, INCIDENTS, PROF]) {
        return show!(a, autoscale_bench::autoscale_exp(a.scale));
    }
    a.observed(&a.profiled(|| {
        autoscale_bench::traced_autoscale(a.scale, &a.ctrl, a.sample_every, a.sample.clone())
    }))
}

fn whatif(a: &Args) -> Outcome {
    let tolerance_pct = a.tol_pct.unwrap_or(whatif_bench::TOLERANCE_PCT);
    let grid = whatif_bench::WhatIfConfig { tolerance_pct, ..a.whatif.clone() };
    let out = whatif_bench::whatif_run(a.scale, &grid);
    // --trace writes the baseline trace plus the f=1.0 arm's as
    // PATH.identity.json, so CI can `cmp` the passivity claim
    // byte-for-byte.
    if let Some(p) = a.value(TRACE) {
        report::write_artifact(p, &out.baseline_trace);
        report::write_artifact(&format!("{p}.identity.json"), &out.identity_trace);
    }
    a.write_csv("whatif", || whatif_bench::whatif_csv(&out.exp));
    show!(a, out.exp)?;
    gate(out.exp.whatif_ok)
}

/// The contents of `path`; exit 2 when it cannot be read.
fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    })
}

/// The analysis of the trace at `path`; exit 1 when it cannot be analyzed.
fn analysis_of(path: &str) -> Result<ncsw_analyze::Analysis, u8> {
    ncsw_analyze::Analysis::from_chrome(&read_file(path)).map_err(|e| {
        eprintln!("{path}: cannot analyze: {e}");
        1
    })
}

fn bench_diff(a: &Args) -> Outcome {
    let load = |path: &String| {
        serde_json::from_str::<sim_bench::SimBench>(&read_file(path)).map_err(|e| {
            eprintln!("{path}: not a BENCH_sim.json: {e}");
            2
        })
    };
    let d = sim_bench::sim_bench_diff(
        &load(&a.operands[0])?,
        &load(&a.operands[1])?,
        a.tol_pct.unwrap_or(50.0),
    );
    a.emit(&d, |d| print!("{}", d.render()))?;
    gate(!d.regression)
}

fn validate_trace(a: &Args) -> Outcome {
    let path = &a.operands[0];
    let json = read_file(path);
    // Validation cost is part of the observability ledger: time the
    // parse+check pass and report its throughput.
    let t = std::time::Instant::now();
    let check = trace_check::validate(&json).map_err(|e| {
        eprintln!("{path}: INVALID trace: {e}");
        1
    })?;
    let wall_s = t.elapsed().as_secs_f64();
    let mb = json.len() as f64 / 1e6;
    println!(
        "{path}: ok — {} events, {} tracks, {} requests ({} fully chained), \
         {} failovers, {} outage windows, {} sheds, {} power samples, \
         {} drains / {} scale-downs / {} scale-ups, \
         {} hedges ({} won), {} quarantines, {} integrity fails",
        check.events,
        check.tracks,
        check.requests,
        check.chained,
        check.failovers,
        check.outage_windows,
        check.sheds,
        check.power_samples,
        check.drains,
        check.scale_downs,
        check.scale_ups,
        check.hedges,
        check.hedge_wins,
        check.quarantines,
        check.integrity_fails
    );
    if let Some(s) = &check.sampling {
        println!("{path}: {}", s.render());
    }
    println!(
        "{path}: parsed {:.2} MB in {:.1} ms ({:.1} MB/s)",
        mb,
        wall_s * 1e3,
        if wall_s > 0.0 { mb / wall_s } else { 0.0 }
    );
    Ok(())
}

fn explain(a: &Args) -> Outcome {
    let (path, id) = (&a.operands[0], &a.operands[1]);
    let Ok(id) = id.parse::<u64>() else {
        eprintln!("bad request id '{id}'");
        return Err(2);
    };
    let e = ncsw_analyze::explain_chrome_json(&read_file(path), id).map_err(|e| {
        eprintln!("{path}: {e}");
        1
    })?;
    a.emit(&e, |e| print!("{}", e.render()))
}

fn analyze(a: &Args) -> Outcome {
    let analysis = a.profiled(|| analysis_of(&a.operands[0]))?;
    a.write(FLAME, || ncsw_analyze::folded(&analysis));
    a.write(FLAME_ENERGY, || ncsw_analyze::folded_energy(&analysis));
    let out = AnalyzeJson {
        table: analysis.table.clone(),
        e2e: analysis.e2e,
        shed: analysis.shed,
        outages: analysis.forest.outages.len(),
        p99_during_outage_ms: analysis.p99_during_outages_ms(),
        slo_alert_windows: analysis.forest.alerts.len(),
        energy: analysis.energy.as_ref().map(EnergyJson::of),
    };
    a.emit(&out, |_| print!("{}", analysis.render()))
}

fn diff(a: &Args) -> Outcome {
    let base = analysis_of(&a.operands[0])?;
    let cand = analysis_of(&a.operands[1])?;
    let cfg = ncsw_analyze::DiffConfig { abs_floor: a.abs_ms, rel_pct: a.rel_pct };
    let d = ncsw_analyze::diff(&base, &cand, &cfg);
    a.emit(&d, |d| print!("{}", d.render()))?;
    gate(!d.regression)
}

/// The usage text, generated from [`EXPERIMENTS`]; exit 2.
fn usage() -> ExitCode {
    let mut text = String::from(
        "usage: repro EXPERIMENT [OPERANDS] [--scale tiny|small|paper] [--json [PATH]] [FLAG ...]\n",
    );
    for e in EXPERIMENTS {
        let mark = if e.in_all { '*' } else { ' ' };
        let names = [e.name].iter().chain(e.aliases).copied().collect::<Vec<_>>().join("|");
        text += &format!("\n {mark}{names:<18} {:<9} {}", e.id, e.about);
        let flags = e.flags.iter().map(|Flag(name, value)| match *value {
            "" => format!("[{name}]"),
            value => format!("[{name} {value}]"),
        });
        let words: Vec<String> =
            e.operands.split_whitespace().map(String::from).chain(flags).collect();
        if !words.is_empty() {
            text += &format!("\n {:<28} {}", "", words.join(" "));
        }
    }
    eprintln!("{text}");
    ExitCode::from(2)
}

/// Parse the command line into the chosen experiment and its flags. Every
/// rejection prints one line (or the usage text) and carries exit 2.
fn parse(argv: &[String]) -> Result<(&'static Experiment, Args), ExitCode> {
    let mut chosen: Option<&'static Experiment> = None;
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        if arg == "--json" {
            // Optional operand: `--json results.json` writes to a file.
            args.json = match it.next_if(|v| !v.starts_with('-') && chosen.is_some()) {
                Some(path) => Json::File(path.clone()),
                None => Json::Stdout,
            };
        } else if let Some(&flag) = FLAGS.iter().find(|f| f.0 == arg) {
            let value = if flag.1.is_empty() { "" } else { it.next().ok_or_else(usage)? };
            args.set(flag, value).map_err(|e| {
                eprintln!("{e}");
                ExitCode::from(2)
            })?;
        } else if arg.starts_with('-')
            || chosen.is_some_and(|e| args.operands.len() == e.operands.split_whitespace().count())
        {
            eprintln!("unexpected argument '{arg}'");
            return Err(usage());
        } else if chosen.is_some() {
            args.operands.push(arg.clone());
        } else {
            let found = EXPERIMENTS.iter().find(|e| e.name == arg || e.aliases.contains(&&**arg));
            chosen = Some(found.ok_or_else(|| {
                eprintln!("unknown experiment '{arg}'");
                ExitCode::from(2)
            })?);
        }
    }
    let Some(exp) = chosen else { return Err(usage()) };
    if let Some((Flag(flag, _), _)) =
        args.given.iter().find(|(f, _)| *f != SCALE && !exp.flags.contains(f))
    {
        let reads: Vec<&str> =
            [SCALE.0, "--json"].into_iter().chain(exp.flags.iter().map(|f| f.0)).collect();
        eprintln!("repro {} does not read {flag} (it reads {})", exp.name, reads.join(", "));
        return Err(ExitCode::from(2));
    }
    if args.operands.len() < exp.operands.split_whitespace().count() {
        eprintln!("{} needs {}", exp.name, exp.operands);
        return Err(ExitCode::from(2));
    }
    Ok((exp, args))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(&argv) {
        Ok((exp, args)) => match (exp.run)(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(code) => ExitCode::from(code),
        },
        Err(code) => code,
    }
}
