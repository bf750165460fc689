//! Experiment CLI: regenerate any figure of the paper.
//!
//! ```text
//! cargo run -p vpu-bench --release -- <experiment> [--scale tiny|small|paper] [--json [PATH]] [--csv DIR]
//!
//! experiments:
//!   fig6a fig6b fig7a fig7b fig8a fig8b   the paper's result figures
//!   anchors                               §IV/§V scalar anchors
//!   timeline                              Fig. 4 execution timeline
//!   ablation-accum ablation-usb ablation-shave
//!   serve                                 E15 online-serving load sweep
//!   energy                                E19 online img/W vs offline Eq. 1
//!   autoscale                             E20 closed-loop fleet scaling vs static
//!   bench-sim                             E21 sim-throughput matrix (BENCH_sim.json)
//!   gray                                  E22 gray-failure resilience sweep
//!   chaos                                 seeded chaos campaigns (exit 1 on violation)
//!   bench-diff BASE CAND                  gated events/sec comparison of two BENCH_sim.json
//!   validate-trace PATH                   check an exported Chrome trace
//!   explain TRACE ID                      one request's causal timeline from a trace
//!   sample-sweep                          E23 tail-sampling cost/fidelity curve
//!   whatif                                E24 causal what-if profiling (exit 1 on gate violation)
//!   all                                   everything above
//! ```
//!
//! `--json` alone prints the result as JSON to stdout; `--json PATH`
//! writes the JSON to PATH (and keeps the human-readable report on
//! stdout) so perf trajectories can be tracked as `BENCH_*.json` files.
//!
//! With `--trace PATH` and/or `--metrics-csv PATH`, `serve` runs one
//! fully observed run (instead of the sweep) and writes the Chrome
//! trace-event JSON / sampled time-series CSV; `--sample-ms` sets the
//! sampling interval. Load the trace at <https://ui.perfetto.dev>.

use serde::Serialize;
use std::process::ExitCode;
use vpu_bench::{ablations, anchors, fig6, fig7, fig8, serve_bench, timeline, Scale};

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

/// Largest `--factors` value `whatif` accepts; factors far above it
/// overflow the virtual clock.
const MAX_WHATIF_FACTOR: f64 = 100.0;

/// Smallest `--sample-ms` accepted: finer intervals round toward a zero
/// nanosecond step or emit millions of rows per virtual second.
const MIN_SAMPLE_MS: f64 = 0.001;

/// Smallest `--loads` fraction `whatif` accepts: run time grows as
/// 1/load, and a load of 1e-9 never finishes.
const MIN_WHATIF_LOAD: f64 = 0.001;

/// A finite, strictly positive float.
fn parse_positive(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite() && *v > 0.0)
}

/// A finite float `>= 0` (a threshold or tolerance).
fn parse_non_negative(s: &str) -> Option<f64> {
    s.parse::<f64>().ok().filter(|v| v.is_finite() && *v >= 0.0)
}

/// Comma-separated finite positive floats (`0.9,0.75,0.5`).
fn parse_f64_list(s: &str) -> Option<Vec<f64>> {
    s.split(',').map(parse_positive).collect()
}

/// The `--policy`/`--baseline-policy` values.
const DISPATCH_POLICIES: &str = "round-robin, least-outstanding or cost-aware";

/// The one-line error for a flag value out of range; exit 2.
fn bad_value(flag: &str, value: &str, expected: &str) -> ExitCode {
    eprintln!("bad {flag} '{value}': expected {expected}");
    ExitCode::from(2)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: repro <fig6a|fig6b|fig7a|fig7b|fig8a|fig8b|anchors|timeline|\
         ablation-accum|ablation-usb|ablation-shave|ablation-faults|ablation-prefetch|ablation-blob|mdk-gemm|layers|zoo|stream|power|energy|future-work|serve|failover|autoscale|bench-sim|gray|chaos|abdiff|sample-sweep|whatif|all> \
         [--scale tiny|small|paper] [--json [PATH]] [--csv DIR] [--slo-ms MS] [--policy round-robin|least-outstanding|cost-aware] \
         [--trace PATH] [--metrics-csv PATH] [--sample-ms MS] [--sample all|1-in-N[+topK]] [--incidents DIR] [--faults SPEC] [--gray] [--ctrl reactive|predictive|oracle] [--prof]\n\
         \x20      repro chaos [--campaigns N] [--seed S]\n\
         \x20      repro validate-trace PATH\n\
         \x20      repro explain TRACE REQUEST_ID [--json [PATH]]\n\
         \x20      repro analyze TRACE [--flame PATH] [--flame-energy PATH] [--json [PATH]] [--prof]\n\
         \x20      repro diff BASELINE_TRACE CANDIDATE_TRACE [--abs-ms MS] [--rel-pct PCT] [--json [PATH]]\n\
         \x20      repro bench-diff BASE_SIM_JSON CAND_SIM_JSON [--tol-pct PCT] [--json [PATH]]\n\
         \x20      --faults SPEC: comma-separated faults, e.g. 'unplug@2s:reconnect@4s', \
         'w0:throttle@1s:for@2s:slow@3', 'usb@0s:for@5s:factor@2', 'execerr@0.05', \
         'failslow@1s:for@4s:slow@6', 'corrupt@0.02', 'dup@0.02', 'drop@0.02'\n\
         \x20      --gray turns every gray-failure defense on for a traced serve run \
         (verify-on-complete, fail-slow quarantine, hedged dispatch)\n\
         \x20      gray sweeps fail-slow/corruption intensity vs defenses (E22); chaos runs \
         --campaigns randomized fault cocktails from --seed and exits 1 on any invariant \
         violation, printing the failing campaign's seed and spec\n\
         \x20      abdiff pairs --baseline-policy (default round-robin) against --policy; \
         diff exits 1 when a gated metric regressed\n\
         \x20      autoscale sweeps static vs all scaling policies; with --trace/--metrics-csv \
         it runs one observed run under --ctrl (default reactive)\n\
         \x20      bench-sim measures sim throughput (events/sec, req/sec, recorder overhead); \
         bench-diff exits 1 when events/sec regressed beyond --tol-pct (default 50)\n\
         \x20      --prof profiles the simulator's own hot loops (wall clock) and prints the \
         scope tree; the simulated outcome is bit-identical either way\n\
         \x20      --sample turns on tail-based trace sampling for a traced serve/autoscale \
         run: anomalous requests (shed, SLO-violating, faulted, hedged, quarantined) always \
         keep their full chains, plus the K slowest and a uniform 1-in-N; 'all' keeps \
         everything (byte-identical to the unsampled trace)\n\
         \x20      --incidents DIR writes each flight-recorder incident bundle (circuit-open, \
         integrity-fail, burn-rate) as DIR/incident_<n>.json with its trace window and a \
         one-line deterministic replay command\n\
         \x20      whatif sweeps --components (comma list of usb-write,usb-read,exec,\
         batch-wait,dispatch,host) x --factors (e.g. 0.9,0.75,0.5) x --loads (capacity \
         fractions), validating each analytic counterfactual against an actually-rescaled \
         re-simulation; --tol-pct sets the agreement tolerance (default 10), --trace PATH \
         writes the baseline Chrome trace plus PATH.identity.json from the f=1.0 arm \
         (byte-identical by construction), exit 1 when the E24 gate is violated"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment: Option<String> = None;
    let mut scale = Scale::Small;
    let mut json = false;
    let mut json_path: Option<String> = None;
    let mut csv_dir: Option<String> = None;
    let mut slo_ms = 500.0f64;
    let mut policy = ncsw_serve::DispatchPolicy::CostAware;
    let mut trace_path: Option<String> = None;
    let mut metrics_csv: Option<String> = None;
    let mut sample_ms = 10.0f64;
    let mut faults: Option<ncsw_faults::FaultPlan> = None;
    let mut sample: Option<ncsw_obs::SamplePolicy> = None;
    let mut incidents_dir: Option<String> = None;
    let mut ctrl_policy = String::from("reactive");
    let mut flame_path: Option<String> = None;
    let mut flame_energy_path: Option<String> = None;
    let mut abs_ms = 0.5f64;
    let mut rel_pct = 5.0f64;
    // `None` = flag absent: bench-diff defaults to 50, whatif to its
    // own gate tolerance.
    let mut tol_pct: Option<f64> = None;
    let mut prof_on = false;
    let mut gray_on = false;
    let mut campaigns = 25usize;
    let mut seed = vpu_num::rng::DEFAULT_SEED;
    let mut baseline_policy = ncsw_serve::DispatchPolicy::RoundRobin;
    let mut whatif_components: Option<Vec<ncsw::ScaleComponent>> = None;
    let mut whatif_factors: Option<Vec<f64>> = None;
    let mut whatif_loads: Option<Vec<f64>> = None;
    let mut operands: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let Some(v) = it.next() else { return usage() };
                let Some(s) = Scale::parse(v) else {
                    return bad_value("--scale", v, "tiny, small or paper");
                };
                scale = s;
            }
            "--json" => {
                json = true;
                // Optional operand: `--json results.json` writes to a file.
                if let Some(v) = it.peek() {
                    if !v.starts_with('-') && experiment.is_some() {
                        json_path = Some(it.next().unwrap().clone());
                    }
                }
            }
            "--csv" => {
                let Some(v) = it.next() else { return usage() };
                csv_dir = Some(v.clone());
            }
            "--slo-ms" => {
                let Some(v) = it.next() else { return usage() };
                let Some(ms) = parse_positive(v) else {
                    return bad_value("--slo-ms", v, "a positive number of milliseconds");
                };
                slo_ms = ms;
            }
            "--policy" => {
                let Some(v) = it.next() else { return usage() };
                let Some(p) = ncsw_serve::DispatchPolicy::parse(v) else {
                    return bad_value("--policy", v, DISPATCH_POLICIES);
                };
                policy = p;
            }
            "--trace" => {
                let Some(v) = it.next() else { return usage() };
                trace_path = Some(v.clone());
            }
            "--metrics-csv" => {
                let Some(v) = it.next() else { return usage() };
                metrics_csv = Some(v.clone());
            }
            "--sample-ms" => {
                let Some(v) = it.next() else { return usage() };
                let Some(ms) = parse_positive(v).filter(|&ms| ms >= MIN_SAMPLE_MS) else {
                    return bad_value("--sample-ms", v, "a number of milliseconds >= 0.001");
                };
                sample_ms = ms;
            }
            "--flame" => {
                let Some(v) = it.next() else { return usage() };
                flame_path = Some(v.clone());
            }
            "--flame-energy" => {
                let Some(v) = it.next() else { return usage() };
                flame_energy_path = Some(v.clone());
            }
            "--abs-ms" => {
                let Some(v) = it.next() else { return usage() };
                let Some(ms) = parse_non_negative(v) else {
                    return bad_value("--abs-ms", v, "a non-negative number of milliseconds");
                };
                abs_ms = ms;
            }
            "--rel-pct" => {
                let Some(v) = it.next() else { return usage() };
                let Some(p) = parse_non_negative(v) else {
                    return bad_value("--rel-pct", v, "a non-negative percentage");
                };
                rel_pct = p;
            }
            "--tol-pct" => {
                let Some(v) = it.next() else { return usage() };
                let Some(p) = parse_non_negative(v) else {
                    return bad_value("--tol-pct", v, "a non-negative percentage");
                };
                tol_pct = Some(p);
            }
            "--components" => {
                let Some(v) = it.next() else { return usage() };
                let Some(parsed) = v.split(',').map(ncsw::ScaleComponent::parse).collect() else {
                    let names = ncsw::ScaleComponent::ALL.map(|c| c.name()).join(",");
                    let expected = format!("a comma list of {names}");
                    return bad_value("--components", v, &expected);
                };
                whatif_components = Some(parsed);
            }
            "--factors" => {
                let Some(v) = it.next() else { return usage() };
                match parse_f64_list(v) {
                    Some(l) if l.iter().all(|&f| f <= MAX_WHATIF_FACTOR) => {
                        whatif_factors = Some(l)
                    }
                    _ => {
                        let expected =
                            format!("comma-separated positive numbers up to {MAX_WHATIF_FACTOR}");
                        return bad_value("--factors", v, &expected);
                    }
                }
            }
            "--loads" => {
                let Some(v) = it.next() else { return usage() };
                match parse_f64_list(v) {
                    Some(l) if l.iter().all(|&f| f >= MIN_WHATIF_LOAD) => whatif_loads = Some(l),
                    _ => {
                        let expected = format!("comma-separated numbers >= {MIN_WHATIF_LOAD}");
                        return bad_value("--loads", v, &expected);
                    }
                }
            }
            "--prof" => prof_on = true,
            "--gray" => gray_on = true,
            "--campaigns" => {
                let Some(v) = it.next() else { return usage() };
                let Some(n) = v.parse::<usize>().ok().filter(|&n| n > 0) else {
                    return bad_value("--campaigns", v, "a positive whole number");
                };
                campaigns = n;
            }
            "--seed" => {
                let Some(v) = it.next() else { return usage() };
                let Ok(s) = v.parse::<u64>() else {
                    return bad_value("--seed", v, "a whole number");
                };
                seed = s;
            }
            "--baseline-policy" => {
                let Some(v) = it.next() else { return usage() };
                let Some(p) = ncsw_serve::DispatchPolicy::parse(v) else {
                    return bad_value("--baseline-policy", v, DISPATCH_POLICIES);
                };
                baseline_policy = p;
            }
            "--ctrl" => {
                let Some(v) = it.next() else { return usage() };
                if !ncsw_ctrl::POLICY_NAMES.contains(&v.as_str()) {
                    return bad_value("--ctrl", v, &ncsw_ctrl::POLICY_NAMES.join(", "));
                }
                ctrl_policy = v.clone();
            }
            "--faults" => {
                let Some(v) = it.next() else { return usage() };
                match ncsw_faults::FaultPlan::parse(v) {
                    Ok(plan) => faults = Some(plan),
                    Err(e) => {
                        eprintln!("bad --faults '{v}': {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--sample" => {
                let Some(v) = it.next() else { return usage() };
                match ncsw_obs::SamplePolicy::parse(v) {
                    Ok(p) => sample = Some(p),
                    Err(e) => {
                        eprintln!("bad --sample: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--incidents" => {
                let Some(v) = it.next() else { return usage() };
                incidents_dir = Some(v.clone());
            }
            other if experiment.is_none() && !other.starts_with('-') => {
                experiment = Some(other.to_string());
            }
            other
                if !other.starts_with('-')
                    && match experiment.as_deref() {
                        Some("validate-trace") | Some("analyze") => operands.is_empty(),
                        Some("diff") | Some("bench-diff") | Some("explain") => operands.len() < 2,
                        _ => false,
                    } =>
            {
                operands.push(other.to_string());
            }
            other => {
                eprintln!("unexpected argument '{other}'");
                return usage();
            }
        }
    }
    let Some(exp) = experiment else { return usage() };

    macro_rules! emit {
        ($result:expr) => {{
            let r = $result;
            if let Some(path) = &json_path {
                vpu_bench::report::write_json(path, &r);
                r.print();
            } else if json {
                println!("{}", serde_json::to_string_pretty(&r).expect("serialize"));
            } else {
                r.print();
            }
        }};
    }

    // `--prof` wraps a run in the wall-clock profiler and prints the
    // scope tree afterwards; the simulated outcome is bit-identical.
    macro_rules! profiled {
        ($run:expr) => {{
            if prof_on {
                ncsw_obs::prof::start();
                let r = $run;
                let report = ncsw_obs::prof::stop();
                eprint!("{}", report.render());
                r
            } else {
                $run
            }
        }};
    }

    fn read_file(path: &str) -> String {
        match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let write_csv = |name: &str, content: String| {
        if let Some(dir) = &csv_dir {
            vpu_bench::report::write_csv_in(dir, name, &content);
        }
    };
    let write_incidents = |bundles: &[vpu_bench::serve_bench::IncidentBundle]| {
        if let Some(dir) = &incidents_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {dir}: {e}");
                std::process::exit(2);
            }
            if bundles.is_empty() {
                eprintln!("{dir}: no incident fired during the run; nothing written");
            }
            for b in bundles {
                vpu_bench::report::write_json(&format!("{dir}/incident_{}.json", b.n), b);
            }
        }
    };
    let run = |name: &str, json: bool| {
        match name {
            "fig6a" => {
                let r = fig6::fig6a(scale);
                write_csv("fig6a", vpu_bench::csv::fig6a_csv(&r));
                emit!(r);
            }
            "fig6b" => {
                let r = fig6::fig6b(scale);
                write_csv("fig6b", vpu_bench::csv::fig6b_csv(&r));
                emit!(r);
            }
            "fig7a" | "fig7b" | "fig7" => {
                let r = fig7::fig7(scale);
                write_csv("fig7", vpu_bench::csv::fig7_csv(&r));
                emit!(r);
            }
            "fig8a" => {
                let r = fig8::fig8a(scale);
                write_csv("fig8a", vpu_bench::csv::fig8a_csv(&r));
                emit!(r);
            }
            "fig8b" => {
                let r = fig8::fig8b(scale);
                write_csv("fig8b", vpu_bench::csv::fig8b_csv(&r));
                emit!(r);
            }
            "anchors" => emit!(anchors::anchors(scale)),
            "timeline" => emit!(timeline::timeline()),
            "ablation-accum" => emit!(ablations::ablation_accum(scale)),
            "ablation-usb" => emit!(ablations::ablation_usb(scale)),
            "ablation-shave" => emit!(ablations::ablation_shave()),
            "mdk-gemm" => emit!(vpu_bench::mdk_gemm::mdk_gemm()),
            "ablation-faults" => emit!(ablations::ablation_faults(scale)),
            "ablation-prefetch" => emit!(ablations::ablation_prefetch()),
            "ablation-blob" => emit!(ablations::ablation_blob_batch()),
            "layers" => emit!(vpu_bench::layers::layers()),
            "zoo" => emit!(vpu_bench::zoo_bench::zoo_bench()),
            "stream" => emit!(vpu_bench::stream_bench::stream_bench()),
            "power" => emit!(vpu_bench::power_bench::power_bench(scale)),
            "energy" => {
                emit!(vpu_bench::energy_bench::energy_exp_with(
                    scale,
                    desim::Duration::from_millis(slo_ms),
                ));
            }
            "future-work" => emit!(vpu_bench::future_work::future_work(scale)),
            "serve"
                if trace_path.is_some()
                    || metrics_csv.is_some()
                    || faults.is_some()
                    || sample.is_some()
                    || incidents_dir.is_some()
                    || gray_on
                    || prof_on =>
            {
                if let Some(plan) = &faults {
                    let fleet = ncsw_serve::FleetSpec::parse(serve_bench::TRACED_FLEET)
                        .expect("valid fleet spec");
                    if let Err(e) = plan.validate_pins(fleet.0.len()) {
                        eprintln!("bad --faults for fleet {}: {e}", serve_bench::TRACED_FLEET);
                        std::process::exit(2);
                    }
                }
                let gray = if gray_on {
                    ncsw_serve::GrayConfig::defended()
                } else {
                    ncsw_serve::GrayConfig::default()
                };
                let r = profiled!(serve_bench::traced_serve(
                    scale,
                    desim::Duration::from_millis(slo_ms),
                    policy,
                    desim::Duration::from_millis(sample_ms),
                    faults.as_ref(),
                    gray,
                    sample.clone(),
                ));
                vpu_bench::report::write_artifact_opt(&trace_path, &r.chrome_json);
                vpu_bench::report::write_artifact_opt(&metrics_csv, &r.series_csv);
                write_incidents(&r.incidents);
                emit!(r);
            }
            "autoscale"
                if trace_path.is_some()
                    || metrics_csv.is_some()
                    || sample.is_some()
                    || incidents_dir.is_some()
                    || prof_on =>
            {
                let r = profiled!(vpu_bench::autoscale_bench::traced_autoscale(
                    scale,
                    &ctrl_policy,
                    desim::Duration::from_millis(sample_ms),
                    sample.clone(),
                ));
                vpu_bench::report::write_artifact_opt(&trace_path, &r.chrome_json);
                vpu_bench::report::write_artifact_opt(&metrics_csv, &r.series_csv);
                write_incidents(&r.incidents);
                emit!(r);
            }
            "bench-sim" => emit!(vpu_bench::sim_bench::sim_bench(scale)),
            "gray" => {
                emit!(vpu_bench::gray_bench::gray_exp_with(
                    scale,
                    desim::Duration::from_millis(slo_ms),
                ));
            }
            "chaos" => {
                let r = vpu_bench::chaos_bench::chaos(campaigns, seed);
                emit!(r.clone());
                if !r.passed() {
                    std::process::exit(1);
                }
            }
            "bench-diff" => {
                let [a_path, b_path] = operands.as_slice() else {
                    eprintln!("bench-diff needs BASE and CANDIDATE BENCH_sim.json paths");
                    std::process::exit(2);
                };
                let load = |path: &String| -> vpu_bench::sim_bench::SimBench {
                    match serde_json::from_str(&read_file(path)) {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("{path}: not a BENCH_sim.json: {e}");
                            std::process::exit(2);
                        }
                    }
                };
                let d = vpu_bench::sim_bench::sim_bench_diff(
                    &load(a_path),
                    &load(b_path),
                    tol_pct.unwrap_or(50.0),
                );
                if let Some(p) = &json_path {
                    vpu_bench::report::write_json(p, &d);
                    print!("{}", d.render());
                } else if json {
                    println!("{}", serde_json::to_string_pretty(&d).expect("serialize"));
                } else {
                    print!("{}", d.render());
                }
                if d.regression {
                    std::process::exit(1);
                }
            }
            "autoscale" => emit!(vpu_bench::autoscale_bench::autoscale_exp(scale)),
            "failover" => {
                emit!(vpu_bench::fault_bench::failover_exp_with(
                    scale,
                    desim::Duration::from_millis(slo_ms),
                ));
            }
            "serve" => {
                let r = serve_bench::serve_exp_with(
                    scale,
                    desim::Duration::from_millis(slo_ms),
                    policy,
                );
                write_csv("serve", vpu_bench::csv::serve_csv(&r));
                emit!(r);
            }
            "validate-trace" => {
                let Some(path) = operands.first() else {
                    eprintln!("validate-trace needs a PATH");
                    std::process::exit(2);
                };
                let json = read_file(path);
                // Validation cost is part of the observability ledger:
                // time the parse+check pass and report its throughput.
                let t = std::time::Instant::now();
                match vpu_bench::trace_check::validate(&json) {
                    Ok(check) => {
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
                    }
                    Err(e) => {
                        eprintln!("{path}: INVALID trace: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "explain" => {
                let [path, id] = operands.as_slice() else {
                    eprintln!("explain needs a TRACE path and a REQUEST_ID");
                    std::process::exit(2);
                };
                let Ok(id) = id.parse::<u64>() else {
                    eprintln!("bad request id '{id}'");
                    std::process::exit(2);
                };
                match ncsw_analyze::explain_chrome_json(&read_file(path), id) {
                    Ok(e) => {
                        if let Some(p) = &json_path {
                            vpu_bench::report::write_json(p, &e);
                            print!("{}", e.render());
                        } else if json {
                            println!("{}", serde_json::to_string_pretty(&e).expect("serialize"));
                        } else {
                            print!("{}", e.render());
                        }
                    }
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            "sample-sweep" => emit!(vpu_bench::sample_bench::sample_exp(scale)),
            "whatif" => {
                use vpu_bench::whatif_bench::{self, WhatIfConfig};
                let defaults = WhatIfConfig::default();
                let grid = WhatIfConfig {
                    components: whatif_components.clone().unwrap_or(defaults.components),
                    factors: whatif_factors.clone().unwrap_or(defaults.factors),
                    loads: whatif_loads.clone().unwrap_or(defaults.loads),
                    tolerance_pct: tol_pct.unwrap_or(whatif_bench::TOLERANCE_PCT),
                };
                let out = whatif_bench::whatif_run(scale, &grid);
                // --trace writes the baseline trace plus the f=1.0
                // arm's as PATH.identity.json, so CI can `cmp` the
                // passivity claim byte-for-byte.
                vpu_bench::report::write_artifact_opt(&trace_path, &out.baseline_trace);
                if let Some(p) = &trace_path {
                    vpu_bench::report::write_artifact(
                        &format!("{p}.identity.json"),
                        &out.identity_trace,
                    );
                }
                write_csv("whatif", vpu_bench::whatif_bench::whatif_csv(&out.exp));
                let ok = out.exp.whatif_ok;
                emit!(out.exp);
                if !ok {
                    std::process::exit(1);
                }
            }
            "analyze" => {
                let Some(path) = operands.first() else {
                    eprintln!("analyze needs a TRACE path");
                    std::process::exit(2);
                };
                let analysis =
                    profiled!(match ncsw_analyze::Analysis::from_chrome(&read_file(path)) {
                        Ok(a) => a,
                        Err(e) => {
                            eprintln!("{path}: cannot analyze: {e}");
                            std::process::exit(1);
                        }
                    });
                if let Some(fp) = &flame_path {
                    vpu_bench::report::write_artifact(fp, &ncsw_analyze::folded(&analysis));
                }
                if let Some(fp) = &flame_energy_path {
                    vpu_bench::report::write_artifact(fp, &ncsw_analyze::folded_energy(&analysis));
                }
                let out = AnalyzeJson {
                    table: analysis.table.clone(),
                    e2e: analysis.e2e,
                    shed: analysis.shed,
                    outages: analysis.forest.outages.len(),
                    p99_during_outage_ms: analysis.p99_during_outages_ms(),
                    slo_alert_windows: analysis.forest.alerts.len(),
                    energy: analysis.energy.as_ref().map(EnergyJson::of),
                };
                if let Some(p) = &json_path {
                    vpu_bench::report::write_json(p, &out);
                    print!("{}", analysis.render());
                } else if json {
                    println!("{}", serde_json::to_string_pretty(&out).expect("serialize"));
                } else {
                    print!("{}", analysis.render());
                }
            }
            "diff" => {
                let [a_path, b_path] = operands.as_slice() else {
                    eprintln!("diff needs BASELINE_TRACE and CANDIDATE_TRACE paths");
                    std::process::exit(2);
                };
                let load =
                    |path: &String| match ncsw_analyze::Analysis::from_chrome(&read_file(path)) {
                        Ok(a) => a,
                        Err(e) => {
                            eprintln!("{path}: cannot analyze: {e}");
                            std::process::exit(1);
                        }
                    };
                let a = load(a_path);
                let b = load(b_path);
                let cfg = ncsw_analyze::DiffConfig { abs_floor: abs_ms, rel_pct };
                let d = ncsw_analyze::diff(&a, &b, &cfg);
                if let Some(p) = &json_path {
                    vpu_bench::report::write_json(p, &d);
                    print!("{}", d.render());
                } else if json {
                    println!("{}", serde_json::to_string_pretty(&d).expect("serialize"));
                } else {
                    print!("{}", d.render());
                }
                if d.regression {
                    std::process::exit(1);
                }
            }
            "abdiff" => {
                let r = vpu_bench::ab_bench::ab_exp_with(
                    scale,
                    desim::Duration::from_millis(slo_ms),
                    baseline_policy,
                    policy,
                );
                emit!(r);
            }
            other => {
                eprintln!("unknown experiment '{other}'");
                std::process::exit(2);
            }
        }
        true
    };

    if exp == "all" {
        for name in [
            "fig6a",
            "fig6b",
            "fig7",
            "fig8a",
            "fig8b",
            "anchors",
            "timeline",
            "ablation-accum",
            "ablation-usb",
            "ablation-shave",
            "ablation-faults",
            "ablation-prefetch",
            "ablation-blob",
            "mdk-gemm",
            "layers",
            "zoo",
            "stream",
            "power",
            "energy",
            "future-work",
            "serve",
            "failover",
            "autoscale",
            "bench-sim",
            "gray",
            "sample-sweep",
            "whatif",
        ] {
            run(name, json);
        }
    } else {
        run(&exp, json);
    }
    ExitCode::SUCCESS
}
