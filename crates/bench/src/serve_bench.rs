//! E15 — online serving: latency–throughput curves per fleet.
//!
//! Sweeps open-loop offered load (Poisson) as a fraction of each fleet's
//! estimated capacity and reports the latency percentiles, goodput, shed
//! rate and utilization at every point, plus the maximum load each fleet
//! sustains while attaining the p99 SLO with nothing shed. The paper
//! never measures serving (its Fig. 6/8 protocol is closed-loop batch
//! throughput); this experiment is the online extension of those
//! figures on the same calibrated devices, so the capacity numbers line
//! up with Fig. 6a (CPU 44, GPU 74.2, 8×VPU 77.2 img/s).

use crate::report;
use crate::scale::Scale;
use desim::Duration;
use ncsw::ModelBundle;
use ncsw_obs::{Recorder as _, SamplePolicy, SampleStats};
use ncsw_serve::{
    serve, serve_observed, ArrivalProcess, DispatchPolicy, FleetSpec, ObsConfig, ServeConfig,
    ServeReport,
};
use serde::{Deserialize, Serialize};
use vpu_nn::googlenet::Variant;

/// Fleet configurations the experiment compares.
pub const FLEETS: [&str; 4] = ["1xvpu", "8xvpu", "cpu+gpu", "cpu+gpu+8xvpu"];

/// Offered load as a fraction of estimated fleet capacity.
pub const LOAD_FRACTIONS: [f64; 9] = [0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0, 1.2, 2.0];

/// One point of a fleet's latency–throughput curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadPoint {
    pub offered_frac: f64,
    pub offered_rps: f64,
    pub report: ServeReport,
}

/// One fleet's sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetCurve {
    pub fleet: String,
    /// Capacity estimate from the calibrated cost models (requests/s).
    pub capacity_rps: f64,
    /// Batcher limit used for this fleet (its largest preferred batch).
    pub max_batch: usize,
    pub points: Vec<LoadPoint>,
    /// Highest offered load (requests/s) with p99 <= SLO and zero shed.
    pub max_slo_rps: f64,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeExp {
    pub scale: Scale,
    pub requests_per_point: usize,
    pub slo_ms: f64,
    pub policy: String,
    pub fleets: Vec<FleetCurve>,
}

fn requests_per_point(scale: Scale) -> usize {
    match scale {
        Scale::Tiny => 160,
        Scale::Small => 1_500,
        Scale::Paper => 10_000,
    }
}

/// Run E15 with the default SLO (500 ms) and cost-aware dispatch.
pub fn serve_exp(scale: Scale) -> ServeExp {
    serve_exp_with(scale, Duration::from_millis(500.0), DispatchPolicy::CostAware)
}

pub fn serve_exp_with(scale: Scale, slo: Duration, policy: DispatchPolicy) -> ServeExp {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = requests_per_point(scale);
    let mut fleets = Vec::new();
    for fleet in FLEETS {
        let spec = FleetSpec::parse(fleet).expect("valid fleet spec");
        // Probe capacity and preferred batch on a throwaway build.
        let probe = spec.build(&model);
        let capacity_rps = spec.capacity_rps(&probe);
        let max_batch = spec.preferred_batch(&probe);
        drop(probe);

        let mut points = Vec::new();
        for &frac in &LOAD_FRACTIONS {
            let cfg = ServeConfig { max_batch, slo, policy, ..ServeConfig::default() };
            // Fresh workers per point: each point is an independent run
            // from a cold (but booted) fleet.
            let mut workers = spec.build(&model);
            let rate = capacity_rps * frac;
            let load = ArrivalProcess::Poisson { rate_per_sec: rate };
            let outcome = serve(&mut workers, &cfg, &load, n);
            points.push(LoadPoint {
                offered_frac: frac,
                offered_rps: rate,
                report: ServeReport::of(&outcome, &cfg),
            });
        }
        let max_slo_rps = points
            .iter()
            .filter(|p| p.report.slo_attained)
            .map(|p| p.offered_rps)
            .fold(0.0, f64::max);
        fleets.push(FleetCurve {
            fleet: fleet.to_string(),
            capacity_rps,
            max_batch,
            points,
            max_slo_rps,
        });
    }
    ServeExp {
        scale,
        requests_per_point: n,
        slo_ms: slo.as_millis(),
        policy: policy.name().to_string(),
        fleets,
    }
}

/// Fleet and load point used by [`traced_serve`]: the full
/// heterogeneous fleet at 80% of estimated capacity — busy enough that
/// batching, dispatch and USB contention all show up in the trace, calm
/// enough that the timeline stays readable.
pub const TRACED_FLEET: &str = "cpu+gpu+8xvpu";
pub const TRACED_LOAD_FRACTION: f64 = 0.8;

/// Exported artifacts of one fully observed serving run (the
/// `--trace` / `--metrics-csv` path of the `serve` experiment).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TracedServe {
    pub fleet: String,
    pub requests: usize,
    pub offered_rps: f64,
    pub report: ServeReport,
    /// Chrome trace-event JSON (load in Perfetto / `chrome://tracing`).
    pub chrome_json: String,
    /// Sampled time series as CSV.
    pub series_csv: String,
    /// Human-readable metric summary.
    pub summary: String,
    /// Multi-window SLO burn-rate alert windows that fired during the
    /// run (also exported as `SloAlert` spans on the trace's `alerts`
    /// lane).
    pub slo_alerts: usize,
    /// What observing the run cost: events recorded, exporter bytes,
    /// peak scratch buffer, recorder ns/event (wall fields are zero
    /// unless the run was profiled).
    pub overhead: ncsw_obs::OverheadLedger,
    /// Tail-sampling ledger (`None` = full-fidelity recording).
    pub sample: Option<SampleStats>,
    /// Incident bundles snapped by the always-on flight recorder
    /// (circuit-open, integrity-fail and burn-rate triggers).
    pub incidents: Vec<IncidentBundle>,
}

/// A self-contained post-mortem artifact for one incident trigger:
/// the flight-recorder trace window around the trigger, the metric
/// summary, the run's seed and spec, and a one-line `repro` command
/// that deterministically reproduces the whole run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncidentBundle {
    /// Incident ordinal within the run (0-based).
    pub n: usize,
    /// What fired: `circuit-open`, `integrity-fail` or `burn-rate`.
    pub trigger: String,
    /// Virtual-clock trigger instant, ms since epoch.
    pub at_ms: f64,
    /// RNG seed of the run — replaying with it is byte-identical.
    pub seed: u64,
    /// Events in the flight-recorder window.
    pub window_events: usize,
    /// Chrome trace-event JSON of the window (loads in Perfetto and
    /// passes `repro validate-trace`'s parser).
    pub trace_window: String,
    /// Registry metric summary at end of run.
    pub registry_summary: String,
    /// One-line command reproducing the run: the window is a teaser,
    /// this regenerates the full deterministic trace.
    pub replay: String,
}

/// Convert the flight recorder's snapshots into self-contained
/// [`IncidentBundle`]s. `replay_base` is the `repro …` invocation that
/// reproduces the run (the bundle appends the `--trace` artifact flag).
pub(crate) fn incident_bundles(
    obs: &ncsw_serve::ServeObservation,
    seed: u64,
    registry_summary: &str,
    replay_base: &str,
) -> Vec<IncidentBundle> {
    obs.flight
        .incidents()
        .iter()
        .map(|snap| {
            let mut window = ncsw_obs::EventLog::new();
            for ev in &snap.events {
                window.record(*ev);
            }
            IncidentBundle {
                n: snap.n,
                trigger: snap.trigger.clone(),
                at_ms: snap.at.as_millis(),
                seed,
                window_events: snap.events.len(),
                trace_window: ncsw_obs::chrome_trace(&window),
                registry_summary: registry_summary.to_string(),
                replay: format!("{replay_base} --trace replay.trace.json"),
            }
        })
        .collect()
}

/// Shared assembly of an observed run's exportable artifacts: burn-rate
/// alerts folded into the trace, streaming Chrome-trace + series-CSV
/// exports (with their write ledgers), the registry summary, and the
/// [`ncsw_obs::OverheadLedger`] — one place, used by both the serve and
/// autoscale traced paths, to attach observability accounting.
pub(crate) struct ObservedArtifacts {
    pub chrome_json: String,
    pub series_csv: String,
    pub summary: String,
    pub slo_alerts: usize,
    pub overhead: ncsw_obs::OverheadLedger,
}

pub(crate) fn observed_artifacts(obs: &mut ncsw_serve::ServeObservation) -> ObservedArtifacts {
    use ncsw_obs::prof;
    // Burn-rate alerting runs over the sampled series; windows that
    // fire land in the trace as spans on their own lane, so Perfetto
    // shows the alert right above the phase activity that caused it.
    let alerts = ncsw_analyze::burn_alerts(&obs.series);
    {
        for ev in ncsw_analyze::alert_events(&alerts) {
            obs.events.record(ev);
        }
    }
    // A burn-rate alert is an incident too: snapshot the flight ring so
    // the run exports a bundle even when no fault-path trigger fired.
    if let Some(a) = alerts.first() {
        obs.flight.force_snapshot("burn-rate", a.from);
    }
    let mut trace_buf = Vec::new();
    let trace_stats = {
        let _s = prof::scope("export.chrome");
        // Same streaming writer as `chrome_trace_to`, plus the sampling
        // metadata row when the run was tail-sampled — an all-keep or
        // unsampled run stays byte-identical to the plain export.
        let mut w = ncsw_obs::ChromeWriter::new(&mut trace_buf, &obs.events.lanes())
            .expect("Vec sink cannot fail");
        for ev in obs.events.events() {
            w.event(ev).expect("Vec sink cannot fail");
        }
        if let Some(stats) = obs.sample.as_ref().filter(|s| !s.keeps_all()) {
            w.sampling(stats).expect("Vec sink cannot fail");
        }
        w.finish().expect("Vec sink cannot fail")
    };
    let mut series_buf = Vec::new();
    let series_stats = {
        let _s = prof::scope("export.series");
        obs.series.csv_to(&mut series_buf).expect("Vec sink cannot fail")
    };
    let events_recorded = obs.events.len() as u64;
    ObservedArtifacts {
        chrome_json: String::from_utf8(trace_buf).expect("chrome trace is ASCII"),
        series_csv: String::from_utf8(series_buf).expect("series CSV is ASCII"),
        summary: obs.registry.summary(),
        slo_alerts: alerts.len(),
        overhead: ncsw_obs::OverheadLedger {
            events_recorded,
            trace_bytes: trace_stats.bytes,
            series_bytes: series_stats.bytes,
            peak_buffered_bytes: trace_stats.peak_buffered.max(series_stats.peak_buffered),
            recorder_ns: prof::counter_now(prof::RECORDER_NS),
        },
    }
}

/// One observed serving run on the heterogeneous fleet (the `repro
/// serve --trace` path), with an optional fault plan injected into the
/// fleet, the gray-failure defenses configured, and optional tail-based
/// trace sampling. Deterministic: the same arguments produce
/// byte-identical `chrome_json` and `series_csv` on every machine. No
/// plan (or the empty one), the all-off `gray` default and no `sample`
/// (or `all`) each leave the run byte-identical to the plain one;
/// sampling only shrinks the exported trace.
pub fn traced_serve(
    scale: Scale,
    slo: Duration,
    policy: DispatchPolicy,
    sample_every: Duration,
    faults: Option<&ncsw_faults::FaultPlan>,
    gray: ncsw_serve::GrayConfig,
    sample: Option<SamplePolicy>,
) -> TracedServe {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = requests_per_point(scale);
    let spec = FleetSpec::parse(TRACED_FLEET).expect("valid fleet spec");
    let mut workers = spec.build(&model);
    let capacity_rps = spec.capacity_rps(&workers);
    let max_batch = spec.preferred_batch(&workers);
    let cfg = ServeConfig { max_batch, slo, policy, gray, ..ServeConfig::default() };
    if let Some(plan) = faults {
        workers = plan.apply(workers, cfg.seed);
    }
    let rate = capacity_rps * TRACED_LOAD_FRACTION;
    let load = ArrivalProcess::Poisson { rate_per_sec: rate };
    let ocfg = ObsConfig { sample_every, sample: sample.clone() };
    let (outcome, mut obs) = serve_observed(&mut workers, &cfg, &load, n, &ocfg);
    let art = observed_artifacts(&mut obs);

    let mut replay = format!(
        "repro serve --scale {} --slo-ms {} --policy {}",
        scale.name(),
        slo.as_millis(),
        policy.name()
    );
    if let Some(plan) = faults {
        replay.push_str(&format!(" --faults {}", plan.to_spec()));
    }
    if gray != ncsw_serve::GrayConfig::default() {
        replay.push_str(" --gray");
    }
    if let Some(p) = &sample {
        replay.push_str(&format!(" --sample {}", p.spec()));
    }
    let incidents = incident_bundles(&obs, cfg.seed, &art.summary, &replay);
    TracedServe {
        fleet: TRACED_FLEET.to_string(),
        requests: n,
        offered_rps: rate,
        report: ServeReport::of(&outcome, &cfg),
        chrome_json: art.chrome_json,
        series_csv: art.series_csv,
        summary: art.summary,
        slo_alerts: art.slo_alerts,
        overhead: art.overhead,
        sample: obs.sample.clone(),
        incidents,
    }
}

impl TracedServe {
    pub fn print(&self) {
        report::header(&format!(
            "observed serving run — fleet {}, {} requests at {:.1} req/s",
            self.fleet, self.requests, self.offered_rps
        ));
        print!("{}", self.summary);
        println!(
            "completed {} / shed {}  p50 {:.1} ms  p99 {:.1} ms  goodput {:.1} req/s",
            self.report.completed,
            self.report.shed,
            self.report.latency.p50_ms,
            self.report.latency.p99_ms,
            self.report.goodput_rps
        );
        let e = &self.report.energy;
        println!(
            "energy: {:.3} J fleet = {:.3} active + {:.3} wasted + {:.3} idle ({} pJ exact)  \
             {:.2} img/W measured vs {:.2} Eq.1-TDP",
            e.fleet_j,
            e.active_j,
            e.wasted_j,
            e.idle_j,
            e.fleet_pj,
            e.img_per_watt,
            e.img_per_watt_tdp
        );
        if self.overhead.events_recorded > 0 {
            println!("{}", self.overhead.render());
        }
        if let Some(s) = &self.sample {
            println!("{}", s.render());
        }
        if !self.incidents.is_empty() {
            println!(
                "flight recorder: {} incident bundle(s) [{}]",
                self.incidents.len(),
                self.incidents.iter().map(|b| b.trigger.as_str()).collect::<Vec<_>>().join(", ")
            );
        }
        if self.slo_alerts > 0 {
            println!("SLO burn-rate alerts fired: {} window(s)", self.slo_alerts);
        }
        if let Some(s) = &self.report.scaling {
            println!(
                "scaling ({}): {} ticks, {} ups / {} downs / {} replacements, \
                 {:.1} of {:.1} stick·s powered, {:.3} J reclaimed ({} pJ exact)",
                s.policy,
                s.ticks,
                s.scale_ups,
                s.scale_downs,
                s.replacements,
                s.stick_seconds,
                s.static_stick_seconds,
                s.reclaimed_j,
                s.reclaimed_pj
            );
        }
        let f = &self.report.faults;
        if f.injected > 0 {
            println!(
                "faults: {} injected, {} retries ({:.3}/req), {} exhausted, {} outages, \
                 mttr {:.1} ms, p99 during failover {:.1} ms",
                f.injected,
                f.retries,
                f.retries_per_request,
                f.exhausted,
                f.outages,
                f.mttr_ms,
                f.p99_during_failover_ms
            );
        }
    }
}

impl ServeExp {
    /// `max_slo_rps` of a fleet by name (0.0 when absent or never met).
    pub fn max_slo_rps(&self, fleet: &str) -> f64 {
        self.fleets.iter().find(|f| f.fleet == fleet).map(|f| f.max_slo_rps).unwrap_or(0.0)
    }

    pub fn print(&self) {
        report::header(&format!(
            "E15 — online serving sweep ({} req/point, p99 SLO {} ms, {} dispatch, scale {})",
            self.requests_per_point,
            self.slo_ms,
            self.policy,
            self.scale.name()
        ));
        for f in &self.fleets {
            println!(
                "\nfleet {}  (capacity est {:.1} req/s, max_batch {})",
                f.fleet, f.capacity_rps, f.max_batch
            );
            println!(
                "{:>5} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6}  slo",
                "load", "offered", "p50 ms", "p99 ms", "p99.9 ms", "goodput", "shed%", "util%"
            );
            for p in &f.points {
                let r = &p.report;
                let util =
                    r.workers.iter().map(|w| w.utilization).sum::<f64>() / r.workers.len() as f64;
                println!(
                    "{:>5.2} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7.1} {:>6.1}  {}",
                    p.offered_frac,
                    p.offered_rps,
                    r.latency.p50_ms,
                    r.latency.p99_ms,
                    r.latency.p999_ms,
                    r.goodput_rps,
                    r.shed_rate * 100.0,
                    util * 100.0,
                    if r.slo_attained { "ok" } else { "-" }
                );
            }
            println!("  max SLO-compliant load: {:.1} req/s", f.max_slo_rps);
        }
        let one = self.max_slo_rps("1xvpu");
        let eight = self.max_slo_rps("8xvpu");
        if one > 0.0 {
            println!(
                "\n8xVPU sustains {:.1}x the SLO-compliant load of 1xVPU ({:.1} vs {:.1} req/s)",
                eight / one,
                eight,
                one
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_has_expected_shape() {
        let e = serve_exp(Scale::Tiny);
        assert_eq!(e.fleets.len(), FLEETS.len());
        for f in &e.fleets {
            assert_eq!(f.points.len(), LOAD_FRACTIONS.len());
            // Low load attains the SLO; the hockey stick shows up as a
            // strictly worse p99 at 2.0x than at 0.2x.
            let lo = &f.points[0].report;
            let hi = f.points.last().unwrap().report.clone();
            assert!(lo.slo_attained, "{}: SLO must hold at 0.2x", f.fleet);
            assert!(
                hi.latency.p99_ms > lo.latency.p99_ms,
                "{}: p99 must degrade under overload",
                f.fleet
            );
            // Graceful overload: at 2x capacity the bounded queue sheds,
            // and what is admitted still completes with bounded latency.
            assert!(hi.shed_rate > 0.0, "{}: 2x load must shed", f.fleet);
            assert!(hi.completed > 0, "{}: overload must not starve", f.fleet);
            assert!(f.max_slo_rps > 0.0, "{}: some load must meet the SLO", f.fleet);
        }
        // Fleet scaling: 8 sticks sustain >= ~3x the SLO load of 1 stick.
        let ratio = e.max_slo_rps("8xvpu") / e.max_slo_rps("1xvpu");
        assert!(ratio >= 3.0, "8xvpu/1xvpu SLO-load ratio {ratio}");
    }
}
