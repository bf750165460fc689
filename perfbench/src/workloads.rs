//! The four workloads. Each builds its inputs from the seed, runs one
//! batch job to completion on the calling thread, and returns what the
//! benchmark checks and reports. Calls into the layers go through
//! [`span`], so a traced run attributes the wall time to them, and each
//! phase ends with a split mark (see [`marks`]).

use crate::decor::{self, TimedPolicy};
use crate::digest::{check_conserved, Digest};
use crate::marks;
use crate::trace::{self, span, span_items};
use ilsvrc_sim::calibrate::calibrate_sigma;
use ilsvrc_sim::{DatasetConfig, LabeledImage, ValidationSet};
use ncsw::metrics::Prediction;
use ncsw::runner::{predictions_fp16, predictions_fp32};
use ncsw::service::ServiceHook;
use ncsw::{ImageFolder, ModelBundle, SourceImage};
use ncsw_analyze::{parse_chrome_trace, whatif, Analysis};
use ncsw_faults::FaultPlan;
use ncsw_serve::{
    serve, serve_autoscaled, serve_observed, ArrivalProcess, DispatchPolicy, FleetSpec, GrayConfig,
    ObsConfig, ScalingConfig, ScalingPolicy, ServeConfig, ServeOutcome, ServeReport,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use vpu_nn::googlenet::Variant;

pub const NAMES: [&str; 4] = ["long-run", "sweep", "observe-analyze", "accuracy"];

/// `long-run`: one unobserved run of this many requests.
const LONG_RUN_REQUESTS: usize = 100_000;
/// The full heterogeneous fleet, at 80% of its estimated capacity.
const FULL_FLEET: &str = "cpu+gpu+8xvpu";
const FULL_LOAD: f64 = 0.8;

/// `sweep`: the E15 serving grid plus the E20 autoscale cells.
const SWEEP_FLEETS: [&str; 4] = ["1xvpu", "8xvpu", "cpu+gpu", "cpu+gpu+8xvpu"];
const SWEEP_LOADS: [f64; 9] = [0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0, 1.2, 2.0];
const AUTOSCALE_FLEET: &str = "8*vpu";
const AUTOSCALE_LOADS: [f64; 3] = [0.2, 0.5, 0.8];
const AUTOSCALE_POLICY: &str = "reactive";
const SWEEP_REQUESTS: usize = 1_500;

/// `observe-analyze`: a faulted, defended, fully recorded run. The
/// faults fall inside its ~130 s virtual horizon: the 8-stick worker
/// (the last, the default target) unplugs and reconnects, every worker
/// sees transient exec errors, and the CPU silently runs 4x slow.
const OBSERVED_REQUESTS: usize = 20_000;
const OBSERVED_FAULTS: &str =
    "unplug@20s:reconnect@35s,execerr@0.02,w0:failslow@50s:for@30s:slow@4";
const WHATIF_FACTOR: f64 = 0.5;

/// `accuracy`: the Fig. 7 path on Tiny GoogLeNet.
const ACCURACY_CLASSES: usize = 10;
const ACCURACY_SUBSET_IMAGES: usize = 100;
const ACCURACY_PROBE: usize = 150;
/// Bisection steps of the calibration, always all of them (tolerance
/// 0). `calibrated_set` stops within 0.015 of the target after 4 to 9
/// steps depending on the seed, which made set-up time follow the seed.
const ACCURACY_CALIBRATION_STEPS: usize = 6;
/// Images per classified chunk; each chunk's FP32 pass and FP16 pass
/// end with a split mark.
const ACCURACY_CHUNK: usize = 20;
/// The paper's VPU top-1 error, the calibration target.
const ACCURACY_TARGET_ERROR: f64 = 0.3192;
/// Least share of images on which FP16 must pick the FP32 class.
const MIN_FP16_AGREEMENT: f64 = 0.9;

/// What one workload run produced.
pub struct Run {
    /// Items processed after set-up: requests offered (completed +
    /// shed) or images classified (FP32 + FP16).
    pub items: u64,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Split marks, in seconds since the workload started; the last is
    /// `wall_s`.
    pub marks: Vec<f64>,
    /// How many of the marks fall in set-up; the last of them is
    /// `setup_s`.
    pub setup_marks: usize,
    pub digest: Digest,
    pub check: Result<(), String>,
    /// Exact counters and memory marks, by metric name.
    pub counters: BTreeMap<&'static str, f64>,
}

pub fn run(name: &str, seed: u64) -> Option<Run> {
    marks::start();
    let mut r = Run {
        items: 0,
        setup_s: 0.0,
        wall_s: 0.0,
        marks: Vec::new(),
        setup_marks: 0,
        digest: Digest::default(),
        check: Ok(()),
        counters: BTreeMap::new(),
    };
    match name {
        "long-run" => long_run(seed, &mut r),
        "sweep" => sweep(seed, &mut r),
        "observe-analyze" => observe_analyze(seed, &mut r),
        "accuracy" => accuracy(seed, &mut r),
        _ => return None,
    }
    r.marks = marks::finish();
    Some(r)
}

impl Run {
    fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_default() += v;
    }

    /// Mark the end of set-up.
    fn end_setup(&mut self) {
        self.setup_s = marks::mark();
        self.setup_marks = marks::len();
    }

    fn fail(&mut self, why: String) {
        if self.check.is_ok() {
            self.check = Err(why);
        }
    }

    /// Digest and check the serving outcomes, after the clock stopped.
    fn serving_results(&mut self, cells: &[(ServeOutcome, ServeReport, usize)]) {
        for (outcome, report, offered) in cells {
            if let Err(e) = check_conserved(outcome, *offered) {
                self.fail(e);
            }
            self.digest.outcome(outcome);
            self.digest.u64(report.latency.p50_ms.to_bits());
            self.digest.u64(report.latency.p99_ms.to_bits());
            self.add("sim_events", outcome.sim_events as f64);
            if let Some(s) = &outcome.scaling {
                self.add("ctrl.ticks", s.ticks as f64);
            }
        }
    }
}

/// Host memory high-water mark of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn model_build() -> ModelBundle {
    span("setup.model_build", || ModelBundle::googlenet_untrained(Variant::Full, 1))
}

/// Build a fleet whose device calls advance the split clock and, when
/// tracing, are timed.
fn build(r: &mut Run, spec: &FleetSpec, model: &ModelBundle) -> Vec<Box<dyn ServiceHook>> {
    r.add("setup.fleet_builds", 1.0);
    decor::wrap(spec.build(model), decor::device_span, true)
}

/// The serving config for `workers` and their estimated capacity in
/// requests per second.
fn plan(spec: &FleetSpec, workers: &[Box<dyn ServiceHook>], seed: u64) -> (ServeConfig, f64) {
    let cfg = ServeConfig {
        max_batch: spec.preferred_batch(workers),
        policy: DispatchPolicy::CostAware,
        seed,
        ..ServeConfig::default()
    };
    (cfg, spec.capacity_rps(workers))
}

fn poisson(rate_per_sec: f64) -> ArrivalProcess {
    ArrivalProcess::Poisson { rate_per_sec }
}

fn fleet_spec(s: &str) -> FleetSpec {
    FleetSpec::parse(s).expect("the workload's fleet spec parses")
}

fn long_run(seed: u64, r: &mut Run) {
    let model = model_build();
    marks::mark();
    let spec = fleet_spec(FULL_FLEET);
    let (mut workers, cfg, load) = span("setup.fleet_build", || {
        let workers = build(r, &spec, &model);
        let (cfg, capacity) = plan(&spec, &workers, seed);
        (workers, cfg, poisson(capacity * FULL_LOAD))
    });
    r.end_setup();
    let outcome = span("serve", || serve(&mut workers, &cfg, &load, LONG_RUN_REQUESTS));
    marks::mark();
    let report = span("report", || ServeReport::of(&outcome, &cfg));
    r.wall_s = marks::mark();
    r.add("mem.after_serve_mb", peak_rss_mb());
    r.items = LONG_RUN_REQUESTS as u64;
    r.serving_results(&[(outcome, report, LONG_RUN_REQUESTS)]);
}

/// One prepared sweep cell: a fresh fleet and its run parameters.
struct Cell {
    workers: Vec<Box<dyn ServiceHook>>,
    cfg: ServeConfig,
    load: ArrivalProcess,
    scaling: Option<ScalingConfig>,
}

fn sweep(seed: u64, r: &mut Run) {
    let model = model_build();
    marks::mark();
    // Set-up builds every cell's fleet before the first request runs.
    let mut cells = Vec::new();
    for fleet in SWEEP_FLEETS {
        let spec = fleet_spec(fleet);
        span("setup.fleet_build", || {
            let (cfg, capacity) = plan(&spec, &build(r, &spec, &model), seed);
            for frac in SWEEP_LOADS {
                cells.push(Cell {
                    workers: build(r, &spec, &model),
                    cfg: cfg.clone(),
                    load: poisson(capacity * frac),
                    scaling: None,
                });
            }
        });
        marks::mark();
    }
    let spec = fleet_spec(AUTOSCALE_FLEET);
    span("setup.fleet_build", || {
        let (cfg, capacity) = plan(&spec, &build(r, &spec, &model), seed);
        for frac in AUTOSCALE_LOADS {
            let scaling =
                ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };
            cells.push(Cell {
                workers: build(r, &spec, &model),
                cfg: cfg.clone(),
                load: poisson(capacity * frac),
                scaling: Some(scaling),
            });
        }
    });
    r.end_setup();

    let mut results = Vec::new();
    for mut c in cells {
        let outcome = span("serve", || match &c.scaling {
            None => serve(&mut c.workers, &c.cfg, &c.load, SWEEP_REQUESTS),
            Some(scaling) => {
                let mut policy =
                    ncsw_ctrl::policy(AUTOSCALE_POLICY).expect("the sweep's policy exists");
                let mut timed = TimedPolicy { inner: policy.as_mut() };
                let policy: &mut dyn ScalingPolicy =
                    if trace::enabled() { &mut timed } else { &mut *timed.inner };
                serve_autoscaled(&mut c.workers, &c.cfg, &c.load, SWEEP_REQUESTS, scaling, policy)
            }
        });
        let report = span("report", || ServeReport::of(&outcome, &c.cfg));
        r.wall_s = marks::mark();
        results.push((outcome, report, SWEEP_REQUESTS));
    }
    r.add("mem.after_serve_mb", peak_rss_mb());
    r.items = (results.len() * SWEEP_REQUESTS) as u64;
    r.serving_results(&results);
}

fn observe_analyze(seed: u64, r: &mut Run) {
    let model = model_build();
    marks::mark();
    let spec = fleet_spec(FULL_FLEET);
    let faults = FaultPlan::parse(OBSERVED_FAULTS).expect("the workload's fault spec parses");
    let (mut workers, cfg, load) = span("setup.fleet_build", || {
        let workers = build(r, &spec, &model);
        let (cfg, capacity) = plan(&spec, &workers, seed);
        let cfg = ServeConfig { gray: GrayConfig::defended(), ..cfg };
        let load = poisson(capacity * FULL_LOAD);
        let workers = faults.apply(workers, seed);
        let workers =
            if trace::enabled() { decor::wrap(workers, |_| "faults", false) } else { workers };
        (workers, cfg, load)
    });
    r.end_setup();

    let ocfg = ObsConfig::default();
    let (outcome, obs) =
        span("serve", || serve_observed(&mut workers, &cfg, &load, OBSERVED_REQUESTS, &ocfg));
    marks::mark();
    let report = span("report", || ServeReport::of(&outcome, &cfg));
    let after_serve = peak_rss_mb();
    marks::mark();
    let mut chrome = Vec::new();
    let exported =
        span("obs.export_chrome", || ncsw_obs::chrome_trace_to(&obs.events, &mut chrome));
    marks::mark();
    let mut series = Vec::new();
    let series_stats = span("obs.export_series", || obs.series.csv_to(&mut series));
    let after_export = peak_rss_mb();
    marks::mark();
    let recorded = obs.events.len();
    // The exports now stand for the run, as files handed to the
    // analyzer would.
    drop(obs);
    marks::mark();
    let parsed = span("analyze.parse", || match String::from_utf8(chrome) {
        Ok(text) => parse_chrome_trace(&text),
        Err(e) => Err(format!("trace is not UTF-8: {e}")),
    });
    marks::mark();
    let analysis = parsed.as_ref().ok().map(|log| span("analyze.attribute", || Analysis::of(log)));
    marks::mark();
    let ranking =
        analysis.as_ref().map(|a| span("analyze.whatif", || whatif::rank(a, WHATIF_FACTOR)));
    r.wall_s = marks::mark();
    r.add("mem.after_serve_mb", after_serve);
    r.add("mem.after_export_mb", after_export);
    r.add("mem.after_analyze_mb", peak_rss_mb());
    r.items = OBSERVED_REQUESTS as u64;

    let completed = outcome.completed.len();
    r.serving_results(&[(outcome, report, OBSERVED_REQUESTS)]);
    let (trace_bytes, series_bytes) = match (exported, series_stats) {
        (Ok(t), Ok(s)) => (t.bytes, s.bytes),
        (Err(e), _) | (_, Err(e)) => {
            r.fail(format!("export failed: {e}"));
            (0, 0)
        }
    };
    r.add("obs.events", recorded as f64);
    r.add("obs.trace_bytes", trace_bytes as f64);
    r.digest.u64(recorded as u64);
    r.digest.u64(trace_bytes);
    r.digest.u64(series_bytes);
    match (&parsed, &analysis, &ranking) {
        (Ok(log), Some(a), Some(ranking)) => {
            if log.len() != recorded {
                r.fail(format!("parsed {} events of {recorded} recorded", log.len()));
            }
            if a.breakdowns.len() != completed {
                r.fail(format!(
                    "attributed {} requests of {completed} completed",
                    a.breakdowns.len()
                ));
            }
            if let Some(b) = a.breakdowns.iter().find(|b| !b.exact()) {
                r.fail(format!("attribution of request {} does not sum to its latency", b.id));
            }
            r.digest.u64(log.len() as u64);
            r.digest.u64(a.breakdowns.len() as u64);
            r.digest.u64(a.e2e.p99_ms.to_bits());
            for p in ranking {
                r.digest.bytes(p.component.as_bytes());
                r.digest.u64(p.predicted.p99_ms.to_bits());
            }
        }
        (Err(e), ..) => r.fail(format!("parse failed: {e}")),
        _ => r.fail("analysis missing".to_string()),
    }
}

fn accuracy(seed: u64, r: &mut Run) {
    let variant = Variant::Tiny;
    let spec = Arc::new(variant.build_with_classes(ACCURACY_CLASSES));
    let mut cfg = DatasetConfig::ilsvrc_like(
        ACCURACY_CLASSES,
        ACCURACY_SUBSET_IMAGES * 5,
        variant.input_shape(),
        seed,
    );
    cfg.distractor_mix = 0.10;
    let (set, weights, calibration) = span("setup.calibrate", || {
        let (cal, weights) = calibrate_sigma(
            &spec,
            &cfg,
            ACCURACY_TARGET_ERROR,
            ACCURACY_PROBE,
            0.0,
            ACCURACY_CALIBRATION_STEPS,
        );
        cfg.sigma = cal.sigma;
        (ValidationSet::new(cfg), weights, cal)
    });
    marks::mark();
    let model = span("setup.model_build", || ModelBundle::deploy(spec, weights));
    let folders = ImageFolder::all_subsets(Arc::new(set));
    r.end_setup();
    r.add("setup.calibrate_iterations", calibration.iterations as f64);

    let mut results = Vec::new();
    for f in &folders {
        let (mut p32, mut p16) = (Vec::new(), Vec::new());
        for start in (0..f.len()).step_by(ACCURACY_CHUNK) {
            let chunk = Chunk { source: f, start, len: ACCURACY_CHUNK.min(f.len() - start) };
            let renumber = |ps: Vec<Prediction>| {
                ps.into_iter().map(move |p| Prediction { image: start + p.image, ..p })
            };
            let p = span_items("kernels.fp32", chunk.len, || predictions_fp32(&model, &chunk));
            p32.extend(renumber(p));
            marks::mark();
            let p = span_items("kernels.fp16", chunk.len, || predictions_fp16(&model, &chunk));
            p16.extend(renumber(p));
            r.wall_s = marks::mark();
        }
        results.push((p32, p16));
    }
    let images: usize = folders.iter().map(|f| f.len()).sum();
    r.items = 2 * images as u64;
    r.add("kernels.forward_passes", r.items as f64);
    r.add("kernels.macs_per_image", model.cost32.total_macs as f64);
    r.add("kernels.macs", (model.cost32.total_macs * r.items) as f64);

    let mut agree = 0;
    for (p32, p16) in black_box(&results) {
        for p in p32.iter().chain(p16) {
            r.digest.u64(p.predicted as u64);
            r.digest.u64(u64::from(p.confidence.to_bits()));
        }
        if let Some(p) = p32.iter().chain(p16).find(|p| !valid(p)) {
            r.fail(format!("image {} has an invalid prediction {p:?}", p.image));
        }
        agree += p32.iter().zip(p16).filter(|(a, b)| a.predicted == b.predicted).count();
    }
    let share = agree as f64 / images.max(1) as f64;
    if share < MIN_FP16_AGREEMENT {
        r.fail(format!("FP16 agrees with FP32 on {:.1}% of images", share * 100.0));
    }
}

/// `len` images of `source` from `start` on, as a source of their own.
struct Chunk<'a> {
    source: &'a dyn SourceImage,
    start: usize,
    len: usize,
}

impl SourceImage for Chunk<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn fetch(&self, i: usize) -> LabeledImage {
        self.source.fetch(self.start + i)
    }
}

fn valid(p: &Prediction) -> bool {
    p.predicted < ACCURACY_CLASSES && (0.0..=1.0).contains(&p.confidence)
}
