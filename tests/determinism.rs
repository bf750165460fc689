//! Reproducibility: every experiment must be bit-identical across runs.
//!
//! The whole point of driving the devices from virtual time and seeded
//! RNG streams is that `cargo run -- fig6a` prints the same numbers on
//! every machine, every time. These tests re-run representative slices
//! of the stack twice and require exact equality.

use std::sync::Arc;
use vpu_coprocessor::data::{pseudo_train, DatasetConfig, ValidationSet};
use vpu_coprocessor::framework::multivpu::{MultiVpu, MultiVpuConfig};
use vpu_coprocessor::framework::runner::predictions_fp16;
use vpu_coprocessor::framework::{HostConfig, HostTarget, ImageFolder, ModelBundle, TargetDevice};
use vpu_coprocessor::nn::googlenet::Variant;

#[test]
fn dataset_and_training_are_bit_identical() {
    let build = || {
        let spec = Arc::new(Variant::Tiny.build());
        let cfg = DatasetConfig::ilsvrc_like(10, 50, Variant::Tiny.input_shape(), 5);
        let set = ValidationSet::new(cfg);
        let w = pseudo_train(&spec, set.generator(), 5);
        (set.image(17).pixels, w)
    };
    let (img_a, w_a) = build();
    let (img_b, w_b) = build();
    assert_eq!(img_a, img_b);
    assert_eq!(w_a, w_b);
}

#[test]
fn fp16_predictions_are_bit_identical_across_runs() {
    let run = || {
        let spec = Arc::new(Variant::Tiny.build());
        let mut cfg = DatasetConfig::ilsvrc_like(10, 30, Variant::Tiny.input_shape(), 5);
        cfg.sigma = 0.3;
        let set = Arc::new(ValidationSet::new(cfg));
        let w = pseudo_train(&spec, set.generator(), 5);
        let model = ModelBundle::deploy(spec, w);
        predictions_fp16(&model, &ImageFolder::new(set, 0))
            .iter()
            .map(|p| (p.predicted, p.confidence.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn pipeline_timing_is_bit_identical_across_runs() {
    let run = || {
        let model = ModelBundle::googlenet_untrained(Variant::Full, 3);
        let mut mv = MultiVpu::new(MultiVpuConfig::paper_testbed(4), &model);
        mv.run_pipeline(16).result_times
    };
    assert_eq!(run(), run());
}

#[test]
fn host_target_reports_are_bit_identical() {
    let run = || {
        let model = ModelBundle::googlenet_untrained(Variant::Full, 3);
        let mut cpu = HostTarget::new(model, HostConfig::xeon_e5());
        let r = cpu.run_throughput(32, 8);
        (r.wall, r.samples.mean.to_bits(), r.samples.stddev.to_bits())
    };
    assert_eq!(run(), run());
}

#[test]
fn e15_serve_report_is_byte_identical_across_runs() {
    // The serving subsystem is pure virtual time + seeded streams, so
    // the whole E15 sweep must serialize to the exact same JSON.
    let run = || {
        let exp = vpu_coprocessor::experiments::serve_bench::serve_exp(
            vpu_coprocessor::experiments::Scale::Tiny,
        );
        serde_json::to_string(&exp).expect("serialize")
    };
    assert_eq!(run(), run());
}

#[test]
fn serve_outcome_is_bit_identical_across_runs() {
    use vpu_coprocessor::serving::{serve, ArrivalProcess, FleetSpec, ServeConfig};
    let run = || {
        let model = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
        let mut workers = FleetSpec::parse("cpu+gpu+2xvpu").unwrap().build(&model);
        let load = ArrivalProcess::Mmpp {
            rate_lo_per_sec: 50.0,
            rate_hi_per_sec: 400.0,
            mean_dwell: vpu_coprocessor::sim::Duration::from_millis(80.0),
        };
        let outcome = serve(&mut workers, &ServeConfig::default(), &load, 200);
        outcome.completed.iter().map(|r| (r.id, r.completed, r.worker)).collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

#[test]
fn energy_accounting_is_bit_identical_and_passive() {
    // The energy meter integrates island power over the same virtual
    // clock the scheduler runs on: it never advances time, never draws
    // from an RNG stream, and its picojoule counters are pure integer
    // arithmetic — so both the serve outcome and the energy totals must
    // be bit-identical across runs.
    use vpu_coprocessor::serving::{serve, ArrivalProcess, FleetSpec, ServeConfig};
    let run = || {
        let model = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
        let mut workers = FleetSpec::parse("cpu+gpu+2xvpu").unwrap().build(&model);
        let load = ArrivalProcess::Poisson { rate_per_sec: 150.0 };
        let outcome = serve(&mut workers, &ServeConfig::default(), &load, 150);
        let totals = outcome.energy.totals(outcome.energy_horizon());
        let order =
            outcome.completed.iter().map(|r| (r.id, r.completed, r.worker)).collect::<Vec<_>>();
        (order, totals.active_pj, totals.wasted_pj, totals.idle_pj, totals.fleet_pj())
    };
    let (order_a, active, wasted, idle, fleet) = run();
    let (order_b, active_b, wasted_b, idle_b, fleet_b) = run();
    assert_eq!(order_a, order_b, "metering must not perturb the schedule");
    assert_eq!((active, wasted, idle, fleet), (active_b, wasted_b, idle_b, fleet_b));
    // Integer conservation: the fleet total is exactly its split.
    assert_eq!(fleet, active + wasted + idle);
    assert!(active > 0, "a loaded fleet must charge busy energy");
}

#[test]
fn observed_serve_trace_is_byte_identical_across_runs() {
    // The exporters format virtual-time stamps with fixed-precision
    // integer arithmetic (no floats in the hot path), so a traced run is
    // reproducible down to the byte: the Chrome JSON, the sampled CSV
    // and the metric summary must all match exactly across runs.
    use vpu_coprocessor::experiments::{serve_bench::traced_serve, Scale};
    use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
    use vpu_coprocessor::sim::Duration;
    let run = || {
        let t = traced_serve(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::CostAware,
            Duration::from_millis(10.0),
            None,
            GrayConfig::default(),
            None,
        );
        (t.chrome_json, t.series_csv, t.summary)
    };
    let (json_a, csv_a, sum_a) = run();
    let (json_b, csv_b, sum_b) = run();
    assert_eq!(json_a, json_b, "Chrome trace JSON must be byte-identical");
    assert_eq!(csv_a, csv_b, "time-series CSV must be byte-identical");
    assert_eq!(sum_a, sum_b, "metric summary must be byte-identical");
    // Golden anchors: the document shape the exporter promises.
    assert!(json_a.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#));
    assert!(json_a.contains(r#""ph":"M""#) && json_a.contains(r#""ph":"X""#));
    // Power lanes ride along as counter events, reproducibly.
    assert!(json_a.contains(r#""ph":"C""#), "trace must carry power counter samples");
    assert!(csv_a.starts_with("time_ms,queue_depth,inflight_batches,"));
    let header = csv_a.lines().next().unwrap();
    assert!(header.contains(",power_"), "series must carry per-worker power columns");
    assert!(header.ends_with(",energy_j,img_per_watt"), "series must end with energy columns");
}

#[test]
fn profiler_is_passive_bit_identical_outputs() {
    // The wall-clock profiler only reads `Instant` — it never touches
    // virtual time or the RNG streams — so running the same traced
    // experiment with profiling enabled must reproduce every
    // virtual-clock artifact byte-for-byte, while the report itself
    // proves the dispatcher scopes and the recorder meter were live.
    use vpu_coprocessor::experiments::{serve_bench::traced_serve, Scale};
    use vpu_coprocessor::obs::prof;
    use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
    use vpu_coprocessor::sim::Duration;
    let run = || {
        traced_serve(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::CostAware,
            Duration::from_millis(10.0),
            None,
            GrayConfig::default(),
            None,
        )
    };
    let plain = run();
    assert!(!prof::enabled(), "profiler must default to off");
    prof::start();
    let profiled = run();
    let report = prof::stop();
    assert!(!prof::enabled(), "stop() must disable the profiler again");
    assert_eq!(plain.chrome_json, profiled.chrome_json);
    assert_eq!(plain.series_csv, profiled.series_csv);
    assert_eq!(plain.summary, profiled.summary);
    assert_eq!(
        serde_json::to_string(&plain.report).unwrap(),
        serde_json::to_string(&profiled.report).unwrap(),
        "the serving report must not see the profiler"
    );
    // The profiled run did observe real work.
    assert!(report.total_wall_ns > 0);
    assert!(report.scope_ns("serve.loop") > 0, "the event loop scope must be hit");
    assert!(report.scope_ns("serve.dispatch") > 0, "the dispatch scope must be hit");
    assert!(report.scope_ns("export.chrome") > 0, "the exporter scope must be hit");
    assert!(report.counter(prof::RECORDER_EVENTS) > 0, "the recorder meter must count events");
    // The ledger counts the whole log (serve-loop events plus alert
    // spans folded in afterwards); the recorder meter counts only the
    // serve-loop path it wraps.
    assert!(report.counter(prof::RECORDER_EVENTS) <= profiled.overhead.events_recorded);
}

#[test]
fn gray_defended_artifacts_are_byte_identical_across_runs() {
    // Hedging, quarantine and verify-on-complete all run on virtual
    // time and seeded streams — a defended run under injected gray
    // faults must reproduce every artifact byte-for-byte, including
    // the wasted-energy picojoule counters.
    use vpu_coprocessor::experiments::{serve_bench::traced_serve, Scale};
    use vpu_coprocessor::faults::{FaultEvent, FaultPlan};
    use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
    use vpu_coprocessor::sim::Duration;
    let run = || {
        let mut plan = FaultPlan::empty();
        plan.push(
            Some(2),
            FaultEvent::FailSlow {
                at: Duration::from_millis(200.0),
                duration: Duration::from_millis(800.0),
                factor: 6.0,
            },
        );
        plan.push(Some(0), FaultEvent::ResultCorrupt { per_image_prob: 0.05 });
        let t = traced_serve(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::LeastOutstanding,
            Duration::from_millis(10.0),
            Some(&plan),
            GrayConfig::defended(),
            None,
        );
        let report = serde_json::to_string(&t.report).expect("serialize");
        (t.chrome_json, t.series_csv, t.summary, report)
    };
    let (json_a, csv_a, sum_a, rep_a) = run();
    let (json_b, csv_b, sum_b, rep_b) = run();
    assert_eq!(json_a, json_b, "defended trace JSON must be byte-identical");
    assert_eq!(csv_a, csv_b, "defended series CSV must be byte-identical");
    assert_eq!(sum_a, sum_b, "defended summary must be byte-identical");
    assert_eq!(rep_a, rep_b, "defended serve report must be byte-identical");
}

#[test]
fn gray_defenses_off_are_passive_byte_identical_to_plain_run() {
    // With every defense off and an empty fault plan, the gray code
    // path must not perturb the simulation at all: the artifacts must
    // match the plain traced run byte-for-byte.
    use vpu_coprocessor::experiments::serve_bench::traced_serve;
    use vpu_coprocessor::experiments::Scale;
    use vpu_coprocessor::faults::FaultPlan;
    use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
    use vpu_coprocessor::sim::Duration;
    let plain = traced_serve(
        Scale::Tiny,
        Duration::from_millis(500.0),
        DispatchPolicy::CostAware,
        Duration::from_millis(10.0),
        None,
        GrayConfig::default(),
        None,
    );
    let off = traced_serve(
        Scale::Tiny,
        Duration::from_millis(500.0),
        DispatchPolicy::CostAware,
        Duration::from_millis(10.0),
        Some(&FaultPlan::empty()),
        GrayConfig::default(),
        None,
    );
    assert_eq!(plain.chrome_json, off.chrome_json, "gray-off trace must match plain run");
    assert_eq!(plain.series_csv, off.series_csv, "gray-off series must match plain run");
    assert_eq!(plain.summary, off.summary, "gray-off summary must match plain run");
    assert_eq!(
        serde_json::to_string(&plain.report).unwrap(),
        serde_json::to_string(&off.report).unwrap(),
        "gray-off report must match plain run"
    );
}

#[test]
fn sampled_trace_is_byte_identical_and_all_keep_matches_plain() {
    // Tail sampling draws only from its own seeded stream and decides
    // keep/drop after the run, so a sampled trace must reproduce
    // byte-for-byte — and the all-keep policy must be a pure
    // pass-through, byte-identical to running with no policy at all.
    use vpu_coprocessor::experiments::serve_bench::traced_serve;
    use vpu_coprocessor::experiments::Scale;
    use vpu_coprocessor::obs::SamplePolicy;
    use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
    use vpu_coprocessor::sim::Duration;
    let sampled = |spec: &str| {
        traced_serve(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::CostAware,
            Duration::from_millis(10.0),
            None,
            GrayConfig::default(),
            Some(SamplePolicy::parse(spec).expect("spec")),
        )
    };
    let a = sampled("1-in-25+top8");
    let b = sampled("1-in-25+top8");
    assert_eq!(a.chrome_json, b.chrome_json, "sampled trace JSON must be byte-identical");
    assert_eq!(a.series_csv, b.series_csv, "sampled series CSV must be byte-identical");
    assert_eq!(a.summary, b.summary, "sampled summary must be byte-identical");
    let (sa, sb) = (a.sample.expect("sampling ledger"), b.sample.expect("sampling ledger"));
    assert_eq!(sa, sb, "the sampling ledger must reproduce exactly");
    assert!(sa.requests_dropped() > 0, "1-in-25 on a tiny run must drop some requests");
    let plain = traced_serve(
        Scale::Tiny,
        Duration::from_millis(500.0),
        DispatchPolicy::CostAware,
        Duration::from_millis(10.0),
        None,
        GrayConfig::default(),
        None,
    );
    let all = sampled("all");
    assert_eq!(plain.chrome_json, all.chrome_json, "all-keep trace must match the unsampled run");
    assert_eq!(plain.series_csv, all.series_csv, "all-keep series must match the unsampled run");
    assert_eq!(plain.summary, all.summary, "all-keep summary must match the unsampled run");
    assert!(all.sample.expect("ledger").keeps_all());
}

#[test]
fn incident_bundles_are_byte_identical_across_runs() {
    // The flight recorder snapshots off the same virtual clock the
    // scheduler runs on, so a faulted run must produce the same
    // incident bundles — trigger, window and replay command — every
    // time.
    use vpu_coprocessor::experiments::serve_bench::traced_serve;
    use vpu_coprocessor::experiments::Scale;
    use vpu_coprocessor::faults::FaultPlan;
    use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
    use vpu_coprocessor::sim::Duration;
    let run = || {
        let plan = FaultPlan::parse("unplug@100ms:reconnect@400ms").expect("plan");
        let t = traced_serve(
            Scale::Tiny,
            Duration::from_millis(500.0),
            DispatchPolicy::CostAware,
            Duration::from_millis(10.0),
            Some(&plan),
            GrayConfig::default(),
            None,
        );
        t.incidents
            .iter()
            .map(|b| {
                (
                    b.n,
                    b.trigger.clone(),
                    b.at_ms.to_bits(),
                    b.trace_window.clone(),
                    b.replay.clone(),
                )
            })
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty(), "an unplug fault must fire at least one incident bundle");
    assert_eq!(a, b, "incident bundles must be byte-identical across runs");
    let (_, trigger, _, window, replay) = &a[0];
    assert_eq!(trigger, "circuit-open");
    assert!(window.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#));
    assert!(
        replay.starts_with("repro serve "),
        "replay must be a runnable repro command: {replay}"
    );
    assert!(replay.contains("--faults unplug@100ms:reconnect@400ms"));
}

#[test]
fn different_seeds_change_results() {
    let preds = |seed: u64| {
        let spec = Arc::new(Variant::Tiny.build());
        let mut cfg = DatasetConfig::ilsvrc_like(10, 30, Variant::Tiny.input_shape(), seed);
        cfg.sigma = 0.3;
        let set = Arc::new(ValidationSet::new(cfg));
        let w = pseudo_train(&spec, set.generator(), seed);
        let model = ModelBundle::deploy(spec, w);
        predictions_fp16(&model, &ImageFolder::new(set, 0))
            .iter()
            .map(|p| p.confidence.to_bits())
            .collect::<Vec<_>>()
    };
    assert_ne!(preds(1), preds(2), "seeds must matter");
}

#[test]
fn autoscaled_artifacts_are_byte_identical_per_policy() {
    // Same seed + same scaling policy => the same decisions at the same
    // virtual instants: trace JSON, series CSV (with its extra
    // live_sticks/scale_events columns) and the scaling report must all
    // reproduce byte-for-byte, for every policy.
    use vpu_coprocessor::experiments::autoscale_bench::traced_autoscale;
    use vpu_coprocessor::experiments::Scale;
    use vpu_coprocessor::sim::Duration;
    for policy in vpu_coprocessor::ctrl::POLICY_NAMES {
        let run = || {
            let t = traced_autoscale(Scale::Tiny, policy, Duration::from_millis(10.0), None);
            let scaling = serde_json::to_string(&t.report.scaling).expect("serialize");
            (t.chrome_json, t.series_csv, scaling)
        };
        let (json_a, csv_a, rep_a) = run();
        let (json_b, csv_b, rep_b) = run();
        assert_eq!(json_a, json_b, "{policy}: trace JSON must be byte-identical");
        assert_eq!(csv_a, csv_b, "{policy}: series CSV must be byte-identical");
        assert_eq!(rep_a, rep_b, "{policy}: scaling report must be byte-identical");
        let header = csv_a.lines().next().unwrap();
        assert!(
            header.ends_with(",live_sticks,scale_events"),
            "{policy}: autoscaled series must export the scaling columns: {header}"
        );
        assert!(json_a.contains(r#""name":"Drain""#), "{policy}: trace must carry Drain events");
    }
}

/// 64-bit FNV-1a over a sequence of byte strings (each followed by a
/// separator byte so concatenation boundaries count).
fn fnv1a(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in part.iter().chain(&[0xffu8]) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// One pinned serving scenario on the Tiny model: the fleet, the fault
/// plan wrapped around it, the serve configuration, the load, the
/// counter the case exists for, and the digest of its outputs.
struct PinnedCase {
    name: &'static str,
    fleet: &'static str,
    faults: Option<&'static str>,
    load_frac: f64,
    /// The serve configuration, given the fleet's preferred batch.
    cfg: fn(usize) -> vpu_coprocessor::serving::ServeConfig,
    /// `Some(policy)` runs through `serve_autoscaled_observed`.
    autoscale: Option<&'static str>,
    /// The counter that must be non-zero for the case to cover its path.
    covers: fn(&vpu_coprocessor::serving::ServeOutcome) -> u64,
    digest: u64,
    /// FNV-1a of the observed run's `registry.summary()`.
    registry: u64,
}

/// Requests per pinned case.
const PINNED_REQUESTS: usize = 300;

/// FNV-1a of one case's Chrome trace, series CSV and the `{:?}` of its
/// outcome, FNV-1a of its registry summary, and the outcome itself.
/// Also checks that the unobserved entry point returns the same
/// outcome.
fn pinned_run(c: &PinnedCase) -> (u64, u64, vpu_coprocessor::serving::ServeOutcome) {
    use vpu_coprocessor::faults::FaultPlan;
    use vpu_coprocessor::obs::chrome_trace;
    use vpu_coprocessor::serving::{
        serve, serve_autoscaled, serve_autoscaled_observed, serve_observed, ArrivalProcess,
        FleetSpec, ObsConfig, ScalingConfig,
    };
    let model = ModelBundle::googlenet_untrained(Variant::Tiny, 1);
    let spec = FleetSpec::parse(c.fleet).expect("fleet");
    let build = || {
        let workers = spec.build(&model);
        let cfg = (c.cfg)(spec.preferred_batch(&workers));
        let rate = spec.capacity_rps(&workers) * c.load_frac;
        let workers = match c.faults {
            Some(f) => FaultPlan::parse(f).expect("plan").apply(workers, cfg.seed),
            None => workers,
        };
        (workers, cfg, ArrivalProcess::Poisson { rate_per_sec: rate })
    };
    let n = PINNED_REQUESTS;
    let ocfg = ObsConfig::default();
    let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };
    let policy = |name| vpu_coprocessor::ctrl::policy(name).expect("policy");
    let (mut workers, cfg, load) = build();
    let (outcome, obs) = match c.autoscale {
        Some(name) => serve_autoscaled_observed(
            &mut workers,
            &cfg,
            &load,
            n,
            &scaling,
            policy(name).as_mut(),
            &ocfg,
        ),
        None => serve_observed(&mut workers, &cfg, &load, n, &ocfg),
    };
    let (mut workers, cfg, load) = build();
    let plain = match c.autoscale {
        Some(name) => {
            serve_autoscaled(&mut workers, &cfg, &load, n, &scaling, policy(name).as_mut())
        }
        None => serve(&mut workers, &cfg, &load, n),
    };
    let debug = format!("{outcome:?}");
    assert_eq!(debug, format!("{plain:?}"), "{}: observation must not perturb the run", c.name);
    let digest = fnv1a(&[
        chrome_trace(&obs.events).as_bytes(),
        obs.series.csv().as_bytes(),
        debug.as_bytes(),
    ]);
    (digest, fnv1a(&[obs.registry.summary().as_bytes()]), outcome)
}

/// Seven scenarios, one per serving-loop path: eviction, deadline
/// shedding, verified and unverified wire faults, retry exhaustion,
/// hedging with quarantine, and autoscaling.
fn pinned_cases() -> [PinnedCase; 7] {
    use vpu_coprocessor::serving::server::ShedCause;
    use vpu_coprocessor::serving::{
        GrayConfig, RobustConfig, ServeConfig, ServeOutcome, ShedPolicy,
    };
    use vpu_coprocessor::sim::Duration;
    const WIRE: &str = "corrupt@0.05,dup@0.05,drop@0.05,execerr@0.1";
    fn sheds(o: &ServeOutcome, cause: ShedCause) -> u64 {
        o.shed.iter().filter(|s| s.cause == cause).count() as u64
    }
    [
        PinnedCase {
            name: "drop-oldest",
            fleet: "cpu+gpu+2*vpu",
            faults: None,
            load_frac: 2.0,
            cfg: |b| ServeConfig {
                max_batch: b,
                queue_capacity: 16,
                shed: ShedPolicy::DropOldest,
                ..ServeConfig::default()
            },
            autoscale: None,
            covers: |o| sheds(o, ShedCause::Evicted),
            digest: 0x0faf_93b6_5aea_d0b4,
            registry: 0x907f_2bea_df8b_c22f,
        },
        PinnedCase {
            name: "deadline-unplug",
            fleet: "cpu+gpu+2*vpu",
            faults: Some("unplug@50ms:reconnect@150ms"),
            load_frac: 1.2,
            cfg: |b| ServeConfig {
                max_batch: b,
                shed: ShedPolicy::DeadlineAware,
                slo: Duration::from_millis(8.0),
                ..ServeConfig::default()
            },
            autoscale: None,
            covers: |o| sheds(o, ShedCause::Deadline),
            digest: 0xf141_75dc_da00_b7cf,
            registry: 0x184d_3367_3385_c22a,
        },
        PinnedCase {
            name: "wire-verified",
            fleet: "cpu+gpu+8xvpu",
            faults: Some(WIRE),
            load_frac: 0.8,
            cfg: |b| ServeConfig {
                max_batch: b,
                gray: GrayConfig { verify: true, ..GrayConfig::default() },
                ..ServeConfig::default()
            },
            autoscale: None,
            covers: |o| o.gray.integrity_fails,
            digest: 0x2c9e_38d7_3056_b665,
            registry: 0x80a9_b3a1_2a66_61fe,
        },
        PinnedCase {
            name: "wire-unverified",
            fleet: "cpu+gpu+8xvpu",
            faults: Some(WIRE),
            load_frac: 0.8,
            cfg: |b| ServeConfig { max_batch: b, ..ServeConfig::default() },
            autoscale: None,
            covers: |o| o.gray.corrupt_surfaced,
            digest: 0x67ff_790d_8479_3f35,
            registry: 0x2d49_5771_aff7_48bf,
        },
        PinnedCase {
            name: "unplug-exhausted",
            fleet: "2*vpu",
            faults: Some("unplug@30ms"),
            load_frac: 0.8,
            cfg: |b| ServeConfig {
                max_batch: b,
                robust: RobustConfig { max_attempts: 2 },
                ..ServeConfig::default()
            },
            autoscale: None,
            covers: |o| o.faults.exhausted,
            digest: 0x6238_5b4f_56ff_8c84,
            registry: 0xaf50_2681_fa1d_3e69,
        },
        PinnedCase {
            name: "failslow-defended",
            fleet: "cpu+gpu+2*vpu",
            faults: Some("failslow@60ms:for@400ms:slow@6"),
            load_frac: 0.7,
            cfg: |b| ServeConfig {
                max_batch: b,
                gray: GrayConfig::defended(),
                ..ServeConfig::default()
            },
            autoscale: None,
            covers: |o| o.gray.hedges.min(o.gray.quarantines),
            digest: 0x6bd0_10dc_76ac_3725,
            registry: 0x64d4_eb30_a26b_53af,
        },
        PinnedCase {
            name: "reactive-autoscale",
            fleet: "4*vpu",
            faults: None,
            load_frac: 0.2,
            cfg: |b| ServeConfig { max_batch: b, ..ServeConfig::default() },
            autoscale: Some("reactive"),
            covers: |o| o.scaling.as_ref().map_or(0, |s| s.scale_downs),
            digest: 0xd755_a4ba_98db_2462,
            registry: 0xd49d_30f3_99f6_96a8,
        },
    ]
}

#[test]
fn serving_loop_outputs_match_pinned_digests() {
    // Literal digests of the serving loop's three outputs. A change to
    // any event, its order, a series sample or an outcome field moves
    // a digest.
    let mut moved = Vec::new();
    for c in &pinned_cases() {
        let (digest, _, outcome) = pinned_run(c);
        assert!((c.covers)(&outcome) > 0, "{}: the case must exercise the path it pins", c.name);
        if digest != c.digest {
            moved.push(format!("{}: {digest:#018x}", c.name));
        }
    }
    assert!(moved.is_empty(), "serving-loop digests moved: {moved:?}");
}

#[test]
fn registry_summaries_match_pinned_digests() {
    // Literal digests of each case's metric registry summary: every
    // counter, gauge and histogram row, by name and in order.
    let mut moved = Vec::new();
    for c in &pinned_cases() {
        let (_, registry, _) = pinned_run(c);
        if registry != c.registry {
            moved.push(format!("{}: {registry:#018x}", c.name));
        }
    }
    assert!(moved.is_empty(), "registry digests moved: {moved:?}");
}
