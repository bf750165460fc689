//! Acceptance tests for the observability subsystem, through the
//! public umbrella-crate API.
//!
//! The contract: (1) observing a run never perturbs it — the
//! `NullRecorder` path and the observed path produce bit-identical
//! serving outcomes; (2) a traced run exposes the full
//! Arrive→Admit→BatchClose→Dispatch→UsbWrite→Exec→UsbRead→Complete
//! chain with non-decreasing virtual timestamps for at least one
//! request; (3) the sampled time series carries queue-depth and
//! per-worker-utilization columns; (4) the exported Chrome JSON passes
//! the structural validator CI runs.

use vpu_coprocessor::obs::{request_chain, Phase};
use vpu_coprocessor::serving::{
    serve, serve_observed, ArrivalProcess, FleetSpec, ObsConfig, ServeConfig, ServeOutcome,
};
use vpu_coprocessor::sim::Duration;

fn fingerprint(o: &ServeOutcome) -> (Vec<(u64, vpu_coprocessor::sim::SimTime, usize)>, usize) {
    (o.completed.iter().map(|r| (r.id, r.completed, r.worker)).collect(), o.shed.len())
}

fn observed_run() -> (ServeOutcome, vpu_coprocessor::serving::ServeObservation) {
    let model = vpu_coprocessor::framework::ModelBundle::googlenet_untrained(
        vpu_coprocessor::nn::googlenet::Variant::Tiny,
        1,
    );
    let mut workers = FleetSpec::parse("cpu+2xvpu").unwrap().build(&model);
    let cfg = ServeConfig::default();
    let load = ArrivalProcess::Poisson { rate_per_sec: 300.0 };
    serve_observed(
        &mut workers,
        &cfg,
        &load,
        200,
        &ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() },
    )
}

#[test]
fn observation_does_not_perturb_the_run() {
    let model = vpu_coprocessor::framework::ModelBundle::googlenet_untrained(
        vpu_coprocessor::nn::googlenet::Variant::Tiny,
        1,
    );
    let cfg = ServeConfig::default();
    let load = ArrivalProcess::Poisson { rate_per_sec: 300.0 };
    let mut plain_workers = FleetSpec::parse("cpu+2xvpu").unwrap().build(&model);
    let plain = serve(&mut plain_workers, &cfg, &load, 200);
    let (observed, _) = observed_run();
    assert_eq!(fingerprint(&plain), fingerprint(&observed));
}

#[test]
fn traced_request_exposes_the_full_phase_chain() {
    let (outcome, obs) = observed_run();
    // VPU-served requests traverse every phase; host-served ones skip
    // the USB/VPU lanes. Find at least one fully chained request.
    let by_request = obs.events.group_by(|e| e.ctx.request_id);
    let chained = outcome
        .completed
        .iter()
        .filter_map(|r| by_request.get(&r.id).and_then(|evs| request_chain(evs)))
        .collect::<Vec<_>>();
    assert!(!chained.is_empty(), "no request exposes the full phase chain");
    for chain in &chained {
        assert_eq!(chain.len(), Phase::REQUEST_CHAIN.len());
        for (i, (phase, _)) in chain.iter().enumerate() {
            assert_eq!(*phase, Phase::REQUEST_CHAIN[i]);
        }
        for pair in chain.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "phase chain must be time-ordered: {chain:?}");
        }
    }
}

#[test]
fn time_series_has_depth_and_utilization_columns() {
    let (_, obs) = observed_run();
    let csv = obs.series.csv();
    let header = csv.lines().next().expect("csv has a header");
    assert!(header.starts_with("time_ms,queue_depth,inflight_batches,"));
    assert!(header.contains("util_cpu") && header.contains("util_vpu_x2"), "{header}");
    assert!(csv.lines().count() > 2, "series must contain samples");
}

#[test]
fn exported_chrome_trace_validates() {
    let (_, obs) = observed_run();
    let json = vpu_coprocessor::obs::chrome_trace(&obs.events);
    let check = vpu_coprocessor::experiments::trace_check::validate(&json)
        .expect("exported trace must validate");
    assert!(check.chained > 0);
}

#[test]
fn streaming_exporters_match_buffered_on_a_real_run() {
    // The buffered exporters are thin shims over the streaming writers,
    // but verify the contract end-to-end on a real observed run: an
    // event-at-a-time stream into a raw sink must equal the buffered
    // string byte-for-byte, with exact stats and bounded buffering.
    use vpu_coprocessor::obs::{chrome_trace, ChromeWriter};
    let (_, obs) = observed_run();
    let buffered = chrome_trace(&obs.events);
    let mut sink = Vec::new();
    let stats = {
        let mut w = ChromeWriter::new(&mut sink, &obs.events.lanes()).unwrap();
        for ev in obs.events.events() {
            w.event(ev).unwrap();
        }
        w.finish().unwrap()
    };
    assert_eq!(String::from_utf8(sink).unwrap(), buffered);
    assert_eq!(stats.bytes, buffered.len() as u64);
    assert!(
        stats.peak_buffered > 0 && stats.peak_buffered < stats.bytes,
        "streaming must hold at most one row in memory, not the document: {stats:?}"
    );
    let csv = obs.series.csv();
    let mut csv_sink = Vec::new();
    let csv_stats = obs.series.csv_to(&mut csv_sink).unwrap();
    assert_eq!(String::from_utf8(csv_sink).unwrap(), csv);
    assert_eq!(csv_stats.bytes, csv.len() as u64);
    assert!(csv_stats.peak_buffered > 0 && csv_stats.peak_buffered < csv_stats.bytes);
}

#[test]
fn tail_sampling_is_passive_and_keeps_anomalous_chains_in_full() {
    // The sampler watches the stream and decides keep/drop after each
    // request's terminal event — it never touches virtual time or the
    // serve RNG streams, so the outcome is bit-identical to an
    // unsampled run. Every anomalous request (shed, SLO-violating or
    // retried) must survive sampling with its full chain intact, and
    // the sampled log must still pass the structural trace validator.
    use vpu_coprocessor::analyze::{Outcome, SpanForest};
    use vpu_coprocessor::obs::SamplePolicy;
    let run = |sample: Option<SamplePolicy>| {
        let model = vpu_coprocessor::framework::ModelBundle::googlenet_untrained(
            vpu_coprocessor::nn::googlenet::Variant::Tiny,
            1,
        );
        let mut workers = FleetSpec::parse("cpu+2xvpu").unwrap().build(&model);
        // Overload the fleet against a tight SLO so the run produces
        // real anomalies (sheds and SLO violations) to retain.
        let cfg = ServeConfig { slo: Duration::from_millis(30.0), ..ServeConfig::default() };
        let load = ArrivalProcess::Poisson { rate_per_sec: 20000.0 };
        serve_observed(
            &mut workers,
            &cfg,
            &load,
            200,
            &ObsConfig { sample_every: Duration::from_millis(10.0), sample },
        )
    };
    let (full_out, full_obs) = run(None);
    let (out, obs) = run(Some(SamplePolicy::parse("1-in-20+top4").unwrap()));
    assert_eq!(fingerprint(&full_out), fingerprint(&out), "sampling must not perturb the run");
    assert!(full_obs.sample.is_none(), "an unsampled run must not carry a sampling ledger");
    let stats = obs.sample.clone().expect("a sampled run must carry the keep/drop ledger");
    assert_eq!(stats.spec, "1-in-20+top4");
    assert!(stats.requests_kept < stats.requests_seen, "1-in-20 must drop requests: {stats:?}");
    assert!(stats.events_kept < stats.events_seen, "dropping chains must drop events: {stats:?}");
    assert!(stats.reservoir > 0, "the top-K-slowest reservoir must keep something: {stats:?}");
    // Anomalies, judged from the FULL log, must all survive bit-for-bit.
    let slo = Duration::from_millis(30.0);
    let forest = SpanForest::build(&full_obs.events);
    let anomalous: Vec<u64> = forest
        .requests
        .values()
        .filter(|r| {
            matches!(r.outcome(), Outcome::Shed)
                || r.retries > 0
                || r.latency().is_some_and(|l| l.nanos() > slo.nanos())
        })
        .map(|r| r.id)
        .collect();
    assert!(!anomalous.is_empty(), "the overloaded run must produce anomalous requests");
    let full_chains = full_obs.events.group_by(|e| e.ctx.request_id);
    let kept_chains = obs.events.group_by(|e| e.ctx.request_id);
    for id in &anomalous {
        let kept_chain = kept_chains.get(id);
        assert!(kept_chain.is_some(), "anomalous request {id} was dropped by the sampler");
        assert_eq!(full_chains.get(id), kept_chain, "request {id} must keep its full chain");
    }
    // The thinned log still validates structurally.
    let json = vpu_coprocessor::obs::chrome_trace(&obs.events);
    let check = vpu_coprocessor::experiments::trace_check::validate(&json)
        .expect("sampled trace must validate");
    assert!(check.chained > 0);
}

#[test]
fn overhead_ledger_is_conserved_on_disk() {
    // The ledger's byte counts are exactly the artifact sizes, and
    // writing through a counting sink to a real file conserves them:
    // bytes counted == bytes on disk.
    use std::io::Write;
    use vpu_coprocessor::experiments::{serve_bench::traced_serve, Scale};
    use vpu_coprocessor::obs::CountingWrite;
    use vpu_coprocessor::serving::{DispatchPolicy, GrayConfig};
    let t = traced_serve(
        Scale::Tiny,
        Duration::from_millis(500.0),
        DispatchPolicy::CostAware,
        Duration::from_millis(10.0),
        None,
        GrayConfig::default(),
        None,
    );
    assert!(t.overhead.events_recorded > 0, "a traced run records events");
    assert_eq!(t.overhead.trace_bytes, t.chrome_json.len() as u64);
    assert_eq!(t.overhead.series_bytes, t.series_csv.len() as u64);
    assert!(t.overhead.peak_buffered_bytes > 0);
    assert!(t.overhead.peak_buffered_bytes < t.overhead.trace_bytes + t.overhead.series_bytes);
    let path = std::env::temp_dir().join("ncsw_obs_ledger_conservation.json");
    let mut counting = CountingWrite::new(std::fs::File::create(&path).unwrap());
    counting.write_all(t.chrome_json.as_bytes()).unwrap();
    counting.flush().unwrap();
    let written = counting.written();
    drop(counting);
    let on_disk = std::fs::metadata(&path).unwrap().len();
    std::fs::remove_file(&path).ok();
    assert_eq!(written, on_disk, "counted bytes must equal the file size on disk");
    assert_eq!(written, t.overhead.trace_bytes);
}
