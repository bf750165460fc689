//! Online serving on the simulated fleet: steady Poisson traffic and a
//! bursty MMPP storm against three fleet shapes, comparing how the
//! dispatch policies hold the p99 under each — then the E20 closed
//! loop: an elastic `8*vpu` stick fleet under the autoscaling
//! controller, reclaiming the idle headroom a static fleet pays for —
//! the E21 self-observability report: what watching the run costs in
//! wall time, recorder nanoseconds and exporter bytes — and the E22
//! gray-failure drill: a stick silently slows 6x and the hedging +
//! quarantine defenses claw the p99 back, pricing the hedges in joules
//! — and the E23 tail sampler: the same observed run kept at 1-in-20,
//! every anomalous chain intact, with one request's causal timeline
//! explained from the thinned trace — and the E24 what-if ranking:
//! which component a 2x speed-up would actually buy p99 from,
//! predicted from the recorded attribution alone.
//!
//! ```text
//! cargo run --release --example online_serving
//! ```

use vpu_coprocessor::framework::ModelBundle;
use vpu_coprocessor::nn::googlenet::Variant;
use vpu_coprocessor::serving::{
    serve, serve_autoscaled, ArrivalProcess, DispatchPolicy, FleetSpec, ScalingConfig, ServeConfig,
    ServeReport,
};
use vpu_coprocessor::sim::Duration;

fn main() {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let n = 400;

    // Steady traffic near the mixed fleet's comfort zone, and a bursty
    // storm with the same mean rate.
    let steady = ArrivalProcess::Poisson { rate_per_sec: 120.0 };
    let bursty = ArrivalProcess::Mmpp {
        rate_lo_per_sec: 40.0,
        rate_hi_per_sec: 200.0,
        mean_dwell: Duration::from_millis(250.0),
    };

    println!("{n} requests per cell, p99 SLO 500 ms, fleet cpu+gpu+8xvpu\n");
    println!(
        "{:<18} {:>8} {:>8} {:>9} {:>7}  traffic",
        "policy", "p50 ms", "p99 ms", "goodput", "shed%"
    );
    for (label, load) in [("steady", &steady), ("bursty", &bursty)] {
        for policy in [
            DispatchPolicy::RoundRobin,
            DispatchPolicy::LeastOutstanding,
            DispatchPolicy::CostAware,
        ] {
            let cfg = ServeConfig { policy, ..ServeConfig::default() };
            let mut workers = FleetSpec::parse("cpu+gpu+8xvpu").unwrap().build(&model);
            let outcome = serve(&mut workers, &cfg, load, n);
            let r = ServeReport::of(&outcome, &cfg);
            println!(
                "{:<18} {:>8.1} {:>8.1} {:>9.1} {:>7.1}  {}",
                policy.name(),
                r.latency.p50_ms,
                r.latency.p99_ms,
                r.goodput_rps,
                r.shed_rate * 100.0,
                label
            );
        }
    }

    // Fleet shapes under the same steady load: the host devices absorb
    // what a small VPU fleet cannot — but headroom has an energy price.
    // img/W here is completions over *integrated* island energy (busy +
    // gated draw), next to the paper's Eq. 1 nameplate-TDP accounting.
    println!("\ncost-aware dispatch, steady 120 req/s, per fleet:");
    println!(
        "{:<16} {:>8} {:>8} {:>9} {:>7} {:>8} {:>9} {:>8} {:>7}",
        "fleet", "p50 ms", "p99 ms", "goodput", "shed%", "J/inf", "img/W", "Eq.1", "idle%"
    );
    for fleet in ["8xvpu", "cpu+gpu", "cpu+gpu+8xvpu"] {
        let cfg = ServeConfig { policy: DispatchPolicy::CostAware, ..ServeConfig::default() };
        let mut workers = FleetSpec::parse(fleet).unwrap().build(&model);
        let outcome = serve(&mut workers, &cfg, &steady, n);
        let r = ServeReport::of(&outcome, &cfg);
        let e = &r.energy;
        let idle_pct = if e.fleet_j > 0.0 { e.idle_j / e.fleet_j * 100.0 } else { 0.0 };
        println!(
            "{:<16} {:>8.1} {:>8.1} {:>9.1} {:>7.1} {:>8.3} {:>9.2} {:>8.2} {:>7.1}",
            fleet,
            r.latency.p50_ms,
            r.latency.p99_ms,
            r.goodput_rps,
            r.shed_rate * 100.0,
            e.j_per_inference,
            e.img_per_watt,
            e.img_per_watt_tdp,
            idle_pct
        );
    }

    // E20: close the loop on that idle price. Eight independent VPU
    // sticks (`8*vpu` — the elastic unit, unlike the `8xvpu` pipeline)
    // at 20% load, with each `ncsw-ctrl` policy draining and
    // power-gating the sticks the load does not need. `J reclaimed` is
    // the exact idle energy the gated windows avoided; `Δ attain` is
    // what that costs in SLO attainment against the static fleet.
    let spec = FleetSpec::parse("8*vpu").unwrap();
    let probe = spec.build(&model);
    let capacity = spec.capacity_rps(&probe);
    let max_batch = spec.preferred_batch(&probe);
    drop(probe);
    let cfg = ServeConfig { max_batch, ..ServeConfig::default() };
    let scaling = ScalingConfig { elastic: spec.elastic_workers(), ..ScalingConfig::default() };
    let low = ArrivalProcess::Poisson { rate_per_sec: capacity * 0.2 };

    let attain = |o: &vpu_coprocessor::serving::ServeOutcome| {
        let good = o.completed.iter().filter(|r| r.latency() <= cfg.slo).count();
        good as f64 / o.generated.max(1) as f64 * 100.0
    };
    let mut workers = spec.build(&model);
    let stat = serve(&mut workers, &cfg, &low, n);
    let stat_report = ServeReport::of(&stat, &cfg);
    let horizon_s = (stat.energy_horizon() - stat.epoch).as_secs();
    println!("\nE20 autoscaling, fleet 8*vpu at 0.2x nameplate ({:.1} req/s):", capacity * 0.2);
    println!(
        "{:<12} {:>9} {:>9} {:>9} {:>10} {:>6} {:>6}",
        "policy", "attain%", "stick·s", "fleet J", "reclaim J", "ups", "downs"
    );
    println!(
        "{:<12} {:>9.2} {:>9.1} {:>9.3} {:>10.3} {:>6} {:>6}",
        "static",
        attain(&stat),
        stat.workers.len() as f64 * horizon_s,
        stat_report.energy.fleet_j,
        0.0,
        0,
        0
    );
    for name in vpu_coprocessor::ctrl::POLICY_NAMES {
        let mut policy = vpu_coprocessor::ctrl::policy(name).unwrap();
        let mut workers = spec.build(&model);
        let outcome = serve_autoscaled(&mut workers, &cfg, &low, n, &scaling, policy.as_mut());
        let r = ServeReport::of(&outcome, &cfg);
        let s = r.scaling.as_ref().unwrap();
        println!(
            "{:<12} {:>9.2} {:>9.1} {:>9.3} {:>10.3} {:>6} {:>6}  Δ attain {:+.2} pts",
            name,
            attain(&outcome),
            s.stick_seconds,
            r.energy.fleet_j,
            s.reclaimed_j,
            s.scale_ups,
            s.scale_downs,
            attain(&outcome) - attain(&stat)
        );
    }

    // E21: what does watching all of this cost? Profile one observed
    // run on the mixed fleet — the wall-clock profiler times the event
    // loop and the exporters while the virtual clock drives the
    // simulation, and the overhead ledger prices the recorder path.
    use vpu_coprocessor::obs::{chrome_trace_to, prof, OverheadLedger, Throughput};
    use vpu_coprocessor::serving::{serve_observed, ObsConfig};
    let mut workers = FleetSpec::parse("cpu+gpu+8xvpu").unwrap().build(&model);
    let cfg = ServeConfig::default();
    prof::start();
    let wall = std::time::Instant::now();
    let (outcome, obs) = serve_observed(
        &mut workers,
        &cfg,
        &steady,
        n,
        &ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() },
    );
    let mut trace = Vec::new();
    let trace_stats = chrome_trace_to(&obs.events, &mut trace).unwrap();
    let mut csv = Vec::new();
    let series_stats = obs.series.csv_to(&mut csv).unwrap();
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let report = prof::stop();
    let throughput = Throughput {
        sim_events: outcome.sim_events,
        requests: outcome.generated as u64,
        virtual_ns: outcome.energy_horizon().since(outcome.epoch).nanos(),
        wall_ns,
    };
    let ledger = OverheadLedger {
        events_recorded: obs.events.len() as u64,
        trace_bytes: trace_stats.bytes,
        series_bytes: series_stats.bytes,
        peak_buffered_bytes: trace_stats.peak_buffered.max(series_stats.peak_buffered),
        recorder_ns: report.counter(prof::RECORDER_NS),
    };
    println!("\nE21 self-observability, one observed run on cpu+gpu+8xvpu:");
    println!("  {}", throughput.render());
    println!("  {}", ledger.render());

    // E22: gray failures. One stick silently slows 6x mid-run — no
    // error, so the circuit breaker never trips — then the same run
    // with the defenses on: hedged dispatch duplicates the slow
    // batches (losers billed as wasted joules) and the quarantine
    // pulls the sick stick from the pool.
    use vpu_coprocessor::faults::{FaultEvent, FaultPlan};
    use vpu_coprocessor::serving::GrayConfig;
    let spec = FleetSpec::parse("vpu+vpu+vpu+vpu").unwrap();
    let probe = spec.build(&model);
    let rate = spec.capacity_rps(&probe) * 0.7;
    let gray_batch = spec.preferred_batch(&probe);
    drop(probe);
    let gray_n = 200; // the E22 bench shape
    let horizon = gray_n as f64 / rate;
    let mut plan = FaultPlan::empty();
    plan.push(
        Some(0),
        FaultEvent::FailSlow {
            at: Duration::from_secs(horizon * 0.15),
            duration: Duration::from_secs(horizon * 0.60),
            factor: 6.0,
        },
    );
    let gray_load = ArrivalProcess::Poisson { rate_per_sec: rate };
    println!("\nE22 gray failure: one of four sticks silently 6x slower for 60% of the run:");
    for (arm, gray) in
        [("defenseless", GrayConfig::default()), ("defended", GrayConfig::defended())]
    {
        let cfg = ServeConfig { max_batch: gray_batch, gray, ..ServeConfig::default() };
        let mut workers = plan.apply(spec.build(&model), cfg.seed);
        let outcome = serve(&mut workers, &cfg, &gray_load, gray_n);
        let r = ServeReport::of(&outcome, &cfg);
        println!(
            "  {:<12} p99 {:>6.1} ms   hedges {:>2} (won {})   quarantines {}   wasted {:.4} J",
            arm,
            r.latency.p99_ms,
            outcome.gray.hedges,
            outcome.gray.hedge_wins,
            outcome.gray.quarantines,
            outcome.gray.hedge_wasted_pj as f64 * 1e-12,
        );
    }

    // E23: observability that scales. Rerun the observed cell with the
    // tail sampler: each request's span chain buffers until its
    // terminal event, anomalies (SLO violations, sheds, retries,
    // hedges...) are always kept in full, a top-K reservoir keeps the
    // latency tail, and a seeded 1-in-N hash keeps a happy-path slice.
    // Sampling is passive — the serving outcome never moves — it only
    // decides which chains survive into the exported trace.
    use vpu_coprocessor::analyze::SpanForest;
    use vpu_coprocessor::obs::{chrome_trace, SamplePolicy};
    let observed = |sample: Option<SamplePolicy>| {
        let mut workers = FleetSpec::parse("cpu+gpu+8xvpu").unwrap().build(&model);
        serve_observed(
            &mut workers,
            &cfg,
            &steady,
            n,
            &ObsConfig { sample_every: Duration::from_millis(10.0), sample },
        )
    };
    let (_, full) = observed(None);
    let (_, thinned) = observed(Some(SamplePolicy::parse("1-in-20+top8").unwrap()));
    let stats = thinned.sample.clone().expect("sampled run carries its keep/drop ledger");
    let full_bytes = chrome_trace(&full.events).len();
    let thin_bytes = chrome_trace(&thinned.events).len();
    println!("\nE23 tail sampling, the same observed run at 1-in-20+top8:");
    println!("  {}", stats.render());
    println!(
        "  trace {full_bytes} B -> {thin_bytes} B ({:.1}x smaller), outcome untouched",
        full_bytes as f64 / thin_bytes as f64
    );

    // One kept request, explained from the *thinned* trace: the phase
    // timeline and the nine-segment latency attribution survive intact
    // for every chain the sampler kept — here, the slowest request in
    // the run (reservoir-kept, so always present).
    let forest = SpanForest::build(&thinned.events);
    let slowest = forest
        .requests
        .values()
        .filter_map(|r| r.latency().map(|l| (l.nanos(), r.id)))
        .max()
        .map(|(_, id)| id)
        .expect("the reservoir keeps the latency tail");
    println!();
    match vpu_coprocessor::analyze::explain_request(&thinned.events, slowest) {
        Ok(text) => print!("{text}"),
        Err(e) => println!("explain failed: {e}"),
    }

    // E24: the counterfactual question — which component is *worth*
    // speeding up? The what-if engine virtually scales one component's
    // segment inside the recorded attribution (queue-blind, no
    // re-simulation) and ranks components by predicted p99 gain at
    // f = 0.5. `repro whatif` validates exactly these predictions
    // against re-simulations with the service model actually scaled,
    // and classifies every disagreement (queueing, batch-shift, ...).
    use vpu_coprocessor::analyze::{rank, Analysis};
    let analysis = Analysis::of(&full.events);
    println!("\nE24 what-if ranking, every component virtually 2x faster (from the trace alone):");
    println!(
        "  {:<11} {:>8} {:>6} {:>13} {:>13} {:>9}",
        "component", "affected", "seg%", "base p99 ms", "pred p99 ms", "gain ms"
    );
    for p in rank(&analysis, 0.5) {
        println!(
            "  {:<11} {:>8} {:>6.1} {:>13.1} {:>13.1} {:>9.1}",
            p.component,
            p.affected,
            p.seg_share * 100.0,
            p.base.p99_ms,
            p.predicted.p99_ms,
            p.p99_gain_ms()
        );
    }
}
