//! One fully observed serving run: follow single requests through the
//! Arrive→…→Complete phase chain, print the metric registry, and write
//! a Perfetto-loadable Chrome trace plus the sampled time series.
//!
//! ```text
//! cargo run --release --example observed_serving
//! ```
//!
//! Then open `observed_serving_trace.json` at <https://ui.perfetto.dev>.

use vpu_coprocessor::framework::ModelBundle;
use vpu_coprocessor::nn::googlenet::Variant;
use vpu_coprocessor::obs::{chrome_trace, request_chain, Phase};
use vpu_coprocessor::serving::{
    serve_observed, ArrivalProcess, FleetSpec, ObsConfig, ServeConfig, ServeReport,
};
use vpu_coprocessor::sim::Duration;

fn main() {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let mut workers = FleetSpec::parse("cpu+gpu+4xvpu").unwrap().build(&model);
    let cfg = ServeConfig::default();
    let load = ArrivalProcess::Poisson { rate_per_sec: 120.0 };

    let (outcome, obs) = serve_observed(
        &mut workers,
        &cfg,
        &load,
        400,
        &ObsConfig { sample_every: Duration::from_millis(10.0), ..ObsConfig::default() },
    );
    let report = ServeReport::of(&outcome, &cfg);

    // The metric registry: counters, gauges, latency histograms.
    print!("{}", obs.registry.summary());

    // Follow the first request that ran on the VPU worker: every phase
    // of its life, stamped on the virtual clock.
    let by_request = obs.events.group_by(|e| e.ctx.request_id);
    let chained =
        outcome.completed.iter().find_map(|r| Some((r.id, request_chain(by_request.get(&r.id)?)?)));
    if let Some((id, chain)) = chained {
        println!("\nrequest {id} phase chain:");
        for (phase, at) in &chain {
            println!("  {:>10}  t={:9.3} ms", phase.name(), at.as_millis());
        }
        assert_eq!(chain.len(), Phase::REQUEST_CHAIN.len());
    }

    println!(
        "\ncompleted {} / shed {}  p99 {:.1} ms  goodput {:.1} req/s",
        report.completed, report.shed, report.latency.p99_ms, report.goodput_rps
    );

    std::fs::write("observed_serving_trace.json", chrome_trace(&obs.events)).unwrap();
    std::fs::write("observed_serving_series.csv", obs.series.csv()).unwrap();
    println!("wrote observed_serving_trace.json (load at ui.perfetto.dev)");
    println!("wrote observed_serving_series.csv");
}
