//! Benchmarks of the simulation machinery itself: how fast the virtual
//! testbed runs. One simulated GoogLeNet inference should cost
//! microseconds of host time, so paper-scale sweeps (5 × 10 000 images)
//! finish in seconds.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration as StdDuration;

/// Short sampling profile: the harness runs on small CI machines and the
/// benches exist to catch regressions, not to hunt microseconds.
fn short() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(StdDuration::from_millis(300))
        .measurement_time(StdDuration::from_secs(2))
}
use desim::{Duration, FifoResource, ServerPool, SimTime};
use myriad2::{Myriad2, Myriad2Config};
use ncsw::multivpu::{MultiVpu, MultiVpuConfig};
use ncsw::ModelBundle;
use std::sync::Arc;
use vpu_nn::cost::NetworkCost;
use vpu_nn::googlenet::Variant;
use vpu_num::f16;

fn bench_resources(c: &mut Criterion) {
    c.bench_function("fifo-resource/acquire-1k", |b| {
        b.iter(|| {
            let mut r = FifoResource::new("bench");
            for i in 0..1000u64 {
                black_box(r.acquire(SimTime(i), Duration(10)));
            }
        });
    });
    c.bench_function("server-pool/fork-join-12x100", |b| {
        b.iter(|| {
            let mut p = ServerPool::new("shaves", 12);
            for _ in 0..100 {
                black_box(p.acquire_parallel(SimTime::ZERO, Duration(1200), 12));
            }
        });
    });
    // The chip's case: each layer's fork-join starts once the previous
    // one has drained the pool.
    c.bench_function("server-pool/fork-join-idle-12x100", |b| {
        b.iter(|| {
            let mut p = ServerPool::new("shaves", 12);
            let mut ready = SimTime::ZERO;
            for _ in 0..100 {
                ready = black_box(p.acquire_parallel(ready, Duration(1200), 12)).end;
            }
        });
    });
}

fn bench_chip(c: &mut Criterion) {
    let cost = Arc::new(NetworkCost::of::<f16>(&vpu_nn::googlenet::full()));
    let mut g = c.benchmark_group("myriad2");
    g.throughput(Throughput::Elements(1));
    // A fresh chip has no record of the graph, so it walks every layer.
    g.bench_function("run_cost/walk", |b| {
        b.iter_with_setup(
            || Myriad2::new(Myriad2Config::default()),
            |mut chip| black_box(chip.run_cost(&cost, SimTime::ZERO)),
        );
    });
    // A chip that has run the graph once replays the recorded walk.
    g.bench_function("run_cost/replay", |b| {
        let mut chip = Myriad2::new(Myriad2Config::default());
        chip.run_cost(&cost, SimTime::ZERO);
        b.iter(|| black_box(chip.run_cost(&cost, SimTime::ZERO)));
    });
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let model = ModelBundle::googlenet_untrained(Variant::Full, 1);
    let mut g = c.benchmark_group("multi-vpu-pipeline");
    for &devices in &[1usize, 4, 8] {
        g.throughput(Throughput::Elements((devices * 4) as u64));
        g.bench_with_input(
            BenchmarkId::new("simulate-inferences", devices),
            &devices,
            |b, &devices| {
                b.iter_with_setup(
                    || MultiVpu::new(MultiVpuConfig::paper_testbed(devices), &model),
                    |mut mv| black_box(mv.run_pipeline(devices * 4)),
                );
            },
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_resources, bench_chip, bench_pipeline
}
criterion_main!(benches);
