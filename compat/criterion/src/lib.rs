//! Offline stand-in for `criterion`.
//!
//! Provides the API subset the workspace's benches use — `Criterion`,
//! `BenchmarkGroup`, `BenchmarkId`, `Throughput`, `black_box`, and the
//! `criterion_group!` / `criterion_main!` macros — with a simple wall-clock
//! measurement loop (median-free: warm-up, then `sample_size` timed batches,
//! report mean per iteration and derived throughput). No plots, no stats
//! engine; the benches exist to catch regressions, and this keeps them
//! runnable without a registry. As in criterion, the first argument that
//! is not a flag (`cargo bench --bench NAME -- FILTER`) is a substring
//! filter: only benchmarks whose label contains it run.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level harness configuration and entry point.
pub struct Criterion {
    sample_size: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    /// Substring a label must contain to run (`None` runs every one).
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 100,
            warm_up_time: Duration::from_secs(3),
            measurement_time: Duration::from_secs(5),
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up_time = d;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement_time = d;
        self
    }

    pub fn bench_function<S: Into<String>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        run_one(self, &id.into(), None, &mut f);
        self
    }

    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup { criterion: self, name: name.into(), throughput: None }
    }
}

/// Group of related benchmarks sharing a name prefix and throughput unit.
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn bench_function<S: Display, F: FnMut(&mut Bencher)>(
        &mut self,
        id: S,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion, &label, self.throughput, &mut f);
        self
    }

    pub fn bench_with_input<S: Display, I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: S,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let label = format!("{}/{}", self.name, id);
        run_one(self.criterion, &label, self.throughput, &mut |b| f(b, input));
        self
    }

    pub fn finish(self) {}
}

/// Identifier combining a function name and a parameter value.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    pub fn new<S: Display, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId { label: format!("{function_name}/{parameter}") }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label)
    }
}

/// Throughput unit used to derive a rate from the mean iteration time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    Elements(u64),
    Bytes(u64),
}

/// Passed to the closure; `iter` runs the workload under timing.
pub struct Bencher {
    /// Accumulated (iterations, elapsed) of the measurement phase.
    samples: Vec<(u64, Duration)>,
    iters_per_sample: u64,
    warming: bool,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters_per_sample {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if !self.warming {
            self.samples.push((self.iters_per_sample, elapsed));
        }
    }

    pub fn iter_with_setup<S, O, Setup: FnMut() -> S, F: FnMut(S) -> O>(
        &mut self,
        mut setup: Setup,
        mut f: F,
    ) {
        let mut total = Duration::ZERO;
        for _ in 0..self.iters_per_sample {
            let state = setup();
            let start = Instant::now();
            black_box(f(state));
            total += start.elapsed();
        }
        if !self.warming {
            self.samples.push((self.iters_per_sample, total));
        }
    }
}

fn run_one(
    c: &Criterion,
    label: &str,
    throughput: Option<Throughput>,
    f: &mut dyn FnMut(&mut Bencher),
) {
    if c.filter.as_ref().is_some_and(|filter| !label.contains(filter.as_str())) {
        return;
    }
    // Warm-up: run single-iteration batches until the budget is spent, and
    // estimate the per-iteration cost to size measurement batches.
    let warm_start = Instant::now();
    let mut warm_iters: u64 = 0;
    let mut bencher = Bencher { samples: Vec::new(), iters_per_sample: 1, warming: true };
    while warm_start.elapsed() < c.warm_up_time && warm_iters < 1_000_000 {
        f(&mut bencher);
        warm_iters += 1;
        if warm_iters >= 3 && warm_start.elapsed() >= c.warm_up_time / 2 {
            break;
        }
    }
    let per_iter = warm_start.elapsed().checked_div(warm_iters.max(1) as u32).unwrap_or_default();

    // Size each sample so the whole measurement fits the time budget.
    let budget_per_sample =
        c.measurement_time.checked_div(c.sample_size as u32).unwrap_or_default();
    let iters = if per_iter.is_zero() {
        1000
    } else {
        (budget_per_sample.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, 1_000_000) as u64
    };

    bencher.warming = false;
    bencher.iters_per_sample = iters;
    for _ in 0..c.sample_size {
        f(&mut bencher);
    }

    let (total_iters, total_time) =
        bencher.samples.iter().fold((0u64, Duration::ZERO), |(i, t), &(si, st)| (i + si, t + st));
    let mean_ns = total_time.as_nanos() as f64 / total_iters.max(1) as f64;
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!("  {:>12.1} elem/s", n as f64 * 1e9 / mean_ns),
        Throughput::Bytes(n) => {
            format!("  {:>12.1} MiB/s", n as f64 * 1e9 / mean_ns / (1 << 20) as f64)
        }
    });
    println!(
        "bench {label:<48} {:>12.1} ns/iter ({} samples x {} iters){}",
        mean_ns,
        bencher.samples.len(),
        iters,
        rate.unwrap_or_default()
    );
}

/// `criterion_group!` — both the `name/config/targets` and positional forms.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(name = $name; config = $crate::Criterion::default(); targets = $($target),+);
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_quickly() {
        let mut c = Criterion::default()
            .sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut g = c.benchmark_group("grouped");
        g.throughput(Throughput::Elements(10));
        g.bench_with_input(BenchmarkId::new("with-input", 4), &4u32, |b, &x| b.iter(|| x * 2));
        g.finish();
    }

    #[test]
    fn only_labels_containing_the_filter_run() {
        let mut c = Criterion::default()
            .sample_size(1)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(1));
        c.filter = Some("normals".into());
        let mut ran = Vec::new();
        c.bench_function("gemm", |b| {
            ran.push("gemm");
            b.iter(|| 1)
        });
        let mut g = c.benchmark_group("normals");
        g.bench_function("fill", |b| {
            ran.push("normals/fill");
            b.iter(|| 1)
        });
        g.finish();
        assert!(!ran.is_empty() && ran.iter().all(|&l| l == "normals/fill"), "{ran:?}");
    }
}
