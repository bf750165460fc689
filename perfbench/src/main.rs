//! One repetition of one benchmark workload.
//!
//! ```text
//! perfbench --workload <long-run|sweep|observe-analyze|accuracy> --seed N
//!           [--trace 0|1] [--spans PATH]
//! ```
//!
//! Runs the workload once in this process and prints one JSON line:
//! host wall and set-up time, its split marks, items processed, peak
//! RSS, the output digest and check, and the per-layer metrics. With
//! `--trace 1` the layer calls are timed as spans (and written to
//! `--spans` as a Chrome trace); without it, only the exact counters are
//! reported. `run.py` repeats this process and aggregates the
//! repetitions.

mod decor;
mod digest;
mod marks;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::{Span, Summary};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N [--trace 0|1] [--spans PATH]",
        workloads::NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut traced, mut spans_path) = (None, None, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad seed '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => traced = false,
                "1" => traced = true,
                _ => return usage(&format!("bad --trace '{value}'")),
            },
            "--spans" => spans_path = Some(value.clone()),
            _ => return usage(&format!("unknown flag '{flag}'")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };

    if traced {
        trace::start();
    }
    let Some(run) = workloads::run(&workload, seed) else {
        return usage(&format!("unknown workload '{workload}'"));
    };
    let spans = trace::finish();
    let peak_rss_mb = workloads::peak_rss_mb();

    let mut layers = run.counters;
    if traced {
        span_metrics(&spans, run.wall_s, &mut layers);
        if let Some(path) = spans_path {
            let label = format!("perfbench {workload} seed {seed}");
            let written = std::fs::File::create(&path)
                .and_then(|f| trace::write_chrome(&spans, std::process::id().into(), &label, f));
            if let Err(e) = written {
                eprintln!("perfbench: cannot write {path}: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let mut out = String::from("{");
    field(&mut out, "workload", &json_str(&workload));
    field(&mut out, "seed", &seed.to_string());
    field(&mut out, "traced", &traced.to_string());
    field(&mut out, "ok", &run.check.is_ok().to_string());
    field(&mut out, "error", &json_str(run.check.as_ref().err().map_or("", |e| e.as_str())));
    field(&mut out, "digest", &json_str(&run.digest.hex()));
    field(&mut out, "items", &run.items.to_string());
    field(&mut out, "wall_s", &num(run.wall_s));
    field(&mut out, "setup_s", &num(run.setup_s));
    field(&mut out, "peak_rss_mb", &num(peak_rss_mb));
    let marks: Vec<String> = run.marks.iter().map(|m| num(*m)).collect();
    field(&mut out, "marks", &format!("[{}]", marks.join(",")));
    field(&mut out, "setup_marks", &run.setup_marks.to_string());
    let layers: Vec<String> =
        layers.iter().map(|(k, v)| format!("{}:{}", json_str(k), num(*v))).collect();
    out.push_str(&format!("\"layers\":{{{}}}}}", layers.join(",")));
    println!("{out}");
    if run.check.is_ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Per-layer metrics derived from the spans of a traced run.
fn span_metrics(spans: &[Span], wall_s: f64, m: &mut BTreeMap<&'static str, f64>) {
    let sum = Summary::of(spans);
    let secs = |name: &str| sum.get(name).self_ns as f64 / 1e9;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let counter = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);

    for (metric, span) in [
        ("setup.model_build_s", "setup.model_build"),
        ("setup.fleet_build_s", "setup.fleet_build"),
        ("setup.calibrate_s", "setup.calibrate"),
        ("device.vpu_s", "device.vpu"),
        ("device.host_s", "device.host"),
        ("faults.self_s", "faults"),
        ("serve.self_s", "serve"),
        ("ctrl.decide_s", "ctrl.decide"),
        ("report.s", "report"),
        ("obs.export_chrome_s", "obs.export_chrome"),
        ("obs.export_series_s", "obs.export_series"),
        ("analyze.parse_s", "analyze.parse"),
        ("analyze.attribute_s", "analyze.attribute"),
        ("analyze.whatif_s", "analyze.whatif"),
        ("kernels.fp32_s", "kernels.fp32"),
        ("kernels.fp16_s", "kernels.fp16"),
    ] {
        m.insert(metric, secs(span));
    }
    let (vpu, host) = (sum.get("device.vpu"), sum.get("device.host"));
    m.insert("device.calls", (vpu.calls + host.calls) as f64);
    m.insert("device.vpu_images", vpu.items as f64);
    m.insert("device.vpu_us_per_image", ratio(vpu.ns as f64 / 1e3, vpu.items as f64));
    m.insert("device.vpu_growth", trace::growth(spans, "device.vpu"));
    let serve_ns = sum.get("serve").self_ns as f64;
    m.insert("serve.self_ns_per_event", ratio(serve_ns, counter(m, "sim_events")));
    m.insert(
        "analyze.parse_mb_per_s",
        ratio(counter(m, "obs.trace_bytes") / 1e6, secs("analyze.parse")),
    );
    let fp16 = sum.get("kernels.fp16");
    m.insert("kernels.fp16_us_per_image", ratio(fp16.ns as f64 / 1e3, fp16.items as f64));
    m.insert(
        "kernels.fp16_gmac_per_s",
        ratio(counter(m, "kernels.macs_per_image") * fp16.items as f64 / 1e9, secs("kernels.fp16")),
    );
    m.insert("kernels.fp16_over_fp32", ratio(secs("kernels.fp16"), secs("kernels.fp32")));
    m.insert("trace.residual_s", wall_s - sum.top_level_ns as f64 / 1e9);
    m.insert("trace.spans", spans.len() as f64);
}

fn field(out: &mut String, key: &str, value: &str) {
    out.push_str(&format!("{}:{value},", json_str(key)));
}

/// A finite number as JSON (non-finite values, which no metric should
/// produce, become 0).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
