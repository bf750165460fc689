//! Bad numeric flags and specs fail cleanly: one stderr line naming the
//! token, exit code 2, no panic.

use std::process::Command;

fn assert_rejected(args: &[&str], token: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: want one line, got {stderr}");
    assert!(stderr.contains(token), "{args:?}: error does not name '{token}': {stderr}");
}

#[test]
fn non_finite_or_non_positive_slo_is_rejected() {
    assert_rejected(&["serve", "--slo-ms", "nan"], "nan");
    assert_rejected(&["serve", "--slo-ms", "-5"], "-5");
}

#[test]
fn non_positive_sample_interval_is_rejected() {
    assert_rejected(&["serve", "--sample-ms", "0"], "0");
    // Below 1 us the interval rounds to a zero-ns step (1e-7) or
    // emits millions of rows per virtual second (1e-6).
    assert_rejected(&["serve", "--sample-ms", "1e-7"], "1e-7");
    assert_rejected(&["serve", "--sample-ms", "1e-6"], "1e-6");
    assert_rejected(&["serve", "--sample-ms", "0.0009"], "0.0009");
}

#[test]
fn whatif_factor_beyond_the_cap_is_rejected() {
    assert_rejected(&["whatif", "--factors", "1e308"], "1e308");
    assert_rejected(&["whatif", "--factors", "0.5,inf"], "0.5,inf");
}

#[test]
fn whatif_load_below_the_floor_is_rejected() {
    // Run time grows as 1/load: 1e-9 would never finish.
    assert_rejected(&["whatif", "--loads", "0.0009"], "0.0009");
    assert_rejected(&["whatif", "--loads", "0.85,1e-9"], "0.85,1e-9");
}

#[test]
fn non_finite_or_negative_gate_thresholds_are_rejected() {
    // The files need not exist: flags are checked before any is read.
    assert_rejected(&["diff", "b.json", "a.json", "--abs-ms", "nan"], "nan");
    assert_rejected(&["diff", "b.json", "a.json", "--abs-ms", "inf"], "inf");
    assert_rejected(&["diff", "b.json", "a.json", "--abs-ms", "-1"], "-1");
    assert_rejected(&["diff", "b.json", "a.json", "--rel-pct", "nan"], "nan");
    assert_rejected(&["diff", "b.json", "a.json", "--rel-pct", "-inf"], "-inf");
    assert_rejected(&["bench-diff", "base.json", "cand.json", "--tol-pct", "nan"], "nan");
    assert_rejected(&["bench-diff", "base.json", "cand.json", "--tol-pct", "-5"], "-5");
    assert_rejected(&["whatif", "--tol-pct", "inf"], "inf");
}

#[test]
fn non_finite_or_oversized_fault_durations_are_rejected() {
    assert_rejected(&["serve", "--faults", "unplug@1e308s"], "1e308s");
    assert_rejected(&["serve", "--faults", "unplug@NaNs"], "NaNs");
    assert_rejected(&["serve", "--faults", "failslow@0s:for@1e300s:slow@1e300"], "1e300s");
}

#[test]
fn unknown_names_and_counts_are_rejected_in_one_line() {
    assert_rejected(&["serve", "--scale", "huge"], "'huge'");
    assert_rejected(&["serve", "--policy", "bogus"], "'bogus'");
    assert_rejected(&["abdiff", "--baseline-policy", "bogus"], "'bogus'");
    assert_rejected(&["serve", "--sample", "bogus"], "\"bogus\"");
    assert_rejected(&["autoscale", "--ctrl", "bogus"], "'bogus'");
    assert_rejected(&["whatif", "--components", "exec,bogus"], "exec,bogus");
    assert_rejected(&["chaos", "--campaigns", "x"], "'x'");
    assert_rejected(&["chaos", "--seed", "x"], "'x'");
    // Zero campaigns would check nothing and still report a pass.
    assert_rejected(&["chaos", "--campaigns", "0"], "'0'");
}

#[test]
fn fig7_json_path_writes_the_file() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fig7a.json");
    let _ = std::fs::remove_file(&path);
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig7a", "--scale", "tiny", "--json"])
        .arg(&path)
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let written = std::fs::read_to_string(&path).expect("fig7a --json PATH writes PATH");
    let json: serde_json::Value = serde_json::from_str(&written).expect("valid JSON");
    assert!(json.get("cpu_fp32").is_some(), "not a Fig. 7 report: {written}");
}

#[test]
fn flags_the_experiment_does_not_read_are_rejected() {
    assert_rejected(&["fig6a", "--faults", "unplug@1s"], "fig6a does not read --faults");
    assert_rejected(&["layers", "--csv", "out"], "layers does not read --csv");
    assert_rejected(&["timeline", "--policy", "cost-aware"], "timeline does not read --policy");
}

#[test]
fn all_refuses_one_json_path_for_every_report() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("all.json");
    let _ = std::fs::remove_file(&path);
    let path = path.to_str().expect("utf-8 path");
    assert_rejected(&["all", "--scale", "tiny", "--json", path], path);
    assert!(!std::path::Path::new(path).exists(), "all --json PATH wrote {path}");
}

#[test]
fn a_truncated_trace_fails_in_one_line() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("truncated.trace.json");
    std::fs::write(&path, r#"{"traceEvents": [{"ph": "X", "ts": 1"#).expect("write trace");
    let path = path.to_str().expect("utf-8 path");
    for args in [&["validate-trace", path][..], &["analyze", path], &["explain", path, "3"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: want one line, got {stderr}");
        assert!(stderr.contains("not valid JSON: unexpected end"), "{args:?}: {stderr}");
        assert!(!stderr.contains("Error {"), "{args:?} printed a Debug error: {stderr}");
    }
}

#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    // The reader goes away before the first line is written, as
    // `repro ... | head -1` does after its line.
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["layers", "--json"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run repro");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "a closed pipe printed: {stderr}");
}

#[test]
fn a_failing_stdout_is_one_error_line() {
    let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") else { return };
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["layers"])
        .stdout(full)
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "want one line, got {stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn validate_trace_json_writes_the_check() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let (trace, report) = (dir.join("check.trace.json"), dir.join("check.json"));
    let _ = std::fs::remove_file(&report);
    let repro = |args: &[&std::ffi::OsStr]| {
        let out = Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("run");
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    };
    let os = std::ffi::OsStr::new;
    repro(&[os("serve"), os("--scale"), os("tiny"), os("--trace"), trace.as_os_str()]);
    // --json PATH writes the check and keeps the text line.
    let text = repro(&[os("validate-trace"), trace.as_os_str(), os("--json"), report.as_os_str()]);
    assert!(text.contains(": ok — "), "{text}");
    let written = std::fs::read_to_string(&report).expect("--json PATH writes PATH");
    let json: serde_json::Value = serde_json::from_str(&written).expect("valid JSON");
    let events = json.get("events").and_then(|v| match v {
        serde_json::Value::U64(n) => Some(*n),
        _ => None,
    });
    assert!(events.is_some_and(|n| n > 0), "no event count: {written}");
    assert_eq!(json.get("sampling"), Some(&serde_json::Value::Null), "{written}");
    // --json alone prints the same JSON and nothing else.
    let printed = repro(&[os("validate-trace"), trace.as_os_str(), os("--json")]);
    assert_eq!(printed, written);
}

#[test]
fn bench_diff_refuses_a_json_file_that_is_not_a_bench_sim_as_bad_data() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let doc = dir.join("not_bench_sim.json");
    std::fs::write(&doc, r#"{"cells": 3}"#).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bench-diff")
        .args([&doc, &doc])
        .output()
        .expect("run repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "want one line, got {stderr}");
    assert!(stderr.contains("not a BENCH_sim.json"), "{stderr}");
}
