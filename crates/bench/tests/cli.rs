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
