//! The host-timing figures are pinned byte-for-byte: `repro {fig6a,
//! fig6b,fig8a,fig8b,anchors,future-work,power} --scale tiny --json`
//! must print exactly the committed JSON. Any change to the host device
//! model (peak rate, efficiency, overhead, jitter stream, TDP) or to how
//! a figure reads it shows up here.

use std::process::Command;

fn assert_pinned(experiment: &str, pinned: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([experiment, "--scale", "tiny", "--json"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8 JSON");
    assert!(got == pinned, "repro {experiment} --scale tiny --json drifted:\n{got}");
}

#[test]
fn fig6a_json_is_pinned() {
    assert_pinned("fig6a", include_str!("host_figures/fig6a.json"));
}

#[test]
fn fig6b_json_is_pinned() {
    assert_pinned("fig6b", include_str!("host_figures/fig6b.json"));
}

#[test]
fn fig8a_json_is_pinned() {
    assert_pinned("fig8a", include_str!("host_figures/fig8a.json"));
}

#[test]
fn fig8b_json_is_pinned() {
    assert_pinned("fig8b", include_str!("host_figures/fig8b.json"));
}

#[test]
fn anchors_json_is_pinned() {
    assert_pinned("anchors", include_str!("host_figures/anchors.json"));
}

#[test]
fn future_work_json_is_pinned() {
    assert_pinned("future-work", include_str!("host_figures/future-work.json"));
}

#[test]
fn power_json_is_pinned() {
    assert_pinned("power", include_str!("host_figures/power.json"));
}
