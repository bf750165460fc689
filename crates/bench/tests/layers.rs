//! `repro layers --json` (E10, the per-layer GoogLeNet profile) is pinned
//! byte-for-byte: any change to the Myriad 2 timing model, or to how a
//! run's per-layer schedule is recorded and read back, shows up here.

use std::process::Command;

#[test]
fn layers_json_is_pinned() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["layers", "--json"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = String::from_utf8(out.stdout).expect("utf-8 JSON");
    assert!(got == include_str!("layers.json"), "repro layers --json drifted:\n{got}");
}
