//! Every deterministic `repro` output is pinned byte-for-byte: `repro
//! NAME --scale tiny --json` must print exactly `tests/pinned/NAME.json`,
//! and `repro all --scale tiny --json` must print the pins of the
//! experiments it runs, concatenated in its order. A change to any device
//! model, experiment or report shape shows up here, and the failure names
//! every output that drifted.
//!
//! Two fields are wall-clock measurements, machine noise, and are masked
//! by name on both sides: each `"wall": {...}` block (`bench-sim`'s cells)
//! and each `"ns_per_event"` value (`sample-sweep`'s points).

use std::process::Command;

/// The experiments `repro all` runs, in its order.
const ALL: &str = "fig6a fig6b fig7 fig8a fig8b anchors timeline ablation-accum ablation-usb \
    ablation-shave ablation-faults ablation-prefetch ablation-blob mdk-gemm layers zoo stream \
    power energy future-work serve failover autoscale bench-sim gray sample-sweep whatif";

/// The deterministic experiments `repro all` leaves out.
const NOT_IN_ALL: &str = "abdiff chaos";

/// `json` with every wall-clock value replaced by `"masked"`. Reports are
/// pretty-printed, so a `"wall": {` block holds only scalar lines and ends
/// at the first closing brace.
fn mask_wall_clock(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut in_wall = false;
    for line in json.lines() {
        let text = line.trim_start();
        let indent = &line[..line.len() - text.len()];
        let comma = if text.ends_with(',') { "," } else { "" };
        if in_wall {
            if text.starts_with('}') {
                in_wall = false;
                out += &format!("{indent}\"wall\": \"masked\"{comma}\n");
            }
        } else if text == "\"wall\": {" {
            in_wall = true;
        } else if text.starts_with("\"ns_per_event\": ") {
            out += &format!("{indent}\"ns_per_event\": \"masked\"{comma}\n");
        } else {
            out += line;
            out += "\n";
        }
    }
    out
}

fn repro_tiny_json(name: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([name, "--scale", "tiny", "--json"])
        .output()
        .expect("run repro");
    assert!(out.status.success(), "repro {name}: {}", String::from_utf8_lossy(&out.stderr));
    mask_wall_clock(&String::from_utf8(out.stdout).expect("utf-8 JSON"))
}

fn pinned(name: &str) -> String {
    let path = format!("{}/tests/pinned/{name}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// `None` when equal, else the first differing line of each side.
fn first_difference(got: &str, want: &str) -> Option<String> {
    if got == want {
        return None;
    }
    let n = got.lines().zip(want.lines()).take_while(|(g, w)| g == w).count();
    let (g, w) = (got.lines().nth(n), want.lines().nth(n));
    Some(format!("line {}: got {g:?}, pinned {w:?}", n + 1))
}

#[test]
fn every_tiny_json_output_is_pinned() {
    let drifted: Vec<String> = ALL
        .split_whitespace()
        .chain(NOT_IN_ALL.split_whitespace())
        .filter_map(|name| {
            let diff = first_difference(&repro_tiny_json(name), &pinned(name))?;
            Some(format!("repro {name} --scale tiny --json drifted at {diff}"))
        })
        .collect();
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

#[test]
fn all_prints_the_pinned_outputs_in_order() {
    let want: String = ALL.split_whitespace().map(pinned).collect();
    if let Some(diff) = first_difference(&repro_tiny_json("all"), &want) {
        panic!("repro all --scale tiny --json drifted at {diff}");
    }
}

#[test]
fn masking_touches_only_the_wall_clock_fields() {
    let json = "{\n  \"wall\": 12,\n  \"cells\": [\n    {\n      \"wall\": {\n        \"wall_ms\": 0.3\n      },\n      \"ns_per_event\": 181.2,\n      \"events\": 7\n    }\n  ]\n}\n";
    let want = "{\n  \"wall\": 12,\n  \"cells\": [\n    {\n      \"wall\": \"masked\",\n      \"ns_per_event\": \"masked\",\n      \"events\": 7\n    }\n  ]\n}\n";
    assert_eq!(mask_wall_clock(json), want);
}
