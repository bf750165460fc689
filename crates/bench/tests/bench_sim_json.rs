//! Never-panic and round-trip laws for `BENCH_sim.json` loading.
//!
//! A generated [`SimBench`] prints and parses back to itself. A mutated
//! document is either read — and `sim_bench_diff` renders it — or
//! refused; given to `repro bench-diff`, a refused one exits 1 (bad
//! data) with one stderr line, never a panic or a crash.

use proptest::TestRng;
use std::path::Path;
use std::process::Command;
use vpu_bench::sim_bench::{sim_bench_diff, SimBench, SimBenchCell, VirtBlock, WallBlock};
use vpu_bench::Scale;

const CASES: usize = 1024;

/// Mutated documents also run through the binary (a process each).
const CLI_CASES: usize = 64;

/// A finite f64 from every region the printer must round-trip: zero,
/// integral, ordinary, extreme magnitudes (subnormal to 1e300) and raw
/// bit patterns.
fn float(rng: &mut TestRng) -> f64 {
    match rng.below(5) {
        0 => 0.0,
        1 => rng.below(1 << 20) as f64,
        2 => rng.unit_f64() * 1e3,
        3 => -rng.unit_f64() * 10f64.powi(rng.below(620) as i32 - 320),
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                break f;
            }
        },
    }
}

fn int(rng: &mut TestRng) -> u64 {
    match rng.below(3) {
        0 => rng.below(1000),
        1 => u64::MAX,
        _ => rng.next_u64(),
    }
}

/// Up to 6 fragments: plain text, characters the printer escapes, and
/// non-ASCII.
fn text(rng: &mut TestRng) -> String {
    const FRAGMENTS: [&str; 9] = ["serve/", "null", "\"", "\\", "\n", "\u{1}", "\t", "é", "𝄞"];
    (0..rng.below(7)).map(|_| FRAGMENTS[rng.below(FRAGMENTS.len() as u64) as usize]).collect()
}

fn sim_bench(rng: &mut TestRng) -> SimBench {
    let cells = (0..rng.below(5))
        .map(|_| SimBenchCell {
            name: text(rng),
            virt: VirtBlock {
                requests: int(rng) as usize,
                completed: int(rng),
                shed: int(rng),
                sim_events: int(rng),
                virtual_ms: float(rng),
                events_recorded: int(rng),
                trace_bytes: int(rng),
                series_bytes: int(rng),
            },
            wall: WallBlock {
                wall_ms: float(rng),
                events_per_sec: float(rng),
                req_per_sec: float(rng),
                virtual_per_wall: float(rng),
                recorder_ns_per_event: float(rng),
                recorder_overhead_pct: (rng.below(2) == 0).then(|| float(rng)),
            },
        })
        .collect();
    SimBench {
        schema_version: int(rng) as u32,
        scale: [Scale::Tiny, Scale::Small, Scale::Paper][rng.below(3) as usize],
        fleet: text(rng),
        load_fraction: float(rng),
        cells,
    }
}

/// One to three edits: delete a span, insert a fragment (deep nesting,
/// overflowing or non-finite numbers, broken escapes, a bad variant) or
/// truncate.
fn mutate(rng: &mut TestRng, doc: &str) -> String {
    const INSERTS: [&str; 16] = [
        "[",
        "{\"a\":",
        "\"",
        "\\u",
        "\\ud800",
        "-",
        "1e999",
        "-1",
        "18446744073709551616",
        "null",
        ",",
        "}",
        "]",
        "0.5",
        "\"Ti\\nny\"",
        "é",
    ];
    let mut chars: Vec<char> = doc.chars().collect();
    for _ in 0..=rng.below(3) {
        let at = rng.below(chars.len() as u64 + 1) as usize;
        match rng.below(4) {
            0 => {
                let end = (at + 1 + rng.below(16) as usize).min(chars.len());
                chars.drain(at..end);
            }
            1 => {
                let deep = "[".repeat(1 << 16);
                chars.splice(at..at, deep.chars());
            }
            2 => chars.truncate(at),
            _ => {
                let s = INSERTS[rng.below(INSERTS.len() as u64) as usize];
                chars.splice(at..at, s.chars());
            }
        }
    }
    chars.into_iter().collect()
}

#[test]
fn sim_bench_json_round_trips() {
    let mut rng = TestRng::for_test("sim_bench_json_round_trips");
    for _ in 0..CASES {
        let b = sim_bench(&mut rng);
        for printed in
            [serde_json::to_string(&b).unwrap(), serde_json::to_string_pretty(&b).unwrap()]
        {
            match serde_json::from_str::<SimBench>(&printed) {
                Ok(again) => assert!(again == b, "{printed} reparses to {again:?}, not {b:?}"),
                Err(e) => panic!("{printed} does not reparse: {e}"),
            }
        }
    }
}

/// `repro bench-diff cand base`: `(exit code, stderr)`.
fn bench_diff(cand: &Path, base: &Path) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bench-diff")
        .args([cand, base])
        .output()
        .expect("run repro");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn mutated_documents_are_read_or_refused_in_one_line() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("bench_sim_json");
    std::fs::create_dir_all(&dir).unwrap();
    let base_path = dir.join("base.json");
    let committed = include_str!("../../../BENCH_sim.json");
    std::fs::write(&base_path, committed).unwrap();
    let base: SimBench = serde_json::from_str(committed).expect("committed BENCH_sim.json");

    let mut rng = TestRng::for_test("mutated_documents_are_read_or_refused_in_one_line");
    let mut parsed = 0;
    for case in 0..CASES {
        let source = if case % 2 == 0 {
            committed.to_string()
        } else {
            serde_json::to_string_pretty(&sim_bench(&mut rng)).unwrap()
        };
        let doc = mutate(&mut rng, &source);
        let read = serde_json::from_str::<SimBench>(&doc);
        if let Ok(cand) = &read {
            parsed += 1;
            sim_bench_diff(&base, cand, 50.0).render();
        }
        if case < CLI_CASES {
            let path = dir.join("cand.json");
            std::fs::write(&path, &doc).unwrap();
            let (code, stderr) = bench_diff(&path, &base_path);
            assert!(!stderr.contains("panicked"), "{doc}\npanicked: {stderr}");
            match read {
                Ok(_) => assert!(matches!(code, Some(0 | 1)), "{doc}\nexit {code:?}: {stderr}"),
                Err(_) => {
                    assert_eq!(code, Some(1), "{doc}\n{stderr}");
                    assert_eq!(stderr.lines().count(), 1, "{doc}\nwant one line, got {stderr}");
                }
            }
        }
    }
    assert!(parsed > 0 && parsed < CASES, "{parsed} of {CASES} mutated documents parsed");
}
