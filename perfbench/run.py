#!/usr/bin/env python3
"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the `perfbench` binary from source (release, into
$CARGO_TARGET_DIR or ./.bench_build), then runs repetitions of the
workload, each in a fresh process, until S seconds have passed. Every
repetition must pass its own output check, all of them must agree on
the output digest, the exact counters and the split marks (below), and
the digest must equal the one recorded in digests.json when the seed is
recorded there.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
With --trace 0 the metrics are the end-to-end ones. With --trace 1
untraced and traced repetitions alternate; the metrics are the
per-layer ones from the traced repetitions, plus the tracing overhead
(traced minus untraced `wall_s`, both taken as below). The last traced
repetition's spans are written to perfbench/out/<workload>.spans.json
as a Chrome trace.

Each repetition marks fixed points of its work: the end of each phase
and sweep cell, every 64th device call inside a serve call and every
20-image chunk of a classification pass. The points depend only on the
workload and the seed, so they split every repetition into the same
segments. `wall_s` and `setup_s` add up each segment at its fastest
repetition; `items_per_s` follows from them, and `peak_rss_mb` is the
least of the repetitions. The host is shared: other tenants only ever
slow the program down, in bursts from a fraction of a second to a few
seconds, so a burst costs the segments it covers in one repetition,
not the whole repetition. The per-layer metrics are the best (least
time, highest rate) of the traced repetitions.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["long-run", "sweep", "observe-analyze", "accuracy"]
MIN_REPS = 3
REP_TIMEOUT_S = 150

# name: (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "items_per_s": ("items/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "setup.model_build_s": ("s", "lower"),
    "setup.fleet_build_s": ("s", "lower"),
    "setup.fleet_builds": ("count", "lower"),
    "setup.calibrate_s": ("s", "lower"),
    "setup.calibrate_iterations": ("count", "lower"),
    "device.vpu_s": ("s", "lower"),
    "device.host_s": ("s", "lower"),
    "device.calls": ("count", "lower"),
    "device.vpu_images": ("count", "lower"),
    "device.vpu_us_per_image": ("us", "lower"),
    "device.vpu_growth": ("ratio", "lower"),
    "faults.self_s": ("s", "lower"),
    "serve.self_s": ("s", "lower"),
    "serve.self_ns_per_event": ("ns", "lower"),
    "sim_events": ("count", "lower"),
    "ctrl.decide_s": ("s", "lower"),
    "ctrl.ticks": ("count", "lower"),
    "report.s": ("s", "lower"),
    "obs.events": ("count", "lower"),
    "obs.trace_bytes": ("bytes", "lower"),
    "obs.export_chrome_s": ("s", "lower"),
    "obs.export_series_s": ("s", "lower"),
    "analyze.parse_s": ("s", "lower"),
    "analyze.parse_mb_per_s": ("MB/s", "higher"),
    "analyze.attribute_s": ("s", "lower"),
    "analyze.whatif_s": ("s", "lower"),
    "mem.after_serve_mb": ("MB", "lower"),
    "mem.after_export_mb": ("MB", "lower"),
    "mem.after_analyze_mb": ("MB", "lower"),
    "kernels.fp32_s": ("s", "lower"),
    "kernels.fp16_s": ("s", "lower"),
    "kernels.fp16_us_per_image": ("us", "lower"),
    "kernels.fp16_gmac_per_s": ("GMAC/s", "higher"),
    "kernels.fp16_over_fp32": ("ratio", "lower"),
    "kernels.forward_passes": ("count", "lower"),
    "kernels.macs": ("count", "lower"),
    "trace.residual_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# Counters that must repeat exactly across repetitions, traced or not.
EXACT = (
    "setup.fleet_builds",
    "setup.calibrate_iterations",
    "sim_events",
    "ctrl.ticks",
    "obs.events",
    "obs.trace_bytes",
    "kernels.forward_passes",
    "kernels.macs",
)


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build the binary; return its path, or None when the build fails."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    return os.path.join(target, "release", "perfbench")


def rep(binary, workload, seed, traced, spans):
    """One repetition in a fresh process; its JSON line, or None."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    if traced:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"repetition failed: {e}")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"repetition printed no result (exit code {done.returncode})")
        return None


def best(values, better):
    return min(values) if better == "lower" else max(values)


def segments(r):
    """A repetition's segment durations, from its split marks."""
    marks = r["marks"]
    return [b - a for a, b in zip([0.0] + marks, marks)]


def split_best(reps):
    """Wall and set-up time, each segment at its fastest repetition."""
    fastest = [min(col) for col in zip(*(segments(r) for r in reps))]
    return sum(fastest), sum(fastest[: reps[0]["setup_marks"]])


def recorded_digest(workload, seed):
    with open(os.path.join(HERE, "digests.json")) as f:
        recorded = json.load(f)
    return recorded["digests"].get(workload, {}).get(str(seed))


def verify(reps, workload, seed):
    """Why the repetitions are wrong, or None when they are right."""
    if any(r is None for r in reps):
        return "a repetition did not finish"
    bad = [r for r in reps if not r["ok"]]
    if bad:
        return f"output check failed: {bad[0]['error']}"
    digests = {r["digest"] for r in reps}
    if len(digests) != 1:
        return f"repetitions disagree on the output digest: {sorted(digests)}"
    splits = {(len(r["marks"]), r["setup_marks"]) for r in reps}
    if len(splits) != 1:
        return f"repetitions disagree on their split marks: {sorted(splits)}"
    for key in EXACT:
        values = {r["layers"].get(key) for r in reps}
        if len(values) != 1:
            return f"repetitions disagree on the exact counter {key}: {sorted(map(str, values))}"
    expected = recorded_digest(workload, seed)
    if expected is not None and expected not in digests:
        return f"digest {digests.pop()} differs from the recorded {expected} for seed {seed}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    traced = args.trace == "1"

    binary = build()
    if binary is None:
        return 1
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans = os.path.join(out_dir, f"{args.workload}.spans.json")

    # Repeat until the time is up: fresh processes, so each repetition
    # pays its own set-up and has its own peak RSS. A traced run
    # alternates untraced and traced repetitions.
    reps = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS:
            mean = elapsed / len(reps)
            if elapsed + mean > args.seconds:
                break
        r = rep(binary, args.workload, args.seed, traced and len(reps) % 2 == 1, spans)
        reps.append(r)
        if r is None or not r["ok"]:
            break

    error = verify(reps, args.workload, args.seed)
    attempted = sum(r["items"] for r in reps if r is not None) or 1
    if error is not None:
        log(error)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 1

    plain = [r for r in reps if not r["traced"]]
    if traced:
        spanned = [r for r in reps if r["traced"]]
        per_rep = {name: [r["layers"].get(name, 0.0) for r in spanned] for name in PER_LAYER}
        per_rep["trace.overhead_s"] = [split_best(spanned)[0] - split_best(plain)[0]]
        table = PER_LAYER
    else:
        wall, setup = split_best(plain)
        per_rep = {
            "wall_s": [wall],
            "setup_s": [setup],
            "items_per_s": [plain[0]["items"] / (wall - setup)],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        table = END_TO_END
    metrics = {
        name: {"value": best(per_rep[name], better), "unit": unit}
        for name, (unit, better) in table.items()
    }
    log(f"{args.workload} seed {args.seed}: {len(reps)} repetitions in {time.monotonic() - start:.1f} s")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
