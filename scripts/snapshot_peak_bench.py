#!/usr/bin/env python3
"""Refresh BENCH_peak.json from bench/peak_and_kernels.

Runs the google-benchmark micro-kernel suite (quantize, pipeline
interaction, predictor, BFP add, chip pass, octree, direct block force)
and distills its JSON output into a small committed snapshot at the repo
root, the peak/kernels counterpart of scripts/snapshot_serve_bench.py. A
derived `speedups` section records the chip-pass interactions/s so the
kernel's rate is a first-class gated number (rate-compared by
scripts/bench_regress.py), not something reviewers re-derive from rows.

Usage (from the repo root, after building):

    python3 scripts/snapshot_peak_bench.py --bench build/bench/peak_and_kernels

Each row is the median of REPETITIONS runs, interleaved in random order
with the other rows' runs. A slow spell of the host then lands on every
row alike instead of on the few rows that happened to run in it, and one
slow run (a preempted thread-pool row on a shared host) does not move the
recorded number.
Wall-clock numbers vary machine to machine; the snapshot records them for
trend-spotting in review diffs, and scripts/bench_regress.py compares a
fresh run against them, each row divided by the REFERENCE row of its own
run, with a wide tolerance band so only step-change slowdowns (an
accidentally quadratic loop, a lost fast path) fail CI.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SCHEMA = "grape6-bench-peak-v1"

_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


# Runs per row, interleaved with the other rows; the snapshot keeps their
# median.
REPETITIONS = 5


def distill(raw: dict) -> dict:
    """google-benchmark JSON -> {name: {real_time_ns, cpu_time_ns, ...}},
    one entry per row from its median aggregate, in the bench's row order
    (interleaving reports the rows in a random one)."""
    out = {}
    medians = [b for b in raw.get("benchmarks", [])
               if b.get("aggregate_name") == "median"]
    medians.sort(key=lambda b: (b["family_index"],
                                b["per_family_instance_index"]))
    for b in medians:
        scale = _TO_NS.get(b.get("time_unit", "ns"), 1.0)
        entry = {
            "real_time_ns": b["real_time"] * scale,
            "cpu_time_ns": b["cpu_time"] * scale,
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        out[b["run_name"]] = entry
    return out


CHIP_PASS = "BM_ChipPass/nj:512"
# The row scripts/bench_regress.py divides every other row by: plain IEEE
# double pairwise force, no emulation, so it tracks the host's speed.
REFERENCE = "BM_PairwiseDouble"


def derive_speedups(benchmarks: dict) -> dict:
    """Headline kernel number derived from the chip-pass row."""
    out = {}
    chip_pass = benchmarks.get(CHIP_PASS, {})
    if "items_per_second" in chip_pass:
        out["chip_pass_batched_interactions_per_s"] = chip_pass["items_per_second"]
    return out


def run_and_distill(bench: str, min_time_s: float) -> dict:
    """Run the bench binary and return the snapshot dict."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "peak_and_kernels.json")
        cmd = [bench, f"--benchmark_out={out_path}",
               "--benchmark_out_format=json",
               f"--benchmark_min_time={min_time_s}s",
               f"--benchmark_repetitions={REPETITIONS}",
               "--benchmark_enable_random_interleaving=true",
               "--benchmark_report_aggregates_only=true"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
        with open(out_path) as f:
            raw = json.load(f)

    benchmarks = distill(raw)
    return {
        "schema": SCHEMA,
        "bench": "peak_and_kernels",
        "min_time_s": min_time_s,
        "benchmarks": benchmarks,
        "speedups": derive_speedups(benchmarks),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True,
                    help="path to the peak_and_kernels binary")
    ap.add_argument("--out", default="BENCH_peak.json",
                    help="snapshot path (default: BENCH_peak.json)")
    ap.add_argument("--min-time", type=float, default=0.1,
                    help="per-benchmark min measurement time in seconds")
    args = ap.parse_args()

    snapshot = run_and_distill(args.bench, args.min_time)
    with open(args.out, "w") as f:
        json.dump(snapshot, f, indent=2)
        f.write("\n")
    print(f"wrote {args.out} ({len(snapshot['benchmarks'])} benchmarks)")


if __name__ == "__main__":
    main()
