#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh bench run against the committed
BENCH_* snapshot and fail on regressions.

The committed baselines (BENCH_peak.json from snapshot_peak_bench.py,
BENCH_serve.json from snapshot_serve_bench.py) record two kinds of
numbers, compared differently:

  deterministic   Integer bookkeeping the bench configuration pins
                  exactly — jobs/completed/preempt/revoke per serve mix,
                  Eq 10 steps and blocksteps. Any drift, in either
                  direction, is a behaviour change and fails.

  wall-clock      Times and throughputs. These vary machine to machine,
                  so only a one-sided regression beyond --tol fails, and
                  the peak bench's kernel rows (medians of repeated runs)
                  are first divided by the BM_PairwiseDouble row from the
                  same run (compare_peak), so the gate compares the code,
                  not the runner:
                  time-like metrics (real_time_ns, p95_wait_s, eq10
                  seconds) may grow by at most a factor (1 + tol),
                  rate-like metrics (items_per_second, jobs_per_hour)
                  may shrink by at most the same factor. Improvements
                  are reported as a nudge to re-snapshot, never failed.

The schema field of the baseline picks the bench: pass --bench with the
matching binary to run fresh numbers, or --fresh with an
already-distilled snapshot JSON (g6report --diff offers the symmetric
two-sided view of full metric exports).

Exit status: 0 within tolerance, 1 regression(s), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import snapshot_peak_bench  # noqa: E402
import snapshot_serve_bench  # noqa: E402


def _num(x):
    """Snapshot values arrive as JSON numbers or CSV strings."""
    if isinstance(x, (int, float)):
        return x
    return float(x)


class Comparison:
    def __init__(self, tol: float):
        self.tol = tol
        self.regressions: list[str] = []
        self.improvements: list[str] = []

    def exact(self, name: str, base, fresh) -> None:
        """Deterministic count: any change fails."""
        b, f = int(_num(base)), int(_num(fresh))
        if b != f:
            self.regressions.append(
                f"{name}: deterministic count changed {b} -> {f}")

    def time(self, name: str, base, fresh) -> None:
        """Lower is better; fail only above base * (1 + tol)."""
        b, f = _num(base), _num(fresh)
        if b > 0 and f > b * (1.0 + self.tol):
            self.regressions.append(
                f"{name}: {f:.6g} exceeds baseline {b:.6g} "
                f"by {100.0 * (f / b - 1.0):.1f}% (tol {100.0 * self.tol:.0f}%)")
        elif b > 0 and f < b / (1.0 + self.tol):
            self.improvements.append(
                f"{name}: {f:.6g} vs baseline {b:.6g}")

    def rate(self, name: str, base, fresh) -> None:
        """Higher is better; fail only below base / (1 + tol)."""
        b, f = _num(base), _num(fresh)
        if b > 0 and f < b / (1.0 + self.tol):
            self.regressions.append(
                f"{name}: {f:.6g} below baseline {b:.6g} "
                f"by {100.0 * (1.0 - f / b):.1f}% (tol {100.0 * self.tol:.0f}%)")
        elif b > 0 and f > b * (1.0 + self.tol):
            self.improvements.append(
                f"{name}: {f:.6g} vs baseline {b:.6g}")

    def missing(self, name: str) -> None:
        self.regressions.append(f"{name}: present in baseline, missing in "
                                "fresh run")


def compare_peak(base: dict, fresh: dict, cmp: Comparison) -> None:
    """Kernel rows, each normalized by the reference row of its own run.

    A row's time is gated as a multiple of the reference row's time
    (BM_PairwiseDouble: plain double arithmetic, no emulation), and a
    rate as items per reference-row duration, so a uniformly faster or
    slower machine moves both sides alike and only the kernel's cost
    relative to the host's double arithmetic is compared.
    """
    ref = snapshot_peak_bench.REFERENCE
    base_rows = base.get("benchmarks", {})
    fresh_rows = fresh.get("benchmarks", {})
    if ref not in fresh_rows:
        cmp.missing(ref)
        return
    b_ref, f_ref = base_rows[ref], fresh_rows[ref]

    def per_ref(row: dict, ref_row: dict, key: str) -> float:
        return _num(row[key]) / _num(ref_row[key])

    for name, b in sorted(base_rows.items()):
        if name == ref:
            continue
        f = fresh_rows.get(name)
        if f is None:
            cmp.missing(name)
            continue
        for key in ("real_time_ns", "cpu_time_ns"):
            cmp.time(f"{name}.{key}/{ref}", per_ref(b, b_ref, key),
                     per_ref(f, f_ref, key))
        if "items_per_second" in b and "items_per_second" in f:
            cmp.rate(f"{name}.items_per_{ref}",
                     _num(b["items_per_second"]) * _num(b_ref["real_time_ns"]),
                     _num(f["items_per_second"]) * _num(f_ref["real_time_ns"]))
    # Derived headline numbers (snapshot_peak_bench.derive_speedups):
    # rate-like, a drop beyond tolerance means the chip-pass kernel
    # slowed down relative to the reference row.
    fresh_speedups = fresh.get("speedups", {})
    for name, b in sorted(base.get("speedups", {}).items()):
        f = fresh_speedups.get(name)
        if f is None:
            cmp.missing(f"speedups.{name}")
            continue
        cmp.rate(f"speedups.{name}.per_{ref}",
                 _num(b) * _num(b_ref["real_time_ns"]),
                 _num(f) * _num(f_ref["real_time_ns"]))


# Per-mix CSV columns, split by comparison kind. Anything not listed
# (e.g. a column added by a newer bench) is ignored rather than guessed.
SERVE_EXACT = ("jobs", "completed", "preempt", "revoke")
SERVE_TIME = ("p50_wait_s", "p95_wait_s", "p99_wait_s")
SERVE_RATE = ("jobs_per_hour",)
# Recovery rows (bench/serve_recovery): keyed by (config, ckpt_every,
# jobs); "-" marks a column that does not apply to the row.
SERVE_RECOVERY_EXACT = ("completed", "checkpoints", "journal_records")
# recover_ms is single-digit milliseconds — pure noise at gate
# tolerances, recorded for trend-spotting only.
SERVE_RECOVERY_TIME = ("makespan_s",)
# Remote rows (bench/serve_load): keyed by connection count. "events" is
# deliberately ungated — progress frames coalesce with poll timing.
SERVE_REMOTE_EXACT = ("jobs", "completed", "requests")
SERVE_REMOTE_TIME = ("p50_wait_s", "p95_wait_s", "p99_wait_s")
SERVE_REMOTE_RATE = ("jobs_per_hour",)
EQ10_EXACT = ("steps", "blocksteps")
EQ10_TIME = ("host_s", "dma_s", "net_s", "grape_s", "total_s")


def compare_serve(base: dict, fresh: dict, cmp: Comparison) -> None:
    fresh_mixes = {m["mix"]: m for m in fresh.get("mixes", [])}
    for b in base.get("mixes", []):
        name = b["mix"]
        f = fresh_mixes.get(name)
        if f is None:
            cmp.missing(f"mix {name}")
            continue
        for col in SERVE_EXACT:
            if col in b and col in f:
                cmp.exact(f"{name}.{col}", b[col], f[col])
        for col in SERVE_TIME:
            if col in b and col in f:
                cmp.time(f"{name}.{col}", b[col], f[col])
        for col in SERVE_RATE:
            if col in b and col in f:
                cmp.rate(f"{name}.{col}", b[col], f[col])
    fresh_recovery = {(r["config"], r["ckpt_every"], r["jobs"]): r
                      for r in fresh.get("recovery", [])}
    for b in base.get("recovery", []):
        key = (b["config"], b["ckpt_every"], b["jobs"])
        name = f"recovery[{b['config']}/every={b['ckpt_every']}" \
               f"/jobs={b['jobs']}]"
        f = fresh_recovery.get(key)
        if f is None:
            cmp.missing(name)
            continue
        for col in SERVE_RECOVERY_EXACT:
            if b.get(col, "-") != "-" and f.get(col, "-") != "-":
                cmp.exact(f"{name}.{col}", b[col], f[col])
        for col in SERVE_RECOVERY_TIME:
            if b.get(col, "-") != "-" and f.get(col, "-") != "-":
                cmp.time(f"{name}.{col}", b[col], f[col])
    fresh_remote = {r["connections"]: r for r in fresh.get("remote", [])}
    for b in base.get("remote", []):
        name = f"remote[connections={b['connections']}]"
        f = fresh_remote.get(b["connections"])
        if f is None:
            cmp.missing(name)
            continue
        for col in SERVE_REMOTE_EXACT:
            if col in b and col in f:
                cmp.exact(f"{name}.{col}", b[col], f[col])
        for col in SERVE_REMOTE_TIME:
            if col in b and col in f:
                cmp.time(f"{name}.{col}", b[col], f[col])
        for col in SERVE_REMOTE_RATE:
            if col in b and col in f:
                cmp.rate(f"{name}.{col}", b[col], f[col])
    b_eq, f_eq = base.get("eq10"), fresh.get("eq10")
    if b_eq and f_eq:
        for field in EQ10_EXACT:
            if field in b_eq and field in f_eq:
                cmp.exact(f"eq10.{field}", b_eq[field], f_eq[field])
        for field in EQ10_TIME:
            if field in b_eq and field in f_eq:
                cmp.time(f"eq10.{field}", b_eq[field], f_eq[field])


SCHEMAS = {
    snapshot_peak_bench.SCHEMA: (
        compare_peak,
        lambda bench, args: snapshot_peak_bench.run_and_distill(
            bench, args.min_time)),
    snapshot_serve_bench.SCHEMA: (
        compare_serve,
        lambda bench, args: snapshot_serve_bench.run_and_distill(
            bench, args.jobs)),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--baseline", required=True,
                    help="committed snapshot (BENCH_peak.json / "
                         "BENCH_serve.json)")
    ap.add_argument("--bench", default=None,
                    help="bench binary to run fresh numbers from")
    ap.add_argument("--fresh", default=None,
                    help="pre-distilled snapshot JSON to compare instead "
                         "of running --bench")
    ap.add_argument("--tol", type=float, default=0.5,
                    help="one-sided wall-clock tolerance as a fraction "
                         "(default 0.5 = 50%%)")
    ap.add_argument("--min-time", type=float, default=0.05,
                    help="peak bench: per-benchmark min measurement time, "
                         "seconds")
    ap.add_argument("--jobs", type=int, default=None,
                    help="serve bench: jobs per mix (default: the "
                         "baseline's jobs_per_mix)")
    args = ap.parse_args()

    if (args.bench is None) == (args.fresh is None):
        print("bench_regress: pass exactly one of --bench / --fresh",
              file=sys.stderr)
        return 2
    if args.tol < 0:
        print("bench_regress: --tol must be >= 0", file=sys.stderr)
        return 2

    with open(args.baseline) as f:
        base = json.load(f)
    schema = base.get("schema")
    if schema not in SCHEMAS:
        print(f"bench_regress: unknown baseline schema {schema!r} in "
              f"{args.baseline}", file=sys.stderr)
        return 2
    compare, run = SCHEMAS[schema]

    if args.fresh is not None:
        with open(args.fresh) as f:
            fresh = json.load(f)
        if fresh.get("schema") != schema:
            print(f"bench_regress: schema mismatch: baseline {schema!r} vs "
                  f"fresh {fresh.get('schema')!r}", file=sys.stderr)
            return 2
    else:
        if args.jobs is None:
            args.jobs = int(base.get("jobs_per_mix", 12))
        fresh = run(args.bench, args)

    cmp = Comparison(args.tol)
    compare(base, fresh, cmp)

    for line in cmp.improvements:
        print(f"bench_regress: improved: {line} — consider re-running the "
              "snapshot script")
    for line in cmp.regressions:
        print(f"bench_regress: REGRESSION: {line}")
    if cmp.regressions:
        print(f"bench_regress: {len(cmp.regressions)} regression(s) vs "
              f"{args.baseline}", file=sys.stderr)
        return 1
    print(f"bench_regress: OK vs {args.baseline} "
          f"(tol {100.0 * args.tol:.0f}%, "
          f"{len(cmp.improvements)} improvement(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
