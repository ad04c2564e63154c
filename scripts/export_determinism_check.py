#!/usr/bin/env python3
"""Byte-determinism regression check for the metric exports.

The observability exports are part of the reproducibility surface:
dashboards, g6report and the paper-figure scripts diff and re-plot them,
so two runs of the same problem must serialize *identically* — same key
order (std::map, never hash order), same formatting, no addresses, no
wall-clock leakage in anything structural. This script locks that in:

  1. grape6_run twice with identical arguments --metrics-out'd to two
     files: the JSON structure (keys, counters, histogram counts) must
     match exactly. Timing gauges and Eq 10 seconds are wall-clock
     measurements and legitimately differ; everything else may not.
  2. g6report twice over the SAME metrics file: stdout must be
     byte-identical (cmp semantics) — a report that renders differently
     on a second read is iterating something unordered.
  3. (with --served) grape6_served twice in-process on a 3-job
     mixed-priority manifest: the per-job attribution scopes and the per-round time
     series must match between runs — scope key sets and counter values
     exactly (schedule-dependent counters exempt by value, never by
     presence), time-series instrument lists, row counts, ticks and
     values exactly (only the wall-clock t_s column may differ). The
     flight recorder is deliberately NOT here: its ring interleaves
     worker-thread events, so the dump is schedule-dependent by design
     (docs/OBSERVABILITY.md documents the exemption).
  4. (with --served + --loadgen) grape6_served twice as a daemon on a
     unix socket, each time driven by the same loadgen manifest over 2
     connections:
     the wire.* transport instruments must export with a stable key
     order, and every counter the *client* drives (connections, request
     frames and their bytes) must match exactly. The event stream back
     out is exempt by value — how many progress frames a job streams
     depends on where the daemon's poll loop lands relative to
     simulation rounds — but its instruments must still be present, and
     the RPC histogram's observation count must equal wire.requests.

Exits non-zero with a diff summary on any mismatch.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from serve_check import run, serve_daemon, write_manifest

# Counters whose value is a property of the OS thread schedule, not of
# the computation: which idle worker steals a task depends on wake-up
# timing. Their *presence* must still be stable (key order is part of
# the export contract); only the count may vary. Everything else —
# interactions, pipeline passes, fault counters — must be exact, and a
# physics counter drifting between identical runs is the bug this test
# exists to catch, so keep this list minimal and justified.
SCHEDULE_DEPENDENT_COUNTERS = frozenset({
    "exec.steals",
})

# The wire.* transport counters split the same way: everything the
# client SENDS is an exact function of the manifest (how many
# connections, request frames, request bytes), while the event stream
# back out is paced by where the daemon's poll loop lands relative to
# simulation rounds — a job may stream its progress as one event per
# quantum or as fewer, coalesced diffs. Presence and key order stay
# mandatory; only the values below may vary.
WIRE_TIMING_DEPENDENT_COUNTERS = frozenset({
    "wire.frames_out",
    "wire.bytes_out",
    "wire.events",
})

# Instruments a clean served run must export (wire.protocol_errors is
# deliberately absent: instruments register lazily on first touch, and
# a clean run never touches it).
WIRE_REQUIRED_COUNTERS = (
    "wire.connections", "wire.frames_in", "wire.bytes_in", "wire.requests",
    "wire.frames_out", "wire.bytes_out", "wire.events",
)
WIRE_REQUIRED_GAUGES = ("wire.conns.open", "wire.subscribers")


def compare_wire_metrics(a: dict, b: dict) -> list[str]:
    """wire.* subset of two served exports: stable key order,
    client-driven counters exact, event-stream counters exempt by value,
    RPC histogram bins exempt (they bucket wall-clock round trips) but
    its observation count tied to wire.requests."""
    errors = []
    wa = {k: v for k, v in a["counters"].items() if k.startswith("wire.")}
    wb = {k: v for k, v in b["counters"].items() if k.startswith("wire.")}
    if list(wa.keys()) != list(wb.keys()):
        errors.append(f"wire counter key order differs: {list(wa)} vs "
                      f"{list(wb)}")
        return errors
    missing = [k for k in WIRE_REQUIRED_COUNTERS if k not in wa]
    if missing:
        errors.append(f"wire counters missing from export: {missing}")
    diffs = [k for k in wa if wa[k] != wb[k]
             and k not in WIRE_TIMING_DEPENDENT_COUNTERS]
    if diffs:
        errors.append(f"wire counter values differ: {diffs}")
    if wa.get("wire.protocol_errors", 0) != 0:
        errors.append("wire.protocol_errors nonzero in a clean run")
    ga = [k for k in a["gauges"] if k.startswith("wire.")]
    gb = [k for k in b["gauges"] if k.startswith("wire.")]
    if ga != gb:
        errors.append(f"wire gauge keys differ: {ga} vs {gb}")
    errors += [f"wire gauge '{g}' missing from export"
               for g in WIRE_REQUIRED_GAUGES if g not in ga]
    ha = a["histograms"].get("wire.rpc_s")
    hb = b["histograms"].get("wire.rpc_s")
    if ha is None or hb is None:
        errors.append("wire.rpc_s histogram missing from export")
    else:
        if ha["count"] != hb["count"]:
            errors.append(f"wire.rpc_s observation counts differ: "
                          f"{ha['count']} vs {hb['count']}")
        if ha["count"] != wa.get("wire.requests"):
            errors.append("wire.rpc_s count != wire.requests (an RPC path "
                          "skipped its timing observation)")
    return errors

# Structural exactness: every counter and histogram *count* must match
# between two identical runs. Gauges and histogram moments can carry
# wall-clock readings (e.g. serve.wait_s, eq10 seconds), so for them we
# require only identical key sets.
def compare_metrics(a: dict, b: dict) -> list[str]:
    errors = []
    if sorted(a.keys()) != sorted(b.keys()):
        errors.append(f"top-level keys differ: {sorted(a)} vs {sorted(b)}")
        return errors
    if list(a["counters"].keys()) != list(b["counters"].keys()):
        errors.append("counter key order differs between runs")
    diffs = [k for k in a["counters"]
             if a["counters"][k] != b["counters"].get(k)
             and k not in SCHEDULE_DEPENDENT_COUNTERS]
    if diffs:
        errors.append(f"counter values differ: {diffs}")
    for section in ("gauges", "histograms"):
        if list(a[section].keys()) != list(b[section].keys()):
            errors.append(f"{section} key order differs between runs")
    for name, h in a["histograms"].items():
        hb = b["histograms"].get(name)
        if hb is None:
            continue
        if h["count"] != hb["count"] or h["counts"] != hb["counts"]:
            errors.append(f"histogram '{name}' bin counts differ")
    return errors


def compare_scopes(a: dict, b: dict) -> list[str]:
    """Per-job attribution scopes: everything exact except the values of
    schedule-dependent counters (which are excluded at the source and so
    should not appear at all — but the exemption stays consistent)."""
    errors = []
    if list(a.keys()) != list(b.keys()):
        errors.append(f"scope key order differs: {list(a)} vs {list(b)}")
        return errors
    for name, sa in a.items():
        sb = b[name]
        for field in ("job", "class"):
            if sa.get(field) != sb.get(field):
                errors.append(f"scope '{name}' {field} differs")
        if list(sa["counters"].keys()) != list(sb["counters"].keys()):
            errors.append(f"scope '{name}' counter key order differs")
            continue
        diffs = [k for k in sa["counters"]
                 if sa["counters"][k] != sb["counters"][k]
                 and k not in SCHEDULE_DEPENDENT_COUNTERS]
        if diffs:
            errors.append(f"scope '{name}' counter values differ: {diffs}")
    return errors


def compare_timeseries(a: dict, b: dict) -> list[str]:
    """grape6-timeseries-v1: logical ticks make everything but the
    wall-clock t_s column exactly reproducible."""
    errors = []
    if a.get("schema") != b.get("schema"):
        errors.append("timeseries schema differs")
        return errors
    if a["instruments"] != b["instruments"]:
        errors.append("timeseries instrument lists differ: "
                      f"{[i['name'] for i in a['instruments']]} vs "
                      f"{[i['name'] for i in b['instruments']]}")
        return errors
    if len(a["samples"]) != len(b["samples"]):
        errors.append(f"timeseries row counts differ: {len(a['samples'])} "
                      f"vs {len(b['samples'])}")
        return errors
    exempt = [i["name"] in SCHEDULE_DEPENDENT_COUNTERS
              for i in a["instruments"]]
    for ra, rb in zip(a["samples"], b["samples"]):
        if ra["tick"] != rb["tick"]:
            errors.append(f"timeseries tick sequence differs at {ra['tick']}")
            break
        vals = [(x, y) for x, y, skip in
                zip(ra["values"], rb["values"], exempt) if not skip]
        if any(x != y for x, y in vals):
            errors.append(f"timeseries values differ at tick {ra['tick']}")
            break
    return errors


# 3 jobs, mixed priorities, time-shared on a 2-board machine: enough to
# populate several scopes, queueing (bat-b wants the whole machine) and
# a multi-round time series, while staying a sub-second ctest.
SERVE_JOBS = [
    {"name": "int-a", "model": "plummer", "n": 32, "t_end": 0.0625,
     "seed": 11, "boards": 1, "priority": "interactive"},
    {"name": "bat-a", "model": "uniform", "n": 48, "t_end": 0.0625,
     "seed": 13, "boards": 1, "priority": "batch"},
    {"name": "bat-b", "model": "plummer", "n": 32, "t_end": 0.0625,
     "seed": 16, "boards": 2, "priority": "batch"},
]

SERVE_SERVICE = {
    "boards_per_host": 2,
    "hosts_per_cluster": 1,
    "clusters": 1,
    "quantum_blocksteps": 4,
    "max_queue_depth": 8,
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--run", required=True, help="path to grape6_run")
    ap.add_argument("--report", required=True, help="path to g6report")
    ap.add_argument("--served", default=None,
                    help="path to grape6_served; adds the attribution-scope "
                         "and time-series determinism checks")
    ap.add_argument("--loadgen", default=None,
                    help="path to grape6_loadgen; with --served, adds the "
                         "wire.* transport determinism check")
    args = ap.parse_args()
    if args.loadgen and not args.served:
        ap.error("--loadgen needs --served")

    with tempfile.TemporaryDirectory() as td:
        tmp = Path(td)
        metrics = []
        for i in (0, 1):
            out = tmp / f"m{i}.json"
            run([args.run, "--model=plummer", "--n=64", "--t-end=0.125",
                 "--seed=7", "--threads=2", f"--out={tmp / f'run{i}'}",
                 f"--metrics-out={out}"])
            metrics.append(json.loads(out.read_text()))

        errors = compare_metrics(metrics[0], metrics[1])

        # g6report over one file, twice: stdout must be byte-identical.
        report_in = tmp / "m0.json"
        r1 = run([args.report, f"--in={report_in}"])
        r2 = run([args.report, f"--in={report_in}"])
        if r1 != r2:
            errors.append("g6report output differs between two reads of "
                          "the same file")

        if args.served:
            manifest = tmp / "manifest.json"
            write_manifest(manifest, SERVE_SERVICE, SERVE_JOBS)
            serve_metrics, serve_series = [], []
            for i in (0, 1):
                m_out = tmp / f"serve_m{i}.json"
                ts_out = tmp / f"serve_ts{i}.json"
                run([args.served, f"--manifest={manifest}",
                     f"--out={tmp / f'serve{i}'}", "--snapshots=false",
                     "--threads=2", f"--metrics-out={m_out}",
                     f"--timeseries-out={ts_out}"])
                serve_metrics.append(json.loads(m_out.read_text()))
                serve_series.append(json.loads(ts_out.read_text()))

            errors += [f"serve: {e}" for e in
                       compare_metrics(serve_metrics[0], serve_metrics[1])]
            errors += [f"serve: {e}" for e in
                       compare_scopes(serve_metrics[0].get("scopes", {}),
                                      serve_metrics[1].get("scopes", {}))]
            if not serve_metrics[0].get("scopes"):
                errors.append("serve: metrics export has no per-job scopes")
            errors += [f"serve: {e}" for e in
                       compare_timeseries(serve_series[0], serve_series[1])]
            if not serve_series[0].get("samples"):
                errors.append("serve: time series has no rows (scheduler "
                              "should sample once per round)")

            # The scopes section renders through g6report too.
            serve_in = tmp / "serve_m0.json"
            s1 = run([args.report, f"--in={serve_in}"])
            s2 = run([args.report, f"--in={serve_in}"])
            if s1 != s2:
                errors.append("serve: g6report output differs between two "
                              "reads of the same file")

        if args.loadgen:
            daemon_manifest = tmp / "wire_service.json"
            write_manifest(daemon_manifest, SERVE_SERVICE)
            wire_metrics = []
            for i in (0, 1):
                sock = tmp / f"wire{i}.sock"
                m_out = tmp / f"wire_m{i}.json"
                serve_daemon(
                    [args.served, f"--listen=unix:{sock}",
                     f"--manifest={daemon_manifest}",
                     f"--out={tmp / f'wired{i}'}", "--snapshots=false",
                     f"--metrics-out={m_out}"],
                    [args.loadgen, f"--connect=unix:{sock}",
                     f"--manifest={manifest}", "--connections=2",
                     "--drain=true"])
                wire_metrics.append(json.loads(m_out.read_text()))

            errors += [f"wire: {e}" for e in
                       compare_wire_metrics(wire_metrics[0], wire_metrics[1])]

            # The wire summary renders through g6report too.
            wire_in = tmp / "wire_m0.json"
            w1 = run([args.report, f"--in={wire_in}"])
            w2 = run([args.report, f"--in={wire_in}"])
            if w1 != w2:
                errors.append("wire: g6report output differs between two "
                              "reads of the same file")
            if "wire summary:" not in w1:
                errors.append("wire: g6report shows no wire summary for a "
                              "served metrics file")

    if errors:
        for e in errors:
            print(f"export_determinism: FAIL: {e}", file=sys.stderr)
        return 1
    print("export_determinism: OK (counters exact, key order stable, "
          "report byte-identical)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
