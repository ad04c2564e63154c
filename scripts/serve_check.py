#!/usr/bin/env python3
"""End-to-end checks of tools/grape6_served (docs/SERVING.md and
docs/RELIABILITY.md, "Serving durability"), one --mode per ctest:

serve_identity           10 mixed jobs with a board death that forces a
                         re-queue; every snapshot byte-identical to a
                         standalone single-job run.
wire_identity            the daemon takes 10 jobs (some autoscaling) from
                         grape6_loadgen over 4 streaming connections;
                         client-, daemon- and in-process-written snapshots
                         byte-identical; exactly-once terminals, >= 1
                         progress event per job, >= 1 lease resize.
serve_recovery_identity  kill -9 mid-flight, then --recover: snapshots
                         byte-identical to an uninterrupted run.
serve_recovery_chaos     up to --kills seeded kill -9s over a fault plan, a
                         poison job and a deadline job: exactly-once
                         terminal states equal to the uninterrupted run's,
                         completed snapshots byte-identical.
serve_recovery_sigterm   SIGTERM drains (exit 0, a `drained` record), then
                         --recover finishes bit-identically.

Exits non-zero with a diagnostic on any violation.
"""

import argparse
import filecmp
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time

# 10 jobs, mixed sizes/priorities/models, on a 4-board machine. Board 1
# dies at round 1: the round-0 dispatch leased it (first-fit from board
# 0), so the owning job must be revoked, re-queued and completed
# elsewhere. (Round 1, not later: these jobs are small enough that early
# leases can drain within a few rounds, and a death on a free board
# would exercise nothing.)
SERVE_JOBS = [
    {"name": "int-a", "model": "plummer", "n": 48, "t_end": 0.0625,
     "seed": 11, "boards": 1, "priority": "interactive"},
    {"name": "int-b", "model": "uniform", "n": 32, "t_end": 0.0625,
     "seed": 12, "boards": 1, "priority": "interactive"},
    {"name": "bat-a", "model": "plummer", "n": 64, "t_end": 0.0625,
     "seed": 13, "boards": 1, "priority": "batch"},
    {"name": "bat-b", "model": "king", "w0": 5.0, "n": 48, "t_end": 0.0625,
     "seed": 14, "boards": 1, "priority": "batch"},
    {"name": "bat-c", "model": "hernquist", "n": 48, "t_end": 0.0625,
     "seed": 15, "boards": 2, "priority": "batch"},
    {"name": "bat-d", "model": "plummer", "n": 32, "t_end": 0.0625,
     "seed": 16, "boards": 1, "priority": "batch"},
    # Autoscaling lease bounds; t_end outlives the pack so the freed
    # boards grow this lease — shared-run resizes must stay invisible to
    # the physics just like multiplexing does.
    {"name": "bat-e", "model": "uniform", "n": 48, "t_end": 0.25,
     "seed": 17, "boards": 1, "boards_min": 1, "boards_max": 2,
     "priority": "batch"},
    {"name": "bat-f", "model": "disk", "n": 48, "t_end": 0.0625,
     "seed": 18, "boards": 2, "priority": "batch"},
    {"name": "bat-g", "model": "plummer", "n": 48, "t_end": 0.0625,
     "seed": 19, "boards": 1, "priority": "batch"},
    {"name": "bat-h", "model": "bhbinary", "n": 34, "t_end": 0.0625,
     "seed": 20, "boards": 1, "priority": "batch"},
]

SERVE_SERVICE = {
    "boards_per_host": 4,
    "hosts_per_cluster": 1,
    "clusters": 1,
    "quantum_blocksteps": 4,
    "max_queue_depth": 16,
    "board_deaths": [{"round": 1, "board": 1}],
}

# 10 jobs, mixed sizes/priorities/models on a 4-board machine. Three
# carry autoscaling lease bounds; "auto-long" outlives the pack so a
# board is guaranteed to free up while it still runs — the grow path
# must fire at least once.
WIRE_JOBS = [
    {"name": "int-a", "model": "plummer", "n": 48, "t_end": 0.0625,
     "seed": 21, "boards": 1, "priority": "interactive"},
    {"name": "int-b", "model": "uniform", "n": 32, "t_end": 0.0625,
     "seed": 22, "boards": 1, "priority": "interactive"},
    {"name": "auto-long", "model": "plummer", "n": 64, "t_end": 0.125,
     "seed": 23, "boards": 1, "boards_min": 1, "boards_max": 2,
     "priority": "batch"},
    {"name": "auto-a", "model": "king", "w0": 5.0, "n": 48, "t_end": 0.0625,
     "seed": 24, "boards": 1, "boards_min": 1, "boards_max": 2,
     "priority": "batch"},
    {"name": "auto-b", "model": "hernquist", "n": 48, "t_end": 0.0625,
     "seed": 25, "boards": 1, "boards_min": 1, "boards_max": 2,
     "priority": "batch"},
    {"name": "bat-a", "model": "plummer", "n": 64, "t_end": 0.0625,
     "seed": 26, "boards": 1, "priority": "batch"},
    {"name": "bat-b", "model": "uniform", "n": 48, "t_end": 0.0625,
     "seed": 27, "boards": 1, "priority": "batch"},
    {"name": "bat-c", "model": "disk", "n": 48, "t_end": 0.0625,
     "seed": 28, "boards": 2, "priority": "batch"},
    {"name": "bat-d", "model": "plummer", "n": 32, "t_end": 0.0625,
     "seed": 29, "boards": 1, "priority": "batch"},
    {"name": "bat-e", "model": "bhbinary", "n": 34, "t_end": 0.0625,
     "seed": 30, "boards": 1, "priority": "batch"},
]

WIRE_SERVICE = {
    "boards_per_host": 4,
    "hosts_per_cluster": 1,
    "clusters": 1,
    "quantum_blocksteps": 4,
    "max_queue_depth": 16,
}

MACHINE = {
    "boards_per_host": 4,
    "hosts_per_cluster": 1,
    "clusters": 1,
    "quantum_blocksteps": 2,
    "max_queue_depth": 16,
}

# Mixed manifest for identity/sigterm: several models, one 2-board job,
# enough rounds that a mid-flight kill always lands before completion.
IDENTITY_JOBS = [
    {"name": "i-a", "model": "plummer", "n": 48, "t_end": 0.0625,
     "seed": 31, "boards": 1, "priority": "interactive"},
    {"name": "i-b", "model": "uniform", "n": 32, "t_end": 0.0625,
     "seed": 32, "boards": 1, "priority": "batch"},
    {"name": "i-c", "model": "king", "w0": 5.0, "n": 48, "t_end": 0.0625,
     "seed": 33, "boards": 2, "priority": "batch"},
    {"name": "i-d", "model": "hernquist", "n": 48, "t_end": 0.0625,
     "seed": 34, "boards": 1, "priority": "batch"},
    {"name": "i-e", "model": "plummer", "n": 64, "t_end": 0.0625,
     "seed": 35, "boards": 1, "priority": "batch"},
    {"name": "i-f", "model": "disk", "n": 48, "t_end": 0.0625,
     "seed": 36, "boards": 1, "priority": "batch"},
]

# Board 1 dies at round 1, while the round-0 dispatch still leases it, so
# recovery must also replay a revocation/re-queue without re-firing the
# death (the journal's board-death record marks it fired).
IDENTITY_DEATHS = [{"round": 1, "board": 1}]
IDENTITY_SERVICE = dict(MACHINE, board_deaths=IDENTITY_DEATHS)

# Chaos manifest: 12 jobs. "poison" faults every quantum until it is
# quarantined; "doomed" carries an impossible deadline; the rest must
# complete despite kills and the fault plan's two board deaths.
CHAOS_JOBS = (
    [{"name": f"c-{i:02d}", "model": ["plummer", "uniform", "hernquist"][i % 3],
      "n": 32 + 16 * (i % 3), "t_end": 0.0625, "seed": 100 + i,
      "boards": 2 if i == 4 else 1, "priority": "batch"}
     for i in range(10)]
    + [{"name": "poison", "model": "plummer", "n": 32, "t_end": 0.0625,
        "seed": 666, "boards": 1, "chaos_fail_quanta": 100},
       {"name": "doomed", "model": "plummer", "n": 48, "t_end": 0.0625,
        "seed": 667, "boards": 1, "deadline_rounds": 2}]
)

# Board-level hard failures only; entry times are scheduler rounds.
CHAOS_FAULT_PLAN = {
    "seed": 7,
    "hard_failures": [
        {"time": 2.0, "board": 1},
        {"time": 5.0, "board": 3},
    ],
}

TERMINAL = {"completed", "failed", "rejected", "quarantined"}


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2)


def write_manifest(path, service, jobs=None):
    doc = {"schema": "grape6-serve-manifest-v1", "service": service}
    if jobs is not None:
        doc["jobs"] = jobs  # omitted entirely for a daemon-shape manifest
    write_json(path, doc)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run(cmd, ok=(0,)):
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in ok:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: {' '.join(map(str, cmd))} exited "
                         f"{proc.returncode}")
    return proc.stdout


def serve_daemon(served_cmd, loadgen_cmd, timeout_s=120):
    """Start the daemon, wait for its bind banner, drive it with loadgen
    (which must drain it) and wait for a clean exit; returns its stdout."""
    served = subprocess.Popen(served_cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = served.stdout.readline()  # blocks until the bind happened
        if "listening on" not in line:
            raise SystemExit(f"FAIL: unexpected served banner: {line!r}")
        run(loadgen_cmd)
        out, _ = served.communicate(timeout=timeout_s)
        if served.returncode != 0:
            sys.stderr.write(out)
            raise SystemExit(f"FAIL: grape6_served exited {served.returncode}")
        return out
    finally:
        if served.poll() is None:
            served.kill()


def require_identical(pairs, failure):
    """Fail with `failure` and the labels of the (label, got, ref)
    snapshot pairs whose files differ; a missing file fails outright."""
    mismatches = []
    for label, got, ref in pairs:
        for p in (got, ref):
            if not os.path.exists(p):
                raise SystemExit(f"FAIL: missing snapshot {p}")
        if not filecmp.cmp(got, ref, shallow=False):
            mismatches.append(label)
    if mismatches:
        raise SystemExit(f"FAIL: {failure}: " + ", ".join(mismatches))


def require_recovered_identical(names, got_prefix, ref_prefix):
    require_identical([(n, f"{got_prefix}_{n}.snap", f"{ref_prefix}_{n}.snap")
                       for n in names], "snapshots differ after recovery for")


def check_exactly_once(report, jobs):
    """Every submitted job has exactly one terminal state, and the
    service counters agree with the per-job tally — the journal replay
    must not double-count work finished before a crash."""
    states = {}
    for j in report["jobs"]:
        if j["name"] in states:
            raise SystemExit(f"FAIL: job '{j['name']}' reported twice")
        states[j["name"]] = j["state"]
    expected = {j["name"] for j in jobs}
    if set(states) != expected:
        raise SystemExit(f"FAIL: job set mismatch: {sorted(states)} != "
                         f"{sorted(expected)}")
    non_terminal = {n: s for n, s in states.items() if s not in TERMINAL}
    if non_terminal:
        raise SystemExit(f"FAIL: non-terminal states after recovery: "
                         f"{non_terminal}")
    svc = report["service"]
    for state, counter in (("completed", "completed"), ("failed", "failed"),
                           ("quarantined", "quarantined"),
                           ("rejected", "rejected")):
        tally = sum(1 for s in states.values() if s == state)
        if svc[counter] != tally:
            raise SystemExit(
                f"FAIL: service.{counter}={svc[counter]} but {tally} "
                f"job(s) are {state} — terminal states not exactly-once")
    return states


def journal_lines(path):
    try:
        with open(path, "rb") as f:
            return f.read().count(b"\n")
    except FileNotFoundError:
        return 0


def run_until_lines_then_kill(cmd, journal, target_lines, sig,
                              timeout_s=180.0):
    """Start cmd; once the journal holds >= target_lines complete records,
    send `sig`. Returns (signalled, returncode). If the process finishes
    before the journal gets there, no signal is sent."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    deadline = time.monotonic() + timeout_s
    signalled = False
    while proc.poll() is None:
        if time.monotonic() > deadline:
            proc.kill()
            proc.wait()
            raise SystemExit(f"FAIL: {' '.join(cmd)} hung past {timeout_s}s")
        if journal_lines(journal) >= target_lines:
            proc.send_signal(sig)
            signalled = True
            break
        time.sleep(0.02)
    rc = proc.wait()
    proc.stdout.read()
    return signalled, rc


def mode_serve_identity(args):
    served = args.served
    # Shared run: all 10 jobs on one service, with the board death.
    write_manifest("shared.json", SERVE_SERVICE, SERVE_JOBS)
    run([served, "--manifest=shared.json", "--out=shared",
         "--report-out=shared_report.json"])

    report = load_json("shared_report.json")
    svc = report["service"]
    if svc["completed"] != len(SERVE_JOBS):
        raise SystemExit(
            f"FAIL: {svc['completed']}/{len(SERVE_JOBS)} jobs completed")
    if svc["boards_dead"] != 1:
        raise SystemExit("FAIL: the scheduled board death did not land")
    if svc["revocations"] < 1:
        raise SystemExit("FAIL: board death revoked no lease — the death "
                         "must hit a leased board to exercise re-queue")
    if sum(j.get("resizes", 0) for j in report["jobs"]) < 1:
        raise SystemExit("FAIL: no lease was autoscaled in the shared run — "
                         "bat-e's bounds must produce at least one resize")

    # Standalone runs: one job per service, full healthy machine, no
    # neighbors, no deaths. Identical physics is the contract.
    solo_service = {k: v for k, v in SERVE_SERVICE.items()
                    if k != "board_deaths"}
    pairs = []
    for job in SERVE_JOBS:
        name = job["name"]
        write_manifest(f"solo_{name}.json", solo_service, [job])
        run([served, f"--manifest=solo_{name}.json", f"--out=solo_{name}"])
        pairs.append((name, f"shared_{name}.snap", f"solo_{name}_{name}.snap"))
    require_identical(pairs, "shared vs standalone snapshots differ for")

    revoked = [j["name"] for j in report["jobs"] if j["revocations"] > 0]
    print(f"OK: {len(SERVE_JOBS)} jobs bit-identical shared vs standalone "
          f"(revoked under board death: {', '.join(revoked)})")


def mode_wire_identity(args):
    if not args.loadgen:
        raise SystemExit("FAIL: wire_identity needs --loadgen")
    # The daemon gets the service shape only; the jobs arrive over the
    # wire from loadgen (preloading them too would collide on names).
    write_manifest("service.json", WIRE_SERVICE)
    write_manifest("jobs.json", WIRE_SERVICE, WIRE_JOBS)
    endpoint = "unix:g6wire.sock"
    serve_daemon(
        [args.served, f"--listen={endpoint}", "--manifest=service.json",
         "--out=served", "--report-out=served_report.json"],
        [args.loadgen, f"--connect={endpoint}", "--manifest=jobs.json",
         "--connections=4", "--snapshots-out=remote",
         "--report-out=load.json", "--drain=true"])

    # Streaming contract, as measured by the client.
    load = load_json("load.json")
    if load["completed"] != len(WIRE_JOBS) or load["failed"] != 0:
        raise SystemExit(f"FAIL: {load['completed']}/{len(WIRE_JOBS)} "
                         f"completed, {load['failed']} failed")
    if not load["exactly_once_terminals"]:
        raise SystemExit("FAIL: terminal events were not exactly-once")
    if load["jobs_without_progress"] != 0:
        raise SystemExit(f"FAIL: {load['jobs_without_progress']} job(s) "
                         "streamed no progress events")
    if load["snapshots"] != len(WIRE_JOBS):
        raise SystemExit(f"FAIL: {load['snapshots']}/{len(WIRE_JOBS)} "
                         "snapshots streamed")

    # Autoscaling must have resized at least one lease server-side.
    report = load_json("served_report.json")
    resizes = sum(j.get("resizes", 0) for j in report["jobs"])
    if resizes < 1:
        raise SystemExit("FAIL: no lease was autoscaled during the served "
                         "run — the grow path never fired")

    # Standalone in-process reference: same manifest, no sockets.
    run([args.served, "--manifest=jobs.json", "--out=local"])

    pairs = []
    for job in WIRE_JOBS:
        name = job["name"]
        local = f"local_{name}.snap"
        pairs.append((f"{name} (remote vs local)", f"remote_{name}.snap",
                      local))
        pairs.append((f"{name} (served vs local)", f"served_{name}.snap",
                      local))
    require_identical(pairs, "snapshots differ for")

    autoscaled = [j["name"] for j in report["jobs"] if j.get("resizes", 0) > 0]
    print(f"OK: {len(WIRE_JOBS)} jobs streamed remotely, snapshots "
          f"bit-identical client/daemon/standalone; {resizes} lease "
          f"resize(s) on: {', '.join(autoscaled)}")


def mode_serve_recovery_identity(args):
    served = args.served
    write_manifest("identity.json", IDENTITY_SERVICE, IDENTITY_JOBS)

    # Uninterrupted reference (durable too: same code path, no kill).
    run([served, "--manifest=identity.json", "--out=ref",
         "--journal=ref.wal", "--checkpoint-every=1",
         "--report-out=ref_report.json"])
    ref = load_json("ref_report.json")
    if ref["service"]["completed"] != len(IDENTITY_JOBS):
        raise SystemExit("FAIL: reference run did not complete all jobs")
    if ref["service"]["boards_dead"] != 1 or ref["service"]["revocations"] < 1:
        raise SystemExit("FAIL: scheduled board death did not revoke a "
                         "lease in the reference run")

    # Durable run, kill -9 once some quanta are journaled (open + 6
    # submitted + 6 admitted = 13 records; 24 means real mid-flight work,
    # well before these jobs can drain).
    killed, rc = run_until_lines_then_kill(
        [served, "--manifest=identity.json", "--out=crash",
         "--journal=crash.wal", "--checkpoint-every=1"],
        "crash.wal", target_lines=24, sig=signal.SIGKILL)
    if not killed:
        raise SystemExit("FAIL: run finished before the kill landed — "
                         "enlarge the manifest")
    if rc != -signal.SIGKILL:
        raise SystemExit(f"FAIL: expected SIGKILL death, got rc={rc}")

    run([served, "--recover=crash.wal", "--out=crash",
         "--report-out=crash_report.json"])
    report = load_json("crash_report.json")
    check_exactly_once(report, IDENTITY_JOBS)
    if report["service"]["completed"] != len(IDENTITY_JOBS):
        raise SystemExit("FAIL: recovery did not complete all jobs")
    if report["service"]["boards_dead"] != 1:
        raise SystemExit("FAIL: fired board death lost across recovery")
    require_recovered_identical([j["name"] for j in IDENTITY_JOBS],
                                "crash", "ref")
    print(f"OK identity: kill -9 at >=24 journal records, recovery "
          f"bit-identical for {len(IDENTITY_JOBS)} jobs "
          f"(board death survived replay)")


def mode_serve_recovery_chaos(args):
    served = args.served
    write_manifest("chaos.json", MACHINE, CHAOS_JOBS)
    write_json("chaos_plan.json", CHAOS_FAULT_PLAN)

    # Reference: uninterrupted run of the same chaos (exit 3: the poison
    # and deadline jobs are SUPPOSED to end badly).
    run([served, "--manifest=chaos.json", "--fault-plan=chaos_plan.json",
         "--out=ref", "--journal=ref.wal", "--checkpoint-every=1",
         "--report-out=ref_report.json"], ok=(3,))
    ref_states = check_exactly_once(load_json("ref_report.json"), CHAOS_JOBS)
    if ref_states["poison"] != "quarantined":
        raise SystemExit("FAIL: poison job not quarantined in reference")
    if ref_states["doomed"] != "failed":
        raise SystemExit("FAIL: deadline job did not fail in reference")

    rng = random.Random(args.seed)
    cmd = [served, "--manifest=chaos.json", "--fault-plan=chaos_plan.json",
           "--out=got", "--journal=got.wal", "--checkpoint-every=1"]
    landed = 0
    for _ in range(args.kills):
        # 27 records = open + 12 submitted + (up to) 12 admitted + slack:
        # always kill after real scheduling work has been journaled.
        target = journal_lines("got.wal") + rng.randrange(5, 40) + (
            27 if landed == 0 else 0)
        killed, rc = run_until_lines_then_kill(
            cmd, "got.wal", target_lines=target, sig=signal.SIGKILL)
        if not killed:
            break  # ran to completion before the kill; recovery below is a no-op replay
        landed += 1
        cmd = [served, "--recover=got.wal", "--out=got"]
    run(cmd + ["--report-out=got_report.json"], ok=(0, 3))

    report = load_json("got_report.json")
    states = check_exactly_once(report, CHAOS_JOBS)
    if states != ref_states:
        diff = {n: (ref_states[n], states[n]) for n in states
                if states[n] != ref_states[n]}
        raise SystemExit(f"FAIL: terminal states diverge from the "
                         f"uninterrupted reference: {diff}")
    completed = [n for n, s in states.items() if s == "completed"]
    require_recovered_identical(completed, "got", "ref")
    for j in report["jobs"]:
        if j["name"] == "poison" and j["reject_reason"] != "quarantined":
            raise SystemExit("FAIL: poison job lost its quarantine reason")
        if j["name"] == "doomed" and j["reject_reason"] != "deadline-exceeded":
            raise SystemExit("FAIL: deadline job lost its failure reason")
    print(f"OK chaos: {landed} kill(s) (seed {args.seed}), exactly-once "
          f"terminal states for {len(CHAOS_JOBS)} jobs, {len(completed)} "
          f"snapshots bit-identical, poison quarantined, deadline enforced")


def mode_serve_recovery_sigterm(args):
    served = args.served
    write_manifest("identity.json", IDENTITY_SERVICE, IDENTITY_JOBS)
    run([served, "--manifest=identity.json", "--out=ref",
         "--journal=ref.wal", "--checkpoint-every=1",
         "--report-out=ref_report.json"])

    _, rc = run_until_lines_then_kill(
        [served, "--manifest=identity.json", "--out=got",
         "--journal=got.wal", "--checkpoint-every=1"],
        "got.wal", target_lines=24, sig=signal.SIGTERM)
    if rc != 0:
        raise SystemExit(f"FAIL: SIGTERM drain exited {rc}, wanted 0")
    with open("got.wal") as f:
        last = json.loads(f.readlines()[-1])
    if last["type"] != "drained":
        raise SystemExit(f"FAIL: journal does not end in a drained record "
                         f"(got '{last['type']}')")

    run([served, "--recover=got.wal", "--out=got",
         "--report-out=got_report.json"])
    report = load_json("got_report.json")
    check_exactly_once(report, IDENTITY_JOBS)
    if report["service"]["completed"] != len(IDENTITY_JOBS):
        raise SystemExit("FAIL: resume after drain did not complete all jobs")
    require_recovered_identical([j["name"] for j in IDENTITY_JOBS],
                                "got", "ref")
    print(f"OK sigterm: graceful drain at >=24 journal records, resume "
          f"bit-identical for {len(IDENTITY_JOBS)} jobs")


MODES = {
    "serve_identity": mode_serve_identity,
    "wire_identity": mode_wire_identity,
    "serve_recovery_identity": mode_serve_recovery_identity,
    "serve_recovery_chaos": mode_serve_recovery_chaos,
    "serve_recovery_sigterm": mode_serve_recovery_sigterm,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", required=True, choices=sorted(MODES))
    ap.add_argument("--served", required=True, help="path to grape6_served")
    ap.add_argument("--loadgen", help="path to grape6_loadgen (wire_identity)")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, default=20260809,
                    help="chaos kill-schedule seed")
    ap.add_argument("--kills", type=int, default=3,
                    help="max kill -9 rounds in chaos mode")
    args = ap.parse_args()
    args.served = os.path.abspath(args.served)
    if args.loadgen:
        args.loadgen = os.path.abspath(args.loadgen)

    # Start from an empty workdir: a journal left over from a previous run
    # would satisfy a kill trigger before the fresh process even starts.
    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    os.chdir(args.workdir)
    MODES[args.mode](args)


if __name__ == "__main__":
    main()
