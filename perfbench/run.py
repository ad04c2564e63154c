#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark (perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload integrate --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later calls rebuild only what changed. The
benchmark binary's last stdout line is the result JSON object, and this
script prints it last. Any build or run failure exits non-zero without a
result.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BUILD = pathlib.Path(".bench_build") / "perfbench"
WORK = pathlib.Path(".bench_work")
WORKLOADS = ("integrate", "serve_volatile", "serve_durable")


def build() -> None:
    """Configure once, then build incrementally; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "Makefile").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selftest:
        return subprocess.run([str(BUILD / "g6perfbench_selftest")]).returncode

    WORK.mkdir(exist_ok=True)
    # The binary's last stdout line is the result (correct:false on a
    # failed output check, which also exits non-zero).
    sys.stdout.flush()
    return subprocess.run(
        [str(BUILD / "g6perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--refs", str(HERE / "references.json"),
         "--work", str(WORK)]).returncode


if __name__ == "__main__":
    sys.exit(main())
