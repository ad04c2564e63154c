#!/usr/bin/env python3
"""Self-tests for the peak-bench gate of bench_regress.py: kernel rows are
compared relative to the reference row of their own run.

Run: python3 scripts/bench_regress_test.py
"""

import copy
import pathlib
import sys
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import bench_regress  # noqa: E402

BASE = {
    "schema": "grape6-bench-peak-v1",
    "benchmarks": {
        "BM_PairwiseDouble": {"real_time_ns": 10.0, "cpu_time_ns": 10.0},
        "BM_PipelineInteraction/exact:0": {"real_time_ns": 100.0,
                                           "cpu_time_ns": 100.0},
        "BM_ChipPass/nj:512": {"real_time_ns": 1e6, "cpu_time_ns": 1e6,
                               "items_per_second": 2.4e7},
    },
    "speedups": {"chip_pass_batched_interactions_per_s": 2.4e7},
}


def scaled(snapshot, factor, only=None):
    """Every time multiplied and every rate divided by `factor` (a slower
    machine), or just the rows named in `only` (a slower kernel)."""
    out = copy.deepcopy(snapshot)
    for name, row in out["benchmarks"].items():
        if only is not None and name not in only:
            continue
        row["real_time_ns"] *= factor
        row["cpu_time_ns"] *= factor
        if "items_per_second" in row:
            row["items_per_second"] /= factor
    if only is None or "BM_ChipPass/nj:512" in only:
        for key in out["speedups"]:
            out["speedups"][key] /= factor
    return out


def gate(fresh):
    cmp = bench_regress.Comparison(0.5)
    bench_regress.compare_peak(BASE, fresh, cmp)
    return cmp


class PeakGateTest(unittest.TestCase):
    def test_same_run_passes(self):
        self.assertEqual(gate(BASE).regressions, [])

    def test_uniformly_slower_machine_passes(self):
        cmp = gate(scaled(BASE, 3.0))
        self.assertEqual(cmp.regressions, [])
        self.assertEqual(cmp.improvements, [])

    def test_slower_kernel_fails(self):
        cmp = gate(scaled(BASE, 2.0, only={"BM_ChipPass/nj:512"}))
        self.assertEqual(len(cmp.regressions), 4, cmp.regressions)
        self.assertTrue(all("BM_ChipPass" in r or "chip_pass" in r
                            for r in cmp.regressions))

    def test_slower_kernel_within_tolerance_passes(self):
        cmp = gate(scaled(BASE, 1.4, only={"BM_PipelineInteraction/exact:0"}))
        self.assertEqual(cmp.regressions, [])

    def test_faster_reference_alone_reads_as_kernel_regression(self):
        cmp = gate(scaled(BASE, 0.5, only={"BM_PairwiseDouble"}))
        self.assertTrue(cmp.regressions)

    def test_missing_reference_fails(self):
        fresh = copy.deepcopy(BASE)
        del fresh["benchmarks"]["BM_PairwiseDouble"]
        self.assertTrue(gate(fresh).regressions)


if __name__ == "__main__":
    unittest.main()
