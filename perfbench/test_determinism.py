#!/usr/bin/env python3
"""The benchmark's own test: the sim workloads are pure functions of the seed.

    python3 perfbench/test_determinism.py

For each sim workload, two traced runs with the same seed must print the same
workload-clock figures (sim_msgs_per_s, latency, outage_ms, join_ms) and the
same per-layer counts, and both must pass the correctness gate; a different
seed must change the figures. Host-time metrics are not compared.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIM_WORKLOADS = ("flood", "invoke", "failover")


def host_timed(name, unit):
    return unit == "ns" or name.startswith("trace.")


def run(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    clock = next(l for l in out if l.startswith("# workload-clock "))
    result = json.loads(out[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if not host_timed(k, v["unit"])}
    return json.loads(clock[len("# workload-clock "):]), counts, result


class Determinism(unittest.TestCase):
    def test_same_seed_same_figures(self):
        for w in SIM_WORKLOADS:
            with self.subTest(workload=w):
                clock_a, counts_a, res_a = run(w, 7)
                clock_b, counts_b, res_b = run(w, 7)
                self.assertTrue(res_a["correct"] and res_b["correct"])
                self.assertEqual(res_a["failed"], 0)
                self.assertEqual(clock_a, clock_b)
                self.assertEqual(counts_a, counts_b)
                clock_c, _, _ = run(w, 8)
                self.assertNotEqual(clock_a, clock_c, "the seed must reach the inputs")


if __name__ == "__main__":
    unittest.main()
