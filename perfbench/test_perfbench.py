#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of the source tree (the first run builds the driver):

    python3 perfbench/test_perfbench.py

* Every workload runs a few ops at 1 and at 2 workers and must report the
  same schedule and output fingerprint (the determinism contract).
* Every workload passes its output checks on a held-out seed, untraced and
  traced; the traced run reports every per-layer metric of BENCHMARK.json.
* A malformed flag exits non-zero with the usage text.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
# Not among the seeds the benchmark was tuned on.
HELD_OUT_SEED = "20261017"

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DIGEST = re.compile(r"^# schedule=\w+ fingerprint=\w+ \(first \d+ ops\)$",
                    re.M)


def run(*args):
    return subprocess.run(RUN + list(args), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class DeterminismTest(unittest.TestCase):
    def test_fingerprints_match_at_one_and_two_workers(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                digests = []
                for workers in ("1", "2"):
                    proc = run("--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", "0",
                               "--ops", "4", "--workers", workers)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertTrue(result_of(proc)["correct"])
                    digests.append(DIGEST.search(proc.stdout).group(0))
                self.assertEqual(digests[0], digests[1])


class HeldOutSeedTest(unittest.TestCase):
    def test_outputs_pass_their_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", HELD_OUT_SEED,
                           "--seconds", "1", "--trace", "0", "--ops", "6")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(result["attempted"], 6)
                self.assertEqual(
                    sorted(result["metrics"]),
                    sorted(m["name"] for m in SPEC["end_to_end"]))

    def test_tail_percentile_matches_benchmark_json(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                fixed = re.search(r"\(tail (p\d+)\)", workload["why"])
                proc = run("--workload", workload["name"], "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--ops", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                reported = re.search(r"^# tail=(p\d+) ", proc.stdout, re.M)
                self.assertEqual(fixed.group(1), reported.group(1))

    def test_traced_run_is_bit_identical_and_complete(self):
        names = sorted(m["name"] for m in SPEC["per_layer"])
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run("--workload", workload, "--seed", HELD_OUT_SEED,
                           "--seconds", "1", "--trace", "1", "--ops", "3")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = result_of(proc)
                self.assertTrue(result["correct"])
                self.assertEqual(sorted(result["metrics"]), names)


class FlagTest(unittest.TestCase):
    def test_malformed_flags_print_usage(self):
        good = ["--workload", "rerank_stream", "--seed", "1", "--seconds",
                "1", "--trace", "0"]
        cases = [
            [],
            good[:-2],                                  # --trace missing
            good + ["--bogus", "1"],
            ["--workload", "no_such_workload"] + good[2:],
            good[:4] + ["--seconds", "ten"] + good[6:],
            good[:6] + ["--trace", "2"],
            good[:2] + ["--seed", "-1"] + good[4:],
            good + ["--workers", "3"],
            good + ["--ops"],
        ]
        for args in cases:
            with self.subTest(args=args):
                proc = run(*args)
                self.assertNotEqual(proc.returncode, 0)
                self.assertIn("usage: perfbench", proc.stderr)
                self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
