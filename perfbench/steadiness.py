#!/usr/bin/env python3
"""Checks that the benchmark is steady: two independent sets of runs of the
same code must agree within the bounds BENCHMARK.json fixes.

Usage (from the root of the source tree):

    python3 perfbench/steadiness.py [--workloads a,b] [--runs 10]
        [--seconds <s>]

Each workload runs as two sets of --runs runs, seeds 1..--runs in both
sets, through the command BENCHMARK.json names. The sets are interleaved
seed by seed, and the set that runs first alternates, so a slow spell of
the host lands on both sets alike instead of shifting one of them. Every run
is echoed with its op count, tail percentile, samples beyond the tail,
schedule and output fingerprint, so a change in the work done is visible.
Then, per end-to-end metric, each set's median and quartiles are printed,
with the spread (q3 - q1) / median of each set. A (workload, metric) pair is
flagged when
  * a set's spread exceeds the metric's bound (setup_s exempt), or
  * the two set medians differ by more than the bound, or
  * two runs with the same seed report different schedules, tail
    percentiles or fingerprints.
A spread above a third of the bound is marked as a warning. The exit code
is 1 when anything is flagged.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

HEADER_PATTERNS = {
    "ops": re.compile(r"^# ops=(\d+)"),
    "tail": re.compile(r"^# tail=(p\d+) samples_beyond_tail=(\d+)"),
    "digest": re.compile(r"^# schedule=(\w+) fingerprint=(\w+)"),
}


def run_once(command, workload, seed, seconds):
    """One untraced run; returns (result dict, attribution dict)."""
    start = time.monotonic()
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit("run failed: %s seed %d (exit %d)" %
                         (workload, seed, proc.returncode))
    attribution = {"wall": time.monotonic() - start}
    for line in lines:
        for key, pattern in HEADER_PATTERNS.items():
            match = pattern.match(line)
            if match:
                attribution[key] = match.groups()
    return json.loads(lines[-1]), attribution


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    metrics = spec["end_to_end"]
    flagged = []

    for workload in args.workloads.split(","):
        sets = [{m["name"]: [] for m in metrics} for _ in range(2)]
        seen = {}
        for seed in range(1, args.runs + 1):
            order = (0, 1) if seed % 2 == 1 else (1, 0)
            for set_index in order:
                values = sets[set_index]
                result, attr = run_once(spec["command"], workload, seed,
                                        args.seconds)
                if not result["correct"]:
                    flagged.append((workload, "correct", "seed %d" % seed))
                for m in metrics:
                    values[m["name"]].append(
                        result["metrics"][m["name"]]["value"])
                echo = ((attr.get("tail") or ("?",))[0], attr.get("digest"))
                print("%s set %d seed %d: ops %s, tail %s with %s beyond, "
                      "schedule %s, fingerprint %s, failed %d, wall %.1f s; %s" %
                      (workload, set_index + 1, seed,
                       attr.get("ops", ("?",))[0],
                       *(attr.get("tail") or ("?", "?")),
                       *(attr.get("digest") or ("?", "?")),
                       result["failed"], attr["wall"],
                       " ".join("%s %.4g" % (m["name"], values[m["name"]][-1])
                                for m in metrics)), flush=True)
                if seed in seen and seen[seed] != echo:
                    flagged.append((workload, "schedule/fingerprint",
                                    "seed %d differs between sets" % seed))
                seen[seed] = echo

        print("%s:" % workload)
        print("  %-18s %8s | %12s %12s %12s %7s | %12s %12s %12s %7s | %7s"
              % ("metric", "bound", "q1", "median", "q3", "spread",
                 "q1", "median", "q3", "spread", "shift"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = []
            spreads = []
            for values in sets:
                q1, q2, q3 = quartiles(values[name])
                spread = (q3 - q1) / q2 if q2 else 0.0
                spreads.append(spread)
                cols += [q1, q2, q3, spread]
            med1, med2 = cols[1], cols[5]
            shift = (med2 - med1) / med1 if med1 else 0.0
            marks = []
            if name != "setup_s" and max(spreads) > bound:
                marks.append("SPREAD>BOUND")
                flagged.append((workload, name, "spread %.4f" % max(spreads)))
            elif name != "setup_s" and max(spreads) > bound / 3:
                marks.append("warn: spread>bound/3")
            if abs(shift) > bound:
                marks.append("SHIFT>BOUND")
                flagged.append((workload, name, "shift %.4f" % shift))
            print("  %-18s %8.3f | %12.5g %12.5g %12.5g %7.4f | "
                  "%12.5g %12.5g %12.5g %7.4f | %+7.4f %s"
                  % (name, bound, *cols, shift, " ".join(marks)))
        sys.stdout.flush()

    if flagged:
        print("FLAGGED:")
        for item in flagged:
            print("  %s %s: %s" % item)
        return 1
    print("steady: every (workload, metric) pair within its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
