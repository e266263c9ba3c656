#!/usr/bin/env python3
"""Builds mudb's end-to-end benchmark from source and runs one workload.

Usage (from the root of the source tree):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--workers <n>] [--ops <n>]

The first call configures and builds perfbench/ (which builds the mudb
libraries of the enclosing tree) into $CARGO_TARGET_DIR, default
.bench_build, in Release mode; later calls only rebuild what changed. Build
output goes to stderr. The driver's stdout is passed through unchanged: its
last line is the JSON result. The exit code is the driver's, or 1 when the
build fails. See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    compile_cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
                   "-j", "4"]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
