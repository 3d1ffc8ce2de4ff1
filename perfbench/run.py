#!/usr/bin/env python3
"""Builds the hcube benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload join-wave --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The build (CMake, Release) goes to the directory named by CARGO_TARGET_DIR,
default .bench_build, relative to the repository root; the first run
compiles, later runs only re-check that the binary is current.
Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. The exit code is the benchmark's: 0 when
every correctness gate passed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
BINARY = os.path.join(BUILD, "hcube_perfbench")


def build():
    """Configures and builds the benchmark; returns True on success."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target", "hcube_perfbench"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
