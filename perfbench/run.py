#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, RelWithDebInfo); the first run compiles the engine, later runs only
check that it is up to date. The benchmark's own output is
passed through; its last line is the JSON result. Build output goes to
standard error. --selftest runs the device/oracle self-tests and then every
workload for a few seconds, and fails unless each is correct with no failed
operation.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds (both no-ops when up to date); returns False on
    failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
              "perfbench_selftest"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run(args, capture=False):
    cmd = [os.path.join(BUILD, "perfbench")] + args
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout if capture else ""


def selftest():
    proc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")])
    if proc.returncode != 0:
        return 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for name in workloads:
        for trace in ("0", "1"):
            code, out = run(["--workload", name, "--seed", "1", "--seconds",
                             "2", "--trace", trace], capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else {}
            ok = (result.get("correct") is True and result.get("failed") == 0
                  and result.get("attempted", 0) > 0)
            print(f"{name} trace={trace}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"(attempted {result.get('attempted')}, "
                  f"failed {result.get('failed')})")
            if not ok:
                sys.stdout.write(out)
                return 1
    return 0


def main():
    if not build():
        return 1
    if sys.argv[1:] == ["--selftest"]:
        return selftest()
    code, _ = run(sys.argv[1:])
    return code


if __name__ == "__main__":
    sys.exit(main())
