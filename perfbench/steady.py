#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with different seeds, each
run as long as BENCHMARK.json's run_seconds, and prints, per end-to-end
metric, the median, the quartiles and the spread (q3 - q1) / median against
the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py                     # 10 runs of every workload
    python3 perfbench/steady.py --runs 5 --workloads udc-write-heavy
    python3 perfbench/steady.py --overhead --runs 3 # tracing overhead

A spread below a third of the bound is reported "steady", one below the
bound "within bound", anything else "UNSTEADY". setup_s is reported but,
like the acceptance rule it mirrors, judged only by its median.

--overhead runs every workload traced and untraced for the same length
(the traced phase is capped at 3 s) and prints the throughput difference.

Raw results are written as JSON to --out (default
.bench_build/steady-<time>.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRACED_SECONDS = 3


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def cpu_times():
    """Aggregate CPU tick counters of the host (Linux), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor took away between two samples."""
    if not before or not after or len(before) < 8:
        return float("nan")
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else float("nan")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def steadiness(bench, workloads, runs, seed_base):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    raw = {}
    for w in workloads:
        results = []
        for i in range(runs):
            t0, cpu0 = time.time(), cpu_times()
            r = run_once(w, seed_base + i, seconds, 0)
            r["steal"] = steal_share(cpu0, cpu_times())
            results.append(r)
            print(f"  {w} seed {seed_base + i}: correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"({time.time() - t0:.0f} s, host steal "
                  f"{r['steal'] * 100:.1f} %)", flush=True)
        raw[w] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"\n{w}: {runs} runs, failed share(s) {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for name, spec in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec["bound"]
            if name == "setup_s":
                verdict = "median only"
            elif spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
            print(f"  {name:18} {med:12.4g} {q1:12.4g} {q3:12.4g} "
                  f"{spread:8.3f} {bound:6.2f}  {verdict}")
        print(flush=True)
    return raw


def overhead(workloads, runs, seed_base):
    raw = {}
    print(f"tracing overhead, {TRACED_SECONDS} s phases, {runs} pair(s)")
    for w in workloads:
        plain, traced = [], []
        for i in range(runs):
            seed = seed_base + i
            p = run_once(w, seed, TRACED_SECONDS, 0)
            t = run_once(w, seed, TRACED_SECONDS, 1)
            plain.append(p["metrics"]["throughput_ops_s"]["value"])
            traced.append(t["metrics"]["trace.throughput_ops_s"]["value"])
            dropped = t["metrics"]["trace.dropped_events"]["value"]
            print(f"  {w} seed {seed}: untraced {plain[-1]:.0f} ops/s, "
                  f"traced {traced[-1]:.0f} ops/s, dropped events {dropped:.0f}",
                  flush=True)
        mp, mt = statistics.median(plain), statistics.median(traced)
        print(f"{w}: median untraced {mp:.0f}, traced {mt:.0f} ops/s, "
              f"overhead {(mp - mt) / mp * 100:+.1f} %\n", flush=True)
        raw[w] = {"untraced": plain, "traced": traced}
    return raw


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--overhead", action="store_true")
    ap.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", f"steady-{int(time.time())}.json"))
    args = ap.parse_args()
    if args.overhead:
        raw = overhead(args.workloads, args.runs, args.seed_base)
    else:
        raw = steadiness(bench, args.workloads, args.runs, args.seed_base)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(raw, f, indent=1)
    print(f"raw results: {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
