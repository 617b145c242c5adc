#!/usr/bin/env python3
"""Steadiness report: run each workload N times with different seeds and
print every metric's median, quartiles, spread and range.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads paper_grid,serve_rhs,...] [--seconds 10] [--trace 0]

Run from the repository root.  Spread is (Q3 - Q1) / median with the
quartiles of Python's statistics.quantiles(values, n=4), the figure each
bound in BENCHMARK.json is set against.  The raw values are also written to
.bench_runs/steadiness-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    t0 = time.monotonic()
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    took = time.monotonic() - t0
    if r.returncode != 0:
        print("%s seed %d failed (exit %d):\n%s"
              % (workload, seed, r.returncode, r.stderr[-2000:]))
        return None, took
    return json.loads(r.stdout.strip().splitlines()[-1]), took


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    raw = {}
    for w in args.workloads.split(","):
        values, took = {}, []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, t = one_run(w, seed, args.seconds, args.trace)
            took.append(t)
            if res is None:
                continue
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
        raw[w] = values
        print("%s: %d runs, %.1f s per run (median)"
              % (w, args.runs, statistics.median(took)))
        print("  %-34s %12s %12s %12s %8s %12s %12s %6s"
              % ("metric", "median", "q1", "q3", "spread", "min", "max",
                 "bound"))
        for k, v in values.items():
            q1, q2, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med if med else float("nan")
            b = bounds.get(k)
            print("  %-34s %12.6g %12.6g %12.6g %8.4f %12.6g %12.6g %6s"
                  % (k, med, q1, q3, spread, min(v), max(v),
                     "" if b is None else b))
        sys.stdout.flush()
    os.makedirs(".bench_runs", exist_ok=True)
    path = os.path.join(".bench_runs", "steadiness-%d.json" % time.time())
    with open(path, "w") as f:
        json.dump(raw, f, indent=1)
    print("raw values:", path)


if __name__ == "__main__":
    main()
