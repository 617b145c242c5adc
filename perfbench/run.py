#!/usr/bin/env python3
"""Benchmark of the pstab solver stack, driven from outside through
`pstab serve`.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds `pstab` and the in-process
tracer into .bench_build/ from the sources in the tree.  Workloads
(README.md explains each): paper_grid, serve_rhs, serve_churn, large_cg.

--trace 0 measures the workload over the wire and prints the end-to-end
metrics.  --trace 1 repeats that untraced run, then replays the same seeded
inputs in process through perfbench_trace (trace.cpp) and prints the
per-layer metrics.  Every run checks every response byte against
reference/<workload>.tsv; a failed or mismatching response makes the run
exit 1 without printing metrics.  Each run also writes a record to
.bench_runs/.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import wire  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
PSTAB = os.path.join(BUILD, "tools", "pstab")
TRACER = os.path.join(BUILD, "perfbench_trace")
RUNS = ".bench_runs"
SETUP_REPEATS = 3


def log(*a):
    print(*a, file=sys.stderr, flush=True)


def build():
    """Configure and build pstab + perfbench_trace from this tree."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise SystemExit("run.py: no pstab sources here (run from the repo "
                         "root)")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "pstab_cli", "perfbench_trace"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit("run.py: build step failed: %s" % " ".join(cmd))


def load_reference(workload):
    ref = {}
    with open(os.path.join(HERE, "reference", workload + ".tsv")) as f:
        for line in f:
            k, d = line.split()
            ref[k] = d
    return ref


def response_digest(payload):
    """Digest of a response frame with its id removed."""
    rest = payload[len(wire.PREFIX):]
    return hashlib.sha256(rest[rest.index(b","):]).hexdigest()[:16]


def check(sent, ref):
    """-> (failed, mismatched): failed = missing or not ok."""
    failed = mismatched = 0
    for s in sent:
        if s.payload is None or b'"ok":true' not in s.payload[:80]:
            failed += 1
            log("FAILED %s -> %r" % (wl.key(s.req), (s.payload or b"")[:200]))
        elif ref.get(wl.key(s.req)) != response_digest(s.payload):
            mismatched += 1
            log("MISMATCH %s" % wl.key(s.req))
    return failed, mismatched


def tail(samples):
    """(value, percentile): the highest percentile with >= 10 samples beyond
    it; phases with fewer than 20 samples report their maximum."""
    xs = sorted(samples)
    if len(xs) < 20:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def engine_for(workload, stderr):
    threads, cache_mb, pst = wl.ENGINE[workload]
    return wire.Engine(PSTAB, threads, cache_mb, pst or os.cpu_count() or 1,
                       stderr)


def run_wire(workload, phases, setup_repeats, stderr):
    """One untraced run over the wire: setup (repeated on fresh engines),
    measured phases, stats."""
    setups = []
    setup_sent = []
    for k in range(setup_repeats):
        t0 = time.perf_counter()
        engine = engine_for(workload, stderr)
        try:
            setup_sent += wire.closed_loop(engine, phases["setup"], 1)
        except BaseException:
            engine.close()
            raise
        setups.append(time.perf_counter() - t0)
        if k + 1 < setup_repeats:
            engine.shutdown()
    gc.disable()  # no collector pauses inside the measured phases
    try:
        open_sent, lag = [], []
        t0 = time.perf_counter()
        if "bursts" in phases:
            open_sent, lag = wire.open_loop(engine, phases["bursts"],
                                            phases["interval"])
        outstanding = wl.closed_outstanding(workload)
        closed_sent = wire.closed_loop(engine, phases["closed"], outstanding)
        t1 = time.perf_counter()
        stats = json.loads(engine.op("stats"))["result"]
        rss = engine.peak_rss_mb()
    finally:
        gc.enable()
        engine.shutdown()
    return {"setups": setups, "setup_sent": setup_sent,
            "open": open_sent, "lag": lag, "closed": closed_sent,
            "outstanding": outstanding, "wall": t1 - t0, "stats": stats,
            "rss": rss}


def capacity(sent, outstanding, windows=4):
    """Completions per second of a closed-loop phase.  A saturation phase
    (several requests outstanding) reports the median over `windows`
    consecutive windows of equal completion counts, so that a short stall
    (a delayed ACK, a burst of CPU steal) does not set the figure: over 10
    runs of serve_rhs one overall rate spread by 0.25, the median by 0.11.
    A one-outstanding set of mixed requests uses its overall rate, since
    its windows would hold different request mixes from seed to seed."""
    done = sorted(s.done for s in sent)
    start = min(s.sent for s in sent)
    if outstanding == 1:
        return len(done) / (done[-1] - start)
    cut = [len(done) * k // windows for k in range(windows + 1)]
    edge = [start] + [done[c - 1] for c in cut[1:]]
    return statistics.median((cut[k + 1] - cut[k]) / (edge[k + 1] - edge[k])
                             for k in range(windows))


def iqm(samples):
    """Interquartile mean: the mean of the middle half of the samples.  The
    plain median of the 114 grid requests jumps between neighbouring request
    classes (10-run spread 0.24 against 0.085 for this)."""
    xs = sorted(samples)
    lo, hi = len(xs) // 4, len(xs) - len(xs) // 4
    return statistics.mean(xs[lo:hi])


def e2e_metrics(run):
    lat = ([s.done - s.due for s in run["open"]] if run["open"]
           else [s.done - s.sent for s in run["closed"]])
    tv, tp = tail(lat)
    return {
        "setup_s": (statistics.median(run["setups"]), "s"),
        "wall_s": (run["wall"], "s"),
        "iqm_ms": (1e3 * iqm(lat), "ms"),
        "tail_ms": (1e3 * tv, "ms"),
        "capacity_rps": (capacity(run["closed"], run["outstanding"]),
                         "1/s"),
        "peak_rss_mb": (run["rss"], "MiB"),
    }, tp, lat


def fingerprint():
    fp = {"nproc": os.cpu_count(), "machine": platform.machine(),
          "cpu_model": "unknown", "build_type": "unknown",
          "compiler": "unknown", "cxx_flags": "", "simd_isa": "unknown",
          "commit": "unknown"}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    fp["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                k, v = line.rstrip("\n").split("=", 1)
                cache[k.split(":")[0]] = v
    fp["build_type"] = cache.get("CMAKE_BUILD_TYPE", "unknown")
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    ver = subprocess.run([cxx, "--version"], capture_output=True, text=True)
    fp["compiler"] = (ver.stdout.splitlines() or ["unknown"])[0]
    fp["cxx_flags"] = " ".join(
        x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                    cache.get("CMAKE_CXX_FLAGS_" + fp["build_type"].upper(),
                              ""), "-Wall -Wextra") if x)
    isa = subprocess.run([TRACER, "--isa"], capture_output=True, text=True)
    fp["simd_isa"] = isa.stdout.strip() or "unknown"
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            fp["commit"] = git.stdout.strip()
    except OSError:
        pass
    return fp


def phase_counts(sent):
    ok = sum(1 for s in sent if s.payload and b'"ok":true' in s.payload[:80])
    return {"sent": len(sent), "succeeded": ok, "failed": len(sent) - ok}


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h


def probes(workload):
    """Matrices the traced run's direct layer timings use: (dense probe for
    Cholesky/IR/scaling, CG probe, matrices whose entries feed the op and
    kernel operands)."""
    mats = {"paper_grid": wl.TABLE1, "serve_rhs": wl.LARGE_TABLE1,
            "serve_churn": wl.CHURN_MATRICES, "large_cg": ["synth10k"]}
    cg = "synth10k" if workload == "large_cg" else "plat362"
    return "plat362", cg, mats[workload]


def run_traced(workload, seed, plan, wire_run, wire_p50_ms, stderr):
    """In-process traced replay; returns (per-layer metrics, units, info)."""
    threads, cache_mb, pst = wl.ENGINE[workload]
    frames = [wire.request_bytes(r, 0).decode() for r in plan["setup"]]
    dense, cg, operands = probes(workload)
    spec = {"threads": threads, "cache_mb": cache_mb,
            "interval": plan.get("interval", 0.0),
            "outstanding": wl.closed_outstanding(workload),
            "setup": frames,
            "open": [[wire.request_bytes(r, 0).decode() for r in b]
                     for b in plan.get("bursts", [])],
            "closed": [wire.request_bytes(r, 0).decode()
                       for r in plan["closed"]],
            "probe_dense": dense, "probe_cg": cg,
            "operand_matrices": operands,
            "spans_out": os.path.join(RUNS, "spans-%s-s%d.json"
                                      % (workload, seed))}
    spec_path = os.path.join(RUNS, "trace-input-%s-s%d.json"
                             % (workload, seed))
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    env = dict(os.environ, PSTAB_THREADS=str(pst or os.cpu_count() or 1))
    r = subprocess.run([TRACER, spec_path], stdout=subprocess.PIPE,
                       stderr=stderr, text=True, env=env, timeout=170)
    if r.returncode != 0:
        raise SystemExit("run.py: perfbench_trace failed (%d)" % r.returncode)
    out = json.loads(r.stdout.strip().splitlines()[-1])
    # The in-process replay must answer every request with the wire's bytes.
    measured = wire_run["open"] + wire_run["closed"]
    for i, s in enumerate(measured):
        cut = s.payload.index(b",", len(wire.PREFIX))
        if out["responses"].get(str(i)) != fnv1a64(s.payload[cut:]):
            raise SystemExit("run.py: traced replay answered %s differently"
                             % wl.key(s.req))
    layer, units = out["metrics"], out["units"]
    # Layer counters come from the engine's own stats op after the untraced
    # run over the wire.
    st = wire_run["stats"]
    cache = st["cache"]
    lookups = cache["hits"] + cache["misses"]
    extra = {
        "serve.transport_ms": (wire_p50_ms - layer["serve.engine.p50_ms"],
                               "ms"),
        "serve.engine.coalesced_share": (st["coalesced"]
                                         / max(1, st["requests"]), "ratio"),
        "serve.engine.batches": (st["batches"], "count"),
        "serve.engine.steals": (st["steals"], "count"),
        "serve.cache.hit_ratio": (cache["hits"] / max(1, lookups), "ratio"),
        "serve.cache.insertions": (cache["insertions"], "count"),
        "serve.cache.evictions": (cache["evictions"], "count"),
        "serve.cache.bytes": (cache["bytes"], "B"),
        "trace.overhead_share": (out["traced_wall_s"] / wire_run["wall"],
                                 "ratio"),
    }
    for k, (v, u) in extra.items():
        layer[k], units[k] = v, u
    info = {k: out[k] for k in ("traced_wall_s", "traced_e2e_s", "spans")}
    return layer, units, info


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.ENGINE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    ref = load_reference(args.workload)
    os.makedirs(RUNS, exist_ok=True)
    errlog = open(os.path.join(RUNS, "engine-stderr.log"), "a")
    plan = wl.plan(args.workload, args.seed, args.seconds)
    # A traced run reports no setup_s, so it sets up once.
    run = run_wire(args.workload, plan, 1 if args.trace else SETUP_REPEATS,
                   errlog)

    measured_sent = run["open"] + run["closed"]
    all_sent = run["setup_sent"] + measured_sent
    failed, mismatched = check(all_sent, ref)
    lag_p99 = lag_max = 0.0
    if run["lag"]:
        lag_p99 = sorted(run["lag"])[int(0.99 * (len(run["lag"]) - 1))]
        lag_max = max(run["lag"])
    # The generator fell behind when 1% of bursts left after the next one
    # was due, or one left four intervals late: then the offered load was no
    # longer the schedule's.
    interval = plan.get("interval", 0.0)
    behind = bool(run["lag"]) and (lag_p99 > interval
                                   or lag_max > 4 * interval)
    e2e, tail_pct, lat = e2e_metrics(run)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "host": fingerprint(),
        "phases": {"setup": phase_counts(run["setup_sent"]),
                   "open_loop": phase_counts(run["open"]),
                   "closed_loop": phase_counts(run["closed"])},
        "setup_runs_s": run["setups"],
        "generator_lag_ms": {"p99": 1e3 * lag_p99, "max": 1e3 * lag_max},
        "tail_percentile": tail_pct, "latency_samples": len(lat),
        "p50_ms": 1e3 * statistics.median(lat),
        "latencies_ms": sorted(round(1e3 * x, 3) for x in lat),
        "mismatched": mismatched, "engine_stats": run["stats"],
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if args.trace:
        layer, units, info = run_traced(args.workload, args.seed, plan, run,
                                        1e3 * statistics.median(lat), errlog)
        record["per_layer"] = layer
        record["trace"] = info
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
    path = os.path.join(RUNS, "%s-s%d-t%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)

    log("%s seed %d: %d requests, tail = p%.2f of %d, generator lag p99 "
        "%.2f ms max %.2f ms, record %s"
        % (args.workload, args.seed, len(all_sent), tail_pct, len(lat),
           1e3 * lag_p99, 1e3 * lag_max, path))
    for k, m in metrics.items():
        log("  %-36s %14.6g %s" % (k, m["value"], m["unit"]))
    if failed or mismatched or behind:
        log("run rejected: %d failed, %d mismatched responses%s"
            % (failed, mismatched,
               ", generator fell behind schedule" if behind else ""))
        return 1
    print(json.dumps({"correct": True, "attempted": len(all_sent),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
