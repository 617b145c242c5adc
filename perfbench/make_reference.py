#!/usr/bin/env python3
"""Regenerate reference/<workload>.tsv: the digest of every response any seed
of a workload can receive.

    python3 perfbench/make_reference.py [workload ...]

Each request is answered by `pstab serve --script` with one engine thread,
PSTAB_THREADS=1 and the cache off (--cache-mb 0), so every response is a
cold solve that shares nothing with any other request.  The requests are
split over up to nproc such processes.  Run from the repository root; it
builds like run.py does.  A change to any digest is a change to response
bytes, which the ROADMAP treats as a bug unless it is the point of a change.
"""

import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import wire  # noqa: E402
import workloads as wl  # noqa: E402


def digests(workload, procs):
    reqs = list({wl.key(r): r for r in wl.reference_requests(workload)}
                .values())
    work = os.path.join(run.RUNS, "reference")
    os.makedirs(work, exist_ok=True)
    children = []
    for p in range(procs):
        part = reqs[p::procs]
        path = os.path.join(work, "%s-%d.jsonl" % (workload, p))
        with open(path, "wb") as f:
            for i, r in enumerate(part):
                f.write(wire.request_bytes(r, i + 1) + b"\n")
        env = dict(os.environ, PSTAB_THREADS="1")
        children.append((part, subprocess.Popen(
            [run.PSTAB, "serve", "--script", path, "--threads", "1",
             "--cache-mb", "0"], env=env, stdout=subprocess.PIPE)))
    out = {}
    for part, child in children:
        lines = child.communicate()[0].splitlines()
        if child.returncode != 0 or len(lines) != len(part):
            raise SystemExit("reference replay failed for " + workload)
        for line in lines:
            rid = wire.frame_id(line)
            if b'"ok":true' not in line[:80]:
                raise SystemExit("request failed: %s" % line[:200])
            out[wl.key(part[rid - 1])] = run.response_digest(line)
    return out


def main():
    names = sys.argv[1:] or sorted(wl.ENGINE)
    run.build()
    procs = os.cpu_count() or 1
    for name in names:
        ref = digests(name, procs)
        path = os.path.join(run.HERE, "reference", name + ".tsv")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for k in sorted(ref):
                f.write("%s\t%s\n" % (k, ref[k]))
        print("%s: %d digests -> %s" % (name, len(ref), path))


if __name__ == "__main__":
    main()
