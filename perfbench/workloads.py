"""The four workloads: seeded request streams and engine configurations.

Every stream is a pure function of the seed.  The seed picks the order of
requests, which matrix each burst or slot uses, and the right-hand-side seeds;
it never changes how much work a run holds.  Each run draws the same number
of requests per matrix, and all matrices used by the serve workloads are
generated at the default PSTAB_SIZE_CAP of 360, so requests cost the same
whatever the seed draws.

Right-hand-side seeds come from a fixed pool per workload whose response
digests are checked in (reference/*.tsv, written by make_reference.py from a
single-threaded, cache-off replay), so every response byte is checked without
re-solving anything inside a run.
"""

import random

# Table I, paper order.
TABLE1 = ("plat362 mhd416b 662_bus lund_b bcsstk02 685_bus 1138_bus 494_bus "
          "nos5 bcsstk22 nos6 bcsstk09 lund_a nos1 bcsstk01 bcsstk06 "
          "msc00726 bcsstk08 nos2").split()
# Table I matrices with published n >= 362 (13 of them).
LARGE_TABLE1 = ("plat362 mhd416b 662_bus 685_bus 1138_bus 494_bus nos5 nos6 "
                "bcsstk09 bcsstk06 msc00726 bcsstk08 nos2").split()
# Published n from 362 to 726 (9 of them).
CHURN_MATRICES = ("plat362 mhd416b 662_bus 685_bus 494_bus nos5 nos6 "
                  "bcsstk06 msc00726").split()

# The paper's six grids (Figs 6-9, Tables II-III) as (solver, rescale).
PAPER_GRIDS = (("cg", False), ("cg", True), ("cholesky", False),
               ("cholesky", True), ("ir", False), ("ir", True))

RHS_POOL = {"serve_rhs": 128, "serve_churn": 64, "large_cg": 48}

# serve_rhs: every 40 ms a burst of 4 same-matrix Cholesky requests
# (100 req/s, about half of capacity_rps), as many passes over the 13
# matrices as fit in the run's seconds, then a saturation phase of 8 passes.
RHS_BURST, RHS_INTERVAL_S, RHS_CAP_PASSES = 4, 0.040, 8

# serve_churn: one Cholesky request every 125 ms (8 req/s) over 9 matrices x
# {plain, rescaled}.  The sequence of (matrix, scaling) slots is a fixed
# uniform draw (the template), and the seed only renames the 18 slots; at
# n = 360 every slot has the same footprint, so the LRU sees the same reuse
# pattern for every seed and hit/miss outcomes do not depend on it.  With a
# 24 MiB cache about 36% of requests find their factors.
CHURN_INTERVAL_S, CHURN_CAP, CHURN_WARM, CHURN_CACHE_MB = 0.125, 120, 9, 24

# large_cg: closed loop, one outstanding, CG on synth10k, one request per
# second of the run (each takes about 1 s).

ENGINE = {  # workload -> (engine threads, cache MiB, PSTAB_THREADS)
    "paper_grid": (1, 256, 1),
    "serve_rhs": (2, 256, 1),
    "serve_churn": (2, CHURN_CACHE_MB, 1),
    "large_cg": (1, 256, None),  # None = nproc
}


def key(req):
    """Identity of a request's work; reference digests are keyed by it."""
    return "%s|%s|%d|%d|%d" % (req["solver"], req["matrix"],
                               int(req.get("rescale", False)),
                               req.get("max_iter", 0), req.get("rhs_seed", 0))


def solve(solver, matrix, rescale=False, max_iter=0, rhs_seed=0):
    return {"solver": solver, "matrix": matrix, "rescale": rescale,
            "max_iter": max_iter, "rhs_seed": rhs_seed}


def rhs_seeds(workload, slot):
    """The fixed pool of right-hand-side seeds for one matrix slot."""
    base = {"serve_rhs": 100000, "serve_churn": 200000,
            "large_cg": 300000}[workload]
    return [base + 1000 * slot + j + 1 for j in range(RHS_POOL[workload])]


def churn_slots():
    return [(m, r) for r in (False, True) for m in CHURN_MATRICES]


def churn_template(length):
    """The fixed slot sequence (slot ranks, seed-independent): uniform
    draws, none repeating a slot used by the previous 3 requests, so no two
    requests the saturation phase keeps in flight together can coalesce."""
    rng = random.Random(20201)
    out = []
    while len(out) < length:
        rank = rng.randrange(len(churn_slots()))
        if rank not in out[-3:]:
            out.append(rank)
    return out


def plan(workload, seed, seconds):
    """One run's requests: {"setup": [...], "bursts": [[...]], "interval": s,
    "closed": [...]}.  Setup brings a fresh engine to the workload's warm
    state; bursts (open loop, one every `interval` seconds, for `seconds`)
    and closed (run with closed_outstanding() requests in flight) are
    measured.  paper_grid is the fixed grid whatever `seconds` is."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "paper_grid":
        # Setup generates all 19 suite matrices.
        reqs = [solve(s, m, r) for s, r in PAPER_GRIDS for m in TABLE1]
        rng.shuffle(reqs)
        return {"setup": [solve("cg", m, max_iter=1) for m in TABLE1],
                "closed": reqs}
    if workload == "large_cg":
        # Setup generates synth10k and runs one full solve with the paper's
        # right-hand side, so the first measured request finds the engine
        # as warm as the last.
        pool = rhs_seeds(workload, 0)
        return {"setup": [solve("cg", "synth10k", max_iter=1),
                          solve("cg", "synth10k")],
                "closed": [solve("cg", "synth10k", rhs_seed=s)
                           for s in rng.sample(pool, seconds)]}
    if workload == "serve_rhs":
        mats = LARGE_TABLE1
        seeds = {m: rng.sample(rhs_seeds(workload, i), RHS_POOL[workload])
                 for i, m in enumerate(mats)}

        def bursts(passes):
            out = []
            for _ in range(passes):
                order = list(mats)
                rng.shuffle(order)
                for m in order:
                    out.append([solve("cholesky", m, rhs_seed=seeds[m].pop())
                                for _ in range(RHS_BURST)])
            return out
        passes = int(seconds / (RHS_INTERVAL_S * len(mats)))
        if (passes + RHS_CAP_PASSES) * RHS_BURST > RHS_POOL[workload]:
            raise ValueError("serve_rhs: %d s needs more right-hand sides "
                             "than reference/serve_rhs.tsv holds" % seconds)
        open_bursts = bursts(passes)
        closed = [r for b in bursts(RHS_CAP_PASSES) for r in b]
        # Setup: one cold factorization per matrix.
        return {"setup": [solve("cholesky", m) for m in mats],
                "bursts": open_bursts, "interval": RHS_INTERVAL_S,
                "closed": closed}
    if workload == "serve_churn":
        slots = churn_slots()
        rename = list(range(len(slots)))
        rng.shuffle(rename)
        seeds = {i: rng.sample(rhs_seeds(workload, i), RHS_POOL[workload])
                 for i in range(len(slots))}
        n_open = int(seconds / CHURN_INTERVAL_S)
        tmpl = churn_template(n_open + CHURN_CAP)

        def req(rank, rhs_seed):
            m, r = slots[rename[rank]]
            return solve("cholesky", m, r, rhs_seed=rhs_seed)
        reqs = [req(rank, seeds[rename[rank]].pop()) for rank in tmpl]
        # Setup fills the cache past its bound with the CHURN_WARM most
        # frequent slots, the most frequent last (most recently used).
        setup = [req(rank, 0) for rank in reversed(range(CHURN_WARM))]
        return {"setup": setup, "bursts": [[r] for r in reqs[:n_open]],
                "interval": CHURN_INTERVAL_S, "closed": reqs[n_open:]}
    raise KeyError(workload)


def closed_outstanding(workload):
    threads = ENGINE[workload][0]
    # The serve workloads' saturation phase keeps 2 x engine threads busy;
    # the fixed-set workloads keep one request outstanding.
    return 2 * threads if workload in ("serve_rhs", "serve_churn") else 1


def reference_requests(workload):
    """Every request any seed of `workload` can send (for make_reference)."""
    if workload == "paper_grid":
        reqs = [solve(s, m, r) for s, r in PAPER_GRIDS for m in TABLE1]
        reqs += [solve("cg", m, max_iter=1) for m in TABLE1]
    elif workload == "large_cg":
        reqs = [solve("cg", "synth10k", rhs_seed=s)
                for s in [0] + rhs_seeds(workload, 0)]
        reqs += [solve("cg", "synth10k", max_iter=1)]
    elif workload == "serve_rhs":
        reqs = [solve("cholesky", m, rhs_seed=s)
                for i, m in enumerate(LARGE_TABLE1)
                for s in [0] + rhs_seeds(workload, i)]
    elif workload == "serve_churn":
        reqs = [solve("cholesky", m, r, rhs_seed=s)
                for i, (m, r) in enumerate(churn_slots())
                for s in [0] + rhs_seeds(workload, i)]
    return reqs
