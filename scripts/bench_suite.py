"""Stage record for `suite_d1`: the work after the search, on one default replica.

On the seed-29 default replica (d=1, lambda=30, R=5, n = 13,911) a child
process, importing the checkout's own `src`, times three stages (best of 15
calls each) and counts what they do over one further call:

- `bplus_volume`: the 24-cell Monte Carlo summary
  (`experiments._summary_bplus_volume`), draws included;
- `planarity_check`: `rst.planarity_check` on the replica's tree, and the
  candidate edge pairs it enumerates (the total length of the ranges that
  `search.concat_ranges` expands during the call);
- `sweep_kernels`: the straightness, mbd_moment, annulus and confinement
  kernels of the replica, which share one tree as under `analyze`; each
  call hands them a fresh view of the built tree, so that no derived column
  or sweep is kept from an earlier call. It counts the sweeps they compute:
  the entries of the view's memo of `rst.deviation_sweep`.

Comparing two checkouts alternates their children, so that a slow spell of
the machine is shared; the record keeps every round, the best time over
rounds and its speed-up over the first checkout, with the machine, each
checkout's commit and the python, numpy and scipy versions.

    python3 scripts/bench_suite.py --checkout parent=../parent --checkout change=. \\
        --rounds 5 --out BENCH_suite_d1.json

A child takes a few seconds, so five rounds of two checkouts take under a
minute.
"""

from __future__ import annotations

import functools
import sys

from bench_validate import CALLS, SEED, compare

# the stages, under the name that the children of bench_validate.compare read
CLOUDS = {
    "bplus_volume": "experiments._summary_bplus_volume(cfg, None)",
    "planarity_check": "rst.planarity_check(tree)",
    "sweep_kernels": "straightness, mbd_moment, annulus, confinement kernels of replica 0",
}
KERNELS = ("straightness", "mbd_moment", "annulus", "confinement")


@functools.lru_cache(maxsize=1)
def replica():
    """The default config at seed 29 with one replica, and its tree."""
    from hyperrst import experiments

    cfg = experiments.default_config(seed=SEED, replicas=1)
    return cfg, experiments.tree_for(cfg.base, 0)


def best_of(call) -> float:
    import time

    best = float("inf")
    for _ in range(CALLS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def measure(name: str) -> dict:
    """One stage in this process: the best time and the stage's counts."""
    from hyperrst import experiments, rst, search

    cfg, tree = replica()
    if name == "bplus_volume":
        return {"stage_s_best": best_of(lambda: experiments._summary_bplus_volume(cfg, None)),
                "cells": len(experiments.bplus_grid(cfg))}
    if name == "planarity_check":
        seen = {"pairs_enumerated": 0}
        concat_ranges = search.concat_ranges

        def counting(lo, hi):
            out = concat_ranges(lo, hi)
            seen["pairs_enumerated"] += out.size
            return out

        search.concat_ranges = counting
        try:
            crossings = rst.planarity_check(tree)
        finally:
            search.concat_ranges = concat_ranges
        return {"stage_s_best": best_of(lambda: rst.planarity_check(tree)), "n": len(tree),
                "crossings": crossings, **seen}
    # the kernels read their tree through tree_for
    tree_for = experiments.tree_for

    def kernels():
        view = rst.RadialTree(tree.cloud, tree.parent, tree.parent_dist)
        experiments.tree_for = lambda base, rep: view
        for kernel in KERNELS:
            experiments.EXPERIMENTS[kernel][0](cfg, 0)
        return view

    try:
        sweeps = len(kernels()._sweeps)
        best = best_of(kernels)
    finally:
        experiments.tree_for = tree_for
    return {"stage_s_best": best, "sweeps": sweeps}


def main(argv=None) -> int:
    return compare(argv, __doc__, "bench_suite", CLOUDS, "stage_s_best", None)


if __name__ == "__main__":
    sys.exit(main())
