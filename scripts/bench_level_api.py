"""Stage record for `level_api_d1`: the scalar level API on its two trees.

On the two seed-29 trees of `level_api_d1` (d=1, lambda=10, R=4, replicas
0 and 1, n = 1.6k each) a child process, importing the checkout's own
`src`, times two stages (best of 15 calls each) and counts what they do:

- `level_crossings`: `rst.level_crossings` on the 100 levels
  r0 + (r1 - r0) k / 100 (k = 1..100, r0 = 1.5, r1 = 3.5) of both trees,
  and the crossings it returns;
- `cfd`: `rst.cfd(tree, r0, c)` on every one of those crossings, and the
  calls and the distinct ancestor edges at r0 they reach (found by
  `rst.ancestor_at_level`). Each call hands the stage a fresh view of
  each tree, so that the per-tree columns and memos are built inside the
  timed region, as in the workload.

Comparing two checkouts alternates their children, so that a slow spell of
the machine is shared; the record keeps every round, the best time over
rounds and its speed-up over the first checkout, with the machine, each
checkout's commit and the python, numpy and scipy versions.

    python3 scripts/bench_level_api.py --checkout parent=../parent --checkout change=. \\
        --rounds 5 --out BENCH_level_api.json

A child takes about two seconds, so five rounds of two checkouts take under
half a minute.
"""

from __future__ import annotations

import functools
import sys

from bench_suite import best_of
from bench_validate import SEED, compare

# the stages, under the name that the children of bench_validate.compare read
CLOUDS = {
    "level_crossings": "rst.level_crossings on 100 levels of replicas 0 and 1",
    "cfd": "rst.cfd(tree, r0, c) on every crossing of those levels",
}
# level_api_d1's full size in perfbench/worker.py
SIZE = {"lam": 10.0, "R": 4.0, "trees": 2, "levels": 100, "r0": 1.5, "r1": 3.5}


@functools.lru_cache(maxsize=1)
def trees():
    """The workload's trees and the levels of its grid."""
    from hyperrst import rst, sampler

    cfg = sampler.CloudConfig(d=1, lam=SIZE["lam"], R=SIZE["R"], seed=SEED)
    r0, r1, levels = SIZE["r0"], SIZE["r1"], SIZE["levels"]
    grid = [r0 + (r1 - r0) * k / levels for k in range(1, levels + 1)]
    return [rst.build(sampler.sample_ball(cfg, rep)) for rep in range(SIZE["trees"])], grid


def measure(name: str) -> dict:
    """One stage in this process: the best time and the stage's counts."""
    from hyperrst import rst

    built, grid = trees()
    r0 = SIZE["r0"]
    crossings = [[rst.level_crossings(tree, r) for r in grid] for tree in built]
    if name == "level_crossings":
        best = best_of(lambda: [rst.level_crossings(tree, r) for tree in built for r in grid])
        return {"stage_s_best": best, "levels": len(grid) * len(built),
                "crossings": sum(len(cs) for per_tree in crossings for cs in per_tree)}

    def grid_cfd():
        for tree, per_tree in zip(built, crossings):
            view = rst.RadialTree(tree.cloud, tree.parent, tree.parent_dist)
            for cs in per_tree:
                for c in cs:
                    rst.cfd(view, r0, c)

    ancestors = sum(
        len({rst.ancestor_at_level(tree, c, r0).edge_child for cs in per_tree for c in cs})
        for tree, per_tree in zip(built, crossings)
    )
    return {"stage_s_best": best_of(grid_cfd),
            "cfd_calls": sum(len(cs) for per_tree in crossings for cs in per_tree),
            "distinct_ancestors": ancestors}


def main(argv=None) -> int:
    return compare(argv, __doc__, "bench_level_api", CLOUDS, "stage_s_best", None)


if __name__ == "__main__":
    sys.exit(main())
