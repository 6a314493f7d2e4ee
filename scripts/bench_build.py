"""Layer record for `rst.build`: its time and what its k-d search does.

For each cloud of `scripts/bench_validate.py` and a d=2, lambda=1, R=5 cloud
(seed 29), a child process importing the checkout's own `src` times
`rst.build` (best of 15 calls) and counts, over one further call, what
`search.nearest_lower` does, through `ChartIndex.table`, `ChartIndex.ball`
and `search.concat_ranges`: the rows that ask for the wide neighbour table
(pass 1 found no smaller-key point among their 8 nearest), the rows left
unbounded (they scan their smaller-key prefix), the route-2 rows (they take
a k-d ball query) and the route-2 candidates (the points those balls hold).
Comparing two checkouts alternates their children, so that a slow spell of
the machine is shared; the record keeps every round, the best time over
rounds and its speed-up over the first checkout, with the machine, each
checkout's commit and the python, numpy and scipy versions.

    python3 scripts/bench_build.py --checkout parent=../parent --checkout change=. \\
        --rounds 5 --out BENCH_build.json

A child takes about ten seconds, so five rounds of two checkouts take under
two minutes.
"""

from __future__ import annotations

import sys

from bench_validate import CALLS, SEED, compare
from bench_validate import CLOUDS as VALIDATE_CLOUDS

CLOUDS = {**VALIDATE_CLOUDS, "d2_R5_n35k": {"d": 2, "lam": 1.0, "R": 5.0}}


def measure(name: str) -> dict:
    """One cloud in this process: n, the best build time, and the search's
    rows and candidates over one counted call."""
    import time

    from hyperrst import rst, sampler, search

    cloud = sampler.sample_ball(sampler.CloudConfig(seed=SEED, **CLOUDS[name]))
    best = float("inf")
    for _ in range(CALLS):
        start = time.perf_counter()
        rst.build(cloud)
        best = min(best, time.perf_counter() - start)
    seen = dict.fromkeys(("wide_rows", "unbounded_rows", "route2_rows", "route2_candidates"), 0)
    chart = search.ChartIndex
    table, ball, concat_ranges = chart.table, chart.ball, search.concat_ranges

    def counting_table(self, pts, wide=False):
        if wide:
            seen["wide_rows"] += pts.size
        return table(self, pts, wide)

    def counting_ball(self, centres, radii):
        counts, hits = ball(self, centres, radii)
        seen["route2_rows"] += counts.size
        seen["route2_candidates"] += int(counts.sum())
        return counts, hits

    def counting_ranges(lo, hi):
        # within nearest_lower, only the unbounded rows' prefix scans
        seen["unbounded_rows"] += lo.size
        return concat_ranges(lo, hi)

    chart.table, chart.ball, search.concat_ranges = counting_table, counting_ball, counting_ranges
    try:
        rst.build(cloud)
    finally:
        chart.table, chart.ball, search.concat_ranges = table, ball, concat_ranges
    n = len(cloud)
    return {
        "n": n,
        "build_s_best": best,
        "calls": CALLS,
        **{f"{k}_per_point": v / n for k, v in seen.items()},
        **seen,
    }


def main(argv=None) -> int:
    return compare(argv, __doc__, "bench_build", CLOUDS, "build_s_best", "route2_candidates")


if __name__ == "__main__":
    sys.exit(main())
