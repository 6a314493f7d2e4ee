"""Stage record for sampling and the half-space sorts, at two scales each.

A child process, importing the checkout's own `src`, times six stages at
seed 29 (best of 15 calls each) and counts their points:

- `ball_d1`: `sampler.sample_ball` at d=1, lambda=30, R=5 (`suite_d1`'s cloud);
- `ball_d2`: `sampler.sample_ball` at d=2, lambda=1, R=5;
- `half_d1_sample`, `half_d2_sample`: `sampler.sample_half_arrays` on
  replica 0 of the default coupling window (d=1, lambda=30) and of the
  same window at d=2, lambda=2;
- `half_d1_ordered`, `half_d2_ordered`: the six sorts of a coupling
  replica on those points: a fresh `dsf.HalfCloud`, then `ordered` by the
  DSF key -y and by the distances from O(h) for each h of the default grid
  (the keys are computed before the timed region).

No sort key of these clouds repeats a value, so every stage sorts by one
`np.argsort` and none by the tie-breaking `np.lexsort`.

Comparing two checkouts alternates their children, so that a slow spell of
the machine is shared; the record keeps every round, the best time over
rounds and its speed-up over the first checkout, with the machine, each
checkout's commit and the python, numpy and scipy versions.

    python3 scripts/bench_sampling.py --checkout parent=../parent --checkout change=. \\
        --rounds 5 --out BENCH_sampling.json

A child takes about ten seconds, so five rounds of two checkouts take under
two minutes.
"""

from __future__ import annotations

import functools
import sys

from bench_suite import best_of
from bench_validate import SEED, compare

# the stages, under the name that the children of bench_validate.compare read
CLOUDS = {
    "ball_d1": "sampler.sample_ball at d=1, lambda=30, R=5",
    "ball_d2": "sampler.sample_ball at d=2, lambda=1, R=5",
    "half_d1_sample": "sampler.sample_half_arrays on the default coupling window (d=1, lambda=30)",
    "half_d1_ordered": "HalfCloud.ordered by the DSF key and the five RST(h) keys of those points",
    "half_d2_sample": "sampler.sample_half_arrays on the coupling window at d=2, lambda=2",
    "half_d2_ordered": "HalfCloud.ordered by the DSF key and the five RST(h) keys of those points",
}
BALLS = {"ball_d1": {"d": 1, "lam": 30.0, "R": 5.0}, "ball_d2": {"d": 2, "lam": 1.0, "R": 5.0}}
HALF = {"half_d1": {"d": 1, "lam": 30.0}, "half_d2": {"d": 2, "lam": 2.0}}


@functools.lru_cache(maxsize=2)
def half_inputs(name: str):
    """The sampler's arguments for a coupling window and the six sort keys
    of its replica-0 points."""
    from dataclasses import replace

    from hyperrst import dsf, experiments, sampler

    cfg = experiments.default_config(seed=SEED)
    cfg = replace(cfg, base=replace(cfg.base, **HALF[name]))
    args = (cfg.base.lam, cfg.base.d, experiments.coupling_window(cfg), SEED)
    x, y = sampler.sample_half_arrays(*args)
    keys = [-y] + [dsf.origin_distances(h, x, y) for h in cfg.h_grid]
    return args, keys


def measure(name: str) -> dict:
    """One stage in this process: the best time and the points it sorts."""
    from hyperrst import dsf, sampler

    if name in BALLS:
        cfg = sampler.CloudConfig(seed=SEED, **BALLS[name])
        return {"stage_s_best": best_of(lambda: sampler.sample_ball(cfg)), "n": len(sampler.sample_ball(cfg))}
    half, stage = name.rsplit("_", 1)
    args, keys = half_inputs(half)
    x, y = sampler.sample_half_arrays(*args)
    if stage == "sample":
        return {"stage_s_best": best_of(lambda: sampler.sample_half_arrays(*args)), "n": y.size}

    def sorts():
        cloud = dsf.HalfCloud(x, y)
        for key in keys:
            cloud.ordered(key)

    return {"stage_s_best": best_of(sorts), "n": y.size, "sorts": len(keys)}


def main(argv=None) -> int:
    return compare(argv, __doc__, "bench_sampling", CLOUDS, "stage_s_best", None)


if __name__ == "__main__":
    sys.exit(main())
