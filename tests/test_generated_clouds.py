"""The builders against their O(n^2) oracles on generated clouds.

Radii, directions, abscissae and ordinates come from small grids, so that
keys, distances and whole points tie. The oracles compute their own
distance matrices, not through hgeom's metrics, so a change to a metric
that moves a parent shows here. Hypothesis runs derandomized with a fixed
number of examples, so every run tries the same clouds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_force_parents, build_dsf_brute, build_rst_h_brute

from hyperrst import dsf, rst
from hyperrst.sampler import CloudConfig, PointCloud

EXAMPLES = settings(max_examples=150, derandomize=True, deadline=None)


@st.composite
def ball_clouds(draw):
    """A PointCloud at d = 1-3 and R up to 30: radii on a grid of R / steps,
    directions the normalized integer vectors of {-3, ..., 3}^(d+1).

    Each vector is divided by the gcd of its entries before it is
    normalized, so that one direction always has the same bits: (1, 1) and
    (3, 3) normalized apart differ by an ulp, a near tie that the builder's
    and the oracle's roundings of one distance may break differently."""
    d = draw(st.integers(1, 3))
    R = draw(st.sampled_from([1.0, 4.0, 12.0, 30.0]))
    n = draw(st.integers(1, 80))
    steps = draw(st.integers(1, 12))
    radii = R * np.array(draw(st.lists(st.integers(1, steps), min_size=n, max_size=n))) / steps
    vector = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1).filter(any)
    g = np.array(draw(st.lists(vector, min_size=n, max_size=n)))
    g = (g // np.gcd.reduce(g, axis=1)[:, None]).astype(float)
    order = np.argsort(radii, kind="stable")
    dirs = (g / np.linalg.norm(g, axis=1)[:, None])[order]
    return PointCloud(CloudConfig(d=d, lam=1.0, R=R, seed=0), radii[order], dirs)


@st.composite
def half_clouds(draw):
    """(x, y) at d = 1-2: x on a grid of step 1/4 in [-2, 2]^d, y on a
    linear grid of step 1/4 or a log grid of ratio 2^(1/2) from 0.1."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 60))
    x = np.array(draw(st.lists(st.lists(st.integers(-8, 8), min_size=d, max_size=d), min_size=n, max_size=n)))
    k = np.array(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)), dtype=float)
    y = 0.1 * 2.0 ** (k / 2.0) if draw(st.booleans()) else k / 4.0
    return x / 4.0, y


@EXAMPLES
@given(cloud=ball_clouds())
def test_rst_equals_oracle_on_generated_clouds(cloud):
    tree = rst.build(cloud)
    assert np.array_equal(tree.parent, brute_force_parents(cloud))
    assert rst.validate(tree).ok


@EXAMPLES
@given(points=half_clouds())
def test_dsf_and_rst_h_equal_oracles_on_generated_clouds(points):
    cloud = dsf.HalfCloud(*points)
    forests = [(dsf.build_dsf(cloud), build_dsf_brute(points))]
    forests += [(dsf.build_rst_h(cloud, h), build_rst_h_brute(points, h)) for h in (0.0, 1.0, 2.5, 6.0)]
    for fast, brute in forests:
        assert np.array_equal(fast.parent, brute.parent), fast.h
        assert np.array_equal(fast.order, brute.order), fast.h
