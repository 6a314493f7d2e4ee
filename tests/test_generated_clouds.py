"""The builders against their O(n^2) oracles on generated clouds.

Radii, directions, abscissae and ordinates come from small grids, so that
keys, distances and whole points tie. The oracles compute their own
distance matrices, not through hgeom's metrics, so a change to a metric
that moves a parent shows here. Hypothesis runs derandomized with a fixed
number of examples, so every run tries the same clouds.
"""

import numpy as np
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from oracles import brute_force_parents, build_dsf_brute, build_rst_h_brute

from hyperrst import dsf, hgeom, rst
from hyperrst.sampler import CloudConfig, PointCloud

# no shrinking: a failing cloud is reported as found, in seconds, not minutes
EXAMPLES = settings(max_examples=150, derandomize=True, deadline=None, phases=(Phase.explicit, Phase.generate))


@st.composite
def ball_clouds(draw):
    """A PointCloud at d = 1-3 and R up to 30: radii on a grid of R / steps,
    directions the normalized integer vectors of {-3, ..., 3}^(d+1). Parallel
    vectors such as (1, 1) and (3, 3) normalize to directions an ulp apart,
    near ties that the builder and the oracle must break alike."""
    d = draw(st.integers(1, 3))
    R = draw(st.sampled_from([1.0, 4.0, 12.0, 30.0]))
    n = draw(st.integers(1, 80))
    steps = draw(st.integers(1, 12))
    radii = R * np.array(draw(st.lists(st.integers(1, steps), min_size=n, max_size=n))) / steps
    vector = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1).filter(any)
    g = np.array(draw(st.lists(vector, min_size=n, max_size=n)), dtype=float)
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
@given(cloud=ball_clouds(), data=st.data())
def test_validate_flags_a_moved_parent(cloud, data):
    # one point re-parented to a lower point farther than its true parent by
    # more than validate's 1e-12 leaves a nearer point in its B+
    tree = rst.build(cloud)
    n = len(cloud)
    dist = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)(np.arange(n)[:, None], np.arange(n))
    lower = cloud.radii[None, :] < cloud.radii[:, None]
    i, j = np.nonzero(lower & (dist > tree.parent_dist[:, None] + 1e-12))
    if not i.size:
        return
    k = data.draw(st.integers(0, i.size - 1))
    parent = tree.parent.copy()
    parent[i[k]] = j[k]
    report = rst.validate(rst.RadialTree(cloud, parent, tree.parent_dist))
    assert not report.ok
    assert report.counts["bplus"] >= 1


@EXAMPLES
@given(points=half_clouds())
def test_dsf_and_rst_h_equal_oracles_on_generated_clouds(points):
    cloud = dsf.HalfCloud(*points)
    forests = [(dsf.build_dsf(cloud), build_dsf_brute(points))]
    forests += [(dsf.build_rst_h(cloud, h), build_rst_h_brute(points, h)) for h in (0.0, 1.0, 2.5, 6.0)]
    for fast, brute in forests:
        assert np.array_equal(fast.parent, brute.parent), fast.h
        assert np.array_equal(fast.order, brute.order), fast.h
