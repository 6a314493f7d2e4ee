"""DSF/RST(h) builders, regions, and the coupling machinery."""

import math

import numpy as np
import pytest

from hyperrst import dsf, hgeom, rst, sampler
from hyperrst.dsf import FRONTIER, MarginError, RegionSpec
from hyperrst.hgeom import GeometryError, HalfPoint
from hyperrst.sampler import CloudConfig, HalfWindow
from oracles import nearest_lower_scan

WINDOW = HalfWindow(half_width=4.0, y_min=0.05, y_max=4.0)


def half_cloud(seed, lam=5.0, d=1, w=WINDOW, replica=0):
    return sampler.sample_half_arrays(lam, d, w, seed=seed, replica=replica)


def scan_parents(forest, keys, root_dist=None):
    """Parents and parent distances from the block scan, in the forest's order."""
    pair_dist = dsf._pair_dist(forest.x, forest.y)
    return nearest_lower_scan(keys, pair_dist, root_dist)


def capped_clusters(seed=0):
    """Ten points high up, each capping a cluster of 100 lower points within
    0.3 of it: no cap has a higher point among its 64 nearest neighbours."""
    rng = np.random.default_rng(seed)
    caps_x = np.linspace(-3.5, 3.5, 10)
    caps_y = rng.uniform(3.0, 3.9, 10)
    x = [caps_x[:, None]]
    y = [caps_y]
    for cx, cy in zip(caps_x, caps_y):
        x.append(cx + rng.uniform(-0.2, 0.2, (100, 1)))
        y.append(cy - rng.uniform(0.01, 0.2, 100))
    return np.concatenate(x), np.concatenate(y)


class TestBuildDsf:
    def test_top_point_is_frontier(self):
        x, y = half_cloud(1)
        forest = dsf.build_dsf((x, y))
        top_internal = int(np.argmax(forest.y))
        assert forest.parent[top_internal] == FRONTIER
        assert int(np.sum(forest.parent == FRONTIER)) == 1

    def test_two_points(self):
        pts = [HalfPoint(np.array([0.0]), 1.0), HalfPoint(np.array([0.5]), 2.0)]
        forest = dsf.build_dsf(pts)
        parents = forest.parent_in_input_order()
        assert parents[0] == 1
        assert parents[1] == FRONTIER
        assert dsf.build_dsf(pts[:1]).parent_in_input_order()[0] == FRONTIER
        for h in (0.0, 2.0):
            for k in (1, 2):
                a = dsf.build_rst_h(pts[:k], h)
                b = dsf.build_rst_h_brute(pts[:k], h)
                assert np.array_equal(a.parent, b.parent)
                assert np.array_equal(a.parent_dist, b.parent_dist)
        with pytest.raises(GeometryError):
            dsf.build_dsf([])

    def test_matches_brute(self):
        clouds = [half_cloud(seed, lam=6.0) for seed in range(5)] + [capped_clusters()]
        for x, y in clouds:
            a = dsf.build_dsf((x, y))
            b = dsf.build_dsf_brute((x, y))
            assert np.array_equal(a.parent, b.parent)
            parent, pdist = scan_parents(a, -np.log(a.y))
            assert np.array_equal(a.parent, parent)
            assert np.array_equal(a.parent_dist, pdist)
        # the highest cap is the frontier; every other cap has its parent
        # outside its own cluster
        caps = a.parent_in_input_order()[:10]
        assert np.count_nonzero(caps == FRONTIER) == 1
        own = (caps - 10) // 100 == np.arange(10)
        assert not np.any(own & (caps >= 10))

    def test_matches_brute_d2(self):
        w = HalfWindow(half_width=2.0, y_min=0.2, y_max=2.5)
        for seed in range(3):
            x, y = half_cloud(seed, lam=1.0, d=2, w=w)
            a = dsf.build_dsf((x, y))
            b = dsf.build_dsf_brute((x, y))
            assert np.array_equal(a.parent, b.parent)

    def test_empty_region_property(self):
        x, y = half_cloud(2)
        forest = dsf.build_dsf((x, y))
        n = len(forest)
        for i in range(0, n, 11):
            if forest.parent[i] < 0:
                continue
            zi = forest.point(i)
            rho = float(forest.parent_dist[i])
            for j in range(n):
                if j == i or forest.y[j] <= forest.y[i]:
                    continue
                assert hgeom.dist_half(zi, forest.point(j)) >= rho - 1e-12

    def test_parent_ordinate_larger(self):
        x, y = half_cloud(3)
        forest = dsf.build_dsf((x, y))
        real = forest.parent >= 0
        assert np.all(forest.y[forest.parent[real]] > forest.y[real])

    def test_dilation_equivariance(self):
        # (x, y) -> (e^a x, e^a y) is an isometry and preserves the ordinate
        # order, so DSF parent pairs map to parent pairs
        x, y = half_cloud(4)
        f1 = dsf.build_dsf((x, y))
        scale = math.exp(0.7)
        f2 = dsf.build_dsf((x * scale, y * scale))
        assert np.array_equal(f1.parent_in_input_order(), f2.parent_in_input_order())


class TestBuildRstH:
    def test_nearest_point_gets_root(self):
        x, y = half_cloud(5)
        h = 1.0
        tree = dsf.build_rst_h((x, y), h)
        c = dsf.origin_distances(h, tree.x, tree.y)
        assert tree.parent[int(np.argmin(c))] == rst.ROOT

    def test_matches_brute(self):
        for seed, h in ((6, 0.0), (7, 1.0), (8, 3.0), (9, 10.0)):
            x, y = half_cloud(seed)
            a = dsf.build_rst_h((x, y), h)
            b = dsf.build_rst_h_brute((x, y), h)
            assert np.array_equal(a.parent, b.parent)
            c = dsf.origin_distances(h, a.x, a.y)
            parent, pdist = scan_parents(a, c, root_dist=c)
            assert np.array_equal(a.parent, parent)
            assert np.array_equal(a.parent_dist, pdist)

    def test_isometry_cross_check(self):
        # parents via half-space arithmetic == parents via the ball-model
        # radial build around O(h)
        x, y = half_cloud(9, lam=4.0)
        h = 1.2
        tree_half = dsf.build_rst_h((x, y), h)
        balls = np.array(
            [hgeom.half_to_ball(HalfPoint(x[i], float(y[i])), h).coords for i in range(len(y))]
        )
        norms = np.linalg.norm(balls, axis=1)
        radii = 2.0 * np.arctanh(norms)
        dirs = balls / norms[:, None]
        order = np.argsort(radii)
        cloud = sampler.PointCloud(
            CloudConfig(d=1, lam=4.0, R=float(radii.max()) + 1e-9, seed=0),
            radii[order],
            dirs[order],
        )
        tree_ball = rst.build(cloud)
        # map ball-model parents back to input indices
        to_input = np.arange(len(y))[order]
        parent_ball = np.full(len(y), rst.ROOT, dtype=np.int64)
        for k in range(len(y)):
            p = tree_ball.parent[k]
            parent_ball[to_input[k]] = rst.ROOT if p == rst.ROOT else to_input[p]
        assert np.array_equal(tree_half.parent_in_input_order(), parent_ball)

    def test_stabilization_for_large_h(self):
        x, y = half_cloud(10, lam=4.0)
        p1 = dsf.build_rst_h((x, y), 9.0).parent_in_input_order()
        p2 = dsf.build_rst_h((x, y), 10.0).parent_in_input_order()
        dsf_parents = dsf.build_dsf((x, y)).parent_in_input_order()
        assert np.array_equal(p1, p2)
        # stabilized parents agree with the DSF away from the frontier
        real = dsf_parents >= 0
        assert np.mean(p1[real] == dsf_parents[real]) > 0.999


class TestRegions:
    def test_cyl_contains_unit_point(self):
        z = HalfPoint(np.zeros(1), 1.0)
        for A in (0.5, 2.0, 10.0):
            assert dsf.region_contains(RegionSpec("Cyl", A=A), z)

    def test_cyl_double_prime_subset(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            z = HalfPoint(rng.uniform(-3, 3, size=1), float(rng.uniform(0.01, 2.0)))
            A, a = float(rng.uniform(0.5, 3)), float(rng.uniform(0, 2))
            if dsf.region_contains(RegionSpec("Cyl''", A=A, a=a), z):
                assert dsf.region_contains(RegionSpec("Cyl", A=A), z)

    def test_vois_subset_cyl_for_large_h(self):
        # the geometric inclusion Vois(A, h) in Cyl(A) holds once h is large
        rng = np.random.default_rng(1)
        for A in (1.0, 2.0, 4.0):
            h = 4.0 + 2.0 * math.log(1.0 + A)
            for _ in range(2000):
                z = HalfPoint(rng.uniform(-2 * A, 2 * A, size=1), float(rng.uniform(0.01, 3.0)))
                if dsf.region_contains(RegionSpec("Vois", A=A, h=h), z):
                    assert dsf.region_contains(RegionSpec("Cyl", A=A), z)

    def test_vois_primes_subset(self):
        rng = np.random.default_rng(2)
        A, a = 2.0, 0.8
        h = 7.0
        for _ in range(2000):
            z = HalfPoint(rng.uniform(-4, 4, size=1), float(rng.uniform(0.005, 3.0)))
            if dsf.region_contains(RegionSpec("Vois'", A=A, a=a, h=h), z):
                assert dsf.region_contains(RegionSpec("Cyl'", A=A, a=a), z)
            if dsf.region_contains(RegionSpec("Vois''", A=A, a=a, h=h), z):
                assert dsf.region_contains(RegionSpec("Cyl''", A=A, a=a), z)

    def test_inclusion_threshold_finite(self):
        # numeric threshold scan: smallest h (on a grid) where the inclusion
        # holds on a dense sample stays finite for every tested (A, a)
        rng = np.random.default_rng(3)
        for A in (1.0, 3.0):
            zs = [
                HalfPoint(rng.uniform(-3 * A, 3 * A, size=1), float(rng.uniform(0.01, 4.0)))
                for _ in range(1500)
            ]
            found = None
            for h in np.arange(1.0, 12.0, 0.5):
                spec = RegionSpec("Vois", A=A, h=float(h))
                ok = all(
                    dsf.region_contains(RegionSpec("Cyl", A=A), z)
                    for z in zs
                    if dsf.region_contains(spec, z)
                )
                if ok:
                    found = h
                    break
            assert found is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(GeometryError):
            RegionSpec("Box", A=1.0)


class TestCoupling:
    def test_vacuous_region(self):
        x, y = half_cloud(11)
        # a Cyl'' region so small it contains no points
        K = RegionSpec("Cyl''", A=1e-6, a=0.0)
        frac, count = dsf.coupling_fraction((x, y), WINDOW, K, 2.0)
        assert frac == 1.0 and count == 0

    def test_margin_violation_raises(self):
        # a window barely larger than K leaves no collar: audit must fire
        w = HalfWindow(half_width=1.05, y_min=0.45, y_max=1.6)
        x, y = sampler.sample_half_arrays(20.0, 1, w, seed=12)
        K = RegionSpec("Cyl'", A=1.0, a=0.7)
        with pytest.raises(MarginError):
            dsf.coupling_fraction((x, y), w, K, 3.0)

    def test_fraction_trend_in_h(self):
        # median over seeds: agreement at h=12 >= agreement at h=4
        from hyperrst import experiments

        cfg = experiments.default_config(seed=13, A=2.0, a=0.7)
        w = experiments.coupling_window(cfg)
        K = RegionSpec("Cyl'", A=2.0, a=0.7)
        lo, hi = [], []
        for repl in range(6):
            x, y = sampler.sample_half_arrays(10.0, 1, w, seed=13, replica=repl)
            f = dsf.build_dsf((x, y))
            lo.append(dsf.coupling_fraction((x, y), w, K, 4.0, dsf_forest=f)[0])
            hi.append(dsf.coupling_fraction((x, y), w, K, 12.0, dsf_forest=f)[0])
        assert np.median(hi) >= np.median(lo)
        assert np.mean(hi) > 0.99

    def test_agreement_iff_symmetric_difference_empty(self):
        # when parents disagree at a point, some cloud point lies in the
        # symmetric difference of the two B+ regions
        x, y = half_cloud(14, lam=8.0)
        h = 2.0
        forest = dsf.build_dsf((x, y))
        tree_h = dsf.build_rst_h((x, y), h)
        pd = forest.parent_in_input_order()
        pr = tree_h.parent_in_input_order()
        inv_d = np.empty(len(y), dtype=np.int64)
        inv_d[forest.order] = np.arange(len(y))
        inv_r = np.empty(len(y), dtype=np.int64)
        inv_r[tree_h.order] = np.arange(len(y))
        c_all = dsf.origin_distances(h, x, y)
        checked = 0
        for i in range(len(y)):
            if pd[i] < 0 or pr[i] < 0 or pd[i] == pr[i]:
                continue
            zi = HalfPoint(x[i], float(y[i]))
            d_dsf = float(forest.parent_dist[inv_d[i]])
            d_rst = float(tree_h.parent_dist[inv_r[i]])
            ball = max(d_dsf, d_rst)
            hit = False
            for j in range(len(y)):
                if j == i:
                    continue
                dij = hgeom.dist_half(zi, HalfPoint(x[j], float(y[j])))
                if dij <= ball + 1e-12:
                    in_dsf_cand = y[j] > y[i]
                    in_rst_cand = c_all[j] < c_all[i]
                    if in_dsf_cand != in_rst_cand:
                        hit = True
                        break
            assert hit
            checked += 1
        assert checked > 0
