"""DSF/RST(h) builders, regions, and the coupling machinery."""

import hashlib
import math

import numpy as np
import pytest

from hyperrst import dsf, experiments, hgeom, rst, sampler, search
from hyperrst.dsf import FRONTIER, MarginError, RegionSpec
from hyperrst.hgeom import GeometryError
from hyperrst.sampler import CloudConfig, HalfWindow
from oracles import (
    brute_force_parents,
    build_dsf_brute,
    build_rst_h_brute,
    half_to_ball,
    nearest_lower_brute,
    nearest_lower_scan,
    region_contains,
)

WINDOW = HalfWindow(half_width=4.0, y_min=0.05, y_max=4.0)


def half_cloud(seed, lam=5.0, d=1, w=WINDOW, replica=0):
    return sampler.sample_half_arrays(lam, d, w, seed=seed, replica=replica)


def scan_parents(forest, keys, root_dist=None):
    """Parents and parent distances from the block scan, in the forest's order."""
    pair_dist = hgeom.half_pair_dist(forest.x, forest.y)
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


def mirror_half_cloud(pairs=40, seed=0):
    """Points on the axis x = 0 just below mirror-image pairs (+-t, y): each
    axis point is at exactly equal distance from the two points of a pair."""
    rng = np.random.default_rng(seed)
    y = np.cumsum(rng.uniform(0.05, 0.09, pairs)) + 0.1
    t = rng.uniform(0.005, 0.03, pairs)
    x = np.concatenate([t, -t, np.zeros(pairs)])[:, None]
    return x, np.concatenate([y, y, y - 0.01])


class TestBuildDsf:
    def test_top_point_is_frontier(self):
        x, y = half_cloud(1)
        forest = dsf.build_dsf((x, y))
        top_internal = int(np.argmax(forest.y))
        assert forest.parent[top_internal] == FRONTIER
        assert int(np.sum(forest.parent == FRONTIER)) == 1

    def test_two_points(self):
        x, y = np.array([[0.0], [0.5]]), np.array([1.0, 2.0])
        forest = dsf.build_dsf((x, y))
        parents = forest.parent_in_input_order()
        assert parents[0] == 1
        assert parents[1] == FRONTIER
        assert dsf.build_dsf((x[:1], y[:1])).parent_in_input_order()[0] == FRONTIER
        for h in (0.0, 2.0):
            for k in (1, 2):
                a = dsf.build_rst_h((x[:k], y[:k]), h)
                b = build_rst_h_brute((x[:k], y[:k]), h)
                assert np.array_equal(a.parent, b.parent)
                assert np.array_equal(a.parent_dist, b.parent_dist)
        # only a HalfCloud or an (x, y) pair of arrays is a point set
        for points in ([], [(x[0], 1.0), (x[1], 2.0)], (x, y, y)):
            with pytest.raises(GeometryError):
                dsf.build_dsf(points)
            with pytest.raises(GeometryError):
                dsf.build_rst_h(points, 2.0)

    @pytest.mark.parametrize(
        "x, y",
        [
            ([[0.0], [0.5]], [1.0, -2.0]),
            ([[0.0], [0.5]], [1.0, 0.0]),
            ([[0.0], [np.nan]], [1.0, 2.0]),
            ([[0.0], [0.5]], [1.0, np.inf]),
            ([0.0, 0.5], [1.0, 2.0]),
            ([[0.0], [0.5], [1.0]], [1.0, 2.0]),
            ([[0.0, 0.5]], [1.0, 2.0]),
            ([[0.0], [0.5]], [[1.0, 2.0]]),
        ],
        ids=["y<0", "y=0", "nan_x", "inf_y", "1d_x", "more_x", "wide_x", "2d_y"],
    )
    def test_bad_points_rejected(self, x, y):
        with pytest.raises(GeometryError):
            dsf.build_dsf((np.array(x), np.array(y)))
        with pytest.raises(GeometryError):
            dsf.build_rst_h((np.array(x), np.array(y)), 2.0)
        with pytest.raises(GeometryError):
            dsf.HalfCloud(np.array(x), np.array(y))

    def test_matches_brute(self):
        clouds = [half_cloud(seed, lam=6.0) for seed in range(5)] + [capped_clusters()]
        for x, y in clouds:
            a = dsf.build_dsf((x, y))
            b = build_dsf_brute((x, y))
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
            b = build_dsf_brute((x, y))
            assert np.array_equal(a.parent, b.parent)

    def test_empty_region_property(self):
        x, y = half_cloud(2)
        forest = dsf.build_dsf((x, y))
        pair_dist = hgeom.half_pair_dist(forest.x, forest.y)
        for i in range(0, len(forest), 11):
            if forest.parent[i] < 0:
                continue
            higher = np.flatnonzero(forest.y > forest.y[i])
            assert np.all(pair_dist(i, higher) >= forest.parent_dist[i] - 1e-12)

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
            b = build_rst_h_brute((x, y), h)
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
        balls = half_to_ball(x, y, h)
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


@pytest.fixture
def chart_builds(monkeypatch):
    """The size of every search.ChartIndex built while the test runs."""
    built = []

    class CountingIndex(search.ChartIndex):
        def __init__(self, coords, pair_dist, cover):
            built.append(len(coords))
            super().__init__(coords, pair_dist, cover)

    monkeypatch.setattr(search, "ChartIndex", CountingIndex)
    return built


class TestSharedIndex:
    """One HalfCloud carries one chart index for the DSF and every RST(h);
    each must equal the build over a fresh index, bit for bit."""

    def test_shared_equals_fresh(self, chart_builds):
        built = chart_builds
        d2 = HalfWindow(half_width=2.0, y_min=0.2, y_max=2.5)
        clouds = (
            [half_cloud(seed, lam=6.0) for seed in range(5)]
            + [half_cloud(seed) for seed in range(6, 10)]
            + [half_cloud(seed, lam=1.0, d=2, w=d2) for seed in range(3)]
            + [mirror_half_cloud(), capped_clusters()]
        )
        for x, y in clouds:
            cloud = dsf.HalfCloud(x, y)
            built.clear()
            shared = [dsf.build_dsf(cloud)] + [dsf.build_rst_h(cloud, h) for h in (0.0, 2.0, 10.0)]
            assert built == [len(y)]
            fresh = [dsf.build_dsf((x, y))] + [dsf.build_rst_h((x, y), h) for h in (0.0, 2.0, 10.0)]
            assert len(built) == 5
            for a, b in zip(shared, fresh):
                assert a.h == b.h
                for name in ("parent", "parent_dist", "order"):
                    assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (a.h, name)

    def test_order_map_matches_an_index_in_key_order(self, routes):
        # a wrong neighbour or hit map only loosens pass 1's bound, which the
        # parents cannot show; the route counts do, so both must equal those
        # of an index built in key order
        rng = np.random.default_rng(3)
        coords = rng.uniform(0.0, 1.0, (500, 2))
        order = rng.permutation(500)
        keys = np.sort(rng.uniform(0.0, 1.0, 500))

        def index(pts):
            """The Euclidean metric on pts, covered by balls that grow with
            the first coordinate, so that a wrong point map shows."""

            def pair_dist(i, j):
                return np.sqrt(((pts[i] - pts[j]) ** 2).sum(axis=-1))

            return search.ChartIndex(pts, pair_dist, lambda k, rho: (pts[k], rho * (1.0 + pts[k, 0])))

        for root_dist in (None, keys + 0.05):
            seen = []
            for args in ((index(coords), order), (index(coords[order]),)):
                routes.update(dict.fromkeys(routes, 0))
                parent, pdist = search.nearest_lower(keys, *args, root_dist=root_dist)
                seen.append((parent.tobytes(), pdist.tobytes(), dict(routes)))
            assert seen[0] == seen[1]
            # both routes ran, and pass 1's wide misses; only the rootless
            # search leaves rows unbounded
            counts = seen[0][2]
            assert counts["wide"] > 0 and counts["bounded"] > counts["ball"] > 0
            assert (counts["prefix"] > 0) == (root_dist is None)

    def test_mirror_ties_taken(self):
        x, y = mirror_half_cloud()
        cloud = dsf.HalfCloud(x, y)
        forest = dsf.build_dsf(cloud)
        assert np.array_equal(forest.parent, build_dsf_brute((x, y)).parent)
        for h in (0.0, 2.0, 10.0):
            assert np.array_equal(dsf.build_rst_h(cloud, h).parent, build_rst_h_brute((x, y), h).parent)
        # each axis point is tied between its pair and takes the lower index,
        # the -t point, which comes first among equal ordinates
        axis = forest.parent_in_input_order()[80:]
        assert np.array_equal(axis, np.arange(40, 80))


class TestPointFacts:
    """What the searches share is a fact of the point set: the table's pair
    distances and the (y, x) sort must be what each search would compute in
    its own key order, bit for bit."""

    @staticmethod
    def clouds():
        d2 = HalfWindow(half_width=2.0, y_min=0.2, y_max=2.5)
        x, y = half_cloud(4, lam=6.0)
        return [
            mirror_half_cloud(),
            capped_clusters(),
            half_cloud(0, lam=1.0, d=2, w=d2),
            # every point twice: full (y, x) ties, kept in input order
            (np.concatenate([x, x]), np.concatenate([y, y])),
        ]

    def test_orders_equal_lexsort(self):
        for x, y in self.clouds():
            cloud = dsf.HalfCloud(x, y)
            cols = tuple(x[:, ::-1].T)
            assert np.array_equal(dsf.build_dsf(cloud).order, np.lexsort(cols + (-y,)))
            for h in (0.0, 2.0, 10.0):
                c = dsf.origin_distances(h, x, y)
                assert np.array_equal(dsf.build_rst_h(cloud, h).order, np.lexsort(cols + (y, c)))

    def test_table_distances_are_pair_distances(self):
        for x, y in self.clouds():
            cloud = dsf.HalfCloud(x, y)
            n = len(cloud)
            orders = [cloud.ordered(-y)[0]] + [cloud.ordered(dsf.origin_distances(h, x, y))[0] for h in (0.0, 5.0)]
            for order in orders:
                # the search's rows are key-order positions: row r is point order[r]
                row = np.argsort(order)
                pair_dist = hgeom.half_pair_dist(x[order], y[order])
                rows = np.arange(n)
                some = rows[::7]
                for sel, wide in ((rows, False), (some, True), (rows, True)):
                    nb, d = cloud.index.table(order[sel], wide)
                    assert nb.shape == d.shape == (min(n, search._K_WIDE if wide else search._K), sel.size)
                    assert d.tobytes() == pair_dist(sel, row[nb]).tobytes(), wide

    def test_table_distances_of_a_ball_tree(self):
        for d, lam, R in ((1, 10.0, 3.5), (2, 1.0, 3.5)):
            cloud = sampler.sample_ball(CloudConfig(d=d, lam=lam, R=R, seed=2))
            pair_dist = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)
            index = rst._chart_index(cloud.radii, cloud.dirs)
            rows = np.arange(len(cloud))
            for wide in (False, True):
                nb, dist = index.table(rows, wide)
                assert dist.tobytes() == pair_dist(rows, nb).tobytes()
            # the wide table holds the points chart-nearest to the centre of
            # the cover ball of each point's _K-th neighbour distance
            some = rows[::7]
            centre = index.cover(some, index.table(some)[1][-1])[0]
            coords = index.coords
            near = np.argsort(((centre[:, None, :] - coords[None, :, :]) ** 2).sum(axis=-1), axis=1)
            wide = np.sort(index.table(some, wide=True)[0].T, axis=1)
            assert np.array_equal(wide, np.sort(near[:, : search._K_WIDE], axis=1))


def brute_over(keys, pair_dist, root_dist=None):
    """nearest_lower_brute over the matrix of pair_dist."""
    idx = np.arange(keys.shape[0])
    return nearest_lower_brute(keys, pair_dist(idx[:, None], idx), root_dist)


@pytest.fixture
def routes(monkeypatch):
    """Rows of search.nearest_lower by what they reach: the wide neighbour
    table ("wide", pass 1's misses), a cover ball ("bounded"), a searched
    chart ball ("ball", route 2, holding "candidates" points) and a
    smaller-key prefix scan ("prefix", the unbounded rows). Bounded rows
    that reach no ball query are the ones route 1 settled."""
    seen = dict.fromkeys(("wide", "bounded", "ball", "candidates", "prefix"), 0)
    nearest_lower, concat_ranges, padded_cover = search.nearest_lower, search.concat_ranges, search.padded_cover
    ball, table = search.ChartIndex.ball, search.ChartIndex.table

    def counting_search(*args, **kwargs):
        monkeypatch.setattr(search, "concat_ranges", counting_ranges)
        try:
            return nearest_lower(*args, **kwargs)
        finally:
            monkeypatch.setattr(search, "concat_ranges", concat_ranges)

    def counting_table(self, pts, wide=False):
        seen["wide"] += pts.size if wide else 0
        return table(self, pts, wide)

    def counting_cover(index, pts, rho):
        seen["bounded"] += pts.size
        return padded_cover(index, pts, rho)

    def counting_ranges(lo, hi):
        seen["prefix"] += lo.size
        return concat_ranges(lo, hi)

    def counting_ball(self, centres, radii):
        counts, hits = ball(self, centres, radii)
        seen["ball"] += counts.size
        seen["candidates"] += hits.size
        return counts, hits

    monkeypatch.setattr(search, "nearest_lower", counting_search)
    monkeypatch.setattr(search, "padded_cover", counting_cover)
    monkeypatch.setattr(search.ChartIndex, "ball", counting_ball)
    monkeypatch.setattr(search.ChartIndex, "table", counting_table)
    return seen


def check_forests(x, y, hs=(0.0, 2.0, 10.0)):
    """The DSF and RST(h) of a shared HalfCloud equal build_*_brute, and
    nearest_lower_brute over their own pair distances bit for bit."""
    cloud = dsf.HalfCloud(x, y)
    for h in (None, *hs):
        if h is None:
            forest, brute = dsf.build_dsf(cloud), build_dsf_brute((x, y))
            keys, root_dist = -np.log(forest.y), None
        else:
            forest, brute = dsf.build_rst_h(cloud, h), build_rst_h_brute((x, y), h)
            keys = root_dist = dsf.origin_distances(h, forest.x, forest.y)
        assert np.array_equal(forest.parent, brute.parent), h
        parent, pdist = brute_over(keys, hgeom.half_pair_dist(forest.x, forest.y), root_dist)
        assert np.array_equal(forest.parent, parent), h
        assert forest.parent_dist.tobytes() == pdist.tobytes(), h


def check_tree(cloud):
    """rst.build equals brute_force_parents, and nearest_lower_brute over its
    own pair distances bit for bit."""
    tree = rst.build(cloud)
    assert np.array_equal(tree.parent, brute_force_parents(cloud))
    parent, pdist = brute_over(cloud.radii, hgeom.polar_pair_dist(cloud.radii, cloud.dirs), cloud.radii)
    assert np.array_equal(tree.parent, parent)
    assert tree.parent_dist.tobytes() == pdist.tobytes()


def route_one_fired(seen):
    """Some bounded row reached no ball query."""
    return seen["bounded"] > seen["ball"]


class TestRoutes:
    """search.nearest_lower settles a bounded row from its chart neighbours
    (route 1) or searches its chart ball (route 2); both routes must give
    the brute oracles' parents, ties included."""

    def test_at_most_k_points(self, routes):
        # the neighbour table then holds every point, so route 1 settles
        # every bounded row
        rng = np.random.default_rng(0)
        for n in range(1, search._K + 1):
            for d in (1, 2):
                check_forests(rng.uniform(-1.0, 1.0, (n, d)), rng.uniform(0.2, 2.0, n))
            for d in (1, 2, 3):
                dirs = rng.normal(size=(n, d + 1))
                dirs /= np.linalg.norm(dirs, axis=1)[:, None]
                radii = np.sort(rng.uniform(0.1, 3.0, n))
                check_tree(sampler.PointCloud(CloudConfig(d=d, lam=1.0, R=3.0, seed=0), radii, dirs))
        assert routes["bounded"] > 0
        assert routes["ball"] == 0

    def test_lattice_at_kth_distance(self, routes):
        # a checkerboard of the integer grid, even points first in row-major
        # order: an even point's unit neighbours are odd, so its nearest
        # smaller keys are diagonal, at sqrt 2, which is also its _K-th
        # neighbour distance; an odd point ties four even ones at distance 1
        a, b = (g.ravel() for g in np.meshgrid(np.arange(12), np.arange(12), indexing="ij"))
        keys = ((a + b) % 2) * 1000.0 + a * 12 + b
        order = np.argsort(keys)
        grid, keys = np.column_stack([a, b])[order].astype(float), keys[order]
        n = keys.shape[0]

        def euclid(i, j):
            return np.sqrt(((grid[i] - grid[j]) ** 2).sum(axis=-1))

        # a root at distance 1 keeps every ball inside the sqrt 2 of the
        # _K-th neighbour, so route 1 settles every row; only the rows of
        # the rootless pass are left without a bound
        cases = [(None, True), (np.full(n, math.sqrt(2.0)), True), (np.ones(n), False), (keys / 100.0 + 0.5, True)]
        for root_dist, searched in cases:
            routes.update(dict.fromkeys(routes, 0))
            index = search.ChartIndex(grid, euclid, lambda rows, rho: (grid[rows], rho))
            parent, pdist = search.nearest_lower(keys, index, root_dist=root_dist)
            want_parent, want_dist = brute_over(keys, euclid, root_dist)
            assert np.array_equal(parent, want_parent)
            assert np.array_equal(pdist, want_dist)
            assert route_one_fired(routes)
            assert (routes["ball"] > 0) == searched
            assert (routes["prefix"] > 0) == (root_dist is None)

    def test_mirror_ties_and_capped_clusters(self, routes):
        check_forests(*mirror_half_cloud())
        check_forests(*capped_clusters())
        assert route_one_fired(routes)
        assert routes["ball"] > 0

    def test_sampled_clouds(self, routes):
        d2 = HalfWindow(half_width=2.0, y_min=0.2, y_max=2.5)
        for x, y in [half_cloud(seed, lam=6.0) for seed in range(3)] + [half_cloud(0, lam=4.0, d=2, w=d2)]:
            check_forests(x, y)
        for d, lam, R in ((1, 10.0, 3.5), (2, 1.0, 3.5), (3, 0.3, 3.0)):
            check_tree(sampler.sample_ball(CloudConfig(d=d, lam=lam, R=R, seed=0)))
        assert route_one_fired(routes)
        assert routes["ball"] > 0

    def test_route_split_on_coupling_cloud(self, routes):
        # the seed-29 coupling cloud at the defaults: route 1 settles most
        # bounded rows, so few reach a k-d ball query
        cfg = experiments.default_config(seed=29)
        w = experiments.coupling_window(cfg)
        cloud = dsf.HalfCloud(*sampler.sample_half_arrays(cfg.base.lam, cfg.base.d, w, 29, 0))
        dsf.build_dsf(cloud)
        for h in cfg.h_grid:
            dsf.build_rst_h(cloud, h)
        assert routes["bounded"] > 5 * len(cloud)
        assert routes["ball"] < 0.25 * routes["bounded"]


@pytest.mark.parametrize("d", [1, 2])
def test_half_cover_holds_points_one_ulp_inside(d):
    # w one ulp inside the metric sphere of radius t around z = (x, y), for y
    # from 1e-3 to 1e3 and t up to 20: w lies in the padded chart ball that
    # nearest_lower searches for B(z, rho). The sphere is the Euclidean one
    # about (x, y cosh t) of radius y sinh t.
    rng = np.random.default_rng(d)
    for k in range(300):
        x, y = rng.uniform(-4.0, 4.0, d), 10.0 ** rng.uniform(-3.0, 3.0)
        t = rng.uniform(0.0, 20.0) if k % 2 else math.exp(rng.uniform(-7.0, 3.0))
        v = rng.normal(size=d + 1)
        w = np.append(x, y * math.cosh(t)) + y * math.sinh(t) * v / np.linalg.norm(v)
        cloud = dsf.HalfCloud(np.array([x, w[:d]]), np.array([y, w[d]]))
        rho = np.nextafter(cloud.index.pair_dist(np.array([0]), np.array([1])), np.inf)
        centre, radius = search.padded_cover(cloud.index, np.array([0]), rho)
        assert 1 in cloud.index.ball(centre, radius)[1], (y, t)


def test_oracles_independent_of_the_search(monkeypatch):
    # the O(n^2) oracles must not lean on the code they check: with the k-d
    # search, the chart index and the builders' key sort refused, each gives
    # what it gave before
    import scipy.spatial

    d2 = HalfWindow(half_width=2.0, y_min=0.2, y_max=2.5)
    halves = [half_cloud(1, lam=3.0), half_cloud(2, lam=0.5, d=2, w=d2)]
    balls = [sampler.sample_ball(CloudConfig(d=d, lam=lam, R=R, seed=1)) for d, lam, R in ((1, 3.0, 3.0), (2, 0.5, 2.5))]

    def results():
        out = []
        for x, y in halves:
            for f in [build_dsf_brute((x, y))] + [build_rst_h_brute((x, y), h) for h in (0.0, 2.0, 10.0)]:
                out.append((f.parent, f.parent_dist, f.order))
        for cloud in balls:
            out.append((brute_force_parents(cloud),))
            idx = np.arange(len(cloud))
            dist = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)(idx[:, None], idx)
            out.append(nearest_lower_brute(cloud.radii, dist, cloud.radii))
        return [b"".join(a.tobytes() for a in arrays) for arrays in out]

    want = results()

    def refuse(*args, **kwargs):
        raise AssertionError("an oracle used the code it checks")

    monkeypatch.setattr(scipy.spatial, "cKDTree", refuse)
    monkeypatch.setattr(search, "cKDTree", refuse)
    monkeypatch.setattr(search, "nearest_lower", refuse)
    monkeypatch.setattr(search, "ChartIndex", refuse)
    monkeypatch.setattr(dsf.HalfCloud, "ordered", refuse)
    assert results() == want


# SHA-256 of (parent, parent_dist) bytes at d=2, lambda=0.2, seed 11 in the
# coupling window of the default A and a (n = 10,378), recorded before the
# search settled rows from their chart neighbours; h None is the DSF
PINNED_D2_FORESTS = [
    (None, "dfe14e0f70ca447088ab0a582deaaef609a1ae544e3c2ea6371aed2d7ba6e107",
     "ab67487355e1fc80ae1df3b072ab32fbaf29deac97bf3f4728510c9915a51f86"),
    (2.0, "0d4c9a6035826ece98fc639d818d1973170b785626f18e88fcef57eed519e151",
     "3204edab1e57c7c839f9033979a8d823d2487b193132f3502b10aae12116fcfb"),
    (6.0, "2a97fbf7d1ae103ddfe82f5a41a0a09df84a0217a0365403582a22b62abd0966",
     "08f841ee0a7cbec68d9f27c0236cdc01e2c294d02395bf97df2645e1c4bb70b7"),
    (10.0, "423dc23ea2891908e368f2eb5800ffda04501db39521a3b9c5c5d367d4b28f14",
     "7079df45783a5c26a7f14711b7123b86bab60ffe51b46b0c87cb48dcac88fcf3"),
]


@pytest.fixture(scope="module")
def pinned_d2_cloud():
    cfg = experiments.default_config(seed=11, base=CloudConfig(d=2, lam=0.2, R=5.0, seed=11))
    w = experiments.coupling_window(cfg)
    return dsf.HalfCloud(*sampler.sample_half_arrays(0.2, 2, w, 11, 0))


@pytest.mark.parametrize("h, parent_digest, dist_digest", PINNED_D2_FORESTS, ids=["dsf", "h2", "h6", "h10"])
def test_parents_pinned_d2(pinned_d2_cloud, h, parent_digest, dist_digest):
    cloud = pinned_d2_cloud
    forest = dsf.build_dsf(cloud) if h is None else dsf.build_rst_h(cloud, h)
    assert len(forest) == 10378
    assert hashlib.sha256(forest.parent.tobytes()).hexdigest() == parent_digest
    assert hashlib.sha256(forest.parent_dist.tobytes()).hexdigest() == dist_digest


class TestRegions:
    def test_cyl_contains_unit_point(self):
        for A in (0.5, 2.0, 10.0):
            assert region_contains(RegionSpec("Cyl", A=A), np.zeros(1), 1.0)

    def test_cyl_double_prime_subset(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            z = rng.uniform(-3, 3, size=1), float(rng.uniform(0.01, 2.0))
            A, a = float(rng.uniform(0.5, 3)), float(rng.uniform(0, 2))
            if region_contains(RegionSpec("Cyl''", A=A, a=a), *z):
                assert region_contains(RegionSpec("Cyl", A=A), *z)

    def test_vois_subset_cyl_for_large_h(self):
        # the geometric inclusion Vois(A, h) in Cyl(A) holds once h is large
        rng = np.random.default_rng(1)
        for A in (1.0, 2.0, 4.0):
            h = 4.0 + 2.0 * math.log(1.0 + A)
            for _ in range(2000):
                z = rng.uniform(-2 * A, 2 * A, size=1), float(rng.uniform(0.01, 3.0))
                if region_contains(RegionSpec("Vois", A=A, h=h), *z):
                    assert region_contains(RegionSpec("Cyl", A=A), *z)

    def test_vois_primes_subset(self):
        rng = np.random.default_rng(2)
        A, a = 2.0, 0.8
        h = 7.0
        for _ in range(2000):
            z = rng.uniform(-4, 4, size=1), float(rng.uniform(0.005, 3.0))
            if region_contains(RegionSpec("Vois'", A=A, a=a, h=h), *z):
                assert region_contains(RegionSpec("Cyl'", A=A, a=a), *z)
            if region_contains(RegionSpec("Vois''", A=A, a=a, h=h), *z):
                assert region_contains(RegionSpec("Cyl''", A=A, a=a), *z)

    def test_inclusion_threshold_finite(self):
        # numeric threshold scan: smallest h (on a grid) where the inclusion
        # holds on a dense sample stays finite for every tested (A, a)
        rng = np.random.default_rng(3)
        for A in (1.0, 3.0):
            zs = [
                (rng.uniform(-3 * A, 3 * A, size=1), float(rng.uniform(0.01, 4.0)))
                for _ in range(1500)
            ]
            found = None
            for h in np.arange(1.0, 12.0, 0.5):
                spec = RegionSpec("Vois", A=A, h=float(h))
                ok = all(
                    region_contains(RegionSpec("Cyl", A=A), *z)
                    for z in zs
                    if region_contains(spec, *z)
                )
                if ok:
                    found = h
                    break
            assert found is not None

    def test_unknown_kind_rejected(self):
        with pytest.raises(GeometryError):
            RegionSpec("Box", A=1.0)


def brute_fractions(x, y, K, hs):
    """Per h, the agreement fraction over K from the O(n^2) oracle parents,
    with K membership from region_contains; and the size of K."""
    idx = [i for i in range(len(y)) if region_contains(K, x[i], float(y[i]))]
    dsf_parent = build_dsf_brute((x, y)).parent_in_input_order()[idx]
    fractions = []
    for h in hs:
        rst_parent = build_rst_h_brute((x, y), h).parent_in_input_order()[idx]
        fractions.append(float(np.mean((dsf_parent == rst_parent) & (dsf_parent >= 0))))
    return fractions, len(idx)


class TestCoupling:
    def test_vacuous_region(self):
        x, y = half_cloud(11)
        # a Cyl'' region so small it contains no points
        K = RegionSpec("Cyl''", A=1e-6, a=0.0)
        fractions, count = dsf.coupling_fraction((x, y), WINDOW, K, (2.0, 4.0, 8.0))
        assert fractions == [1.0, 1.0, 1.0] and count == 0

    def test_margin_violation_raises(self):
        # a window barely larger than K leaves no collar: audit must fire
        w = HalfWindow(half_width=1.05, y_min=0.45, y_max=1.6)
        x, y = sampler.sample_half_arrays(20.0, 1, w, seed=12)
        K = RegionSpec("Cyl'", A=1.0, a=0.7)
        with pytest.raises(MarginError):
            dsf.coupling_fraction((x, y), w, K, (3.0,))

    def test_margin_message_pinned(self):
        # DSF parent balls of replica 0 leave the window, so the audit fails
        # at h = 2 and names the first failing point of K in input order
        cfg = experiments.ExperimentConfig(
            base=CloudConfig(d=2, lam=0.2, R=3.5, seed=11), replicas=3, r0_grid=(1.5,), h_grid=(2.0, 4.0)
        )
        msg = "parent ball of point 9951 (dist 2.086) exceeds its window margin 1.614; enlarge the window"
        with pytest.raises(MarginError) as err:
            experiments.exp_coupling(cfg)
        assert str(err.value) == msg

    @pytest.mark.parametrize("case", ["d1", "d2", "mirror"])
    def test_fractions_match_brute(self, case, chart_builds):
        if case == "d1":
            (x, y), K = half_cloud(5, lam=4.0), RegionSpec("Cyl'", A=1.5, a=0.5)
        elif case == "d2":
            w = HalfWindow(half_width=2.0, y_min=0.2, y_max=2.5)
            (x, y), K = half_cloud(5, lam=1.0, d=2, w=w), RegionSpec("Cyl'", A=1.0, a=0.0)
        else:
            # axis points tie between the two points of a mirror pair
            (x, y), K = mirror_half_cloud(), RegionSpec("Cyl'", A=0.1, a=1.0)
        # a window far beyond the points: the audit passes and only the
        # parents decide the fractions
        w = HalfWindow(half_width=100.0, y_min=1e-3, y_max=1e3)
        hs = (0.0, 1.0, 2.0, 4.0, 10.0)
        want = brute_fractions(x, y, K, hs)
        chart_builds.clear()
        assert dsf.coupling_fraction((x, y), w, K, hs) == want
        assert chart_builds == [len(y)]
        assert want[1] > 0 and 0 < min(want[0]) < 1

    def test_fraction_trend_in_h(self):
        # median over seeds: agreement at h=12 >= agreement at h=4
        cfg = experiments.default_config(seed=13, A=2.0, a=0.7)
        w = experiments.coupling_window(cfg)
        K = RegionSpec("Cyl'", A=2.0, a=0.7)
        lo, hi = [], []
        for repl in range(6):
            x, y = sampler.sample_half_arrays(10.0, 1, w, seed=13, replica=repl)
            fractions, _ = dsf.coupling_fraction((x, y), w, K, (4.0, 12.0))
            lo.append(fractions[0])
            hi.append(fractions[1])
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
        c_all = dsf.origin_distances(h, x, y)
        pair_dist = hgeom.half_pair_dist(x, y)
        points = np.arange(len(y))
        checked = 0
        for i in range(len(y)):
            if pd[i] < 0 or pr[i] < 0 or pd[i] == pr[i]:
                continue
            d_dsf = float(forest.parent_dist[forest.rank[i]])
            d_rst = float(tree_h.parent_dist[tree_h.rank[i]])
            ball = max(d_dsf, d_rst)
            near = points[(points != i) & (pair_dist(i, points) <= ball + 1e-12)]
            in_dsf_cand = y[near] > y[i]
            in_rst_cand = c_all[near] < c_all[i]
            assert np.any(in_dsf_cand != in_rst_cand)
            checked += 1
        assert checked > 0
