"""Tree construction oracles, level machinery, CFD/MBD, validation, planarity."""

import bisect
import hashlib
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from hyperrst import hgeom, rst, sampler, search
from hyperrst.hgeom import GeometryError
from hyperrst.rst import ROOT
from hyperrst.sampler import CloudConfig, PointCloud
from oracles import (
    angle_between,
    brute_force_parents,
    cfd_reference,
    nearest_lower_brute,
    nearest_lower_scan,
    planarity_pairs_reference,
    planarity_reference,
    star_point,
    star_psi,
    validate_reference,
)


def make_cloud(radii, angles, d=1, lam=1.0, R=None, seed=0):
    """Hand-built d=1 cloud from radii and angles (sorted by radius)."""
    radii = np.asarray(radii, dtype=float)
    angles = np.asarray(angles, dtype=float)
    order = np.argsort(radii)
    radii, angles = radii[order], angles[order]
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    R = R if R is not None else float(radii[-1])
    return PointCloud(CloudConfig(d=d, lam=lam, R=R, seed=seed), radii, dirs)


def sample_tree(seed, lam=10.0, R=3.5, d=1):
    cloud = sampler.sample_ball(CloudConfig(d=d, lam=lam, R=R, seed=seed))
    return rst.build(cloud)


# (r_z, u, r_w, w) at d = 1 whose w, one ulp inside the metric ball around z,
# lies outside the search's cover of that ball without its relative pad. The
# trials of test_cover_holds_points_one_ulp_inside find about 200 in 1M:
# there w = cos(t) u + sin(t) v is off unit norm by 1e-14 to 1e-11, which
# moves its chart point past the absolute slack.
COVER_MISSES_D1 = [
    (20.443905219722865, [0.8057796871394594, -0.5922154133365957],
     2.8447862421742567, [0.742477638197432, -0.6698708508180264]),
    (15.21024763698923, [-0.9103448140590931, -0.4138506004776546],
     13.758141792643357, [-0.37933179956774865, -0.9252607123598845]),
    (0.0011795792819507581, [0.9994481017156125, -0.03321884972510081],
     28.331587188966804, [-0.31969828237484216, 0.9475193972930608]),
    (26.159340366186672, [0.8880056400791848, 0.45983255994715877],
     24.701157521553448, [0.1413161244304466, 0.9899645210693158]),
    (25.57180328440194, [-0.5398065263077934, 0.8417891150136794],
     5.870348533615052, [-0.46600595697185854, 0.884781582124571]),
    (1.6696990382407384, [0.17848771476105327, -0.9839421404124213],
     2.4845151570997883, [-0.1611073290407569, -0.986936891875127]),
]


def cover_holds(radii, dirs):
    """Whether the chart ball nearest_lower searches for B(z, rho), rho one
    ulp above d(z, w), holds w; z and w are rows 0 and 1 of (radii, dirs)."""
    rho = np.nextafter(hgeom.polar_pair_dist(radii, dirs)(np.array([0]), np.array([1])), np.inf)
    index = rst._chart_index(radii, dirs)
    centre, radius = search.padded_cover(index, np.array([0]), rho)
    return 1 in index.ball(centre, radius)[1]


# the clouds of the MBD checks, one per dimension: sample_tree(10, lam, R, d)
MBD_CLOUDS = pytest.mark.parametrize(
    "d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 3.0), (3, 0.3, 2.6)], ids=["d1", "d2", "d3"]
)


def scan_parents(cloud):
    """Parents and parent distances from the block scan oracle."""
    pair_dist = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)
    return nearest_lower_scan(cloud.radii, pair_dist, root_dist=cloud.radii)


def far_out_clusters():
    """(cloud, cluster): 40 d=1 clusters of 25 points between r = 19 and
    R = 30, each spread over a few e^-r of angle, so that most parents are
    points, not the root, where the chart keeps only about e^-r of relative
    precision; cluster[k] labels point k."""
    rng = np.random.default_rng(30)
    centres = rng.uniform(20.0, 29.0, 40)
    radii = np.minimum(np.repeat(centres, 25) + rng.uniform(-1.0, 1.0, 1000), 30.0)
    angles = np.repeat(rng.uniform(0.0, 2.0 * math.pi, 40), 25) + rng.uniform(-4.0, 4.0, 1000) * np.exp(-radii)
    return make_cloud(radii, angles, R=30.0), np.repeat(np.arange(40), 25)[np.argsort(radii)]


def mirror_cloud(pairs=40, seed=0):
    """Points on the axis just outside mirror-image pairs (r, +-theta): each
    axis point is at exactly equal distance from the two points of a pair."""
    rng = np.random.default_rng(seed)
    r = np.cumsum(rng.uniform(0.05, 0.15, pairs)) + 0.3
    theta = rng.uniform(0.005, 0.05, pairs)
    radii = np.concatenate([r, r, r + 0.02])
    angles = np.concatenate([theta, -theta, np.zeros(pairs)])
    return make_cloud(radii, angles)


def test_children_ascending_per_parent():
    tree = sample_tree(4)
    nodes, start = tree.children
    assert start[-1] == nodes.size == np.count_nonzero(tree.parent >= 0)
    for i in range(len(tree)):
        assert np.array_equal(nodes[start[i] : start[i + 1]], np.flatnonzero(tree.parent == i))


class TestBuild:
    def test_single_point(self):
        cloud = make_cloud([1.0], [0.3])
        tree = rst.build(cloud)
        assert tree.parent[0] == ROOT

    def test_two_point_rule(self):
        # parent of the outer point is the inner iff d(out, in) < r_out
        inner_angle = 0.2
        for outer_angle, expect_inner in ((0.25, True), (3.0, False)):
            cloud = make_cloud([1.0, 2.0], [inner_angle, outer_angle])
            tree = rst.build(cloud)
            d_oi = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)(0, 1)
            assert (d_oi < 2.0) == expect_inner
            assert (tree.parent[1] == 0) == expect_inner

    def test_matches_brute_force(self):
        # R = 20 at low intensity: Poincare chart coordinates keep only about
        # e^-R of their relative precision there
        configs = [(12.0, 3.0, seed) for seed in range(6)] + [(1e-6, 20.0, seed) for seed in range(2)]
        clouds = [sampler.sample_ball(CloudConfig(d=1, lam=lam, R=R, seed=seed)) for lam, R, seed in configs]
        clouds.append(mirror_cloud())
        for cloud in clouds:
            tree = rst.build(cloud)
            assert np.array_equal(tree.parent, brute_force_parents(cloud))
            parent, pdist = scan_parents(cloud)
            assert np.array_equal(tree.parent, parent)
            assert np.array_equal(tree.parent_dist, pdist)
        # ties do occur: many axis points of the mirror cloud take a pair point
        dirs = clouds[-1].dirs
        par = tree.parent[dirs[:, 1] == 0.0]
        assert np.count_nonzero(dirs[par[par >= 0], 1] != 0.0) >= 10

    def test_matches_brute_force_d2(self):
        for d, lam, R in ((2, 1.5, 2.5), (3, 0.3, 2.6), (2, 1e-5, 9.0)):
            for seed in range(3):
                cloud = sampler.sample_ball(CloudConfig(d=d, lam=lam, R=R, seed=seed))
                tree = rst.build(cloud)
                assert np.array_equal(tree.parent, brute_force_parents(cloud))
                parent, pdist = scan_parents(cloud)
                assert np.array_equal(tree.parent, parent)
                assert np.array_equal(tree.parent_dist, pdist)

    def test_matches_brute_force_far_out(self):
        cloud, _ = far_out_clusters()
        tree = rst.build(cloud)
        assert np.array_equal(tree.parent, brute_force_parents(cloud))
        parent, pdist = scan_parents(cloud)
        assert np.array_equal(tree.parent, parent)
        assert tree.parent_dist.tobytes() == pdist.tobytes()
        assert np.count_nonzero(tree.parent >= 0) > 500

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cover_holds_points_one_ulp_inside(self, d):
        # w one ulp inside the metric sphere of radius rho around z, for radii
        # up to 30 and rho below and above r_z: w lies in the padded chart
        # ball that nearest_lower searches for B(z, rho). At d = 1 the pinned
        # balls come first: each misses its cover without the relative pad
        for rz, u, rw, w in COVER_MISSES_D1 if d == 1 else ():
            assert cover_holds(np.array([rz, rw]), np.array([u, w])), (rz, rw)
        rng = np.random.default_rng(d)
        for k in range(300):
            rz = rng.uniform(0.0, 30.0) if k % 4 else math.exp(rng.uniform(-7.0, 3.4))
            if k % 3 == 0:  # rho above r_z: the ball holds the origin
                rw = rng.uniform(0.0, 30.0)
                t = rng.uniform(max(rz, abs(rz - rw)), rz + rw)
            elif k % 3 == 1:  # rho below r_z
                rw = rng.uniform(0.0, min(2.0 * rz, 30.0))
                t = rng.uniform(abs(rz - rw), rz)
            else:  # a small ball far out, about e^-r_z wide in the chart
                rz = rng.uniform(15.0, 30.0)
                rw = rz + rng.uniform(-1.0, 1.0)
                t = abs(rz - rw) + rng.uniform(0.0, 2.0)
            # the angle at which w lies at distance t from z, without cancellation:
            # sin^2(theta/2) = sinh((t + gap)/2) sinh((t - gap)/2) / (sinh r_z sinh r_w)
            gap = rz - rw
            s2 = math.sinh((t + gap) / 2.0) * math.sinh((t - gap) / 2.0) / (math.sinh(rz) * math.sinh(rw))
            theta = 2.0 * math.asin(min(1.0, math.sqrt(s2)))
            u, v = rng.normal(size=(2, d + 1))
            u /= np.linalg.norm(u)
            v -= (v @ u) * u
            v /= np.linalg.norm(v)
            radii, dirs = np.array([rz, rw]), np.array([u, math.cos(theta) * u + math.sin(theta) * v])
            assert cover_holds(radii, dirs), (rz, rw)

    def test_far_out_balls_hold_one_cluster(self, monkeypatch):
        # far out, the padded chart balls of route 2 must stay about e^-r
        # wide: each holds points of one cluster only, at most its 25
        cloud, cluster = far_out_clusters()
        balls = []
        ball = search.ChartIndex.ball

        def recording_ball(self, centres, radii):
            counts, hits = ball(self, centres, radii)
            balls.extend(np.split(hits, np.cumsum(counts)[:-1]))
            return counts, hits

        monkeypatch.setattr(search.ChartIndex, "ball", recording_ball)
        rst.build(cloud)
        assert len(balls) > 100
        assert max(map(len, balls)) <= 25
        assert all(np.unique(cluster[hits]).size <= 1 for hits in balls)

    def test_search_tie_rule_across_blocks(self):
        # distances 1, 2, 3 repeat along the index, so ties span many blocks;
        # keys stay below 1, so the pruning bound never cuts a candidate
        n = 700
        keys = np.arange(n) / n
        j = np.arange(n)
        dist = 1.0 + (j[:, None] + j[None, :]) % 3
        for root_dist in (None, np.ones(n)):
            parent, pdist = nearest_lower_scan(keys, lambda i, j: dist[i, j], root_dist)
            want_parent, want_dist = nearest_lower_brute(keys, dist, root_dist)
            assert np.array_equal(parent, want_parent)
            assert np.array_equal(pdist, want_dist)

        # a computed distance one ulp under the computed key gap: candidate 170
        # sits just under keys[-1] - 0.5, in a block below the one holding the
        # first best (0.5, candidate 250), and wins at nextafter(0.5, 0)
        n = 300
        keys = np.concatenate([np.linspace(0.0, np.nextafter(0.5, 0.0), 171), np.linspace(0.5, 1.0, 129)])
        dist = np.full((n, n), 10.0)
        dist[-1, 250] = 0.5
        dist[-1, 170] = np.nextafter(keys[-1] - keys[170], 0.0)
        for root_dist in (None, np.ones(n)):
            parent, pdist = nearest_lower_scan(keys, lambda i, j: dist[i, j], root_dist)
            want_parent, want_dist = nearest_lower_brute(keys, dist, root_dist)
            assert want_parent[-1] == 170
            assert np.array_equal(parent, want_parent)
            assert np.array_equal(pdist, want_dist)

        # the k-d search with the L1 metric on an integer grid, keyed by a + b:
        # the lower neighbours (a-1, b) and (a, b-1) tie, and both tie with a
        # root at distance 1
        grid = np.array([(a, b) for a in range(15) for b in range(15)], dtype=float)
        grid = grid[np.argsort(grid.sum(axis=1), kind="stable")]
        keys = grid.sum(axis=1)
        n = len(grid)

        def l1(i, j):
            return np.abs(grid[i] - grid[j]).sum(axis=-1)

        dist = l1(np.arange(n)[:, None], np.arange(n))
        for root_dist in (None, np.ones(n), keys + 0.5):
            index = search.ChartIndex(grid, l1, lambda rows, rho: (grid[rows], rho))
            parent, pdist = search.nearest_lower(keys, index, root_dist=root_dist)
            want_parent, want_dist = nearest_lower_brute(keys, dist, root_dist)
            assert np.array_equal(parent, want_parent)
            assert np.array_equal(pdist, want_dist)
            scan_parent, scan_dist = nearest_lower_scan(keys, l1, root_dist)
            assert np.array_equal(parent, scan_parent)
            assert np.array_equal(pdist, scan_dist)

    def test_parents_pinned_d3(self):
        # recorded before the search settled rows from their chart neighbours
        tree = rst.build(sampler.sample_ball(CloudConfig(d=3, lam=0.3, R=3.5, seed=0)))
        assert len(tree) == 8849
        assert hashlib.sha256(tree.parent.tobytes()).hexdigest() == (
            "ec69c09943f52abec2ed2d13fabb06c0123bda72a922503854ea47e143e3fb36")
        assert hashlib.sha256(tree.parent_dist.tobytes()).hexdigest() == (
            "8b35f7e115780e5756a7b9041548fecb8da1ea9ba398ed87cdb877709c3134b0")

    def test_empty_cloud(self):
        cloud = PointCloud(CloudConfig(d=1, lam=1.0, R=1.0, seed=0), np.empty(0), np.empty((0, 2)))
        tree = rst.build(cloud)
        assert len(tree) == 0


class TestTrajectory:
    def test_reaches_root_with_decreasing_radii(self):
        tree = sample_tree(1)
        for i in (0, len(tree) // 2, len(tree) - 1):
            path = rst.trajectory(tree, i)
            assert path[-1] == ROOT
            radii = [tree.radii[j] for j in path[:-1]]
            assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_chain_cloud(self):
        # three nearly-aligned points at close angles chain up
        cloud = make_cloud([1.0, 1.3, 1.6], [0.0, 0.02, 0.04])
        tree = rst.build(cloud)
        assert np.array_equal(tree.parent, brute_force_parents(cloud))
        assert rst.trajectory(tree, 2) == [2, 1, 0, ROOT]


class TestLevelCrossings:
    def test_above_max_radius_empty(self):
        tree = sample_tree(2)
        assert rst.level_crossings(tree, float(tree.radii[-1]) + 0.5) == []

    def test_below_min_radius_root_degree(self):
        tree = sample_tree(2)
        r = float(tree.radii[0]) / 2.0
        crossings = rst.level_crossings(tree, r)
        assert len(crossings) == len(tree.root_children())

    def test_interval_overlap_oracle(self):
        tree = sample_tree(3)
        rp = tree.parent_radii
        for r in np.linspace(0.2, 3.4, 40):
            expected = int(np.sum((rp <= r) & (tree.radii > r)))
            assert len(rst.level_crossings(tree, float(r))) == expected

    def test_rejects_nonpositive_level(self):
        tree = sample_tree(2)
        for r in (0.0, -1.0):
            with pytest.raises(GeometryError):
                rst.level_crossings(tree, r)

    @pytest.mark.parametrize(
        "d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 3.0), (3, 0.3, 2.6)], ids=["d1", "d2", "d3"]
    )
    def test_crossing_point_consistency(self, d, lam, R):
        # level_geometry's t and directions against the oracles' star path,
        # evaluated one point at a time
        tree = sample_tree(4, lam=lam, R=R, d=d)
        r = 1.7
        children, t, _, dirs = rst.level_geometry(tree, r)
        assert children.size
        assert [c.edge_child for c in rst.level_crossings(tree, r)] == children.tolist()
        for k, i in enumerate(children.tolist()):
            p = int(tree.parent[i])
            r2, u2 = (float(tree.radii[p]), tree.dirs[p]) if p != ROOT else (0.0, tree.dirs[i])
            rho, u = star_point(float(tree.radii[i]), tree.dirs[i], r2, u2, float(t[k]))
            assert rho == pytest.approx(r, abs=1e-12)
            assert np.max(np.abs(u - dirs[k])) <= 1e-9


class TestAncestors:
    def test_same_level_identity(self):
        tree = sample_tree(5)
        c = rst.level_crossings(tree, 2.0)[0]
        assert rst.ancestor_at_level(tree, c, 2.0) is c

    def test_rejects_above(self):
        tree = sample_tree(5)
        c = rst.level_crossings(tree, 2.0)[0]
        with pytest.raises(GeometryError):
            rst.ancestor_at_level(tree, c, 2.5)

    def test_semigroup(self):
        tree = sample_tree(6)
        for c in rst.level_crossings(tree, 2.5)[:10]:
            via = rst.ancestor_at_level(tree, rst.ancestor_at_level(tree, c, 1.8), 1.1)
            direct = rst.ancestor_at_level(tree, c, 1.1)
            assert (via.edge_child, via.level) == (direct.edge_child, direct.level)

    @MBD_CLOUDS
    def test_fiber_property(self, d, lam, R):
        # the sweep's descendants of c are the crossings whose ancestor walk
        # ends on c, ascending, at r' = r and past the largest radius too
        tree = sample_tree(10, lam=lam, R=R, d=d)
        top = float(tree.radii.max())
        for r, rp in ((1.4, R - 0.9), (1.0, R - 0.3), (1.4, 1.4), (R - 0.9, top + 0.1)):
            fibers = {}
            for cp in rst.level_crossings(tree, rp):
                fibers.setdefault(rst.ancestor_at_level(tree, cp, r).edge_child, []).append(cp.edge_child)
            crossings_r = rst.level_crossings(tree, r)
            assert crossings_r and set(fibers) <= {c.edge_child for c in crossings_r}
            for c in crossings_r:
                desc = rst.descendants_at_level(tree, c, rp)
                assert [x.edge_child for x in desc] == fibers.get(c.edge_child, [])
                assert all(x.level == rp for x in desc)
            if rp > top:
                assert not fibers

    def test_descendants_same_level(self):
        tree = sample_tree(7)
        c = rst.level_crossings(tree, 2.0)[0]
        desc = rst.descendants_at_level(tree, c, 2.0)
        assert len(desc) == 1 and desc[0].edge_child == c.edge_child

    def test_descendants_above_subtree_empty(self):
        tree = sample_tree(7)
        crossings = rst.level_crossings(tree, 3.0)
        # a leaf edge's subtree ends below the window ceiling
        for c in crossings:
            top = max(
                tree.radii[list(_subtree_nodes(tree, c.edge_child))].max(), tree.radii[c.edge_child]
            )
            if top < 3.4:
                assert rst.descendants_at_level(tree, c, 3.45) == []
                break


def _subtree_nodes(tree, v0):
    nodes, start = tree.children
    stack = [v0]
    seen = []
    while stack:
        w = stack.pop()
        seen.append(w)
        stack.extend(nodes[start[w] : start[w + 1]].tolist())
    return seen


def crossing_dirs(tree, r):
    """Crossing direction at S(r) by edge child, from level_geometry."""
    children, _, _, dirs = rst.level_geometry(tree, r)
    return dict(zip(children.tolist(), dirs))


def dense_grid_mbd(tree, c, r1, levels=1000):
    """Brute-force MBD: max CFD over a dense level grid plus vertex radii.

    Edges carry their child endpoint (the paper's half-open edges), so the
    supremum is attained at vertex levels and a finite grid reaches it.
    """
    r0 = c.level
    nodes = _subtree_nodes(tree, c.edge_child)
    rc = tree.radii[nodes].tolist()
    rp = tree.parent_radii[nodes].tolist()
    grid = set(np.linspace(r0, r1, levels).tolist())
    grid.update(r for r in rc if r0 < r <= r1)
    grid.add(float(r1))
    grid = sorted(grid)
    best = 0.0
    for w, rcw, rpw in zip(nodes, rc, rp):
        # the grid levels r on the edge of w below c: max(rpw, r0) < r <= rcw
        for r in grid[bisect.bisect_right(grid, max(rpw, r0)) : bisect.bisect_right(grid, rcw)]:
            best = max(best, rst.cfd(tree, r0, rst.LevelCrossing(w, r)))
    return best


class TestCfd:
    def test_zero_at_same_level(self):
        tree = sample_tree(8)
        c = rst.level_crossings(tree, 2.2)[0]
        assert rst.cfd(tree, 2.2, c) == 0.0

    def test_single_edge_is_origin_angle(self):
        tree = sample_tree(8)
        dirs, anc_dirs = crossing_dirs(tree, 2.2), crossing_dirs(tree, 2.1)
        for c in rst.level_crossings(tree, 2.2):
            anc = rst.ancestor_at_level(tree, c, 2.1)
            if anc.edge_child == c.edge_child:
                got = rst.cfd(tree, 2.1, c)
                expected = angle_between(dirs[c.edge_child], anc_dirs[anc.edge_child])
                assert got == pytest.approx(expected, abs=1e-9)
                break

    def test_hand_built_four_node_chain(self):
        # chain root <- z1 <- z2 <- z3 plus a sibling; crossing on (z3, z2)
        # at level 2.5, ancestor on (z2, z1) at level 1.5
        radii = [1.0, 2.0, 3.0, 2.2]
        angles = [0.0, 0.15, 0.05, 2.5]
        cloud = make_cloud(radii, angles)
        tree = rst.build(cloud)
        assert np.array_equal(tree.parent, brute_force_parents(cloud))
        i3 = int(np.argmin(np.abs(cloud.radii - 3.0)))
        i2 = int(np.argmin(np.abs(cloud.radii - 2.0)))
        i1 = int(np.argmin(np.abs(cloud.radii - 1.0)))
        assert tree.parent[i3] == i2 and tree.parent[i2] == i1

        c = [x for x in rst.level_crossings(tree, 2.5) if x.edge_child == i3][0]
        got = rst.cfd(tree, 1.5, c)

        # independent term-by-term evaluation from the definition
        def psi(rc, rp, theta, r):
            t = (r - rc) / (rp - rc)
            arg = ((1 - t) * math.sinh(rc) + t * math.cos(theta) * math.sinh(rp)) / math.sinh(
                (1 - t) * rc + t * rp
            )
            return math.acos(max(-1.0, min(1.0, arg)))

        th32 = 0.15 - 0.05  # angle between z3 and z2 directions
        th21 = 0.15 - 0.0
        term_up = th32 - psi(3.0, 2.0, th32, 2.5)  # crossing to z2 endpoint
        term_down = psi(2.0, 1.0, th21, 1.5)  # z2 down to the ancestor crossing
        assert got == pytest.approx(term_up + term_down, abs=1e-12)

    def test_triangle_bound(self):
        tree = sample_tree(9)
        dirs, anc_dirs = crossing_dirs(tree, 2.6), crossing_dirs(tree, 1.3)
        for c in rst.level_crossings(tree, 2.6)[:20]:
            anc = rst.ancestor_at_level(tree, c, 1.3)
            direct = angle_between(dirs[c.edge_child], anc_dirs[anc.edge_child])
            assert rst.cfd(tree, 1.3, c) >= direct - 1e-10


class TestMbd:
    @MBD_CLOUDS
    def test_matches_sweep(self, d, lam, R):
        tree = sample_tree(10, lam=lam, R=R, d=d)
        r0, r1 = 1.5, R - 0.5
        want = reference_sweep(tree, r0, r1)[4]
        crossings = rst.level_crossings(tree, r0)
        assert len(crossings) == want.size
        for k, c in enumerate(crossings):
            assert rst.mbd(tree, c, r1) == float(want[k])

    def test_single_through_edge(self):
        # no subtree vertices in (r, r']: mbd equals the cfd of the r' crossing
        tree = sample_tree(10)
        r0 = 2.0
        for c in rst.level_crossings(tree, r0):
            child_r = float(tree.radii[c.edge_child])
            if child_r > 2.15:
                got = rst.mbd(tree, c, 2.1)
                cross = rst.descendants_at_level(tree, c, 2.1)
                assert len(cross) == 1
                assert got == pytest.approx(rst.cfd(tree, r0, cross[0]), abs=1e-12)
                break

    def test_monotone_in_rprime(self):
        tree = sample_tree(11)
        c = rst.level_crossings(tree, 1.5)[0]
        vals = [rst.mbd(tree, c, rp) for rp in (1.6, 2.0, 2.4, 2.8, 3.2)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_dense_grid_oracle(self):
        # sup over a dense level grid (plus vertex radii) matches the
        # vertex-evaluation result
        tree = sample_tree(12, lam=8.0, R=3.0)
        r0, r1 = 1.2, 2.6
        crossings = rst.level_crossings(tree, r0)
        sweep = rst.deviation_sweep(tree, r0, r1)
        for k in range(0, len(crossings), max(1, len(crossings) // 6)):
            c = crossings[k]
            got = float(sweep.mbd[k])
            best = dense_grid_mbd(tree, c, r1, levels=1000)
            assert got == pytest.approx(best, abs=1e-9)

    def test_non_rows_raise(self):
        # mbd and descendants_at_level read rows of level_geometry(tree, c.level):
        # a child-vertex pair and an edge that misses S(level) are not rows, yet
        # cfd and ancestor_at_level still walk them, as dense_grid_mbd needs
        tree = sample_tree(12, lam=8.0, R=3.0)
        r0, r1 = 1.2, 2.6
        radii = tree.radii
        lo, hi = np.searchsorted(radii, [r0, r1], side="right")
        vertices = [rst.LevelCrossing(v, radii[v]) for v in range(lo, hi, 7)]
        above = int(np.nonzero(tree.parent_radii > 2.0)[0][0])
        misses = [rst.LevelCrossing(0, 2.0), rst.LevelCrossing(above, 2.0)]
        assert radii[0] < 2.0 and len(vertices) > 10
        for c in vertices + misses:
            with pytest.raises(GeometryError):
                rst.mbd(tree, c, r1)
            with pytest.raises(GeometryError):
                rst.descendants_at_level(tree, c, r1)
        for c in vertices:
            value = rst.cfd(tree, r0, c)
            assert 0.0 <= value <= rst.mbd(tree, rst.ancestor_at_level(tree, c, r0), r1) + 1e-12

    def test_descendant_apertures_shrink(self):
        # empirical max MBD to the window edge decreases with the base level
        tree = sample_tree(14, lam=20.0, R=4.0)
        vals = []
        for r0 in (1.0, 1.8, 2.6):
            sweep = rst.deviation_sweep(tree, r0, 3.5)
            vals.append(float(sweep.mbd.max()))
        assert vals[2] < vals[0]

    def test_tree_sweep_is_the_memo_of_deviation_sweep(self):
        tree = sample_tree(14, lam=20.0, R=4.0)
        for r0, r1 in ((1.0, 3.5), (2.5, 2.8), (2.5, 3.5)):
            got = rst.deviation_sweep(tree, r0, r1)
            assert (got.r0, got.r1) == (r0, r1)
            children, _, _, cross_dirs, mbd, cut, cut_row = reference_sweep(tree, r0, r1)
            want = (children, cross_dirs, mbd, cut, cut_row)
            for a, b in zip((got.children, got.cross_dirs, got.mbd, got.cut, got.cut_row), want, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            # computed once: the same object on the next call
            assert rst.deviation_sweep(tree, r0, r1) is got
        with pytest.raises(ValueError):
            rst.deviation_sweep(tree, 1.0, 3.5).mbd[0] = 0.0

    def test_level_api_sequence_sweeps_once(self):
        # the sweep, then mbd and descendants_at_level on every crossing of
        # S(r0): all of them read one memo entry
        tree = sample_tree(29, lam=10.0, R=4.0)
        r0, r1 = 1.5, 3.5
        sweep = rst.deviation_sweep(tree, r0, r1)
        crossings = rst.level_crossings(tree, r0)
        assert len(crossings) > 10
        assert [rst.mbd(tree, c, r1) for c in crossings] == sweep.mbd.tolist()
        assert sum(len(rst.descendants_at_level(tree, c, r1)) for c in crossings) == sweep.cut.size
        assert list(tree._sweeps) == [(r0, r1)]


def reference_sweep(tree, r0, r1):
    """deviation_sweep as a per-node loop: cum and crossid are carried in
    index order, where a parent always precedes its children (test oracle)."""
    radii, dirs, parent = tree.radii, tree.dirs, tree.parent
    n = len(tree)
    theta = tree.edge_thetas
    k0 = int(np.searchsorted(radii, r0, side="right"))
    above = np.arange(k0, n)
    rp_all = tree.parent_radii
    children = above[rp_all[above] <= r0]
    # crossing geometry at r0
    rc, rp = radii[children], rp_all[children]
    t0 = (r0 - rc) / (rp - rc)
    th0 = theta[children]
    psi0 = np.zeros(children.shape[0])
    pos = th0 > 1e-14
    if np.any(pos):
        psi0[pos] = hgeom.star_psi_arrays(rc[pos], rp[pos], th0[pos], t0[pos])
    u1 = dirs[children]
    cross_dirs = u1.copy()
    if np.any(pos):
        th = th0[pos]
        frac = psi0[pos] / th
        u2 = dirs[parent[children[pos]]]
        cross_dirs[pos] = (
            np.sin((1.0 - frac) * th)[:, None] * u1[pos] + np.sin(frac * th)[:, None] * u2
        ) / np.sin(th)[:, None]
    m = children.shape[0]
    cross_index = np.full(n, -1, dtype=np.int64)
    cross_index[children] = np.arange(m)

    parent_l, radii_l, theta_l, psi0_l = parent.tolist(), radii.tolist(), theta.tolist(), psi0.tolist()
    cum_l = [0.0] * n
    crossid_l = [-1] * n
    for i in range(k0, n):
        p = parent_l[i]
        if p == ROOT or radii_l[p] <= r0:
            cid = int(cross_index[i])
            crossid_l[i] = cid
            cum_l[i] = psi0_l[cid]
        else:
            crossid_l[i] = crossid_l[p]
            cum_l[i] = cum_l[p] + theta_l[i]
    cum = np.array(cum_l)
    crossid = np.array(crossid_l, dtype=np.int64)

    mbd = np.zeros(m)
    in_range = above[radii[above] <= r1]
    if in_range.size:
        np.maximum.at(mbd, crossid[in_range], cum[in_range])
    cut = above[(radii[above] > r1) & (rp_all[above] <= r1)]
    if cut.size:
        rc, rp = radii[cut], rp_all[cut]
        t1 = (r1 - rc) / (rp - rc)
        th = theta[cut]
        psi1 = np.zeros(cut.shape[0])
        pos = th > 1e-14
        if np.any(pos):
            psi1[pos] = hgeom.star_psi_arrays(rc[pos], rp[pos], th[pos], t1[pos])
        same_edge = rp <= r0
        cfd1 = np.empty(cut.shape[0])
        if np.any(same_edge):
            cfd1[same_edge] = np.abs(psi1[same_edge] - psi0[cross_index[cut[same_edge]]])
        other = ~same_edge
        if np.any(other):
            cfd1[other] = cum[parent[cut[other]]] + np.abs(th[other] - psi1[other])
        np.maximum.at(mbd, crossid[cut], cfd1)
    return children, t0, psi0, cross_dirs, mbd, cut, crossid[cut]


def chain_tree():
    """root <- z1 <- z2 <- z3 plus a sibling (the TestCfd chain)."""
    return rst.build(make_cloud([1.0, 2.0, 3.0, 2.2], [0.0, 0.15, 0.05, 2.5]))


class TestSweepOracle:
    """deviation_sweep carries CFDs layer by layer; the per-node loop agrees bit for bit."""

    @MBD_CLOUDS
    def test_matches_per_node_loop(self, d, lam, R):
        tree = sample_tree(10, lam=lam, R=R, d=d)
        levels = [(1.5, R - 0.5), (1.0, 1.0), (1.2, R + 1.0), (0.05, 2.0), (2.0, 2.3), (R - 0.3, R)]
        # levels through a vertex: an edge whose parent sits on S(r0) crosses it
        mid = float(tree.radii[len(tree) // 2])
        levels += [(mid, mid + 0.3), (mid / 2.0, mid)]
        self._check(tree, levels)

    def test_matches_per_node_loop_on_chain(self):
        levels = [(1.5, 2.5), (0.5, 5.0), (2.5, 2.5), (2.1, 2.6), (1.5, 2.1), (2.0, 2.5), (1.0, 2.2)]
        self._check(chain_tree(), levels)

    @staticmethod
    def _check(tree, levels):
        radii = tree.radii
        assert any(r1 > radii.max() for _, r1 in levels)
        for r0, r1 in levels:
            sweep = rst.deviation_sweep(tree, r0, r1)
            _, t0, psi0, _ = rst.level_geometry(tree, r0)
            got = (sweep.children, t0, psi0, sweep.cross_dirs, sweep.mbd, sweep.cut, sweep.cut_row)
            want = reference_sweep(tree, r0, r1)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            # rst.mbd, a row of the tree's sweep, against the per-node loop
            for k, c in enumerate(rst.level_crossings(tree, r0)):
                assert rst.mbd(tree, c, r1) == float(want[4][k])


class TestLayers:
    @pytest.mark.parametrize(
        "d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 3.0)], ids=["d1", "d2"]
    )
    def test_partition_by_depth(self, d, lam, R):
        tree = sample_tree(10, lam=lam, R=R, d=d)
        layers = tree.layers
        assert np.array_equal(layers[0], tree.root_children())
        assert np.array_equal(np.sort(np.concatenate(layers)), np.arange(len(tree)))
        for prev, layer in zip(layers, layers[1:]):
            assert np.all(np.isin(tree.parent[layer], prev))
        for layer in layers:
            assert layer.dtype == np.int64 and np.all(np.diff(layer) > 0)
        assert tree.layers is layers

    def test_chain_and_empty_tree(self):
        tree = chain_tree()
        assert [layer.tolist() for layer in tree.layers] == [[0, 2], [1], [3]]
        cloud = PointCloud(CloudConfig(d=1, lam=1.0, R=1.0, seed=0), np.empty(0), np.empty((0, 2)))
        assert rst.build(cloud).layers == []


class TestScalarPath:
    """The scalar level API (math on the tree's lists) against the array path."""

    def test_star_psi_matches_arrays(self):
        rng = np.random.default_rng(22)
        n = 2000
        r1 = rng.uniform(0.01, 8.0, n)
        r2 = r1 * rng.uniform(0.0, 1.0, n)
        theta = rng.uniform(0.0, math.pi, n)
        t = rng.uniform(0.0, 1.0, n)
        want = hgeom.star_psi_arrays(r1, r2, theta, t)
        for k, args in enumerate(zip(r1.tolist(), r2.tolist(), theta.tolist(), t.tolist())):
            assert abs(star_psi(*args) - want[k]) <= 1e-12
        # arccos turns one ulp of an argument near +-1 into ~1e-8, so the
        # edge cases sit where the argument is exact or the clamp cuts it
        edges = [
            ((2.0, 1.5, 0.4, 0.0), 0.0),  # t = 0
            ((2.0, 1.5, 0.4, 1.0), None),  # t = 1
            ((2.5, 0.0, 0.7, 0.3), 0.0),  # root edge, clamped at 1
            ((2.5, 0.0, 0.7, 1.0), 0.0),  # root edge at the origin: sinh(rho) = 0
            ((3.0, 1.0, 1e-15, 0.5), 0.0),  # theta < 1e-14, clamped at 1
            ((2.0, 1.9, math.pi - 1e-6, 0.25), None),  # theta near pi
            ((2.0, 1.5, math.pi - 1e-9, 1.0), math.pi),  # clamped at -1
            ((0.1, 8.0, math.pi - 1e-3, 0.5), math.pi),  # clamped at -1
        ]
        for args, exact in edges:
            got = star_psi(*args)
            assert abs(got - float(hgeom.star_psi_arrays(*map(np.atleast_1d, args))[0])) <= 1e-12
            if exact is not None:
                assert got == exact

    @pytest.mark.parametrize(
        "d, lam, R, digest",
        [
            (1, 10.0, 3.5, "ff5be110b34ba6a60496e61806b4bc36130971ac49317342b39871b5ab425f3f"),
            (2, 1.5, 3.0, "45e085c96493da17c9081b16978f666a9402d20c232e8ad8d9e1fd94f2f35efd"),
            (3, 0.3, 2.6, "fd95a9fc841467da640385133a67890af6499426c22466f10d6fe8ae0988f2ba"),
        ],
        ids=["d1", "d2", "d3"],
    )
    def test_cfd_bits_pinned(self, d, lam, R, digest):
        # digests recorded before cfd became one walk up the trajectory; a
        # changed term, or a changed order of its float additions, moves them
        tree = sample_tree(10, lam=lam, R=R, d=d)
        levels = np.linspace(0.3, R, 10).tolist()
        vals = [
            rst.cfd(tree, r0, c)
            for k, r in enumerate(levels)
            for c in rst.level_crossings(tree, r)
            for r0 in levels[: k + 1]
        ]
        assert hashlib.sha256(np.array(vals).tobytes()).hexdigest() == digest

    @MBD_CLOUDS
    def test_cfd_matches_reference_bitwise(self, d, lam, R):
        # the libm columns and the memo of ancestor angles change no bit: every
        # crossing of a few levels and every 13th child-vertex crossing (as
        # dense_grid_mbd feeds them), down to each lower level, its own, and
        # a level below every point, whose ancestors are root edges; with r
        # fixed over a run of calls and with r changing at every call
        tree = sample_tree(10, lam=lam, R=R, d=d)
        lists = tree.lists
        levels = np.linspace(0.3, R, 7).tolist()
        bottom = lists.radii[0] / 2.0
        vertices = [rst.LevelCrossing(w, lists.radii[w]) for w in range(0, len(tree), 13)]
        pairs = [
            (r, c)
            for k, level in enumerate(levels)
            for c in rst.level_crossings(tree, level) + vertices[k::len(levels)]
            for r in (bottom, *levels[:k], c.level)
            if r <= c.level
        ]
        want = np.array([cfd_reference(tree, r, c) for r, c in pairs])
        interleaved = np.array([rst.cfd(tree, r, c) for r, c in pairs])
        by_level = sorted(range(len(pairs)), key=lambda i: pairs[i][0])
        grouped = np.empty(len(pairs))
        grouped[by_level] = [rst.cfd(tree, *pairs[i]) for i in by_level]
        assert interleaved.tobytes() == want.tobytes()
        assert grouped.tobytes() == want.tobytes()
        # every case came up: a pair on one edge, a root edge, r at the level
        same_edge = [lists.parent_radii[c.edge_child] <= r < c.level for r, c in pairs]
        assert any(same_edge)
        assert any(lists.parent[c.edge_child] == ROOT and r < c.level for r, c in pairs)
        assert any(r == c.level for r, c in pairs)
        assert not all(same_edge)

    def test_scalar_results_are_python_floats(self):
        # np.float64 subclasses float, so isinstance would let 0-d numpy back in
        tree = sample_tree(10)
        for c in rst.level_crossings(tree, 2.0):
            assert type(c) is rst.LevelCrossing and c == rst.LevelCrossing(*c)
            assert type(rst.cfd(tree, 1.2, c)) is float
            assert type(rst.mbd(tree, c, 3.0)) is float
            assert type(c.edge_child) is int and type(c.level) is float
            for a in (rst.ancestor_at_level(tree, c, 1.2), *rst.descendants_at_level(tree, c, 3.0)):
                assert type(a.edge_child) is int and type(a.level) is float


def cloud_at_root_distance(below=()):
    """A d=1 cloud of the points (radius, angle) of below, all under radius
    1, then w at radius 1 and z at radius r_z on the axis, with d(z, w)
    exactly r_z, the root's distance: w's angle is found by bisection, for
    the first r_z of a grid where one exists."""
    for rz in np.linspace(1.2, 3.0, 10):

        def make(angle):
            return make_cloud([r for r, _ in below] + [1.0, rz], [a for _, a in below] + [angle, 0.0])

        def dist(cloud):
            z = len(cloud) - 1
            return hgeom.polar_pair_dist(cloud.radii, cloud.dirs)(np.array([z]), np.array([z - 1]))[0]

        lo, hi = 0.0, math.pi
        for _ in range(100):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if dist(make(mid)) < rz else (lo, mid)
        cloud = make(np.nextafter(lo, np.inf))
        if dist(cloud) == rz:
            return cloud
    pytest.fail("no lower point at exactly the root distance")


def scrambled(tree, seed, frac=0.05):
    """The tree with a share of its parents moved to random targets: the
    root, a lower or higher point, or the node itself."""
    rng = np.random.default_rng(seed)
    n = len(tree)
    parent = tree.parent.copy()
    rows = rng.choice(n, size=max(1, int(frac * n)), replace=False)
    parent[rows] = rng.integers(-1, n, size=rows.size)
    return rst.RadialTree(tree.cloud, parent, tree.parent_dist.copy())


def pinned_tree(name):
    """The corrupted trees whose validate reports tests/data pins."""
    if name == "rerouted_d2":
        tree = sample_tree(4, lam=1.0, R=3.5, d=2)
        parent = tree.parent.copy()
        rows = np.arange(10, len(tree), 50)
        parent[rows] = rows // 2
    else:
        tree = sample_tree(15)
        parent = tree.parent.copy()
        if name == "radius25":
            parent[:25] = len(tree) - 1
        else:
            # 100 self-parented nodes, and a tail 300 -> 301 into the cycle 302 -> 303 -> 304
            parent[:100] = np.arange(100)
            parent[300:305] = [301, 302, 303, 304, 302]
    return rst.RadialTree(tree.cloud, parent, tree.parent_dist.copy())


class TestValidate:
    def test_built_tree_clean(self):
        tree = sample_tree(15)
        report = rst.validate(tree)
        assert report.ok
        assert report.counts == {"radius": 0, "frontier": 0, "cycle": 0, "bplus": 0}
        assert report.max_degree >= 1

    def test_corrupted_parent_detected(self):
        tree = sample_tree(15)
        # reroute some node to a far-away parent of smaller radius
        parent = tree.parent.copy()
        parent[len(tree) - 1] = 0
        report = rst.validate(rst.RadialTree(tree.cloud, parent, tree.parent_dist.copy()))
        assert not report.ok

    def test_radius_violation_detected(self):
        tree = sample_tree(15)
        parent = tree.parent.copy()
        parent[0] = len(tree) - 1
        report = rst.validate(rst.RadialTree(tree.cloud, parent, tree.parent_dist.copy()))
        assert any("radius" in v for v in report.violations)

    def test_counts_past_the_message_cap(self):
        tree = sample_tree(15)
        parent = tree.parent.copy()
        parent[:25] = len(tree) - 1
        report = rst.validate(rst.RadialTree(tree.cloud, parent, tree.parent_dist.copy()))
        assert report.counts["radius"] == 25
        assert sum("parent radius" in v for v in report.violations) == 20
        assert report.counts["bplus"] > 20
        assert sum("inside B+" in v for v in report.violations) == 20
        parent = tree.parent.copy()
        parent[:100] = np.arange(100)
        report = rst.validate(rst.RadialTree(tree.cloud, parent, tree.parent_dist.copy()))
        assert report.counts["cycle"] == 100
        assert sum("cycle through node" in v for v in report.violations) == 20

    def test_bplus_empty_brute_scan(self):
        cloud = sampler.sample_ball(CloudConfig(d=1, lam=14.0, R=3.5, seed=16))
        tree = rst.build(cloud)
        pair_dist = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)
        for i in range(0, len(tree), 7):
            # B+(z, rho) = B(z, rho) intersect B(0, d(0, z)), z itself excluded
            lower = np.flatnonzero(cloud.radii < cloud.radii[i])
            inside = lower[pair_dist(i, lower) <= tree.parent_dist[i] - 1e-12]
            assert inside.size == 0

    @pytest.mark.parametrize(
        "make",
        [
            mirror_cloud,
            lambda: sampler.sample_ball(CloudConfig(d=1, lam=10.0, R=3.5, seed=15)),
            lambda: sampler.sample_ball(CloudConfig(d=2, lam=1.5, R=2.5, seed=1)),
            lambda: sampler.sample_ball(CloudConfig(d=3, lam=0.3, R=2.6, seed=2)),
            lambda: sampler.sample_ball(CloudConfig(d=2, lam=1e-5, R=9.0, seed=0)),
            lambda: sampler.sample_ball(CloudConfig(d=3, lam=0.3, R=3.5, seed=0)),
        ],
        ids=["mirror", "d1", "d2", "d3", "d2_R9", "d3_n9k"],
    )
    def test_band_check_matches_scan_oracle(self, make):
        tree = rst.build(make())
        trees = [tree, scrambled(tree, seed=1)]
        for t in trees:
            radii, dirs, parent = t.radii, t.dirs, t.parent
            pair_dist = hgeom.polar_pair_dist(radii, dirs)
            true_dist = np.array(radii, dtype=float)
            has = np.flatnonzero(parent >= 0)
            true_dist[has] = pair_dist(has, parent[has])
            rho = np.minimum(true_dist, radii)
            got_dist = rst._nearest_lower_in_balls(radii, dirs, pair_dist, rho)
            _, want_dist = nearest_lower_scan(radii, pair_dist, root_dist=radii)
            # exact wherever the nearest lower point is in the ball, never nearer
            inside = want_dist <= rho
            assert np.array_equal(got_dist[inside], want_dist[inside])
            assert np.all(got_dist >= want_dist)
            report = rst.validate(t)
            assert (report.violations, report.counts, report.max_degree) == validate_reference(t)
        assert rst.validate(trees[0]).ok
        assert not rst.validate(trees[1]).ok

    def test_band_check_pairs_capped(self, monkeypatch):
        # the candidate pairs of the d3_n9k cloud's check: 719,998 (81 per
        # point) when the index held cells of u1 and ranks of u0 alone
        tree = rst.build(sampler.sample_ball(CloudConfig(d=3, lam=0.3, R=3.5, seed=0)))
        pairs = []
        band_ranges = rst._band_ranges

        def counting(index, u, chord):
            for k, lo, hi in band_ranges(index, u, chord):
                pairs.append(int((hi - lo).sum()))
                yield k, lo, hi

        monkeypatch.setattr(rst, "_band_ranges", counting)
        assert rst.validate(tree).ok
        assert sum(pairs) <= 719_998 // 2

    def test_wide_balls_take_query_groups(self, monkeypatch):
        # every parent the root, so each ball holds every lower point and a
        # box covers most of its band's cells: the (query, cell) ranges then
        # come in groups of about _PAIRS, and the check is still exact
        monkeypatch.setattr(rst, "_PAIRS", 2**12)
        cloud = sampler.sample_ball(CloudConfig(d=3, lam=0.3, R=2.6, seed=2))
        radii, dirs = cloud.radii, cloud.dirs
        pair_dist = hgeom.polar_pair_dist(radii, dirs)
        sizes = []
        band_ranges = rst._band_ranges

        def counting(index, u, chord):
            for k, lo, hi in band_ranges(index, u, chord):
                sizes.append(k.size)
                yield k, lo, hi

        monkeypatch.setattr(rst, "_band_ranges", counting)
        got_dist = rst._nearest_lower_in_balls(radii, dirs, pair_dist, radii.copy())
        _, want_dist = nearest_lower_scan(radii, pair_dist, root_dist=radii)
        assert np.array_equal(got_dist, want_dist)
        # a group overshoots _PAIRS by less than one query's box of cells
        assert len(sizes) > 4 and max(sizes) < 2 * rst._PAIRS

    @pytest.mark.parametrize("d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 2.5), (3, 0.3, 2.6)], ids=["d1", "d2", "d3"])
    def test_second_nearest_parent_caught(self, d, lam, R):
        tree = sample_tree(5, lam=lam, R=R, d=d)
        radii = tree.radii
        pair_dist = hgeom.polar_pair_dist(radii, tree.dirs)
        n = len(tree)
        moved = 0
        for i in range(n - 1, 0, -max(1, n // 12)):
            lower = np.flatnonzero(radii < radii[i])
            cand = np.append(lower, ROOT)
            dist = np.append(pair_dist(np.full(lower.size, i), lower), radii[i])
            order = np.argsort(dist, kind="stable")
            (first, second), (d1, d2) = cand[order[:2]], dist[order[:2]]
            if not d2 > d1 + 1e-12:
                continue
            assert tree.parent[i] == first
            parent = tree.parent.copy()
            parent[i] = second
            report = rst.validate(rst.RadialTree(tree.cloud, parent, tree.parent_dist.copy()))
            assert report.counts == {"radius": 0, "frontier": 0, "cycle": 0, "bplus": 1}
            assert report.violations == [f"node {i}: point {first} at {d1} inside B+(z, {d2})"]
            moved += 1
        assert moved >= 8

    @staticmethod
    def _one_ulp_inside(rng, place, precondition):
        """Clouds of a lower point w (index 0), a point z (index 1) and maybe
        points above them, with d(z, w) one ulp under the ball radius rho,
        where an unpadded bound would drop w: the band check still finds w."""
        found = 0
        for _ in range(20000):
            cloud = place(rng)
            pair_dist = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)
            d = pair_dist(np.array([1]), np.array([0]))[0]
            rho = np.nextafter(d, np.inf)
            if not precondition(cloud, rho):
                continue
            # any further points lie above z, with empty balls
            balls = np.zeros(len(cloud))
            balls[1] = rho
            pdist = rst._nearest_lower_in_balls(cloud.radii, cloud.dirs, pair_dist, balls)
            # w is the only lower point, and nearer than the root
            assert d < cloud.radii[1]
            assert pdist[1] == d
            found += 1
            if found == 10:
                return
        pytest.fail(f"only {found} edge cases found")

    def test_one_ulp_inside_at_radius_window_edge(self):
        # z on the ray of w, so that d(z, w) is the radius gap up to rounding;
        # where rounding puts it below the gap, r_z - rho falls above r_w
        def place(rng):
            rw = rng.uniform(0.01, 0.3)
            return make_cloud([rw, rw + rng.uniform(0.5, 5.0)], [0.7, 0.7])

        def precondition(cloud, rho):
            return np.searchsorted(cloud.radii, cloud.radii[1] - rho, side="left") > 0

        self._one_ulp_inside(np.random.default_rng(3), place, precondition)

    @staticmethod
    def _unpadded_chord(cloud, rho):
        """The chord bound of B(z, rho) at r_w, without padding, evaluated as
        the check does: from cosh rho - cosh(r_z - r_w), without cancellation."""
        rw, rz = cloud.radii[:2]
        gap = rz - rw
        num = 2.0 * math.sinh((rho + gap) / 2.0) * math.sinh(max(rho - gap, 0.0) / 2.0)
        return math.sqrt(2.0 * num / (math.sinh(rz) * math.sinh(rw)))

    @classmethod
    def _u0_slab_misses(cls, cloud, rho):
        """Whether w is nearer to z than the root is and z's unpadded u0 slab
        leaves it out, for w and z that differ in u0 alone."""
        return rho <= cloud.radii[1] and cls._unpadded_chord(cloud, rho) < cloud.dirs[0, 0] - cloud.dirs[1, 0]

    @staticmethod
    def _mirrored_across_u1(rw, rz, h):
        """d=1 points w = (sin h, cos h) and z = (-sin h, cos h). They differ
        in u0 alone, and each is its own band, with one u1 cell, so the u0
        slab is as tight as the chord."""
        dirs = np.array([[math.sin(h), math.cos(h)], [-math.sin(h), math.cos(h)]])
        return PointCloud(CloudConfig(d=1, lam=1.0, R=rz, seed=0), np.array([rw, rz]), dirs)

    def test_one_ulp_inside_at_angle_edge_d1(self):
        def place(rng):
            rw = rng.uniform(0.5, 3.0)
            return self._mirrored_across_u1(rw, rw + rng.uniform(0.01, 1.0), rng.uniform(0.001, 0.5))

        self._one_ulp_inside(np.random.default_rng(4), place, self._u0_slab_misses)

    def test_one_ulp_inside_at_angle_edge_d2(self):
        # w and z differ in u0 alone, so the u0 slab is as tight as the chord
        def place(rng):
            rw = rng.uniform(0.5, 3.0)
            h = rng.uniform(0.001, 0.25)
            dirs = np.array([[math.sin(h), 0.0, math.cos(h)], [-math.sin(h), 0.0, math.cos(h)]])
            return PointCloud(CloudConfig(d=2, lam=1.0, R=4.0, seed=0), np.array([rw, rw + rng.uniform(0.01, 1.0)]), dirs)

        self._one_ulp_inside(np.random.default_rng(5), place, self._u0_slab_misses)

    @pytest.mark.parametrize("d", [1, 2, 3], ids=["d1", "d2", "d3"])
    def test_one_ulp_inside_at_last_coordinate_cell_edge(self, d, monkeypatch):
        # w and z differ in u_d alone, and w sits just under the u_d cell edge
        # -1/2 of a band index with 4 cells per axis: an unpadded chord would
        # start z's box of cells one cell above w's. The other points lie
        # above z with empty balls, so the median radial window is empty and
        # the check splits the 8m points into 8 bands of m, w and z in the first.
        m = {1: 16, 2: 100, 3: 400}[d]
        far = np.random.default_rng(d).normal(size=(8 * m - 2, d + 1))
        far /= np.linalg.norm(far, axis=1, keepdims=True)
        direction_index = rst._direction_index

        def indexed(u):
            index = direction_index(u)
            assert u.shape[0] == m and index[3] == 4
            return index

        monkeypatch.setattr(rst, "_direction_index", indexed)

        def place(rng):
            # w low enough to be nearer to z than the root is
            rw = rng.uniform(0.1, 0.6)
            rz = rw + rng.uniform(0.5, 2.0)
            s = 0.5 + rng.integers(1, 4) * np.finfo(float).eps / 2.0
            v = rng.normal(size=d)
            v *= math.sqrt(1.0 - s * s) / np.linalg.norm(v)
            dirs = np.vstack([np.r_[v, -s], np.r_[v, s], far])
            radii = np.r_[rw, rz, np.linspace(rz + 0.01, rz + 1.0, far.shape[0])]
            return PointCloud(CloudConfig(d=d, lam=1.0, R=5.0, seed=0), radii, dirs)

        def precondition(cloud, rho):
            (rw, rz), (w, z) = cloud.radii[:2], cloud.dirs[:2, -1]
            assert rst._cells(w, 4) == 0
            # the band's chord is then taken at r_w, where it is d(z, w)'s
            at_rw = math.cosh(rz) <= math.cosh(rho) * math.cosh(rw) and rho <= rz
            return at_rw and rst._cells(z - self._unpadded_chord(cloud, rho), 4) == 1

        self._one_ulp_inside(np.random.default_rng(7 + d), place, precondition)

    def test_one_ulp_inside_at_angle_edge_far_out(self):
        # near r = 30 the chord is about e^-r, and the u0 slab of the mirrored
        # pair is still as tight as the chord
        def place(rng):
            rw = rng.uniform(25.0, 30.0)
            rz = rw + rng.uniform(0.01, 1.0)
            return self._mirrored_across_u1(rw, rz, rng.uniform(0.5, 4.0) * math.exp(-(rw + rz) / 2.0))

        self._one_ulp_inside(np.random.default_rng(6), place, self._u0_slab_misses)

    def test_ties_across_bands_and_with_the_root(self):
        # few points, so each is its own radius band: the mirror pair
        # (1, +-0.3) ties for the axis point across two bands
        clouds = [make_cloud([1.0, 1.0, 1.5], [0.3, -0.3, 0.0]), cloud_at_root_distance()]
        for cloud in clouds:
            radii = cloud.radii
            pair_dist = hgeom.polar_pair_dist(radii, cloud.dirs)
            want_parent, want_dist = nearest_lower_scan(radii, pair_dist, root_dist=radii)
            assert want_parent[-1] == 0
            got_dist = rst._nearest_lower_in_balls(radii, cloud.dirs, pair_dist, radii.copy())
            assert np.array_equal(got_dist, want_dist)

    def test_message_names_lower_index_among_equidistant(self):
        # the mirror pair ties for the axis point, which claims the root
        cloud = make_cloud([1.0, 1.0, 1.5], [0.3, -0.3, 0.0])
        d = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)(np.array([2, 2]), np.array([0, 1]))
        assert d[0] == d[1] < 1.5
        tree = rst.build(cloud)
        assert tree.parent[2] == 0
        parent = tree.parent.copy()
        parent[2] = ROOT
        edited = rst.RadialTree(cloud, parent, tree.parent_dist)
        want = [f"node 2: point 0 at {d[0]} inside B+(z, {cloud.radii[2]})"]
        assert rst.validate(edited).violations == validate_reference(edited)[0] == want

    def test_message_names_point_at_root_distance_over_root(self):
        # w (index 1) is exactly r_z from z, as the root is; z claims the far
        # point 0 instead
        cloud = cloud_at_root_distance(below=[(0.5, math.pi)])
        rz = cloud.radii[2]
        tree = rst.build(cloud)
        assert tree.parent[2] == 1
        parent = tree.parent.copy()
        parent[2] = 0
        edited = rst.RadialTree(cloud, parent, tree.parent_dist)
        far = hgeom.polar_pair_dist(cloud.radii, cloud.dirs)(np.array([2]), np.array([0]))[0]
        want = [f"node 2: point 1 at {rz} inside B+(z, {far})"]
        assert rst.validate(edited).violations == validate_reference(edited)[0] == want

    def test_parent_edited_in_place_after_caching(self):
        tree = sample_tree(15)
        rst.deviation_sweep(tree, 1.5, 3.0)  # fills the parent-radius, children and layer caches
        # the caches would go stale, so the arrays refuse the edit
        for column in (tree.parent, tree.parent_dist):
            with pytest.raises(ValueError):
                column[300:303] = column[[301, 302, 300]]
        parent = tree.parent.copy()
        parent[300:303] = [301, 302, 300]
        edited = rst.RadialTree(tree.cloud, parent, tree.parent_dist)
        want = validate_reference(edited)
        assert want[1]["cycle"] == 1
        assert want[1]["radius"] == 2
        # a reassigned array is read by validate, not the caches of the old one
        tree.parent = parent
        for t in (edited, tree):
            report = rst.validate(t)
            assert (report.violations, report.counts, report.max_degree) == want

    def test_empty_and_single_point_trees(self):
        empty = PointCloud(CloudConfig(d=2, lam=1.0, R=1.0, seed=0), np.empty(0), np.empty((0, 3)))
        for cloud in (empty, make_cloud([1.0], [0.3])):
            report = rst.validate(rst.build(cloud))
            assert report.ok
            assert report.counts == {"radius": 0, "frontier": 0, "cycle": 0, "bplus": 0}
            assert report.max_degree == 0

    def test_independent_of_the_kd_search(self, monkeypatch):
        import scipy.spatial

        trees = [sample_tree(15), sample_tree(3, lam=1.5, R=2.5, d=2)]
        trees += [scrambled(t, seed=2) for t in trees]
        want = [rst.validate(t) for t in trees]

        def refuse(*args, **kwargs):
            raise AssertionError("validate used the k-d search")

        monkeypatch.setattr(scipy.spatial, "cKDTree", refuse)
        monkeypatch.setattr(search, "cKDTree", refuse)
        monkeypatch.setattr(search, "nearest_lower", refuse)
        for t, w in zip(trees, want):
            fresh = rst.RadialTree(t.cloud, t.parent.copy(), t.parent_dist.copy())
            report = rst.validate(fresh)
            assert (report.violations, report.counts, report.max_degree) == (w.violations, w.counts, w.max_degree)

    @pytest.mark.parametrize("name", ["radius25", "cycles", "rerouted_d2"])
    def test_reports_pinned(self, name):
        # recorded from the key-pruned block scan and the per-node cycle walk
        pins = json.loads((Path(__file__).parent / "data" / "validate_pins.json").read_text())
        report = rst.validate(pinned_tree(name))
        got = {"violations": report.violations, "counts": report.counts, "max_degree": report.max_degree}
        assert got == pins[name]


def assert_pairs_match(tree) -> tuple:
    """planarity_check's pair enumeration keeps the oracle's pair set, each
    pair once, with one band (every pair within a band), three and the
    default count; returns the number of candidate pairs it enumerates at
    each, the total length of the ranges that `search.concat_ranges`
    expands (as scripts/bench_suite.py counts them)."""
    want = planarity_pairs_reference(tree)
    chords = rst._klein_chords(tree)
    enumerated = []
    for bands in (1, 3, rst._PLANAR_BANDS):
        with (
            mock.patch.object(rst, "_PLANAR_BANDS", bands),
            mock.patch.object(search, "concat_ranges", wraps=search.concat_ranges) as expand,
        ):
            i, j = rst._edge_pairs(tree, *chords)
        got = list(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
        assert len(set(got)) == len(got) == len(want), bands
        assert set(got) == want, bands
        enumerated.append(sum(int((hi - lo).sum()) for (lo, hi), _ in expand.call_args_list))
    return tuple(enumerated)


def crossings(tree):
    """planarity_check's count, asserted equal to the all-pairs oracle's, on
    the oracle's pair set."""
    got = rst.planarity_check(tree)
    assert got == planarity_reference(tree)
    if len(tree) >= 2:
        assert_pairs_match(tree)
    return got


class TestPlanarity:
    def test_disjoint_radial_edges(self):
        cloud = make_cloud([1.0, 1.5], [0.0, 2.0])
        tree = rst.build(cloud)
        assert crossings(tree) == 0

    def test_forced_crossing(self):
        # hand-made non-RST parents: two chords that cross
        cloud = make_cloud([2.0, 2.1, 2.2, 2.3], [0.0, 1.2, 0.6, 1.8])
        parent = np.array([ROOT, ROOT, 1, 0])  # 2->1 and 3->0 cross
        tree = rst.RadialTree(cloud, parent, np.ones(4))
        assert crossings(tree) == 1
        # 2->1 and 3->0 cross and start at the same angle, so each start lies
        # in the other's interval and the pair is found from both edges
        cloud = make_cloud([1.0, 1.9, 2.0, 2.5], [0.3, 1.0, 0.0, 0.0])
        parent = np.array([ROOT, ROOT, 1, 0])
        tree = rst.RadialTree(cloud, parent, np.ones(4))
        assert crossings(tree) == 1

    def test_crossing_below_both_endpoints(self):
        # the wide chord 3 -> 2 (Klein radii 0.964 and 0.963) comes within
        # 0.52 of the origin near angle 0, where the short chord 1 -> 0
        # (Klein radii 0.45 to 0.6) crosses it
        cloud = make_cloud([math.atanh(0.45), math.atanh(0.6), 1.99, 2.0], [0.0, 0.02, 1.0, -1.0])
        tree = rst.RadialTree(cloud, np.array([ROOT, 0, ROOT, 2]), np.ones(4))
        assert crossings(tree) == 1

    def test_root_edges(self):
        # root edges meet only at the origin, which they share; the chord
        # 2 -> 1 near x = 0.054 crosses root edge 3 at radius 0.054
        cloud = make_cloud([0.5, 0.99, 1.0, 2.0], [math.pi, -1.5, 1.5, 0.0])
        tree = rst.RadialTree(cloud, np.array([ROOT, ROOT, 1, ROOT]), np.ones(4))
        assert crossings(tree) == 1
        tree = rst.RadialTree(cloud, np.array([ROOT, ROOT, ROOT, ROOT]), np.ones(4))
        assert crossings(tree) == 0

    def test_t_junction(self):
        # node 1 lies on root edge 2 (both on the x-axis, where orient is
        # exact): its edge meets that chord at an endpoint, no crossing
        cloud = make_cloud([0.5, 1.0, 2.0], [math.pi / 2, 0.0, 0.0])
        tree = rst.RadialTree(cloud, np.array([ROOT, 0, ROOT]), np.ones(3))
        assert crossings(tree) == 0

    def test_interval_past_two_pi(self):
        # chord 2 -> 1 spans angles -0.3 .. 0.3, so its interval starts near
        # 2 pi; chord 3 -> 0 at angles 0.05 .. 0.1 crosses it
        cloud = make_cloud([1.0, 2.0, 2.01, 2.5], [0.05, -0.3, 0.3, 0.1])
        tree = rst.RadialTree(cloud, np.array([ROOT, ROOT, 1, 0]), np.ones(4))
        assert crossings(tree) == 1

    def test_rerouted_trees_match_reference(self):
        # 5 to 20 parents moved each, some of them to farther points
        counts = []
        for seed in range(20):
            tree = sample_tree(seed + 70, lam=10.0, R=4.0)
            counts.append(crossings(scrambled(tree, seed, frac=(5.5 + seed % 16) / len(tree))))
        assert max(counts) >= 10

    def test_simulated_trees_planar(self):
        for seed in range(5):
            assert crossings(sample_tree(seed + 40, lam=15.0, R=3.5)) == 0
            assert crossings(sample_tree(seed + 60, lam=10.0, R=4.0)) == 0

    def test_pairs_match_reference_default_tree(self):
        # crossings() checks the pair set on every tree above; on the seed-29
        # default tree (n = 13,911) one band enumerates all 210,254
        # angle-overlap pairs, and three and eight bands fewer. The counts are
        # pinned: a change in which edges a band holds moves them.
        assert assert_pairs_match(sample_tree(29, lam=30.0, R=5.0)) == (210_254, 90_736, 57_021)

    def test_rejects_d2(self):
        cloud = sampler.sample_ball(CloudConfig(d=2, lam=1.0, R=2.0, seed=17))
        tree = rst.build(cloud)
        with pytest.raises(GeometryError):
            rst.planarity_check(tree)


def test_tree_serialization():
    tree = sample_tree(18)
    import json

    obj = json.loads(rst.tree_to_json(tree))
    assert obj["cloud_ref"]["n"] == len(tree)
    assert len(obj["parent"]) == len(tree)
    assert obj["parent"].count(-1) == len(tree.root_children())
