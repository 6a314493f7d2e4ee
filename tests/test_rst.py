"""Tree construction oracles, level machinery, CFD/MBD, validation, planarity."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hyperrst import hgeom, rst, sampler, search
from hyperrst.hgeom import Direction, GeometryError, PolarPoint, polar
from hyperrst.rst import ROOT
from hyperrst.sampler import CloudConfig, PointCloud
from oracles import nearest_lower_scan, validate_reference


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


def scan_parents(cloud):
    """Parents and parent distances from the block scan oracle."""
    pair_dist = rst._pair_dist(cloud.radii, cloud.dirs)
    return nearest_lower_scan(cloud.radii, pair_dist, root_dist=cloud.radii)


def mirror_cloud(pairs=40, seed=0):
    """Points on the axis just outside mirror-image pairs (r, +-theta): each
    axis point is at exactly equal distance from the two points of a pair."""
    rng = np.random.default_rng(seed)
    r = np.cumsum(rng.uniform(0.05, 0.15, pairs)) + 0.3
    theta = rng.uniform(0.005, 0.05, pairs)
    radii = np.concatenate([r, r, r + 0.02])
    angles = np.concatenate([theta, -theta, np.zeros(pairs)])
    return make_cloud(radii, angles)


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
            d_oi = hgeom.dist_polar(cloud.point(0), cloud.point(1))
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
            assert np.array_equal(tree.parent, rst.brute_force_parents(cloud))
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
                assert np.array_equal(tree.parent, rst.brute_force_parents(cloud))
                parent, pdist = scan_parents(cloud)
                assert np.array_equal(tree.parent, parent)
                assert np.array_equal(tree.parent_dist, pdist)

    def test_search_tie_rule_across_blocks(self):
        # distances 1, 2, 3 repeat along the index, so ties span many blocks;
        # keys stay below 1, so the pruning bound never cuts a candidate
        n = 700
        keys = np.arange(n) / n
        j = np.arange(n)
        dist = 1.0 + (j[:, None] + j[None, :]) % 3
        for root_dist in (None, np.ones(n)):
            parent, pdist = nearest_lower_scan(keys, lambda i, j: dist[i, j], root_dist)
            want_parent, want_dist = search.nearest_lower_brute(keys, dist, root_dist)
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
            want_parent, want_dist = search.nearest_lower_brute(keys, dist, root_dist)
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
            parent, pdist = search.nearest_lower(keys, grid, l1, lambda rows, rho: (grid[rows], rho), root_dist)
            want_parent, want_dist = search.nearest_lower_brute(keys, dist, root_dist)
            assert np.array_equal(parent, want_parent)
            assert np.array_equal(pdist, want_dist)
            scan_parent, scan_dist = nearest_lower_scan(keys, l1, root_dist)
            assert np.array_equal(parent, scan_parent)
            assert np.array_equal(pdist, scan_dist)

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
        assert np.array_equal(tree.parent, rst.brute_force_parents(cloud))
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
        rp = tree.parent_radii()
        for r in np.linspace(0.2, 3.4, 40):
            expected = int(np.sum((rp <= r) & (tree.radii > r)))
            assert len(rst.level_crossings(tree, float(r))) == expected

    def test_crossing_point_consistency(self):
        tree = sample_tree(4)
        r = 1.7
        for c in rst.level_crossings(tree, r):
            assert c.point.r == pytest.approx(r, abs=1e-12)
            child = tree.cloud.point(c.edge_child)
            p = tree.parent[c.edge_child]
            par = tree.cloud.point(int(p)) if p != ROOT else hgeom.origin_point(2)
            path = hgeom.StarPath(child, par)
            z = hgeom.star_eval(path, c.t)
            assert z.r == pytest.approx(r, abs=1e-12)
            assert np.allclose(z.u.components, c.point.u.components, atol=1e-9)


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
            assert via.edge_child == direct.edge_child
            assert via.t == pytest.approx(direct.t, abs=1e-12)

    def test_fiber_property(self):
        tree = sample_tree(7)
        r, rp = 1.4, 2.6
        crossings_r = rst.level_crossings(tree, r)
        crossings_rp = rst.level_crossings(tree, rp)
        for c in crossings_r:
            desc = {d.edge_child for d in rst.descendants_at_level(tree, c, rp)}
            fiber = {
                cp.edge_child
                for cp in crossings_rp
                if rst.ancestor_at_level(tree, cp, r).edge_child == c.edge_child
            }
            assert desc == fiber

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
    stack = [v0]
    seen = []
    while stack:
        w = stack.pop()
        seen.append(w)
        stack.extend(int(x) for x in tree.children_of(w))
    return seen


def dense_grid_mbd(tree, c, r1, levels=1000):
    """Brute-force MBD: max CFD over a dense level grid plus vertex radii.

    Edges carry their child endpoint (the paper's half-open edges), so the
    supremum is attained at vertex levels and a finite grid reaches it.
    """
    r0 = c.level
    nodes = _subtree_nodes(tree, c.edge_child)
    rc = tree.radii[nodes]
    rp = tree.parent_radii()[nodes]
    grid = set(np.linspace(r0, r1, levels))
    grid.update(float(r) for r in rc if r0 < r <= r1)
    grid.add(float(r1))
    best = 0.0
    for r in sorted(grid):
        for w, rcw, rpw in zip(nodes, rc, rp):
            if rpw < r <= rcw and r > r0:
                cross = rst.LevelCrossing(
                    int(w),
                    0.0 if rcw == r else float((r - rcw) / (rpw - rcw)),
                    float(r),
                    rst._crossing_on_edge(tree, int(w), float(r)).point,
                )
                best = max(best, rst.cfd(tree, r0, cross))
    return best


class TestCfd:
    def test_zero_at_same_level(self):
        tree = sample_tree(8)
        c = rst.level_crossings(tree, 2.2)[0]
        assert rst.cfd(tree, 2.2, c) == 0.0

    def test_single_edge_is_origin_angle(self):
        tree = sample_tree(8)
        for c in rst.level_crossings(tree, 2.2):
            anc = rst.ancestor_at_level(tree, c, 2.1)
            if anc.edge_child == c.edge_child:
                got = rst.cfd(tree, 2.1, c)
                expected = hgeom.angle_between(
                    c.point.u.components, anc.point.u.components
                )
                assert got == pytest.approx(expected, abs=1e-9)
                break

    def test_hand_built_four_node_chain(self):
        # chain root <- z1 <- z2 <- z3 plus a sibling; crossing on (z3, z2)
        # at level 2.5, ancestor on (z2, z1) at level 1.5
        radii = [1.0, 2.0, 3.0, 2.2]
        angles = [0.0, 0.15, 0.05, 2.5]
        cloud = make_cloud(radii, angles)
        tree = rst.build(cloud)
        assert np.array_equal(tree.parent, rst.brute_force_parents(cloud))
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
        for c in rst.level_crossings(tree, 2.6)[:20]:
            anc = rst.ancestor_at_level(tree, c, 1.3)
            direct = hgeom.angle_between(c.point.u.components, anc.point.u.components)
            assert rst.cfd(tree, 1.3, c) >= direct - 1e-10


class TestMbd:
    @pytest.mark.parametrize(
        "d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 3.0), (3, 0.3, 2.6)], ids=["d1", "d2", "d3"]
    )
    def test_matches_sweep(self, d, lam, R):
        tree = sample_tree(10, lam=lam, R=R, d=d)
        r0, r1 = 1.5, R - 0.5
        sweep = rst.deviation_sweep(tree, r0, r1)
        for k, c in enumerate(rst.level_crossings(tree, r0)):
            assert rst.mbd(tree, c, r1) == pytest.approx(float(sweep.mbd[k]), abs=1e-12)

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

    def test_descendant_apertures_shrink(self):
        # empirical max MBD to the window edge decreases with the base level
        tree = sample_tree(14, lam=20.0, R=4.0)
        vals = []
        for r0 in (1.0, 1.8, 2.6):
            sweep = rst.deviation_sweep(tree, r0, 3.5)
            vals.append(float(sweep.mbd.max()))
        assert vals[2] < vals[0]


def reference_sweep(tree, r0, r1):
    """deviation_sweep as a per-node loop: cum and crossid are carried in
    index order, where a parent always precedes its children (test oracle)."""
    radii, dirs, parent = tree.radii, tree.dirs, tree.parent
    n = len(tree)
    theta = tree.edge_thetas()
    k0 = int(np.searchsorted(radii, r0, side="right"))
    above = np.arange(k0, n)
    rp_all = tree.parent_radii()
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
    return children, t0, psi0, cross_dirs, mbd


def chain_tree():
    """root <- z1 <- z2 <- z3 plus a sibling (the TestCfd chain)."""
    return rst.build(make_cloud([1.0, 2.0, 3.0, 2.2], [0.0, 0.15, 0.05, 2.5]))


class TestSweepOracle:
    """deviation_sweep carries CFDs layer by layer; the per-node loop agrees bit for bit."""

    @pytest.mark.parametrize(
        "d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 3.0), (3, 0.3, 2.6)], ids=["d1", "d2", "d3"]
    )
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
            got = (sweep.children, sweep.t, sweep.psi0, sweep.cross_dirs, sweep.mbd)
            for a, b in zip(got, reference_sweep(tree, r0, r1)):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()


class TestLayers:
    @pytest.mark.parametrize(
        "d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 3.0)], ids=["d1", "d2"]
    )
    def test_partition_by_depth(self, d, lam, R):
        tree = sample_tree(10, lam=lam, R=R, d=d)
        layers = tree.layers()
        assert np.array_equal(layers[0], tree.root_children())
        assert np.array_equal(np.sort(np.concatenate(layers)), np.arange(len(tree)))
        for prev, layer in zip(layers, layers[1:]):
            assert np.all(np.isin(tree.parent[layer], prev))
        for layer in layers:
            assert layer.dtype == np.int64 and np.all(np.diff(layer) > 0)
        assert tree.layers() is layers

    def test_chain_and_empty_tree(self):
        tree = chain_tree()
        assert [layer.tolist() for layer in tree.layers()] == [[0, 2], [1], [3]]
        cloud = PointCloud(CloudConfig(d=1, lam=1.0, R=1.0, seed=0), np.empty(0), np.empty((0, 2)))
        assert rst.build(cloud).layers() == []


class TestScalarPath:
    """The scalar level API (math on the tree's lists) against the array path."""

    @pytest.mark.parametrize(
        "d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 3.0), (3, 0.3, 2.6)], ids=["d1", "d2", "d3"]
    )
    def test_crossing_on_edge_matches_level_crossings(self, d, lam, R):
        tree = sample_tree(10, lam=lam, R=R, d=d)
        for r in (1.0, 1.7, R - 0.6):
            crossings = rst.level_crossings(tree, r)
            assert crossings
            for c in crossings:
                got = rst._crossing_on_edge(tree, c.edge_child, r)
                assert got.t == c.t
                assert np.max(np.abs(got.point.u.components - c.point.u.components)) <= 1e-12

    def test_star_psi_matches_arrays(self):
        rng = np.random.default_rng(22)
        n = 2000
        r1 = rng.uniform(0.01, 8.0, n)
        r2 = r1 * rng.uniform(0.0, 1.0, n)
        theta = rng.uniform(0.0, math.pi, n)
        t = rng.uniform(0.0, 1.0, n)
        want = hgeom.star_psi_arrays(r1, r2, theta, t)
        for k, args in enumerate(zip(r1.tolist(), r2.tolist(), theta.tolist(), t.tolist())):
            assert abs(hgeom.star_psi(*args) - want[k]) <= 1e-12
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
            got = hgeom.star_psi(*args)
            assert abs(got - float(hgeom.star_psi_arrays(*args))) <= 1e-12
            if exact is not None:
                assert got == exact

    def test_scalar_results_are_python_floats(self):
        # np.float64 subclasses float, so isinstance would let 0-d numpy back in
        tree = sample_tree(10)
        for c in rst.level_crossings(tree, 2.0):
            assert type(rst.cfd(tree, 1.2, c)) is float
            assert type(rst.mbd(tree, c, 3.0)) is float
            assert type(rst._crossing_on_edge(tree, c.edge_child, 2.0).t) is float


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
        bad = rst.RadialTree(tree.cloud, tree.parent.copy(), tree.parent_dist.copy())
        # reroute some node to a far-away parent of smaller radius
        i = len(tree) - 1
        bad.parent[i] = 0
        report = rst.validate(bad)
        assert not report.ok

    def test_radius_violation_detected(self):
        tree = sample_tree(15)
        bad = rst.RadialTree(tree.cloud, tree.parent.copy(), tree.parent_dist.copy())
        bad.parent[0] = len(tree) - 1
        report = rst.validate(bad)
        assert any("radius" in v for v in report.violations)

    def test_counts_past_the_message_cap(self):
        tree = sample_tree(15)
        bad = rst.RadialTree(tree.cloud, tree.parent.copy(), tree.parent_dist.copy())
        bad.parent[:25] = len(tree) - 1
        report = rst.validate(bad)
        assert report.counts["radius"] == 25
        assert sum("parent radius" in v for v in report.violations) == 20
        assert report.counts["bplus"] > 20
        assert sum("inside B+" in v for v in report.violations) == 20
        cyclic = rst.RadialTree(tree.cloud, tree.parent.copy(), tree.parent_dist.copy())
        cyclic.parent[:100] = np.arange(100)
        report = rst.validate(cyclic)
        assert report.counts["cycle"] == 100
        assert sum("cycle through node" in v for v in report.violations) == 20

    def test_bplus_empty_brute_scan(self):
        cloud = sampler.sample_ball(CloudConfig(d=1, lam=14.0, R=3.5, seed=16))
        tree = rst.build(cloud)
        n = len(tree)
        for i in range(0, n, 7):
            z = cloud.point(i)
            rho = float(tree.parent_dist[i])
            inside = [
                j
                for j in range(n)
                if j != i and hgeom.bplus_region_test(z, rho - 1e-12, cloud.point(j))
            ]
            assert inside == []

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
            pair_dist = rst._pair_dist(radii, dirs)
            true_dist = np.array(radii, dtype=float)
            has = np.flatnonzero(parent >= 0)
            true_dist[has] = pair_dist(has, parent[has])
            rho = np.minimum(true_dist, radii)
            got_parent, got_dist = rst._nearest_lower_in_balls(radii, dirs, pair_dist, rho)
            want_parent, want_dist = nearest_lower_scan(radii, pair_dist, root_dist=radii)
            # exact wherever the nearest lower point is in the ball, never nearer
            inside = want_dist <= rho
            assert np.array_equal(got_parent[inside], want_parent[inside])
            assert np.array_equal(got_dist[inside], want_dist[inside])
            assert np.all(got_dist >= want_dist)
            report = rst.validate(t)
            assert (report.violations, report.counts, report.max_degree) == validate_reference(t)
        assert rst.validate(trees[0]).ok
        assert not rst.validate(trees[1]).ok

    @pytest.mark.parametrize("d, lam, R", [(1, 10.0, 3.5), (2, 1.5, 2.5), (3, 0.3, 2.6)], ids=["d1", "d2", "d3"])
    def test_second_nearest_parent_caught(self, d, lam, R):
        tree = sample_tree(5, lam=lam, R=R, d=d)
        radii = tree.radii
        pair_dist = rst._pair_dist(radii, tree.dirs)
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
            bad = rst.RadialTree(tree.cloud, tree.parent.copy(), tree.parent_dist.copy())
            bad.parent[i] = second
            report = rst.validate(bad)
            assert report.counts == {"radius": 0, "frontier": 0, "cycle": 0, "bplus": 1}
            assert report.violations == [f"node {i}: point {first} at {d1} inside B+(z, {d2})"]
            moved += 1
        assert moved >= 8

    @staticmethod
    def _one_ulp_inside(rng, place, precondition):
        """Clouds of a lower point w (index 0) and a point z (index 1) with
        d(z, w) one ulp under the ball radius rho, where an unpadded bound
        would drop w: the band check still finds w."""
        found = 0
        for _ in range(20000):
            cloud = place(rng)
            pair_dist = rst._pair_dist(cloud.radii, cloud.dirs)
            d = pair_dist(np.array([1]), np.array([0]))[0]
            rho = np.nextafter(d, np.inf)
            if not precondition(cloud, rho):
                continue
            parent, pdist = rst._nearest_lower_in_balls(cloud.radii, cloud.dirs, pair_dist, np.array([0.0, rho]))
            assert parent[1] == 0
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
        rw, rz = cloud.radii
        return math.sqrt(2.0 * (math.cosh(rho) - math.cosh(rz - rw)) / (math.sinh(rz) * math.sinh(rw)))

    def test_one_ulp_inside_at_angle_edge_d1(self):
        def place(rng):
            rw = rng.uniform(0.5, 3.0)
            return make_cloud([rw, rw + rng.uniform(0.01, 1.0)], [rng.uniform(0.001, 0.5), 0.0])

        def precondition(cloud, rho):
            theta = 2.0 * math.asin(min(1.0, self._unpadded_chord(cloud, rho) / 2.0))
            return theta < math.atan2(cloud.dirs[0, 1], cloud.dirs[0, 0])

        self._one_ulp_inside(np.random.default_rng(4), place, precondition)

    def test_one_ulp_inside_at_angle_edge_d2(self):
        # w and z differ in u0 alone, so the u0 slab is as tight as the chord
        def place(rng):
            rw = rng.uniform(0.5, 3.0)
            h = rng.uniform(0.001, 0.25)
            dirs = np.array([[math.sin(h), 0.0, math.cos(h)], [-math.sin(h), 0.0, math.cos(h)]])
            return PointCloud(CloudConfig(d=2, lam=1.0, R=4.0, seed=0), np.array([rw, rw + rng.uniform(0.01, 1.0)]), dirs)

        def precondition(cloud, rho):
            return self._unpadded_chord(cloud, rho) < cloud.dirs[0, 0] - cloud.dirs[1, 0]

        self._one_ulp_inside(np.random.default_rng(5), place, precondition)

    def test_one_ulp_inside_at_angle_edge_far_out(self):
        # near r = 30 the allowed angle is ~1e-13, below the rounding of
        # atan2 and of the unit vectors: the relative padding alone drops w
        def place(rng):
            rw, a0 = rng.uniform(25.0, 30.0), rng.uniform(1.0, 3.0)
            return make_cloud([rw, rw + rng.uniform(0.01, 1.0)], [a0 + rng.uniform(1e-15, 1e-12), a0])

        def precondition(cloud, rho):
            (rw, rz), (w, z) = cloud.radii, cloud.dirs
            reach = rho * (1.0 + rst._REL) + rst._REL * rz
            cosh_gap = 2.0 * math.sinh((reach + rz - rw) / 2.0) * math.sinh((reach - rz + rw) / 2.0)
            chord = math.sqrt(2.0 * cosh_gap / (math.sinh(rz) * math.sinh(rw))) * (1.0 + rst._REL)
            theta = 2.0 * math.asin(min(1.0, chord / 2.0))
            start = math.atan2(z[1], z[0]) - theta
            return not start <= math.atan2(w[1], w[0]) <= start + 2.0 * theta

        self._one_ulp_inside(np.random.default_rng(6), place, precondition)

    def test_ties_across_bands_and_with_the_root(self):
        # few points, so each is its own radius band: the mirror pair
        # (1, +-0.3) ties for the axis point across two bands
        clouds = [make_cloud([1.0, 1.0, 1.5], [0.3, -0.3, 0.0])]
        # a lower point at exactly the root distance r_z, by bisecting its angle
        for rz in np.linspace(1.2, 3.0, 10):
            lo, hi = 0.0, math.pi
            for _ in range(100):
                mid = (lo + hi) / 2.0
                cloud = make_cloud([1.0, rz], [mid, 0.0])
                d = rst._pair_dist(cloud.radii, cloud.dirs)(np.array([1]), np.array([0]))[0]
                lo, hi = (mid, hi) if d < rz else (lo, mid)
            cloud = make_cloud([1.0, rz], [np.nextafter(lo, np.inf), 0.0])
            if rst._pair_dist(cloud.radii, cloud.dirs)(np.array([1]), np.array([0]))[0] == rz:
                clouds.append(cloud)
                break
        assert len(clouds) == 2
        for cloud in clouds:
            radii = cloud.radii
            pair_dist = rst._pair_dist(radii, cloud.dirs)
            want_parent, want_dist = nearest_lower_scan(radii, pair_dist, root_dist=radii)
            assert want_parent[-1] == 0
            got_parent, got_dist = rst._nearest_lower_in_balls(radii, cloud.dirs, pair_dist, radii.copy())
            assert np.array_equal(got_parent, want_parent)
            assert np.array_equal(got_dist, want_dist)

    def test_parent_edited_in_place_after_caching(self):
        tree = sample_tree(15)
        rst.deviation_sweep(tree, 1.5, 3.0)  # fills the parent-radius, children and layer caches
        tree.parent[300:303] = [301, 302, 300]
        report = rst.validate(tree)
        fresh = rst.RadialTree(tree.cloud, tree.parent.copy(), tree.parent_dist)
        assert (report.violations, report.counts, report.max_degree) == validate_reference(fresh)
        assert report.counts["cycle"] == 1
        assert report.counts["radius"] == 2

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


class TestPlanarity:
    def test_disjoint_radial_edges(self):
        cloud = make_cloud([1.0, 1.5], [0.0, 2.0])
        tree = rst.build(cloud)
        assert rst.planarity_check(tree) == 0

    def test_forced_crossing(self):
        # hand-made non-RST parents: two chords that cross
        cloud = make_cloud([2.0, 2.1, 2.2, 2.3], [0.0, 1.2, 0.6, 1.8])
        parent = np.array([ROOT, ROOT, 1, 0])  # 2->1 and 3->0 cross
        tree = rst.RadialTree(cloud, parent, np.ones(4))
        assert rst.planarity_check(tree) == 1
        # 2->1 and 3->0 cross and start at the same angle, so each start lies
        # in the other's interval and the pair is found from both edges
        cloud = make_cloud([1.0, 1.9, 2.0, 2.5], [0.3, 1.0, 0.0, 0.0])
        parent = np.array([ROOT, ROOT, 1, 0])
        tree = rst.RadialTree(cloud, parent, np.ones(4))
        assert rst.planarity_check(tree) == 1

    def test_simulated_trees_planar(self):
        for seed in range(5):
            tree = sample_tree(seed + 40, lam=15.0, R=3.5)
            assert rst.planarity_check(tree) == 0

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
