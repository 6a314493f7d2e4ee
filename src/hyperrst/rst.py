"""Radial Spanning Tree construction, levels, and angular deviation statistics.

Every Poisson point connects to its nearest neighbor among points strictly
closer to the origin (the origin itself competes). Level crossings realize
the intersection of tree edges with spheres S(r); cumulative forward
deviations (CFD) sum origin-angles along trajectories, and maximal backward
deviations (MBD) take suprema of CFD over descendant subtrees.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import hgeom, search
from .hgeom import Direction, GeometryError, PolarPoint
from .sampler import PointCloud
from .search import ROOT


class TreeLists(NamedTuple):
    """Per-node tree columns as Python lists, for the scalar level API."""

    parent: list
    radii: list
    parent_radii: list
    theta: list


@dataclass(eq=False)
class RadialTree:
    """Point cloud plus parent links; parent ROOT (-1) means the origin."""

    cloud: PointCloud
    parent: np.ndarray
    parent_dist: np.ndarray
    _children: np.ndarray | None = field(default=None, repr=False)
    _children_start: np.ndarray | None = field(default=None, repr=False)
    _parent_radii: np.ndarray | None = field(default=None, repr=False)
    _edge_theta: np.ndarray | None = field(default=None, repr=False)
    _lists: TreeLists | None = field(default=None, repr=False)
    _layers: list | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.cloud)

    @property
    def radii(self) -> np.ndarray:
        return self.cloud.radii

    @property
    def dirs(self) -> np.ndarray:
        return self.cloud.dirs

    def parent_radii(self) -> np.ndarray:
        """Radius of each node's parent (0 for root edges)."""
        if self._parent_radii is None:
            self._parent_radii = np.where(self.parent >= 0, self.radii[np.maximum(self.parent, 0)], 0.0)
        return self._parent_radii

    def children_of(self, i: int) -> np.ndarray:
        self._ensure_children()
        return self._children[self._children_start[i] : self._children_start[i + 1]]

    def root_children(self) -> np.ndarray:
        return np.nonzero(self.parent == ROOT)[0]

    def _ensure_children(self):
        if self._children is not None:
            return
        n = len(self)
        mask = self.parent >= 0
        counts = np.bincount(self.parent[mask], minlength=n)
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        order = np.argsort(self.parent[mask], kind="stable")
        self._children = np.nonzero(mask)[0][order]
        self._children_start = start

    def edge_thetas(self) -> np.ndarray:
        """Origin-angle between each node and its parent (0 for root edges)."""
        if self._edge_theta is None:
            rp = self.parent >= 0
            theta = np.zeros(len(self))
            pidx = self.parent[rp]
            theta[rp] = hgeom.angle_between_arrays(self.dirs[rp], self.dirs[pidx])
            self._edge_theta = theta
        return self._edge_theta

    def lists(self) -> TreeLists:
        """parent, radii, parent radii and edge thetas as lists: per-node reads
        of Python floats cost a fraction of 0-d numpy indexing."""
        if self._lists is None:
            self._lists = TreeLists(
                self.parent.tolist(),
                self.radii.tolist(),
                self.parent_radii().tolist(),
                self.edge_thetas().tolist(),
            )
        return self._lists

    def layers(self) -> list:
        """Nodes by depth as int64 arrays, each ascending; layer 0 is the root
        children. Root-to-leaf carries run one layer at a time."""
        if self._layers is None:
            self._ensure_children()
            start = self._children_start
            layers = []
            layer = self.root_children()
            while layer.size:
                layers.append(layer)
                layer = np.sort(self._children[search.concat_ranges(start[layer], start[layer + 1])])
            self._layers = layers
        return self._layers


@dataclass(frozen=True, eq=False)
class LevelCrossing:
    """Crossing of an edge with the sphere S(level), as the pair (edge, t)."""

    edge_child: int
    t: float
    level: float
    point: PolarPoint


@dataclass(eq=False)
class ValidationReport:
    """Violation messages, the radius, cycle and bplus ones capped at the first
    20 of each, and the full number of violations per class: radius, frontier,
    cycle, bplus."""

    violations: list
    max_degree: int
    counts: dict

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# construction


def _pair_dist(radii, dirs):
    """pair_dist(i, j): distances between points i and j, index arrays broadcast.

    Columns are summed one at a time, in order, so that a pair gets the same
    bits in the k-d search, in `validate` and in the test oracles.
    """
    cols = np.ascontiguousarray(dirs.T)
    sh = np.sinh(radii)

    def pair_dist(i, j):
        # direction term from the difference vector: 2 - 2<u,u'> cancels badly
        du2 = sum((c[j] - c[i]) ** 2 for c in cols)
        s = 2.0 * np.sinh((radii[i] - radii[j]) / 2.0) ** 2 + 0.5 * du2 * sh[i] * sh[j]
        return hgeom.stable_arccosh1p(s)

    return pair_dist


def build(cloud: PointCloud) -> RadialTree:
    """Exact k-d search in the Poincare chart tanh(r/2) u; identical to the O(n^2) oracle.

    In the chart |x - y|^2 = (cosh d - 1)(1 - |x|^2)(1 - |y|^2) / 2, where
    1 - |x|^2 = sech^2(r/2). A point within rho of z has r' >= r - rho, so
    B(z, rho) lies in the chart ball around z of radius
    sinh(rho/2) sech(r/2) sech(max(r - rho, 0)/2).
    """
    radii, dirs = cloud.radii, cloud.dirs
    half = radii / 2.0
    chart = np.tanh(half)[:, None] * dirs

    def cover(rows, rho):
        far = np.maximum(radii[rows] - rho, 0.0) / 2.0
        return chart[rows], np.sinh(rho / 2.0) / (np.cosh(half[rows]) * np.cosh(far))

    parent, pdist = search.nearest_lower(radii, chart, _pair_dist(radii, dirs), cover, root_dist=radii)
    return RadialTree(cloud, parent, pdist)


def brute_force_parents(cloud: PointCloud) -> np.ndarray:
    """O(n^2) parent assignment straight from the definition (test oracle)."""
    radii, dirs = cloud.radii, cloud.dirs
    n = len(cloud)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    sh = np.sinh(radii)
    dist = np.empty((n, n))
    chunk = max(1, 2**22 // max(n, 1))
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        du2 = np.sum((dirs[lo:hi, None, :] - dirs[None, :, :]) ** 2, axis=2)
        s = (
            2.0 * np.sinh((radii[lo:hi, None] - radii[None, :]) / 2.0) ** 2
            + 0.5 * du2 * np.outer(sh[lo:hi], sh)
        )
        dist[lo:hi] = hgeom.stable_arccosh1p(s)
    parent, _ = search.nearest_lower_brute(radii, dist, root_dist=radii)
    return parent


# ---------------------------------------------------------------------------
# levels and trajectories


def _straddling(tree: RadialTree, r: float):
    """Edges with parent radius <= r < child radius, by ascending child index,
    with the crossing parameter t and the angle psi of the crossing from the
    child direction."""
    radii = tree.radii
    rp_all = tree.parent_radii()
    above = np.arange(int(np.searchsorted(radii, r, side="right")), len(tree))
    children = above[rp_all[above] <= r]
    rc, rp = radii[children], rp_all[children]
    t = (r - rc) / (rp - rc)
    theta = tree.edge_thetas()[children]
    psi = np.zeros(children.shape[0])
    pos = theta > 1e-14
    psi[pos] = hgeom.star_psi_arrays(rc[pos], rp[pos], theta[pos], t[pos])
    return children, t, psi


def level_geometry(tree: RadialTree, r: float):
    """(children, t, psi, dirs) of the edges straddling S(r), by ascending
    child index; dirs are the crossing directions."""
    if not r > 0:
        raise GeometryError("level radius must be > 0")
    children, t, psi = _straddling(tree, r)
    theta = tree.edge_thetas()[children]
    dirs = tree.dirs[children]
    pos = theta > 1e-14
    th = theta[pos]
    frac = psi[pos] / th
    u2 = tree.dirs[tree.parent[children[pos]]]
    dirs[pos] = (
        np.sin((1.0 - frac) * th)[:, None] * dirs[pos] + np.sin(frac * th)[:, None] * u2
    ) / np.sin(th)[:, None]
    return children, t, psi, dirs


def level_crossings(tree: RadialTree, r: float) -> list[LevelCrossing]:
    """One crossing per edge straddling S(r), multiplicity given by edges."""
    children, t, _, dirs = level_geometry(tree, r)
    return [
        LevelCrossing(int(c), float(t[k]), r, PolarPoint(r, Direction(dirs[k])))
        for k, c in enumerate(children)
    ]


def trajectory(tree: RadialTree, i: int) -> list[int]:
    """Ancestor chain [i, A(i), ..., root]; the root appears as -1."""
    path = [int(i)]
    guard = len(tree) + 1
    while path[-1] != ROOT:
        path.append(int(tree.parent[path[-1]]))
        if len(path) > guard:
            raise GeometryError("parent pointers contain a cycle")
    return path


def _crossing_on_edge(tree: RadialTree, child: int, r: float) -> LevelCrossing:
    """The crossing of edge child with S(r): level_geometry for one edge, in math."""
    lists = tree.lists()
    rc, rp, theta = lists.radii[child], lists.parent_radii[child], lists.theta[child]
    t = float((r - rc) / (rp - rc))
    u = tree.dirs[child]
    if theta > 1e-14:
        frac = hgeom.star_psi(rc, rp, theta, t) / theta
        u = hgeom.slerp(u, tree.dirs[lists.parent[child]], theta, frac)
    return LevelCrossing(int(child), t, r, PolarPoint(r, Direction(u)))


def ancestor_at_level(tree: RadialTree, c: LevelCrossing, r: float) -> LevelCrossing:
    """Unique crossing of the trajectory through c with the sphere S(r), r <= level."""
    if r > c.level:
        raise GeometryError(f"ancestor level {r} above crossing level {c.level}")
    if not r > 0:
        raise GeometryError("ancestor level must be > 0")
    if r == c.level:
        return c
    return _crossing_on_edge(tree, _edge_at_level(tree, c.edge_child, r), r)


def _edge_at_level(tree: RadialTree, v: int, r: float) -> int:
    """Edge on the trajectory from edge v that straddles S(r), for 0 < r below v's child."""
    lists = tree.lists()
    while lists.parent_radii[v] > r:
        v = lists.parent[v]
    return v


def descendants_at_level(tree: RadialTree, c: LevelCrossing, r_prime: float) -> list[LevelCrossing]:
    """All crossings at S(r_prime) whose trajectory passes through c."""
    if r_prime < c.level:
        raise GeometryError("descendant level below crossing level")
    radii = tree.lists().radii
    out = []
    stack = [c.edge_child]
    while stack:
        w = stack.pop()
        if radii[w] > r_prime:
            out.append(w)
        else:
            stack.extend(tree.children_of(w).tolist())
    out.sort()
    return [_crossing_on_edge(tree, w, r_prime) for w in out]


# ---------------------------------------------------------------------------
# angular deviations


def _psi_at(tree: RadialTree, child: int, r: float) -> float:
    """Angle from the child direction of the star-path point at radius r."""
    lists = tree.lists()
    theta = lists.theta[child]
    if theta < 1e-14:
        return 0.0
    rc, rp = lists.radii[child], lists.parent_radii[child]
    return hgeom.star_psi(rc, rp, theta, (r - rc) / (rp - rc))


def cfd(tree: RadialTree, r: float, c: LevelCrossing) -> float:
    """Cumulative forward angular deviation of crossing c down to level r.

    Single origin-angle when both crossings share an edge; otherwise the sum
    of the partial angle to the edge's parent endpoint, the full edge angles
    along the trajectory, and the partial angle on the ancestor's edge.
    """
    if r > c.level:
        raise GeometryError("cfd requires r <= crossing level")
    if not r > 0:
        raise GeometryError("ancestor level must be > 0")
    anc_edge = _edge_at_level(tree, c.edge_child, r)
    if anc_edge == c.edge_child:
        return abs(_psi_at(tree, c.edge_child, c.level) - _psi_at(tree, c.edge_child, r))
    lists = tree.lists()
    parent, theta = lists.parent, lists.theta
    total = abs(theta[c.edge_child] - _psi_at(tree, c.edge_child, c.level))
    w = parent[c.edge_child]
    while w != anc_edge:
        total += theta[w]
        w = parent[w]
    total += _psi_at(tree, anc_edge, r)
    return total


def mbd(tree: RadialTree, c: LevelCrossing, r_prime: float) -> float:
    """Maximal backward deviation sup over levels in [c.level, r_prime].

    Evaluated at the vertices of the descendant subtree in (level, r_prime]
    plus the crossings at r_prime: along a star-path edge the angular
    coordinate is monotone for the edge angles an RST produces, so per-edge
    suprema sit at edge endpoints or the cut.
    """
    if r_prime < c.level:
        raise GeometryError("mbd requires r_prime >= crossing level")
    lists = tree.lists()
    radii, theta = lists.radii, lists.theta
    best = 0.0
    # vertex terms accumulate edge angles from the crossing outward; the CFD
    # at the crossing's own child is the on-edge angle psi
    stack = [(c.edge_child, _psi_at(tree, c.edge_child, c.level))]
    while stack:
        w, acc = stack.pop()
        if radii[w] > r_prime:
            continue
        best = max(best, acc)
        for x in tree.children_of(w).tolist():
            stack.append((x, acc + theta[x]))
    for cross in descendants_at_level(tree, c, r_prime):
        best = max(best, cfd(tree, c.level, cross))
    return best


@dataclass(eq=False)
class LevelSweep:
    """Vectorized deviation summary for all crossings of S(r0), cut at r1."""

    r0: float
    r1: float
    children: np.ndarray      # child index of each straddling edge, ascending
    t: np.ndarray
    psi0: np.ndarray
    cross_dirs: np.ndarray    # (m, d+1) crossing directions
    mbd: np.ndarray           # per-crossing MBD over [r0, r1]


def deviation_sweep(tree: RadialTree, r0: float, r1: float) -> LevelSweep:
    """One pass computing MBD_{r0}^{r1} for every crossing of S(r0).

    cum[i] holds the CFD from the r0 crossing to vertex i for every node in
    the descendant forest, carried down the tree's depth layers; per-crossing
    maxima over vertex terms and r1-cut terms realize the supremum.
    """
    if not 0 < r0 <= r1:
        raise GeometryError("need 0 < r0 <= r1")
    radii, parent = tree.radii, tree.parent
    theta = tree.edge_thetas()
    rp = tree.parent_radii()
    children, t0, psi0, cross_dirs = level_geometry(tree, r0)
    m = children.shape[0]
    cum = np.zeros(len(tree))
    crossid = np.full(len(tree), -1, dtype=np.int64)
    cum[children] = psi0
    crossid[children] = np.arange(m)
    # parents come a layer earlier, so each node gets cum[p] + theta[i] once
    for layer in tree.layers():
        deep = layer[rp[layer] > r0]
        cum[deep] = cum[parent[deep]] + theta[deep]
        crossid[deep] = crossid[parent[deep]]

    mbd_arr = np.zeros(m)
    lo, hi = np.searchsorted(radii, [r0, r1], side="right")
    in_range = np.arange(lo, hi)
    np.maximum.at(mbd_arr, crossid[in_range], cum[in_range])
    # r1-cut terms on edges spanning past r1; an edge that also crosses S(r0)
    # is its own crossing
    cut, _, psi1 = _straddling(tree, r1)
    cfd1 = np.where(
        rp[cut] <= r0,
        np.abs(psi1 - psi0[crossid[cut]]),
        cum[parent[cut]] + np.abs(theta[cut] - psi1),
    )
    np.maximum.at(mbd_arr, crossid[cut], cfd1)

    return LevelSweep(
        r0=r0,
        r1=r1,
        children=children,
        t=t0,
        psi0=psi0,
        cross_dirs=cross_dirs,
        mbd=mbd_arr,
    )


# ---------------------------------------------------------------------------
# validation and planarity


_BANDS = 8  # equal-count radius bands of the empty-B+ check
_PAIRS = 2**16  # candidate pairs taken at once, which bounds memory
# Ball radii grow by _REL relative plus _REL per unit of radius, direction
# coordinates by _ABS: rounding then costs extra candidates, never a missed one.
_REL = 1e-9
_ABS = 64 * np.finfo(float).eps


def _direction_index(u: np.ndarray):
    """Directions of one band, sorted: u is the angle at d=1, sorted with the
    circle twice so that a window past pi is one range; at d >= 2 the unit
    vectors, sorted by (cell of u1, rank of u0) beside the sorted u0."""
    if u.ndim == 1:
        order = np.argsort(u, kind="stable")
        return np.concatenate([u[order], u[order] + 2.0 * math.pi]), np.concatenate([order, order])
    m = u.shape[0]
    cells = max(1, int(math.sqrt(m)))
    cell = np.clip(((u[:, 1] + 1.0) * (cells / 2.0)).astype(np.int64), 0, cells - 1)
    by_u0 = np.argsort(u[:, 0], kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[by_u0] = np.arange(m)
    key = cell * m + rank
    order = np.argsort(key)
    return key[order], order, u[by_u0, 0], cells


def _band_ranges(index, u: np.ndarray, chord: np.ndarray):
    """(query, lo, hi): ranges of the sorted band holding every direction that
    differs from query direction u[query] by at most chord in each coordinate
    (in the angle at d=1); grouped by query, ascending."""
    if u.ndim == 1:
        ext, pos = index
        theta = 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0)) + _ABS
        start = u - theta
        start = np.where(start < -math.pi, start + 2.0 * math.pi, start)
        lo = np.searchsorted(ext, start, side="left")
        hi = np.searchsorted(ext, start + 2.0 * theta, side="right")
        whole = theta >= math.pi
        lo[whole], hi[whole] = 0, pos.shape[0] // 2
        return np.arange(u.shape[0]), lo, hi
    keys, pos, u0s, cells = index
    m = pos.shape[0]
    c_lo = np.clip(((u[:, 1] - chord + 1.0) * (cells / 2.0)).astype(np.int64), 0, cells - 1)
    c_hi = np.clip(((u[:, 1] + chord + 1.0) * (cells / 2.0)).astype(np.int64), 0, cells - 1)
    r_lo = np.searchsorted(u0s, u[:, 0] - chord, side="left")
    r_hi = np.searchsorted(u0s, u[:, 0] + chord, side="right")
    k = np.repeat(np.arange(u.shape[0]), c_hi - c_lo + 1)
    cell = search.concat_ranges(c_lo, c_hi + 1)
    lo = np.searchsorted(keys, cell * m + r_lo[k], side="left")
    hi = np.searchsorted(keys, cell * m + r_hi[k], side="left")
    return k, lo, hi


def _merge_nearest(parent, pdist, qi, j, d):
    """Per query (grouped in qi) the nearest candidate j, lowest index among
    equals, taken where it beats the best so far: by distance, then by index,
    and over the root at equal distance."""
    n = parent.shape[0]
    starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
    best = np.minimum.reduceat(d, starts)
    tied = d == np.repeat(best, np.diff(np.r_[starts, qi.size]))
    j = np.minimum.reduceat(np.where(tied, j, n), starts)
    q = qi[starts]
    old = parent[q]
    take = (best < pdist[q]) | ((best == pdist[q]) & ((old == ROOT) | (j < old)))
    parent[q[take]] = j[take]
    pdist[q[take]] = best[take]


def _nearest_lower_in_balls(radii, dirs, pair_dist, rho):
    """Nearest point of strictly smaller radius to each point i, or the root
    (-1) at distance r_i, among the points of the closed ball B(z_i, rho_i)
    for rho_i <= r_i, and maybe a few more.

    Where the nearest lower point lies in that ball, this is exactly the
    nearest one, with the builders' tie rule: lowest distance, then lowest
    index, and a point beats the root at equal distance. Elsewhere the
    distance returned is no smaller than the nearest one's.

    Points are split into equal-count radius bands; a query visits the bands
    that meet [r_i - rho_i, r_i). Within a band, by the hyperbolic law of
    cosines, a point at distance <= rho has a chord |u_i - u_j| with
    |u_i - u_j|^2 <= 2 (cosh rho - cosh(r_i - r_j)) / (sinh r_i sinh r_j),
    largest at cosh r* = cosh r_i / cosh rho, clamped into the band.
    """
    n = radii.shape[0]
    parent = np.full(n, ROOT, dtype=np.int64)
    pdist = np.array(radii, dtype=float)
    if n == 0:
        return parent, pdist
    u = np.arctan2(dirs[:, 1], dirs[:, 0]) if dirs.shape[1] == 2 else dirs
    his = np.searchsorted(radii, radii, side="left")
    reach = rho * (1.0 + _REL) + _REL * radii
    lows = np.searchsorted(radii, radii - reach, side="left")
    sh = np.sinh(radii)
    r_star = np.arccosh(np.maximum(np.cosh(radii) / np.cosh(reach), 1.0))
    edges = np.unique(np.linspace(0, n, _BANDS + 1).round().astype(np.int64))
    for a, b in zip(edges[:-1].tolist(), edges[1:].tolist()):
        q = np.flatnonzero((lows < b) & (his > a) & (lows < his))
        if q.size == 0:
            continue
        ri, rq = radii[q], reach[q]
        rj = np.minimum(np.maximum(r_star[q], np.maximum(radii[a], ri - rq)), np.minimum(radii[b - 1], ri))
        gap = ri - rj
        # cosh rq - cosh gap, without cancellation
        num = 2.0 * np.sinh((rq + gap) / 2.0) * np.sinh(np.maximum(rq - gap, 0.0) / 2.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            chord2 = np.where(rj > 0.0, 2.0 * num / (sh[q] * np.sinh(rj)), np.inf)
        chord = np.sqrt(chord2) * (1.0 + _REL) + _ABS
        index = _direction_index(u[a:b])
        k, lo, hi = _band_ranges(index, u[q], chord)
        # at most about _PAIRS candidates at once; a query's ranges may span
        # two pieces, since each piece is merged into the best so far
        ends = np.cumsum(hi - lo)
        cuts = np.searchsorted(ends, np.arange(_PAIRS, int(ends[-1]), _PAIRS), side="left")
        for c, e in zip([0, *cuts.tolist()], [*cuts.tolist(), k.size]):
            qi = q[np.repeat(k[c:e], hi[c:e] - lo[c:e])]
            j = index[1][search.concat_ranges(lo[c:e], hi[c:e])] + a
            keep = (j >= lows[qi]) & (j < his[qi])
            qi, j = qi[keep], j[keep]
            if qi.size:
                _merge_nearest(parent, pdist, qi, j, pair_dist(qi, j))
    return parent, pdist


def validate(tree: RadialTree) -> ValidationReport:
    """Check radial monotonicity, connectivity, acyclicity, the defining
    empty-B+ property of every parent link, and finite degrees."""
    # a fresh view, so that parent radii, children and layers are derived
    # from the parent array as it is now, not from caches of an earlier one
    tree = RadialTree(tree.cloud, tree.parent, tree.parent_dist)
    violations = []
    n = len(tree)
    radii, dirs = tree.radii, tree.dirs
    parent = tree.parent
    rp = tree.parent_radii()
    bad = np.nonzero((parent >= 0) & (rp >= radii))[0]
    for i in bad[:20]:
        violations.append(f"node {i}: parent radius {rp[i]} >= radius {radii[i]}")
    frontier = int(np.count_nonzero(parent == search.FRONTIER))
    if frontier:
        violations.append("tree contains frontier markers")
    # connectivity to the root without cycles: the depth layers are exactly
    # the nodes that reach it, so only the others are walked
    state = np.zeros(n, dtype=np.int8)  # 0 unknown, 1 reaches root or walked
    for layer in tree.layers():
        state[layer] = 1
    cycles = 0
    for i in np.flatnonzero(state == 0).tolist():
        path = []
        v = i
        while v != ROOT and state[v] == 0:
            path.append(v)
            state[v] = 2
            v = int(parent[v])
            if v != ROOT and state[v] == 2:
                if cycles < 20:
                    violations.append(f"cycle through node {v}")
                cycles += 1
                break
        for w in path:
            state[w] = 1
    # defining property: no cloud point strictly closer than the parent
    pair_dist = _pair_dist(radii, dirs)
    true_dist = np.array(radii, dtype=float)
    has_parent = np.flatnonzero(parent >= 0)
    true_dist[has_parent] = pair_dist(has_parent, parent[has_parent])
    # a polar band scan, not the k-d search that built the tree; a nearer
    # point than the claimed parent (or the root) lies in B(z, min(d, r))
    check_parent, check_dist = _nearest_lower_in_balls(radii, dirs, pair_dist, np.minimum(true_dist, radii))
    worse = np.nonzero(check_dist < true_dist - 1e-12)[0]
    for i in worse[:20]:
        violations.append(
            f"node {i}: point {check_parent[i]} at {check_dist[i]} inside "
            f"B+(z, {true_dist[i]})"
        )
    tree._ensure_children()
    degrees = np.diff(tree._children_start)
    max_degree = int(degrees.max()) if n else 0
    counts = {"radius": len(bad), "frontier": frontier, "cycle": cycles, "bplus": len(worse)}
    return ValidationReport(violations=violations, max_degree=max_degree, counts=counts)


def _edge_angular_intervals(tree: RadialTree):
    """Angular interval [start, start+width] swept by each geodesic edge (d=1)."""
    dirs = tree.dirs
    alpha = np.arctan2(dirs[:, 1], dirs[:, 0])
    theta = tree.edge_thetas()
    parent = tree.parent
    has = parent >= 0
    cross = np.zeros(len(tree))
    pidx = parent[has]
    cross[has] = dirs[has, 0] * dirs[pidx, 1] - dirs[has, 1] * dirs[pidx, 0]
    start = np.where(cross >= 0, alpha, alpha - theta)
    start = np.mod(start, 2.0 * math.pi)
    return start, theta


def planarity_check(tree: RadialTree) -> int:
    """Count proper crossings between geodesic edges [z, A(z)] in the disc.

    Geodesics are chords in the Klein model, so the test reduces to segment
    intersection; edges are prefiltered by their angular intervals (the
    angular coordinate is monotone along a geodesic not through the origin).
    """
    if tree.cloud.config.d != 1:
        raise GeometryError("planarity is defined for d = 1 only")
    n = len(tree)
    if n < 2:
        return 0
    klein = np.tanh(tree.radii)[:, None] * tree.dirs
    parent = tree.parent
    a = klein
    b = np.where((parent >= 0)[:, None], klein[np.maximum(parent, 0)], 0.0)

    start, width = _edge_angular_intervals(tree)
    order = np.argsort(start, kind="stable")
    s_sorted = start[order]
    # duplicate the circle once so intervals crossing 2*pi see early starts
    s_ext = np.concatenate([s_sorted, s_sorted + 2.0 * math.pi])
    idx_ext = np.concatenate([order, order])
    lo = np.searchsorted(s_ext, start, side="left")
    hi = np.searchsorted(s_ext, start + width, side="right")
    pi_ = np.repeat(np.arange(n), hi - lo)
    pj_ = idx_ext[search.concat_ranges(lo, hi)]
    # a pair found from both edges (each start lies in the other's interval)
    # is kept from the lower index only
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    mine = rank[pi_]
    back = ((lo[pj_] <= mine) & (mine < hi[pj_])) | ((lo[pj_] <= mine + n) & (mine + n < hi[pj_]))
    keep = (pi_ != pj_) & (~back | (pi_ < pj_))
    pi_, pj_ = pi_[keep], pj_[keep]
    # drop pairs sharing a vertex (adjacent edges meet at endpoints by design)
    share = (
        (parent[pi_] == pj_)
        | (parent[pj_] == pi_)
        | ((parent[pi_] == parent[pj_]) & (parent[pi_] != ROOT))
        | ((parent[pi_] == ROOT) & (parent[pj_] == ROOT))
    )
    pi_, pj_ = pi_[~share], pj_[~share]
    if pi_.size == 0:
        return 0

    def orient(p, q, r):
        return (q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1]) - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0])

    a1, b1 = a[pi_], b[pi_]
    a2, b2 = a[pj_], b[pj_]
    d1 = orient(a1, b1, a2)
    d2 = orient(a1, b1, b2)
    d3 = orient(a2, b2, a1)
    d4 = orient(a2, b2, b1)
    proper = (d1 * d2 < 0) & (d3 * d4 < 0)
    return int(np.count_nonzero(proper))


# ---------------------------------------------------------------------------
# serialization


def tree_to_json(tree: RadialTree) -> str:
    cfg = tree.cloud.config
    return json.dumps(
        {
            "cloud_ref": {
                "d": cfg.d,
                "lambda": cfg.lam,
                "R": cfg.R,
                "seed": cfg.seed,
                "n": len(tree),
            },
            "parent": [int(p) for p in tree.parent],
        },
        sort_keys=True,
    )
