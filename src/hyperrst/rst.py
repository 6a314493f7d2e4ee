"""Radial Spanning Tree construction, levels, and angular deviation statistics.

Every Poisson point connects to its nearest neighbor among points strictly
closer to the origin (the origin itself competes). Level crossings realize
the intersection of tree edges with spheres S(r); cumulative forward
deviations (CFD) sum origin-angles along trajectories, and maximal backward
deviations (MBD) take suprema of CFD over descendant subtrees.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import hgeom, search
from .hgeom import GeometryError
from .sampler import PointCloud
from .search import ROOT


class TreeLists(NamedTuple):
    """Per-node tree columns as Python lists, for the scalar level API.

    Besides the tree's own columns it holds the libm terms of the star-path
    angle psi (see hgeom.star_psi_arrays) that do not depend on the level:
    sinh of the radii and of the parent radii, and cos of the edge angles.
    They come from math.sinh and math.cos, the calls a one-point psi makes,
    not from numpy, whose vectorized sinh can differ in the last bit.
    """

    parent: list
    radii: list
    parent_radii: list
    theta: list
    sinh_radii: list
    sinh_parent_radii: list
    cos_theta: list


class ChildTable(NamedTuple):
    """The children of node i are nodes[start[i] : start[i + 1]], ascending."""

    nodes: np.ndarray
    start: np.ndarray


@dataclass(eq=False)
class RadialTree:
    """Point cloud plus parent links; parent ROOT (-1) means the origin."""

    cloud: PointCloud
    parent: np.ndarray
    parent_dist: np.ndarray
    # (r, {edge child: psi at r}) of the last level cfd walked down to
    _ancestor_psi: tuple = field(default=(None, None), init=False, repr=False)
    # {(r0, r1): LevelSweep} of deviation_sweep
    _sweeps: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # the cached properties below are derived from these arrays: an
        # in-place edit raises ValueError instead of leaving them stale
        self.parent.setflags(write=False)
        self.parent_dist.setflags(write=False)

    def __len__(self) -> int:
        return len(self.cloud)

    @property
    def radii(self) -> np.ndarray:
        return self.cloud.radii

    @property
    def dirs(self) -> np.ndarray:
        return self.cloud.dirs

    @functools.cached_property
    def parent_radii(self) -> np.ndarray:
        """Radius of each node's parent (0 for root edges)."""
        return np.where(self.parent >= 0, self.radii[np.maximum(self.parent, 0)], 0.0)

    @functools.cached_property
    def children(self) -> ChildTable:
        n = len(self)
        kids = np.flatnonzero(self.parent >= 0)
        parents = self.parent[kids]
        counts = np.bincount(parents, minlength=n)
        start = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=start[1:])
        # parent * n + child is unique, so one argsort groups the children by
        # parent, ascending within each, as a stable sort by parent would
        return ChildTable(kids[np.argsort(parents * n + kids)], start)

    def root_children(self) -> np.ndarray:
        return np.nonzero(self.parent == ROOT)[0]

    @functools.cached_property
    def edge_thetas(self) -> np.ndarray:
        """Origin-angle between each node and its parent (0 for root edges)."""
        rp = self.parent >= 0
        theta = np.zeros(len(self))
        theta[rp] = hgeom.angle_between_arrays(self.dirs[rp], self.dirs[self.parent[rp]])
        return theta

    @functools.cached_property
    def lists(self) -> TreeLists:
        """The columns of TreeLists: per-node reads of Python floats cost a
        fraction of 0-d numpy indexing. The parent columns hold the parent's
        own float objects, so they cost a pointer a node, not a new float."""
        parent, radii, theta = self.parent.tolist(), self.radii.tolist(), self.edge_thetas.tolist()
        sinh_radii = list(map(math.sinh, radii))
        parent_radii = [radii[p] if p >= 0 else 0.0 for p in parent]
        sinh_parent_radii = [sinh_radii[p] if p >= 0 else 0.0 for p in parent]
        return TreeLists(parent, radii, parent_radii, theta, sinh_radii, sinh_parent_radii, list(map(math.cos, theta)))

    @functools.cached_property
    def layers(self) -> list:
        """Nodes by depth as int64 arrays, each ascending; layer 0 is the root
        children. Root-to-leaf carries run one layer at a time."""
        nodes, start = self.children
        layers = []
        layer = self.root_children()
        while layer.size:
            layers.append(layer)
            layer = np.sort(nodes[search.concat_ranges(start[layer], start[layer + 1])])
        return layers


class LevelCrossing(NamedTuple):
    """Crossing of the edge (edge_child, parent) with the sphere S(level); its
    parameter t, angle psi and direction are a row of level_geometry."""

    edge_child: int
    level: float


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


def _chart_index(radii, dirs) -> search.ChartIndex:
    """The k-d search index of a cloud in the Poincare chart tanh(r/2) u,
    with the exact chart image of B(z, rho) as its cover (see build)."""
    chart = np.tanh(radii / 2.0)[:, None] * dirs
    ch, sh = np.cosh(radii), np.sinh(radii)

    def cover(pts, rho):
        den = ch[pts] + np.cosh(rho)
        return (sh[pts] / den)[:, None] * dirs[pts], np.sinh(rho) / den

    return search.ChartIndex(chart, hgeom.polar_pair_dist(radii, dirs), cover)


def build(cloud: PointCloud) -> RadialTree:
    """Exact k-d search in the Poincare chart tanh(r/2) u; identical to the
    O(n^2) oracle.

    The search covers B(z, rho) by its chart image, a Euclidean ball
    symmetric about the ray of z that meets it at the signed chart radii
    tanh(a) and tanh(b), a = (r - rho)/2, b = (r + rho)/2 (the ball holds
    the origin when rho > r). As tanh a + tanh b = sinh r / (cosh a cosh b)
    and 2 cosh a cosh b = cosh r + cosh rho, its centre and radius are

        sinh(r) u / (cosh r + cosh rho)  and  sinh(rho) / (cosh r + cosh rho),

    and its point farthest from z lies sinh(rho/2) sech(r/2) sech(a) away,
    the radius a ball centred on z would need.
    Sums, products and quotients of positive terms, they are within a few
    ulps: the centre is off by a few eps times |centre| <= tanh(r/2), within
    the search's absolute slack, and the radius by a few ulps of itself,
    within its relative pad. That one pad of the cover radius also covers
    the metric's rounding and directions a little off unit norm
    (`search.padded_cover`).
    """
    if len(cloud) == 0:
        return RadialTree(cloud, np.empty(0, dtype=np.int64), np.empty(0))
    # the cloud is sorted by radius, so the key order is the point order
    index = _chart_index(cloud.radii, cloud.dirs)
    parent, pdist = search.nearest_lower(cloud.radii, index, root_dist=cloud.radii)
    return RadialTree(cloud, parent, pdist)


# ---------------------------------------------------------------------------
# levels and trajectories


def _straddling(tree: RadialTree, r: float) -> np.ndarray:
    """Edges with parent radius <= r < child radius, by ascending child index."""
    above = np.arange(int(np.searchsorted(tree.radii, r, side="right")), len(tree))
    return above[tree.parent_radii[above] <= r]


def star_points(tree: RadialTree, children: np.ndarray, t: np.ndarray):
    """(rho, psi, dirs) of the points at parameters t on the star paths of
    the edges (children[k], parent): hgeom.star_path_arrays on the tree's
    rows, with psi the angle from the child direction."""
    rc, rp, theta = tree.radii[children], tree.parent_radii[children], tree.edge_thetas[children]
    return hgeom.star_path_arrays(rc, rp, theta, tree.dirs[children], tree.dirs[tree.parent[children]], t)


def _crossing_t(tree: RadialTree, children: np.ndarray, r: float) -> np.ndarray:
    """The parameter at which each edge of children crosses S(r)."""
    rc, rp = tree.radii[children], tree.parent_radii[children]
    return (r - rc) / (rp - rc)


def level_geometry(tree: RadialTree, r: float):
    """(children, t, psi, dirs) of the edges straddling S(r), by ascending
    child index; dirs are the crossing directions. A LevelCrossing
    (edge_child, level) has its geometry in the row of edge_child here."""
    if not r > 0:
        raise GeometryError("level radius must be > 0")
    children = _straddling(tree, r)
    t = _crossing_t(tree, children, r)
    _, psi, dirs = star_points(tree, children, t)
    return children, t, psi, dirs


def level_crossings(tree: RadialTree, r: float) -> list[LevelCrossing]:
    """One crossing per edge straddling S(r), multiplicity given by edges."""
    if not r > 0:
        raise GeometryError("level radius must be > 0")
    # tuple.__new__ skips the Python frame of the namedtuple's own __new__
    return list(map(tuple.__new__, repeat(LevelCrossing), zip(_straddling(tree, r).tolist(), repeat(r))))


def trajectory(tree: RadialTree, i: int) -> list[int]:
    """Ancestor chain [i, A(i), ..., root]; the root appears as -1."""
    path = [int(i)]
    guard = len(tree) + 1
    while path[-1] != ROOT:
        path.append(int(tree.parent[path[-1]]))
        if len(path) > guard:
            raise GeometryError("parent pointers contain a cycle")
    return path


def ancestor_at_level(tree: RadialTree, c: LevelCrossing, r: float) -> LevelCrossing:
    """Unique crossing of the trajectory through c with the sphere S(r), r <= level."""
    if r > c.level:
        raise GeometryError(f"ancestor level {r} above crossing level {c.level}")
    if not r > 0:
        raise GeometryError("ancestor level must be > 0")
    if r == c.level:
        return c
    lists = tree.lists
    v = c.edge_child
    while lists.parent_radii[v] > r:
        v = lists.parent[v]
    return LevelCrossing(v, r)


def _sweep_row(tree: RadialTree, c: LevelCrossing, r_prime: float):
    """The tree's sweep from c.level to r_prime and the row of c in it; a pair
    that is not a row of level_geometry(tree, c.level) raises GeometryError."""
    sweep = deviation_sweep(tree, c.level, r_prime)
    row = int(np.searchsorted(sweep.children, c.edge_child))
    if row == sweep.children.size or sweep.children[row] != c.edge_child:
        raise GeometryError(f"edge {c.edge_child} does not straddle S({c.level})")
    return sweep, row


def descendants_at_level(tree: RadialTree, c: LevelCrossing, r_prime: float) -> list[LevelCrossing]:
    """All crossings at S(r_prime) whose trajectory passes through c, by
    ascending edge child: the sweep's r_prime cut edges in the row of c."""
    sweep, row = _sweep_row(tree, c, r_prime)
    return [LevelCrossing(w, r_prime) for w in sweep.cut[sweep.cut_row == row].tolist()]


# ---------------------------------------------------------------------------
# angular deviations


def _psi_at(lists: TreeLists, v: int, r: float) -> float:
    """Angle from the child direction of the star-path point at radius r on
    the edge of v: hgeom.star_psi_arrays in math, with the same float
    operations in the same order, its level-free sinh and cos read from the
    lists."""
    if lists.theta[v] < 1e-14:
        return 0.0
    rc, rp = lists.radii[v], lists.parent_radii[v]
    t = (r - rc) / (rp - rc)
    s = 1.0 - t
    sr = math.sinh(s * rc + t * rp)
    if not sr > 0:
        return 0.0
    a = (s * lists.sinh_radii[v] + t * lists.cos_theta[v] * lists.sinh_parent_radii[v]) / sr
    # acos(1) is 0 and the clamp keeps a NaN a NaN, as min(max(a, -1), 1) does
    if a > 1.0:
        return 0.0
    return math.acos(-1.0 if a < -1.0 else a)


def cfd(tree: RadialTree, r: float, c: LevelCrossing) -> float:
    """Cumulative forward angular deviation of crossing c down to level r.

    Single origin-angle when both crossings share an edge; otherwise the sum
    of the partial angle to the edge's parent endpoint, the full edge angles
    along the trajectory, and the partial angle on the ancestor's edge, in
    one walk up the trajectory.

    Many crossings share an ancestor at r, so the tree keeps the ancestor
    edges' angles at the last r only: one level's worth of memory, replaced
    when r changes.
    """
    if r > c.level:
        raise GeometryError("cfd requires r <= crossing level")
    if not r > 0:
        raise GeometryError("ancestor level must be > 0")
    lists = tree.lists
    parent, parent_radii, theta = lists.parent, lists.parent_radii, lists.theta
    level, memo = tree._ancestor_psi
    if level != r:
        memo = {}
        tree._ancestor_psi = (r, memo)
    v = c.edge_child
    on_edge = parent_radii[v] <= r
    if on_edge:
        total = _psi_at(lists, v, c.level)
    else:
        total = abs(theta[v] - _psi_at(lists, v, c.level))
        v = parent[v]
        while parent_radii[v] > r:
            total += theta[v]
            v = parent[v]
    psi = memo.get(v)
    if psi is None:
        psi = memo[v] = _psi_at(lists, v, r)
    return abs(total - psi) if on_edge else total + psi


def mbd(tree: RadialTree, c: LevelCrossing, r_prime: float) -> float:
    """Maximal backward deviation sup over levels in [c.level, r_prime]: the
    row of c in deviation_sweep(tree, c.level, r_prime)."""
    sweep, row = _sweep_row(tree, c, r_prime)
    return float(sweep.mbd[row])


@dataclass(eq=False)
class LevelSweep:
    """Vectorized deviation summary for all crossings of S(r0), cut at r1."""

    r0: float
    r1: float
    children: np.ndarray      # child index of each straddling edge, ascending
    cross_dirs: np.ndarray    # (m, d+1) crossing directions
    mbd: np.ndarray           # per-crossing MBD over [r0, r1]
    cut: np.ndarray           # child index of each edge straddling S(r1), ascending
    cut_row: np.ndarray       # row of each cut edge's r0 crossing


def deviation_sweep(tree: RadialTree, r0: float, r1: float) -> LevelSweep:
    """One pass computing MBD_{r0}^{r1} for every crossing of S(r0).

    cum[i] holds the CFD from the r0 crossing to vertex i for every node in
    the descendant forest, carried down the tree's depth layers; per-crossing
    maxima over vertex terms and r1-cut terms realize the supremum: along a
    star-path edge the angular coordinate is monotone for the edge angles an
    RST produces, so per-edge suprema sit at edge endpoints or the cut.

    The tree keeps each sweep, computed once per (r0, r1) with read-only
    arrays, so that kernels sharing a level share its sweep.
    """
    key = (float(r0), float(r1))
    if key in tree._sweeps:
        return tree._sweeps[key]
    if not 0 < r0 <= r1:
        raise GeometryError("need 0 < r0 <= r1")
    radii, parent = tree.radii, tree.parent
    theta = tree.edge_thetas
    rp = tree.parent_radii
    children, _, psi0, cross_dirs = level_geometry(tree, r0)
    m = children.shape[0]
    cum = np.zeros(len(tree))
    crossid = np.full(len(tree), -1, dtype=np.int64)
    cum[children] = psi0
    crossid[children] = np.arange(m)
    # parents come a layer earlier, so each node gets cum[p] + theta[i] once
    for layer in tree.layers:
        deep = layer[rp[layer] > r0]
        cum[deep] = cum[parent[deep]] + theta[deep]
        crossid[deep] = crossid[parent[deep]]

    mbd_arr = np.zeros(m)
    lo, hi = np.searchsorted(radii, [r0, r1], side="right")
    in_range = np.arange(lo, hi)
    np.maximum.at(mbd_arr, crossid[in_range], cum[in_range])
    # r1-cut terms on edges spanning past r1; an edge that also crosses S(r0)
    # is its own crossing
    cut = _straddling(tree, r1)
    cut_row = crossid[cut]
    psi1 = hgeom.star_psi_arrays(radii[cut], rp[cut], theta[cut], _crossing_t(tree, cut, r1))
    cfd1 = np.where(
        rp[cut] <= r0,
        np.abs(psi1 - psi0[cut_row]),
        cum[parent[cut]] + np.abs(theta[cut] - psi1),
    )
    np.maximum.at(mbd_arr, cut_row, cfd1)

    for arr in (children, cross_dirs, mbd_arr, cut, cut_row):
        arr.setflags(write=False)
    sweep = tree._sweeps[key] = LevelSweep(
        r0=r0, r1=r1, children=children, cross_dirs=cross_dirs, mbd=mbd_arr, cut=cut, cut_row=cut_row
    )
    return sweep


# ---------------------------------------------------------------------------
# validation and planarity


_BANDS = 8  # at most this many equal-count radius bands in the empty-B+ check
_PAIRS = 2**15  # candidate pairs (and query ranges) taken at once, which bounds memory
# The scan's ball radii grow by _REL relative plus _REL per unit of radius:
# rounding then costs extra candidates, never a missed one.
_REL = 1e-9


def _cells(x: np.ndarray, cells: int) -> np.ndarray:
    """Cell of each coordinate x among `cells` equal cells of [-1, 1]; monotone
    in x, so a box's end cells hold every point between its ends."""
    return np.minimum(np.maximum(((x + 1.0) * (cells / 2.0)).astype(np.int64), 0), cells - 1)


def _direction_index(u: np.ndarray):
    """Unit vectors of one band (m, d+1), sorted by (cell of u1..ud, rank of
    u0), beside the sorted u0.

    About m^(1/(d+1)) cells per axis leave about as many points in a cell,
    and the u0 rank splits each cell's two mirror patches in u0.
    """
    m, dim = u.shape
    cells = max(1, int(m ** (1.0 / dim)))
    cell = 0
    for col in u[:, :0:-1].T:
        cell = cell * cells + _cells(col, cells)
    by_u0 = hgeom.argsort_distinct(u[:, 0])
    rank = np.empty(m, dtype=np.int64)
    rank[by_u0] = np.arange(m)
    key = cell * m + rank
    order = np.argsort(key)
    return key[order], order, u[by_u0, 0], cells


def _band_ranges(index, u: np.ndarray, chord: np.ndarray):
    """Yield (query, lo, hi) for groups of queries with about _PAIRS ranges
    each: ranges of the sorted band holding every direction that differs from
    query direction u[query] by at most chord in each coordinate; grouped by
    query, ascending."""
    keys, pos, u0s, cells = index
    m = pos.shape[0]
    # the box's end cells, axis by axis in the index's order (u_d varies slowest)
    axes = u[:, :0:-1]
    c_lo = _cells(axes - chord[:, None], cells)
    c_hi = _cells(axes + chord[:, None], cells) + 1
    nq = u.shape[0]
    ranks = np.empty((nq, 2), dtype=np.int64)
    ranks[:, 0] = np.searchsorted(u0s, u[:, 0] - chord, side="left")
    ranks[:, 1] = np.searchsorted(u0s, u[:, 0] + chord, side="right")
    # a wide ball's box holds up to cells^d cells, so the queries go in
    # groups when their boxes may hold more than _PAIRS cells in all
    bounds = [0, nq]
    if nq * cells ** axes.shape[1] > _PAIRS:
        ends = (c_hi - c_lo).prod(axis=1).cumsum()
        cuts = np.searchsorted(ends, np.arange(_PAIRS, int(ends[-1]), _PAIRS), side="right")
        bounds = sorted({0, *cuts.tolist(), nq})
    for s, e in zip(bounds[:-1], bounds[1:]):
        k = np.arange(s, e)
        cell = 0
        for lo_c, hi_c in zip(c_lo.T, c_hi.T):
            lo_c, hi_c = lo_c[k], hi_c[k]
            cell = search.concat_ranges(cell * cells + lo_c, cell * cells + hi_c)
            k = np.repeat(k, hi_c - lo_c)
        # (lo, hi) pairs ascend within a query, which speeds up the search
        lo, hi = np.searchsorted(keys, (cell * m)[:, None] + ranks[k], side="left").T
        # only the ranges stay alive while the caller scans them
        del cell, lo_c, hi_c
        yield k, lo, hi


def _nearest_lower_in_balls(radii, dirs, pair_dist, rho):
    """Distance from each point i to its nearest point of strictly smaller
    radius, or to the root (r_i) when that is nearer, among the points of
    the closed ball B(z_i, rho_i) for rho_i <= r_i, and maybe a few more.

    Where the nearest lower point lies in that ball, this is exactly its
    distance; elsewhere the distance returned is no smaller.

    Points are split into equal-count radius bands, each about as large as
    the median ball's radial window (the points in [r_i - rho_i, r_i)), and
    at most _BANDS of them; a query visits the bands that meet its window.
    Within a band, by the hyperbolic law of cosines, a point at distance
    <= rho has a chord |u_i - u_j| with
    |u_i - u_j|^2 <= 2 (cosh rho - cosh(r_i - r_j)) / (sinh r_i sinh r_j),
    largest at cosh r* = cosh r_i / cosh rho, clamped into the band.
    """
    n = radii.shape[0]
    pdist = np.array(radii, dtype=float)
    if n == 0:
        return pdist
    his = search.run_starts(radii)
    reach = rho * (1.0 + _REL) + _REL * radii
    lows = np.searchsorted(radii, radii - reach, side="left")
    sh = np.sinh(radii)
    r_star = np.arccosh(np.maximum(np.cosh(radii) / np.cosh(reach), 1.0))
    # a query pays a fixed cost in each band it visits, and a band costs
    # wasted candidates in proportion to its size: bands of about the
    # (upper) median window
    window = int(np.partition(his - lows, n // 2)[n // 2])
    bands = min(_BANDS, max(1, n // max(1, window)))
    edges = np.unique(np.linspace(0, n, bands + 1).round().astype(np.int64))
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
        # The chord needs no pad of its own. The box test reads the same
        # rounded coordinates as pair_dist, and u +- chord rounds
        # monotonically, so a point whose computed chord is at most `chord`
        # is in the box. pair_dist sums nonnegative terms and arccosh1p is
        # relatively accurate, so a computed distance <= rho bounds the
        # computed chord by this formula up to a few ulps relative to
        # cosh rho - 1. reach pads rho by _REL relative, and as
        # d log num / d rq >= 1 / rq, that raises num by at least _REL
        # relative, about 1e6 times more. Unit-vector coordinates lie in
        # [-1, 1], so a chord of 2 covers every direction; the clamp also
        # keeps the cell bounds' integer cast finite.
        chord = np.minimum(np.sqrt(chord2), 2.0)
        index = _direction_index(dirs[a:b])
        for k, lo, hi in _band_ranges(index, dirs[q], chord):
            # at most about _PAIRS candidates at once; a query's ranges may
            # span two pieces, since each piece lowers the best so far
            ends = np.cumsum(hi - lo)
            cuts = np.searchsorted(ends, np.arange(_PAIRS, int(ends[-1]), _PAIRS), side="left")
            for c, e in zip([0, *cuts.tolist()], [*cuts.tolist(), k.size]):
                j = index[1][search.concat_ranges(lo[c:e], hi[c:e])]
                j += a
                qi = q[np.repeat(k[c:e], hi[c:e] - lo[c:e])]
                keep = j >= lows[qi]
                keep &= j < his[qi]
                qi, j = qi[keep], j[keep]
                if qi.size:
                    starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
                    found = qi[starts]
                    pdist[found] = np.minimum(pdist[found], np.minimum.reduceat(pair_dist(qi, j), starts))
    return pdist


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
    rp = tree.parent_radii
    bad = np.nonzero((parent >= 0) & (rp >= radii))[0]
    for i in bad[:20]:
        violations.append(f"node {i}: parent radius {rp[i]} >= radius {radii[i]}")
    frontier = int(np.count_nonzero(parent == search.FRONTIER))
    if frontier:
        violations.append("tree contains frontier markers")
    # connectivity to the root without cycles: the depth layers are exactly
    # the nodes that reach it, so only the others are walked
    state = np.zeros(n, dtype=np.int8)  # 0 unknown, 1 reaches root or walked
    for layer in tree.layers:
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
    pair_dist = hgeom.polar_pair_dist(radii, dirs)
    true_dist = np.array(radii, dtype=float)
    has_parent = np.flatnonzero(parent >= 0)
    true_dist[has_parent] = pair_dist(has_parent, parent[has_parent])
    # a polar band scan, not the k-d search that built the tree; a nearer
    # point than the claimed parent (or the root) lies in B(z, min(d, r))
    check_dist = _nearest_lower_in_balls(radii, dirs, pair_dist, np.minimum(true_dist, radii))
    worse = np.nonzero(check_dist < true_dist - 1e-12)[0]
    for i in worse[:20]:
        # the nearer point by the builders' tie rule: lowest distance, then
        # lowest index, and a point beats the root at equal distance
        d = pair_dist(i, np.arange(np.searchsorted(radii, radii[i], side="left")))
        j = int(np.argmin(d)) if d.size and d.min() <= radii[i] else ROOT
        violations.append(f"node {i}: point {j} at {check_dist[i]} inside B+(z, {true_dist[i]})")
    degrees = np.diff(tree.children.start)
    max_degree = int(degrees.max()) if n else 0
    counts = {"radius": len(bad), "frontier": frontier, "cycle": cycles, "bplus": len(worse)}
    return ValidationReport(violations=violations, max_degree=max_degree, counts=counts)


def _edge_angular_intervals(tree: RadialTree):
    """Angular interval [start, start+width] swept by each geodesic edge (d=1)."""
    dirs = tree.dirs
    alpha = np.arctan2(dirs[:, 1], dirs[:, 0])
    theta = tree.edge_thetas
    # a root edge has theta 0, so its start is alpha whatever its cross sign
    up = dirs[np.maximum(tree.parent, 0)]
    cross = dirs[:, 0] * up[:, 1] - dirs[:, 1] * up[:, 0]
    start = np.where(cross >= 0, alpha, alpha - theta)
    # start >= -2 pi: into [0, 2 pi]
    start = np.where(start < 0.0, start + 2.0 * math.pi, start)
    return start, theta


def _edge_radial_extents(a: np.ndarray, b: np.ndarray):
    """[low, high] Klein radii of the chords [a, b]: low is the distance
    from the origin to the chord, high its farther endpoint.

    Chords that meet at X have |X| in both exact extents, computed from the
    Klein points that `planarity_check`'s orient test reads. With u = 2^-53
    and coordinates below 1, each extent is within d = 10u: high within 2u
    relative of max(|a|, |b|), and the foot a + t (b - a), on the chord for
    any t in [0, 1] and raised by an error in t only to second order, with
    its norm within 8u. So a pair that meets is dropped only when i's low
    and j's high lie within d of |X|. Then an endpoint of one chord lies
    within about 4d of the other's line. If i's foot lies inside i, line i
    touches the circle |p| = low, and j, inside |p| <= low + 2d, crosses it
    with an endpoint within 2d beyond it. If i's foot is its end A, let
    X = A + s f and j's far end E = X + t e, f and e at angles a and b to
    the tangent at X: s sin a <= |X| - |A| + s^2 / 2|X| <= 2d, as
    s^2 <= |X|^2 - |A|^2, and t sin b <= |E| - |X| <= d, so A lies within
    s (a + b) <= 4d of line j when a >= b, else E within 2d of line i.
    orient errs by up to 3u |q - p| |r - p|, 6u of distance to the line, so
    its sign there is rounding noise, as for two separated chords on one
    ray through the origin, which can come out crossed: no pad would keep a
    pair whose count means anything.
    """
    ab = b - a
    len2 = hgeom.row_sumsq(ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-(a[:, 0] * ab[:, 0] + a[:, 1] * ab[:, 1]) / len2, 0.0, 1.0)
    foot = a + np.where(len2 > 0.0, t, 0.0)[:, None] * ab
    return np.sqrt(hgeom.row_sumsq(foot)), np.sqrt(np.maximum(hgeom.row_sumsq(a), hgeom.row_sumsq(b)))


_PLANAR_BANDS = 8  # radial bands of planarity_check at most (6 to 16 time alike at n = 14k)


def _edge_pairs(tree: RadialTree, a: np.ndarray, b: np.ndarray):
    """The edge pairs (i, j) that take `planarity_check`'s orient test, each
    once: those whose angular intervals and radial extents (of the Klein
    chords [a, b]) overlap, and which share no vertex.

    Edges go by rank k in the order of their interval starts, on the circle
    doubled so that intervals crossing 2 pi see early starts: edge k finds
    edge m when the start of m (rank m or m + n of the doubled circle) lies
    in interval k, ranks [lo[k], hi[k]). Two edges overlap in angle when one
    finds the other.

    Edges also go by their low extent into at most _PLANAR_BANDS
    about equal-count bands, and a pair is taken in the band that holds the
    larger of its two lows. A band holds its own edges and the lower ones
    whose high extent reaches its smallest low: no other lower edge overlaps
    one of its own in radius. Every edge of a band searches the doubled
    ranks of the band's edges; `search.concat_ranges` expands the candidate
    pairs, and scripts/bench_suite.py and the tests count them there. A pair
    with an own edge of the band is kept there; a pair of two lower edges is
    taken in its own band instead.
    """
    n = len(tree)
    start, width = _edge_angular_intervals(tree)
    # ties may go either way: which edges an interval holds goes by value
    order = np.argsort(start)
    s_sorted = start[order]
    s_ext = np.concatenate([s_sorted, s_sorted + 2.0 * math.pi])
    lo = search.run_starts(s_sorted)  # as in s_ext
    hi = np.searchsorted(s_ext, s_sorted + width[order], side="right")
    # chords that meet do so at a radius inside both radial extents
    low, high = (e[order] for e in _edge_radial_extents(a, b))
    bands = min(_PLANAR_BANDS, n)
    firsts = (np.arange(bands) * n + bands - 1) // bands
    floors = np.sort(low)[firsts]  # the smallest low of each band
    band = np.searchsorted(floors, low, side="right") - 1
    top = np.maximum(np.searchsorted(floors, high, side="right") - 1, band)
    up = tree.parent[order]  # each rank's parent, as an edge index
    found = []
    for bi in range(bands):
        k = np.flatnonzero((band <= bi) & (bi <= top))
        doubled = np.concatenate([k, k + n])
        first = np.searchsorted(doubled, lo[k], side="left")
        last = np.searchsorted(doubled, hi[k], side="left")
        ri = np.repeat(k, last - first)
        rj = np.concatenate([k, k])[search.concat_ranges(first, last)]
        # drop pairs sharing a vertex (adjacent edges meet at endpoints by
        # design; two root edges share the origin) and pairs apart in radius
        near = (up[ri] != order[rj]) & (up[rj] != order[ri]) & (up[ri] != up[rj])
        near &= (low[rj] <= high[ri]) & (low[ri] <= high[rj])
        ri, rj = ri[near], rj[near]
        # each pair once, in the band of its higher edge: from a lower edge, a
        # pair with an edge of the band; from an edge of the band, a pair that
        # the other edge does not find too, or else from the lower rank (an
        # edge finds itself)
        back = ((lo[rj] <= ri) & (ri < hi[rj])) | ((lo[rj] <= ri + n) & (ri + n < hi[rj]))
        own = band[rj] == bi
        keep = np.where(band[ri] == bi, ~back | (own & (ri < rj)), own)
        found.append((ri[keep], rj[keep]))
    ri, rj = (np.concatenate(c) for c in zip(*found))
    return order[ri], order[rj]


def _klein_chords(tree: RadialTree):
    """The Klein endpoints (a, b) of every edge: the node, then its parent or
    the origin."""
    a = np.tanh(tree.radii)[:, None] * tree.dirs
    parent = tree.parent
    return a, np.where((parent >= 0)[:, None], a[np.maximum(parent, 0)], 0.0)


def planarity_check(tree: RadialTree) -> int:
    """Count proper crossings between geodesic edges [z, A(z)] in the disc.

    Geodesics are chords in the Klein model, so the test reduces to segment
    intersection. Two keys prefilter the pairs (`_edge_pairs`): the angular
    intervals of the edges (the angular coordinate is monotone along a
    geodesic not through the origin) must overlap, and so must their radial
    extents (`_edge_radial_extents`: the distance from the origin to the
    chord up to its farther endpoint, unpadded: a pair they drop has an
    endpoint within a few tens of ulps of the other chord's line, where
    orient's sign is rounding noise).
    """
    if tree.cloud.config.d != 1:
        raise GeometryError("planarity is defined for d = 1 only")
    if len(tree) < 2:
        return 0
    a, b = _klein_chords(tree)
    pi_, pj_ = _edge_pairs(tree, a, b)
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
