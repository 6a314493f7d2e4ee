"""Directed Spanning Forest in the half-space model and the RST(h) family.

The DSF points toward the ideal point at infinity of the upper half space:
each point connects to its nearest neighbor among points of strictly larger
ordinate. RST(h) is the radial tree with origin O(h) = (0, e^h); as h grows
its parents couple with the DSF parents on compact sets.

Both search the same (x, y) chart and differ only in the key order. What
depends only on the points belongs to a HalfCloud: the hyperbolic metric
and its chart cover balls, the chart's k-d tree, and each point's 8
nearest chart neighbours with their hyperbolic distances. Every forest
built on one HalfCloud shares them, and sorts by its own key, ties by y
and then x (hgeom.argsort_distinct): one argsort of the key when no value
of it repeats, else np.lexsort, the same permutation either way. Points
given as an (x, y) pair get a fresh HalfCloud per call. coupling_fraction
wraps its points once, so the DSF and the RST(h) of its whole h grid
share one of each.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import hgeom, search
from .hgeom import GeometryError, HalfPoint
from .sampler import HalfWindow, window_margin
from .search import FRONTIER, ROOT


class MarginError(RuntimeError):
    """A parent search ball leaves the sampling window; results would be biased."""


@dataclass(eq=False)
class HalfCloud:
    """Half-space points x (n, d), y (n,), finite with y > 0 (GeometryError
    otherwise), that own what their searches share, each built on first
    use: the chart index (the hyperbolic metric and its chart cover, a k-d
    tree over (x, y), each point's nearest chart neighbours and their pair
    distances). The DSF and every RST(h) built on one HalfCloud search
    that one index, each in its own key order (search.nearest_lower maps
    it to the points)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x, y = np.asarray(self.x, dtype=float), np.asarray(self.y, dtype=float)
        if y.ndim != 1 or x.ndim != 2 or x.shape[0] != y.shape[0] or x.shape[1] < 1:
            raise GeometryError(f"points need x of shape (n, d) and y of shape (n,), not {x.shape} and {y.shape}")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise GeometryError("point coordinates must be finite")
        if np.any(y <= 0):
            raise GeometryError("every ordinate y must be > 0")
        self.x, self.y = x, y

    def __len__(self) -> int:
        return self.y.shape[0]

    @functools.cached_property
    def index(self) -> search.ChartIndex:
        """The chart index of the points; the hyperbolic ball B(z, rho) is
        the Euclidean ball with centre (x, y cosh rho) and radius y sinh rho."""
        x, y = self.x, self.y

        def cover(pts, rho):
            yp = y[pts]
            return np.column_stack([x[pts], yp * np.cosh(rho)]), yp * np.sinh(rho)

        return search.ChartIndex(np.column_stack([x, y]), _pair_dist(x, y), cover)

    def ordered(self, key: np.ndarray):
        """(order, x, y) with the points sorted by key, ties by y and then by
        the columns of x: the permutation of np.lexsort((x..., y, key)), from
        one argsort of key unless a value of key repeats."""
        order = hgeom.argsort_distinct(key, self.y, *self.x.T)
        return order, self.x[order], self.y[order]


def _as_cloud(points) -> HalfCloud:
    """Accept a HalfCloud or an (x, y) array pair; the pair is wrapped in a
    fresh HalfCloud, which checks it."""
    if isinstance(points, HalfCloud):
        return points
    if isinstance(points, tuple) and len(points) == 2:
        return HalfCloud(*points)
    raise GeometryError("points must be a HalfCloud or an (x, y) pair of arrays")


@dataclass(eq=False)
class HalfForest:
    """Half-space points plus parent links; FRONTIER (-2) marks points with
    no candidate in the window, ROOT (-1) the virtual origin of RST(h)."""

    x: np.ndarray
    y: np.ndarray
    parent: np.ndarray
    parent_dist: np.ndarray
    order: np.ndarray  # permutation from input order to internal order
    h: float | None = None  # RST(h) origin height, None for the DSF

    def __len__(self) -> int:
        return self.y.shape[0]

    def point(self, i: int) -> HalfPoint:
        return HalfPoint(self.x[i], float(self.y[i]))

    @functools.cached_property
    def rank(self) -> np.ndarray:
        """Internal row of each input point: the inverse of order."""
        rank = np.empty(len(self), dtype=np.int64)
        rank[self.order] = np.arange(len(self))
        return rank

    def parent_in_input_order(self) -> np.ndarray:
        """Parent indices re-expressed for the caller's original point order."""
        pp = self.parent[self.rank]
        return np.where(pp < 0, pp, self.order[np.maximum(pp, 0)])


def _pair_dist(x, y):
    """pair_dist(i, j): distances between points i and j, index arrays broadcast.

    Columns are summed one at a time, in order, so that a pair gets the same
    bits in the k-d search and in the block scan.
    """
    cols = np.ascontiguousarray(np.column_stack([x, y]).T)

    def pair_dist(i, j):
        sq = sum((c[j] - c[i]) ** 2 for c in cols)
        return hgeom.stable_arccosh1p(sq / (2.0 * y[j] * y[i]))

    return pair_dist


def build_dsf(points) -> HalfForest:
    """Parent = nearest point of strictly larger ordinate, else FRONTIER.

    The search key is -ln y, so smaller keys are larger ordinates. A
    HalfCloud shares its chart index with every other build on it.
    """
    cloud = _as_cloud(points)
    if len(cloud) == 0:
        raise GeometryError("empty point list")
    order, xs, ys = cloud.ordered(-cloud.y)
    parent, pdist = search.nearest_lower(-np.log(ys), cloud.index, order)
    return HalfForest(xs, ys, parent, pdist, order)


def origin_distances(h: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Distances from O(h) = (0, e^h)."""
    eh = math.exp(h)
    s = (hgeom.row_sumsq(x) + (y - eh) ** 2) / (2.0 * y * eh)
    return hgeom.stable_arccosh1p(s)


def build_rst_h(points, h: float) -> HalfForest:
    """Radial tree with origin O(h): parent = nearest among points strictly
    closer to O(h), with O(h) itself competing (parent ROOT). A HalfCloud
    shares its chart index with every other build on it."""
    if not 0 <= h < math.inf:
        raise GeometryError("h must be finite and >= 0")
    cloud = _as_cloud(points)
    if len(cloud) == 0:
        raise GeometryError("empty point list")
    c = origin_distances(h, cloud.x, cloud.y)
    order, xs, ys = cloud.ordered(c)
    cs = c[order]
    parent, pdist = search.nearest_lower(cs, cloud.index, order, root_dist=cs)
    return HalfForest(xs, ys, parent, pdist, order, h=h)


# ---------------------------------------------------------------------------
# regions


VOIS_KINDS = ("Vois", "Vois'", "Vois''")
CYL_KINDS = ("Cyl", "Cyl'", "Cyl''")


@dataclass(frozen=True)
class RegionSpec:
    """Neighborhoods of the ideal point: cones seen from O(h) (Vois kinds)
    and their coordinate boxes (Cyl kinds)."""

    kind: str
    A: float
    a: float = 0.0
    h: float = 0.0

    def __post_init__(self):
        if self.kind not in VOIS_KINDS + CYL_KINDS:
            raise GeometryError(f"unknown region kind {self.kind!r}")
        if not self.A > 0:
            raise GeometryError("A must be > 0")
        if not (self.a >= 0 and self.h >= 0):
            raise GeometryError("a and h must be >= 0")


def region_contains(spec: RegionSpec, z: HalfPoint) -> bool:
    """Membership per the displayed set definitions.

    All three Vois cones have apex O(h); the apertures are A e^-h, A e^-h and
    A e^-(h+a). Cyl kinds test their cyl_box; a y_lo of 0 is no bound, as
    every HalfPoint has y > 0.
    """
    xnorm = float(np.linalg.norm(z.x))
    y = z.y
    if spec.kind in CYL_KINDS:
        xr, lo, hi = cyl_box(spec)
        return xnorm < xr and lo <= y <= hi
    ang = float(hgeom.apex_angle_arrays(spec.h, xnorm, y))
    dist = float(origin_distances(spec.h, z.x[None, :], np.array([y]))[0])
    if spec.kind == "Vois":
        return ang <= spec.A * math.exp(-spec.h) and dist >= spec.h
    if spec.kind == "Vois'":
        return ang <= spec.A * math.exp(-spec.h) and spec.h <= dist < spec.h + spec.a
    # Vois''
    return ang <= spec.A * math.exp(-spec.h - spec.a) and dist >= spec.h + spec.a


def cyl_box(spec: RegionSpec):
    """(x_radius, y_lo, y_hi) of a Cyl-kind region."""
    if spec.kind == "Cyl":
        return spec.A, 0.0, 1.5
    if spec.kind == "Cyl'":
        return spec.A, 0.5 * math.exp(-spec.a), 1.5
    if spec.kind == "Cyl''":
        return spec.A * math.exp(-spec.a), 0.0, 1.5 * math.exp(-spec.a)
    raise GeometryError(f"{spec.kind} is not a Cyl kind")


# ---------------------------------------------------------------------------
# coupling


def _k_parents(forest: HalfForest, idx: np.ndarray):
    """Parents (in input order) and parent distances of the input points idx.
    Callers keep these rows, not the forest, so one RST(h) is alive at a time."""
    return forest.parent_in_input_order()[idx], forest.parent_dist[forest.rank[idx]]


def coupling_fraction(points, window: HalfWindow, K: RegionSpec, hs):
    """For each h of hs, the fraction of cloud points in K whose RST(h) parent
    equals their DSF parent; returns (fractions, number of points in K).

    The DSF and every RST(h) are built on one HalfCloud, so they share one
    chart index; each RST(h) is dropped before the next is built. Every
    point of K must have both parent search balls inside the window; the
    first h with a violation raises MarginError rather than returning a
    biased number. An empty K intersection reports fraction 1 with count 0.
    """
    cloud = _as_cloud(points)
    x, y = cloud.x, cloud.y
    xr, ylo, yhi = cyl_box(K)
    idx = np.nonzero((np.sqrt(hgeom.row_sumsq(x)) < xr) & (y >= ylo) & (y <= yhi))[0]
    if idx.size == 0:
        return [1.0] * len(hs), 0
    margins = window_margin(window, x[idx], y[idx])
    dsf_parent, d_dsf = _k_parents(build_dsf(cloud), idx)
    fractions = []
    for h in hs:
        rst_parent, d_rst = _k_parents(build_rst_h(cloud, h), idx)
        worst = np.maximum(d_dsf, d_rst)
        bad = ~np.isfinite(worst) | (worst >= margins)
        if np.any(bad):
            k = int(np.nonzero(bad)[0][0])
            raise MarginError(
                f"parent ball of point {idx[k]} (dist {worst[k]:.3f}) exceeds its "
                f"window margin {margins[k]:.3f}; enlarge the window"
            )
        # a frontier marker never equals a real parent; ROOT (the O(h) origin)
        # never equals a DSF parent either
        agree = (dsf_parent == rst_parent) & (dsf_parent >= 0)
        fractions.append(float(np.mean(agree)))
    return fractions, int(idx.size)
