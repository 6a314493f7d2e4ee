"""Exact nearest-candidate search shared by the RST and DSF builders.

Points are sorted by a key (distance to the tree origin, or minus the log
ordinate for the forest) and each point picks its nearest neighbor among
those with a strictly smaller key. `nearest_lower` finds it with a k-d tree
over a Euclidean chart of the model (Bentley, CACM 1975). The model belongs
to the point set (a `ChartIndex`): its metric, the chart ball that covers
each metric ball (in both models the metric ball's exact image, a Euclidean
ball whose centre is shifted off the point), the tree, each point's nearest
chart neighbours, their distances in the metric and the chart distance to
the farthest of them. A search maps its own key order onto the index's
point order, so searches that sort one set by different keys share it and
none evaluates it again. The O(n^2) oracles the search is checked against
live in the tests.

Pass 1 bounds each parent distance by the nearest smaller-key point among
the point's chart neighbours, or by the root; it runs over the whole key
order at once, reducing the neighbour table one column of neighbours at a
time, which numpy does about 5x faster than along short rows. A point whose
neighbours all have larger keys looks again among the points nearest to
the centre of its cover ball, which lies toward the origin in the Poincare
chart and above the point in the half-space chart: toward smaller radii
and the DSF's smaller keys. Each bounded point then takes one of two
routes, each of which sees a superset of the metric ball of that radius:
(1) when the ball's padded chart cover lies strictly inside the
neighbours' farthest distance, pass 1's answer is final; (2) otherwise the
point takes its chart ball from the k-d tree. A point left without a bound
scans its smaller-key prefix.

Both apply one tie rule: lowest distance, then lowest candidate index, and a
point beats the root at equal distance. `rst.validate` checks built trees
with a polar band scan of its own.
"""

from __future__ import annotations

import functools
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from . import hgeom

ROOT = -1
FRONTIER = -2

_K = 8  # pass-1 neighbours per point
_K_WIDE = 40  # second pass-1 query for points the first left without a bound
_CHUNK = 2048  # rows per k-d ball query or prefix scan, which bounds the candidate lists held at once
_REL = 1e-9  # the cover radius's pad, relative, plus _ULPS per unit of chart coordinate (padded_cover)
_ULPS = 64 * np.finfo(float).eps


def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.arange(lo[k], hi[k]) for every k, concatenated (requires hi >= lo)."""
    counts = hi - lo
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(lo - ends + counts, counts)


def run_starts(keys: np.ndarray) -> np.ndarray:
    """np.searchsorted(keys, keys, side="left") for sorted keys without NaN,
    in one pass: the first index of each key's run of equal values (-0.0
    and 0.0 are equal, as in searchsorted)."""
    n = keys.shape[0]
    new = np.ones(n, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return np.maximum.accumulate(np.where(new, np.arange(n), 0))


class ChartIndex:
    """A point set's model and its k-d search, all in the set's own order.

    coords: the Euclidean chart coordinates (n, m), n >= 1.
    pair_dist(i, j): the model's metric between points i and j, index arrays
        broadcast, i the point and j its neighbour.
    cover(pts, rho): (centres, radii) of chart balls that contain the closed
        metric ball of radius rho[k] around point pts[k].

    The index holds a k-d tree over the chart and its neighbour table: each
    point's _K nearest chart neighbours, itself among them, their pair
    distances, and the chart distance to the farthest of them (+inf when
    n <= _K, as they are then every point). Every point strictly closer than
    that distance is among the _K. The table is column-major: knn and dist
    are (_K, n), row j holding every point's j-th nearest neighbour. For the
    few points that ask for it, a wide table holds the _K_WIDE chart-nearest
    points to the centre of the cover ball of radius rho_K, the pair
    distance to the point's _K-th neighbour, and their pair distances. That
    ball holds the _K-th neighbour and is shifted toward smaller keys; a
    point found there only bounds a search, so where the wide table looks
    never changes a parent. Every search over the set uses this one index, whatever key
    order it sorts the points by (see nearest_lower)."""

    def __init__(self, coords: np.ndarray, pair_dist, cover):
        n = coords.shape[0]
        self.coords = coords
        self.tree = cKDTree(coords)
        self.scale = float(np.abs(coords).max())
        self.pair_dist = pair_dist
        self.cover = cover
        chart, self.knn, self.dist = self._query(np.arange(n), _K, coords)
        self.kth = chart[-1].copy() if n > _K else np.full(n, np.inf)
        self._slot = np.full(n, -1)  # each point's column in the wide table, -1 until asked
        self._wide = self._query(np.arange(0), _K_WIDE, coords[:0])[1:]

    def _query(self, pts: np.ndarray, k: int, at: np.ndarray):
        """(chart distances, neighbours, pair distances from pts), each
        (min(k, n), len(pts)), of the nearest chart points to at[i] for each
        pts[i]."""
        k = min(k, self.coords.shape[0])
        chart, knn = self.tree.query(at, k=list(range(1, k + 1)))
        chart, knn = chart.T, np.ascontiguousarray(knn.T)
        return chart, knn, self.pair_dist(pts, knn)

    def table(self, pts: np.ndarray, wide: bool = False):
        """(neighbours, distances), each (k, len(pts)), from the _K table, or
        with wide the _K_WIDE one, where each point is queried once, around
        the centre of the cover ball of its _K-th neighbour's pair distance."""
        if wide:
            new = np.unique(pts[self._slot[pts] < 0])
            if new.size:
                self._slot[new] = self._wide[0].shape[1] + np.arange(new.size)
                centre = self.cover(new, self.dist[-1, new])[0]
                grown = zip(self._wide, self._query(new, _K_WIDE, centre)[1:])
                self._wide = tuple(np.concatenate(pair, axis=1) for pair in grown)
            knn, dist, pts = *self._wide, self._slot[pts]
        else:
            knn, dist = self.knn, self.dist
        # np.take keeps the columns contiguous; knn[:, pts] would not
        return np.take(knn, pts, axis=1), np.take(dist, pts, axis=1)

    def ball(self, centres: np.ndarray, radii: np.ndarray):
        """(counts, ids): the points in each chart ball, concatenated in ball order."""
        found = self.tree.query_ball_point(centres, radii, return_sorted=False)
        counts = np.fromiter(map(len, found), dtype=np.int64, count=len(found))
        return counts, np.fromiter(chain.from_iterable(found), dtype=np.int64, count=int(counts.sum()))


def nearest_lower(keys: np.ndarray, index: ChartIndex, order: np.ndarray | None = None, root_dist=None):
    """Parent of each point among points with strictly smaller key.

    keys: (n,) sorted ascending.
    index: the point set's ChartIndex; its metric gives the distances and its
        cover the chart balls.
    order: the point of each key, a permutation of the index's points; None
        when the keys are in the index's own order.
    root_dist: optional (n,) distances to a virtual root that always competes;
        when None, points with no candidate are marked FRONTIER.

    Points are rows in key order throughout: row r is point order[r], and
    the index's neighbours and ball hits map back to rows. Returns (parent,
    parent_dist); parent_dist is +inf for frontier points.

    Pass 1 bounds each parent distance by the nearest smaller-key point among
    the _K chart neighbours (when the _K hold none, among the wide table's
    _K_WIDE, around the centre of the row's cover ball), or by the root.
    It reads the index's neighbour table, one neighbour column at a time,
    and evaluates no distance. Each bounded row then takes one of two exact
    routes, each of which sees every point of the metric ball of that radius:
    1. when the padded chart ball that covers it lies strictly inside the
       row's _K-th neighbour distance, the _K neighbours hold the whole ball,
       and pass 1's best, or the root, is final;
    2. any other row keeps the best smaller-key point of its chart ball.
    A row with no bound scans every smaller key.
    """
    n = keys.shape[0]
    if order is None:  # both maps are the identity, with no gather
        point = row = lambda ids: ids
    else:
        inv = np.empty_like(order)
        inv[order] = np.arange(n)
        point, row = order.__getitem__, inv.__getitem__

    def pair_dist(i, j):
        return index.pair_dist(point(i), point(j))

    if root_dist is None:
        parent, pdist = np.full(n, FRONTIER, dtype=np.int64), np.full(n, np.inf)
    else:
        parent, pdist = np.full(n, ROOT, dtype=np.int64), np.array(root_dist, dtype=float)
    his = run_starts(keys)

    def pass1(rows, wide=False):
        """(near, best): the distance and row of the nearest smaller-key
        chart neighbour of each of rows, the lowest row on ties; near is
        +inf when there is none. Reductions run down the neighbour columns."""
        nb, d = index.table(point(rows), wide)
        nb = row(nb)
        d = np.where(nb < his[rows], d, np.inf)
        near = d.min(axis=0)
        return near, np.where(d == near, nb, n).min(axis=0)

    near, best = pass1(np.arange(n))
    miss = np.flatnonzero(~np.isfinite(near))
    if miss.size:
        near[miss], best[miss] = pass1(miss, wide=True)
    rho = np.minimum(pdist, near)
    b = np.flatnonzero(np.isfinite(rho))  # bounded rows
    pts = point(b)
    centre, radius = padded_cover(index, pts, rho[b])
    # route 1: the cover ball lies inside the _K-NN ball (its pad dwarfs reach's rounding)
    reach = np.sqrt(hgeom.row_sumsq(centre - index.coords[pts])) + radius
    inside = reach < index.kth[pts]
    done = b[inside & (near[b] <= pdist[b])]
    parent[done] = best[done]
    pdist[done] = near[done]
    # route 2: every smaller-key point in the chart ball
    out = ~inside
    rows, centre, radius = b[out], centre[out], radius[out]
    for a in range(0, rows.size, _CHUNK):
        counts, hits = index.ball(centre[a : a + _CHUNK], radius[a : a + _CHUNK])
        _take_nearest(parent, pdist, np.repeat(rows[a : a + _CHUNK], counts), row(hits), his, pair_dist)
    unbounded = np.flatnonzero(~np.isfinite(rho))
    for a in range(0, unbounded.size, _CHUNK):
        rows = unbounded[a : a + _CHUNK]
        count = his[rows]
        cand = concat_ranges(np.zeros_like(count), count)
        _take_nearest(parent, pdist, np.repeat(rows, count), cand, his, pair_dist)
    return parent, pdist


def padded_cover(index: ChartIndex, pts: np.ndarray, rho: np.ndarray):
    """(centres, radii): the chart balls nearest_lower searches for the
    metric balls of radius rho around pts, with the search's one pad: a
    slack of _ULPS per unit of the chart's scale or of the centre, for the
    coordinates' few ulps, and _REL relative. The relative pad covers the
    metric's few ulps, as d log radius / d log rho <= 1 + rho in both
    charts (the centre moves less), and directions off unit norm by up to
    about 1e-11: one off by e moves its chart point by up to e, past the
    slack in a ball of radius near 1 (the tests pin such misses at d = 1).
    Route 1 and the k-d ball query both read this radius."""
    centre, radius = index.cover(pts, rho)
    slack = _ULPS * np.maximum(index.scale, functools.reduce(np.maximum, np.abs(centre).T))
    return centre, radius * (1.0 + _REL) + slack


def _take_nearest(parent, pdist, qi, cand, his, pair_dist):
    """Per query point qi (grouped, ascending) the best of its candidates with
    a smaller key, taken when it is at most pdist (the root or +inf)."""
    lower = cand < his[qi]
    qi, cand = qi[lower], cand[lower]
    if qi.size == 0:
        return
    d = pair_dist(qi, cand)
    starts = np.flatnonzero(np.r_[True, qi[1:] != qi[:-1]])
    counts = np.diff(np.r_[starts, qi.size])
    best = np.minimum.reduceat(d, starts)
    tied = d == np.repeat(best, counts)
    j = np.minimum.reduceat(np.where(tied, cand, parent.shape[0]), starts)
    q = qi[starts]
    take = best <= pdist[q]
    parent[q[take]] = j[take]
    pdist[q[take]] = best[take]
