"""Exact nearest-candidate search shared by the RST and DSF builders.

Points are sorted by a key (distance to the tree origin, or minus the log
ordinate for the forest) and each point picks its nearest neighbor among
those with a strictly smaller key. `nearest_lower` finds it with a k-d tree
over a Euclidean chart of the model (Bentley, CACM 1975); `nearest_lower_scan`
is an independent block scan, pruned by d(z, z') >= |key(z) - key(z')|, that
checks built trees.

Both apply one tie rule: lowest distance, then lowest candidate index, and a
point beats the root at equal distance.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

ROOT = -1
FRONTIER = -2

_K = 8  # pass-1 neighbours per point
_K_WIDE = 64  # second pass-1 query for points the first left without a bound
_CHUNK = 2048  # points per k-d query, which bounds the candidate lists held at once
# Search radii grow by this relative slack plus _ULPS per unit of chart
# coordinate, so that rounding in distances, charts and cover balls costs
# extra candidates, never a missed one.
_REL = 1e-9
_ULPS = 64 * np.finfo(float).eps

_BLOCK = 128
_BATCH = 128


def _start(n: int, root_dist):
    if root_dist is None:
        return np.full(n, FRONTIER, dtype=np.int64), np.full(n, np.inf)
    return np.full(n, ROOT, dtype=np.int64), np.array(root_dist, dtype=float)


def concat_ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.arange(lo[k], hi[k]) for every k, concatenated (requires hi >= lo)."""
    counts = hi - lo
    ends = np.cumsum(counts)
    return np.arange(int(ends[-1]) if ends.size else 0) + np.repeat(lo - ends + counts, counts)


def nearest_lower(keys: np.ndarray, chart: np.ndarray, pair_dist, cover, root_dist=None):
    """Parent of each point among points with strictly smaller key.

    keys: (n,) sorted ascending.
    chart: (n, m) Euclidean coordinates of the points.
    pair_dist(i, j): distances between points i and j, index arrays broadcast.
    cover(rows, rho): (centres, radii) of chart balls that contain the closed
        metric ball of radius rho[k] around point rows[k].
    root_dist: optional (n,) distances to a virtual root that always competes;
        when None, points with no candidate are marked FRONTIER.

    Returns (parent, parent_dist); parent_dist is +inf for frontier points.

    Pass 1 bounds each parent distance by the nearest smaller-key point among
    the k Euclidean neighbours in the chart (or the root). Pass 2 takes every
    point in a chart ball that covers the metric ball of that radius and keeps
    the best smaller-key one. Points left without a bound scan every smaller key.
    """
    n = keys.shape[0]
    parent, pdist = _start(n, root_dist)
    if n == 0:
        return parent, pdist
    his = np.searchsorted(keys, keys, side="left")
    tree = cKDTree(chart)
    scale = float(np.abs(chart).max())

    def knn_bound(rows, k):
        _, nb = tree.query(chart[rows], k=list(range(1, min(k, n) + 1)))
        d = pair_dist(rows[:, None], nb)
        d[nb >= his[rows, None]] = np.inf
        return d.min(axis=1)

    for a in range(0, n, _CHUNK):
        rows = np.arange(a, min(a + _CHUNK, n))
        near = knn_bound(rows, _K)
        miss = ~np.isfinite(near)
        if np.any(miss):
            near[miss] = knn_bound(rows[miss], _K_WIDE)
        rho = np.minimum(pdist[rows], near)
        open_ = ~np.isfinite(rho)
        bounded = rows[~open_]
        if bounded.size:
            centre, radius = cover(bounded, rho[~open_] * (1.0 + _REL))
            radius = radius * (1.0 + _REL) + _ULPS * np.maximum(scale, np.abs(centre).max(axis=1))
            found = tree.query_ball_point(centre, radius, return_sorted=False)
            counts = np.fromiter(map(len, found), dtype=np.int64, count=len(found))
            cand = np.fromiter(chain.from_iterable(found), dtype=np.int64, count=int(counts.sum()))
            _take_nearest(parent, pdist, np.repeat(bounded, counts), cand, his, pair_dist)
        unbounded = rows[open_]
        if unbounded.size:
            count = his[unbounded]
            cand = concat_ranges(np.zeros_like(count), count)
            _take_nearest(parent, pdist, np.repeat(unbounded, count), cand, his, pair_dist)
    return parent, pdist


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


def nearest_lower_scan(keys: np.ndarray, pair_dist, root_dist=None):
    """The result of `nearest_lower` by a block scan over keys, for checking.

    Runs of _BATCH consecutive points scan the candidate blocks together, from
    high index to low; a point drops out once every candidate left below the
    block has a key under keys[i] - best, widened by a rounding slack because
    a computed distance can fall ulps below the computed key gap.
    """
    n = keys.shape[0]
    parent, pdist = _start(n, root_dist)
    his = np.searchsorted(keys, keys, side="left")
    for a in range(0, n, _BATCH):
        rows = np.arange(a, min(a + _BATCH, n))
        top = int(his[rows[-1]])
        while top > 0 and rows.size:
            lo_blk = max(0, top - _BLOCK)
            dist = pair_dist(rows[:, None], np.arange(lo_blk, top))
            # each row's candidates are a prefix of the block: index < his[i]
            cut = his[rows] - lo_blk
            if cut.min() < top - lo_blk:
                dist[np.arange(top - lo_blk) >= cut[:, None]] = np.inf
            k = np.argmin(dist, axis=1)
            dk = dist[np.arange(rows.size), k]
            # blocks run from high to low index, so <= leaves the lowest index
            take = (cut > 0) & (dk <= pdist[rows])
            parent[rows[take]] = lo_blk + k[take]
            pdist[rows[take]] = dk[take]
            best = pdist[rows]
            lo = np.zeros(rows.size, dtype=np.int64)
            fin = np.isfinite(best)
            kr = keys[rows[fin]]
            reach = best[fin] * (1.0 + _REL) + _REL * np.abs(kr)
            lo[fin] = np.searchsorted(keys, kr - reach, side="left")
            rows = rows[lo < lo_blk]
            top = lo_blk
    return parent, pdist


def nearest_lower_brute(keys: np.ndarray, dist_matrix: np.ndarray, root_dist=None):
    """O(n^2) oracle with the same candidate rule and tie-breaking."""
    n = keys.shape[0]
    parent = np.full(n, FRONTIER, dtype=np.int64)
    pdist = np.full(n, np.inf)
    for i in range(n):
        cand = np.nonzero(keys < keys[i])[0]
        best = float(root_dist[i]) if root_dist is not None else np.inf
        bestj = ROOT if root_dist is not None else FRONTIER
        if cand.size:
            d = dist_matrix[i, cand]
            k = int(np.argmin(d))
            if d[k] <= best:
                best = float(d[k])
                bestj = int(cand[k])
        parent[i] = bestj
        pdist[i] = best
    return parent, pdist
