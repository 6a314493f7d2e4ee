"""Pruned nearest-candidate search shared by the RST and DSF builders.

Points are sorted by a key (distance to the tree origin, or minus the log
ordinate for the forest) and each point picks its nearest neighbor among
those with a strictly smaller key. Pruning relies on d(z, z') >= |key(z) -
key(z')|, which holds whenever the key is 1-Lipschitz for the metric.
"""

from __future__ import annotations

import numpy as np

ROOT = -1
FRONTIER = -2

_BLOCK = 128
_BATCH = 128


def nearest_lower(keys: np.ndarray, dist_block, root_dist=None, block: int = _BLOCK):
    """Parent of each point among points with strictly smaller key.

    keys: (n,) sorted ascending.
    dist_block(iq, lo, hi): (len(iq), hi - lo) distances from the points iq to
        the candidates lo..hi-1.
    root_dist: optional (n,) distances to a virtual root that always competes;
        when None, points with no candidate are marked FRONTIER.

    Ties prefer the lowest candidate index, and a point beats the root at
    equal distance. Returns (parent, parent_dist); parent_dist is +inf for
    frontier points.

    Runs of _BATCH consecutive points scan the candidate blocks together, from
    high index to low; a point drops out once every candidate left below the
    block has a key under keys[i] - best.
    """
    n = keys.shape[0]
    if root_dist is None:
        parent = np.full(n, FRONTIER, dtype=np.int64)
        pdist = np.full(n, np.inf)
    else:
        parent = np.full(n, ROOT, dtype=np.int64)
        pdist = np.array(root_dist, dtype=float)
    his = np.searchsorted(keys, keys, side="left")
    for a in range(0, n, _BATCH):
        rows = np.arange(a, min(a + _BATCH, n))
        top = int(his[rows[-1]])
        while top > 0 and rows.size:
            lo_blk = max(0, top - block)
            dist = dist_block(rows, lo_blk, top)
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
            lo[fin] = np.searchsorted(keys, keys[rows[fin]] - best[fin], side="left")
            rows = rows[lo < lo_blk]
            top = lo_blk
    return parent, pdist


def sq_dist_block(cols: np.ndarray, iq: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """(len(iq), hi - lo) squared Euclidean distances; cols is (dim, n).

    Summed column by column, in np.sum's order for short rows: a reduction over
    a last axis of length dim is slow.
    """
    out = np.zeros((iq.shape[0], hi - lo))
    for c in cols:
        out += (c[lo:hi] - c[iq, None]) ** 2
    return out


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
