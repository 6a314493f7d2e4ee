"""Slow reference searches that the fast code is checked against."""

import numpy as np

from hyperrst import rst, search

_BLOCK = 128
_BATCH = 128


def nearest_lower_scan(keys: np.ndarray, pair_dist, root_dist=None):
    """The result of `search.nearest_lower` by a block scan over keys.

    Runs of _BATCH consecutive points scan the candidate blocks together, from
    high index to low; a point drops out once every candidate left below the
    block has a key under keys[i] - best, widened by a rounding slack because
    a computed distance can fall ulps below the computed key gap. The tie rule
    is the search's: lowest distance, then lowest candidate index, and a point
    beats the root at equal distance.
    """
    n = keys.shape[0]
    parent, pdist = search._start(n, root_dist)
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
            reach = best[fin] * (1.0 + search._REL) + search._REL * np.abs(kr)
            lo[fin] = np.searchsorted(keys, kr - reach, side="left")
            rows = rows[lo < lo_blk]
            top = lo_blk
    return parent, pdist


def validate_reference(tree):
    """`rst.validate` as a per-node cycle walk plus the block scan: the
    violation messages, the per-class counts and the largest degree."""
    from hyperrst import rst

    violations = []
    n = len(tree)
    radii, parent = tree.radii, tree.parent
    rp = tree.parent_radii()
    bad = np.nonzero((parent >= 0) & (rp >= radii))[0]
    for i in bad[:20]:
        violations.append(f"node {i}: parent radius {rp[i]} >= radius {radii[i]}")
    frontier = int(np.count_nonzero(parent == search.FRONTIER))
    if frontier:
        violations.append("tree contains frontier markers")
    state = np.zeros(n, dtype=np.int8)
    cycles = 0
    for i in range(n):
        path = []
        v = i
        while v != search.ROOT and state[v] == 0:
            path.append(v)
            state[v] = 2
            v = int(parent[v])
            if v != search.ROOT and state[v] == 2:
                if cycles < 20:
                    violations.append(f"cycle through node {v}")
                cycles += 1
                break
        for w in path:
            state[w] = 1
    pair_dist = rst._pair_dist(radii, tree.dirs)
    true_dist = np.array(radii, dtype=float)
    has_parent = np.flatnonzero(parent >= 0)
    true_dist[has_parent] = pair_dist(has_parent, parent[has_parent])
    check_parent, check_dist = nearest_lower_scan(radii, pair_dist, root_dist=radii)
    worse = np.nonzero(check_dist < true_dist - 1e-12)[0]
    for i in worse[:20]:
        violations.append(f"node {i}: point {check_parent[i]} at {check_dist[i]} inside B+(z, {true_dist[i]})")
    degrees = np.bincount(parent[parent >= 0], minlength=n)
    max_degree = int(degrees.max()) if n else 0
    counts = {"radius": len(bad), "frontier": frontier, "cycle": cycles, "bplus": len(worse)}
    return violations, counts, max_degree
