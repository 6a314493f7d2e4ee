"""Slow references that the fast code is checked against.

Besides the O(n^2) builders and scans, the geometry references live here:
the isometry from the half space through the ball to polar coordinates
(half_to_ball, ball_to_polar, half_to_polar), the ball-model distance
(ball_dist), which check hgeom's two metrics against each other, the
pointwise region membership of the coupling's K (region_contains), and one
star-path point at a time in math (star_psi, angle_between, star_point),
which checks the array star paths of hgeom and rst.
"""

import math

import numpy as np
from scipy.integrate import quad

from hyperrst import dsf, hgeom, rst, sampler, search

_BLOCK = 128
_BATCH = 128
# the scan's own pruning pad, relative and per unit of key, apart from the
# search's so that a mutation of one never hides in the other
_REL = 1e-9


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
    if root_dist is None:
        parent, pdist = np.full(n, search.FRONTIER, dtype=np.int64), np.full(n, np.inf)
    else:
        parent, pdist = np.full(n, search.ROOT, dtype=np.int64), np.array(root_dist, dtype=float)
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
    parent = np.full(n, search.FRONTIER, dtype=np.int64)
    pdist = np.full(n, np.inf)
    for i in range(n):
        cand = np.nonzero(keys < keys[i])[0]
        best = float(root_dist[i]) if root_dist is not None else np.inf
        bestj = search.ROOT if root_dist is not None else search.FRONTIER
        if cand.size:
            d = dist_matrix[i, cand]
            k = int(np.argmin(d))
            if d[k] <= best:
                best = float(d[k])
                bestj = int(cand[k])
        parent[i] = bestj
        pdist[i] = best
    return parent, pdist


def brute_force_parents(cloud: sampler.PointCloud) -> np.ndarray:
    """O(n^2) parent assignment straight from the definition."""
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
        # the products left to right, ((0.5 du2) sh_i) sh_j, as polar_pair_dist rounds them
        s = (
            2.0 * np.sinh((radii[lo:hi, None] - radii[None, :]) / 2.0) ** 2
            + 0.5 * du2 * sh[lo:hi, None] * sh[None, :]
        )
        dist[lo:hi] = hgeom.stable_arccosh1p(s)
    parent, _ = nearest_lower_brute(radii, dist, root_dist=radii)
    return parent


def _ordered(cloud: dsf.HalfCloud, *keys):
    """(order, x, y) with the points sorted by keys, the last one primary as in
    np.lexsort, then by the columns of x in turn: the oracles' own sort,
    independent of HalfCloud.ordered."""
    order = np.lexsort(tuple(cloud.x[:, ::-1].T) + keys)
    return order, cloud.x[order], cloud.y[order]


def _dist_matrix(x, y):
    """All pairwise distances, for the O(n^2) oracles."""
    s = (
        np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=2) + (y[:, None] - y[None, :]) ** 2
    ) / (2.0 * np.outer(y, y))
    return hgeom.stable_arccosh1p(s)


def build_dsf_brute(points) -> dsf.HalfForest:
    """O(n^2) oracle built directly from the definition."""
    cloud = dsf._as_cloud(points)
    order, xs, ys = _ordered(cloud, -cloud.y)
    parent, pdist = nearest_lower_brute(-np.log(ys), _dist_matrix(xs, ys), root_dist=None)
    return dsf.HalfForest(xs, ys, parent, pdist, order)


def build_rst_h_brute(points, h: float) -> dsf.HalfForest:
    """O(n^2) oracle for dsf.build_rst_h, built directly from the definition."""
    cloud = dsf._as_cloud(points)
    c = dsf.origin_distances(h, cloud.x, cloud.y)
    order, xs, ys = _ordered(cloud, cloud.y, c)
    cs = c[order]
    parent, pdist = nearest_lower_brute(cs, _dist_matrix(xs, ys), root_dist=cs)
    return dsf.HalfForest(xs, ys, parent, pdist, order, h=h)


def validate_reference(tree):
    """`rst.validate` as a per-node cycle walk plus the block scan: the
    violation messages, the per-class counts and the largest degree."""
    violations = []
    n = len(tree)
    radii, parent = tree.radii, tree.parent
    rp = tree.parent_radii
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
    pair_dist = hgeom.polar_pair_dist(radii, tree.dirs)
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


def half_to_ball(x: np.ndarray, y: np.ndarray, h: float = 0.0) -> np.ndarray:
    """Isometry H -> I sending O(h) = (0, e^h) to the ball centre, row by row:
    (x, y) -> (|x|^2 + y^2 - e^2h, -2 e^h x) / (|x|^2 + (y + e^h)^2)."""
    eh = math.exp(h)
    xn2 = np.sum(x * x, axis=1)
    denom = xn2 + (y + eh) ** 2
    return np.column_stack([(xn2 + y * y - eh * eh) / denom, (-2.0 * eh / denom)[:, None] * x])


def ball_to_polar(b: np.ndarray):
    """(radii, dirs) of the ball points b (n, d+1); the centre gets the
    first basis direction."""
    # scale each row by its largest coordinate first: squared tiny
    # coordinates, and the norm of subnormal ones, lose the digits that fix
    # the direction
    m = np.max(np.abs(b), axis=1)
    zero = m == 0.0
    s = b / np.where(zero, 1.0, m)[:, None]
    n = np.sqrt(np.sum(s * s, axis=1))
    dirs = s / np.where(zero, 1.0, n)[:, None]
    dirs[zero, 0] = 1.0
    return 2.0 * np.arctanh(m * n), dirs


def half_to_polar(x: np.ndarray, y: np.ndarray, h: float = 0.0):
    """(radii, dirs) of half-space points around O(h), through the ball."""
    return ball_to_polar(half_to_ball(x, y, h))


def ball_dist(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Row-wise ball-model distance: arccosh(1 + 2 |b1-b2|^2 / ((1-|b1|^2)(1-|b2|^2)))."""
    n1 = np.sum(b1 * b1, axis=-1)
    n2 = np.sum(b2 * b2, axis=-1)
    d2 = np.sum((b1 - b2) ** 2, axis=-1)
    return hgeom.stable_arccosh1p(2.0 * d2 / ((1.0 - n1) * (1.0 - n2)))


def region_contains(spec: dsf.RegionSpec, x: np.ndarray, y: float) -> bool:
    """Whether the half-space point (x, y), x of shape (d,), lies in spec,
    per the displayed set definitions.

    All three Vois cones have apex O(h); the apertures are A e^-h, A e^-h and
    A e^-(h+a). Cyl kinds test their cyl_box; a y_lo of 0 is no bound, as
    every point has y > 0.
    """
    xnorm = float(np.linalg.norm(x))
    if spec.kind in dsf.CYL_KINDS:
        xr, lo, hi = dsf.cyl_box(spec)
        return xnorm < xr and lo <= y <= hi
    ang = float(hgeom.apex_angle_arrays(spec.h, xnorm, y))
    dist = float(dsf.origin_distances(spec.h, x[None, :], np.array([y]))[0])
    if spec.kind == "Vois":
        return ang <= spec.A * math.exp(-spec.h) and dist >= spec.h
    if spec.kind == "Vois'":
        return ang <= spec.A * math.exp(-spec.h) and spec.h <= dist < spec.h + spec.a
    # Vois''
    return ang <= spec.A * math.exp(-spec.h - spec.a) and dist >= spec.h + spec.a


def ball_volume_quad(d: int, r: float) -> float:
    """Hyperbolic ball volume for d >= 2, as S_d times one `quad` of sinh^d."""
    return hgeom.sphere_surface(d) * quad(lambda s: math.sinh(s) ** d, 0.0, r, limit=200)[0]


def sphere_cap_quad(d: int, theta: float) -> float:
    """Cap measure on S^d for d >= 2, as S_(d-1) times one `quad` of sin^(d-1)."""
    return hgeom.sphere_surface(d - 1) * quad(lambda t: math.sin(t) ** (d - 1), 0.0, theta, limit=200)[0]


def knot_integrals_quad(d: int, knots: np.ndarray) -> np.ndarray:
    """Integral of sinh(s)^d over each knot interval, one `quad` call each."""
    return np.array([quad(lambda s: math.sinh(s) ** d, a, b)[0] for a, b in zip(knots[:-1], knots[1:])])


def bplus_chain(d: int, r: float, rho: float, u01: np.ndarray, cos0: np.ndarray) -> np.ndarray:
    """B+ membership of draws in B(0, rho) boosted onto z at radius r: invert
    u01 to a radius (closed form at d = 1, the batch's Newton inversion
    otherwise), take the boosted radius and compare it with r."""
    if d == 1:
        rad = np.arccosh(1.0 + u01 * (math.cosh(rho) - 1.0))
    else:
        rad = sampler.radial_law(d, rho).invert(u01)
    t2 = math.cosh(r) * np.cosh(rad) + math.sinh(r) * (np.sinh(rad) * cos0)
    return hgeom.stable_arccosh1p(t2 - 1.0) < r


def star_psi(r1: float, r2: float, theta: float, t: float) -> float:
    """star_psi_arrays for one point, in math: same formula, clamp and sinh(rho) > 0 guard."""
    sr = math.sinh((1.0 - t) * r1 + t * r2)
    if not sr > 0:
        return 0.0
    a = ((1.0 - t) * math.sinh(r1) + t * math.cos(theta) * math.sinh(r2)) / sr
    return math.acos(min(max(a, -1.0), 1.0))


def angle_between(u1: np.ndarray, u2: np.ndarray) -> float:
    """Angle in [0, pi] between two unit vectors, stable near 0 and pi."""
    d2 = float(np.dot(u1 - u2, u1 - u2))
    if d2 <= 2.0:
        return 2.0 * math.asin(0.5 * math.sqrt(d2))
    s2 = float(np.dot(u1 + u2, u1 + u2))
    return math.pi - 2.0 * math.asin(0.5 * math.sqrt(s2))


def star_point(r1: float, u1: np.ndarray, r2: float, u2: np.ndarray, t: float):
    """(rho, u): the point at parameter t on the star path [(r1; u1), (r2; u2)]*,
    one point in math: radius (1-t) r1 + t r2, direction at the angle star_psi
    from u1 on the great circle toward u2. An edge to the origin (r2 = 0) or
    an angle theta < 1e-14 runs radially along u1."""
    rho = (1.0 - t) * r1 + t * r2
    theta = angle_between(u1, u2) if r2 > 0.0 else 0.0
    if theta < 1e-14:
        return rho, np.array(u1, dtype=float)
    psi = star_psi(r1, r2, theta, t)
    return rho, (math.sin(theta - psi) * u1 + math.sin(psi) * u2) / math.sin(theta)


def cfd_reference(tree, r: float, c) -> float:
    """`rst.cfd` as one walk up the trajectory on the tree's arrays, with
    every angle psi from star_psi: no lists, no libm columns and no memo of
    ancestor angles."""
    parent, radii, parent_radii, theta = tree.parent, tree.radii, tree.parent_radii, tree.edge_thetas

    def psi(v, level):
        th = float(theta[v])
        if th < 1e-14:
            return 0.0
        rc, rp = float(radii[v]), float(parent_radii[v])
        return star_psi(rc, rp, th, (level - rc) / (rp - rc))

    v = c.edge_child
    if parent_radii[v] <= r:
        return abs(psi(v, c.level) - psi(v, r))
    total = abs(float(theta[v]) - psi(v, c.level))
    v = int(parent[v])
    while parent_radii[v] > r:
        total += float(theta[v])
        v = int(parent[v])
    return total + psi(v, r)


def planarity_reference(tree) -> int:
    """`rst.planarity_check` as a blocked all-pairs count: every pair of edges
    that shares no vertex takes the orient sign test on its Klein chords, and
    counts when each chord's endpoints lie strictly on opposite sides of the
    other's line."""
    n = len(tree)
    klein = np.tanh(tree.radii)[:, None] * tree.dirs
    parent = tree.parent
    tail = np.where((parent >= 0)[:, None], klein[np.maximum(parent, 0)], 0.0)

    def orient(p, q, r):
        return (q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1]) - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0])

    j = np.arange(n)[None, :]
    a2, b2, pj = klein[None, :], tail[None, :], parent[None, :]
    crossings = 0
    for lo in range(0, n, _BLOCK):
        i = np.arange(lo, min(lo + _BLOCK, n))[:, None]
        a1, b1, pi = klein[i], tail[i], parent[i]
        share = (pi == j) | (pj == i) | ((pi == pj) & (pi != search.ROOT)) | ((pi == search.ROOT) & (pj == search.ROOT))
        proper = (orient(a1, b1, a2) * orient(a1, b1, b2) < 0) & (orient(a2, b2, a1) * orient(a2, b2, b1) < 0)
        crossings += int(np.count_nonzero(proper & (i < j) & ~share))
    return crossings


def planarity_pairs_reference(tree) -> set:
    """The edge pairs {i, j} that `rst.planarity_check` puts to the orient
    test, by angle then padded radius over all edges at once: each edge's
    angular interval finds the edges whose starts it holds (on the circle
    doubled, ranks [lo, hi) of the start order), the pairs whose padded
    radial extents overlap are kept, once each, and those sharing a vertex
    are dropped. Returns a set of (min, max) edge index tuples."""
    n = len(tree)
    klein = np.tanh(tree.radii)[:, None] * tree.dirs
    parent = tree.parent
    tail = np.where((parent >= 0)[:, None], klein[np.maximum(parent, 0)], 0.0)
    start, width = rst._edge_angular_intervals(tree)
    order = np.argsort(start, kind="stable")
    s_sorted = start[order]
    s_ext = np.concatenate([s_sorted, s_sorted + 2.0 * math.pi])
    lo = np.searchsorted(s_ext, s_sorted, side="left")
    hi = np.searchsorted(s_ext, s_sorted + width[order], side="right")
    ext = search.concat_ranges(lo, hi)
    ri = np.repeat(np.arange(n), hi - lo)
    low, high = (np.tile(e[order], 2) for e in rst._edge_radial_extents(klein, tail))
    near = (low[ext] <= high[ri]) & (low[ri] <= high[ext])
    ri, rj = ri[near], ext[near] % n
    # a pair found from both edges is kept from the lower rank only
    back = ((lo[rj] <= ri) & (ri < hi[rj])) | ((lo[rj] <= ri + n) & (ri + n < hi[rj]))
    keep = (ri != rj) & (~back | (ri < rj))
    pi, pj = order[ri[keep]], order[rj[keep]]
    share = (
        (parent[pi] == pj)
        | (parent[pj] == pi)
        | ((parent[pi] == parent[pj]) & (parent[pi] != search.ROOT))
        | ((parent[pi] == search.ROOT) & (parent[pj] == search.ROOT))
    )
    pairs = list(zip(np.minimum(pi, pj)[~share].tolist(), np.maximum(pi, pj)[~share].tolist()))
    assert len(set(pairs)) == len(pairs), "a pair was kept twice"
    return set(pairs)
