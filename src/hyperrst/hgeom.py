"""Exact hyperbolic geometry in curvature -1.

Three coordinate models of (d+1)-dimensional hyperbolic space appear:

* polar: a point is (r; u) with r the distance to a fixed origin and
  u a unit vector in R^(d+1); the radial trees' metric is polar_pair_dist,
* open ball (Poincare): Euclidean coordinates strictly inside the unit ball,
  metric 4 |dx|^2 / (1 - |x|^2)^2; the chart of the radial trees' search
  and of render,
* half space: (x, y) with x in R^d and y > 0, metric (|dx|^2 + dy^2) / y^2;
  the DSF's and RST(h)'s metric is half_pair_dist.

Each model's metric is written once, here; tests/oracles.py holds the
isometries between the models and the ball distance that check them.
The star paths [z1, z2]* of the radial trees' edges are evaluated here too,
on arrays of rows only (star_path_arrays): the level crossings and the
rendered polylines are rows of it. All distances are in absolute hyperbolic
units, all angles in radians.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_TOL = 1e-9  # how far from 1 a direction's norm may be (sampler.PointCloud)


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# distances and angles


def stable_arccosh1p(s):
    """arccosh(1 + s) for s >= 0 as log1p(s + sqrt(s^2 + 2s)).

    Raw arccosh loses all digits when the argument is near 1; feeding the
    cancellation-free excess s keeps full relative accuracy for nearby points.
    """
    s = np.maximum(s, 0.0)
    return np.log1p(s + np.sqrt(s * (s + 2.0)))


def row_sumsq(a: np.ndarray) -> np.ndarray:
    """np.sum(a * a, axis=1) of an (n, m) array, with its bits.

    Below 8 columns numpy sums the squares left to right, and so does the
    column loop here, about 5x faster; from 8 columns on numpy switches to
    pairwise sums, and its own call is kept. np.linalg.norm(a, axis=1) is
    the square root of the same sum.
    """
    if a.shape[1] >= 8:
        return np.sum(a * a, axis=1)
    out = a[:, 0] * a[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * a[:, j]
    return out


def argsort_distinct(key: np.ndarray, *ties: np.ndarray) -> np.ndarray:
    """The permutation that sorts key, ties by ties[0], then ties[1], ...:
    the one np.lexsort((..., ties[1], ties[0], key)) gives.

    Values that strictly increase once sorted have one sorting permutation,
    so one np.argsort of key returns it bit for bit. Any repeat, -0.0
    beside 0.0, or NaN fails the strict test and takes np.lexsort, which
    is stable, so with no ties it is np.argsort(key, kind="stable").
    np.argsort's default kind is numpy's fastest (a SIMD quicksort on x86);
    np.lexsort and the stable sorts are several times slower.
    """
    order = np.argsort(key)
    s = key[order]
    if np.all(s[1:] > s[:-1]):
        return order
    return np.lexsort(ties[::-1] + (key,))


def angle_between_arrays(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Angle in [0, pi] between the rows of (n, k) arrays of unit vectors,
    stable near 0 and pi."""
    d2 = np.sum((u1 - u2) ** 2, axis=-1)
    near = 2.0 * np.arcsin(0.5 * np.sqrt(np.minimum(d2, 4.0)))
    s2 = np.sum((u1 + u2) ** 2, axis=-1)
    far = math.pi - 2.0 * np.arcsin(0.5 * np.sqrt(np.minimum(s2, 4.0)))
    return np.where(d2 <= 2.0, near, far)


def polar_pair_dist(radii, dirs):
    """pair_dist(i, j): distances between polar points (radii[i]; dirs[i])
    and (radii[j]; dirs[j]), index arrays broadcast.

    Law of cosines without cancellation: cosh d - 1 = 2 sinh^2((r1-r2)/2)
    + (1 - <u1,u2>) sinh r1 sinh r2, with 1 - <u1,u2> = |u1-u2|^2 / 2 for
    unit vectors. Columns are summed one at a time, in order, so that a pair
    gets the same bits in the k-d search, in `rst.validate` and in the test
    oracles.
    """
    cols = np.ascontiguousarray(dirs.T)
    sh = np.sinh(radii)

    def pair_dist(i, j):
        # direction term from the difference vector: 2 - 2<u,u'> cancels badly
        du2 = sum((c[j] - c[i]) ** 2 for c in cols)
        s = 2.0 * np.sinh((radii[i] - radii[j]) / 2.0) ** 2 + 0.5 * du2 * sh[i] * sh[j]
        return stable_arccosh1p(s)

    return pair_dist


def half_pair_dist(x, y):
    """pair_dist(i, j): distances between half-space points (x[i], y[i]) and
    (x[j], y[j]), index arrays broadcast.

    The cosh form of 2 atanh sqrt((k^2+(v-1)^2)/(k^2+(v+1)^2)):
    cosh d - 1 = (|x1-x2|^2 + (y1-y2)^2) / (2 y1 y2), exact for identical
    points. Columns are summed one at a time, in order, so that a pair gets
    the same bits in the k-d search and in the block scan.
    """
    cols = np.ascontiguousarray(np.column_stack([x, y]).T)

    def pair_dist(i, j):
        sq = sum((c[j] - c[i]) ** 2 for c in cols)
        return stable_arccosh1p(sq / (2.0 * y[j] * y[i]))

    return pair_dist


def apex_angle_arrays(h: float, xnorm, y):
    """Angle at O(h) = (0, e^h) between a half-space point and the ideal point (0,0).

    atan2 resolves the [0, pi] branch of arctan|2 x e^h / (e^2h - |x|^2 - y^2)|:
    the denominator changes sign exactly when the angle passes pi/2.
    """
    eh = math.exp(h)
    return np.arctan2(2.0 * np.abs(xnorm) * eh, eh * eh - np.asarray(xnorm) ** 2 - np.asarray(y) ** 2)


# ---------------------------------------------------------------------------
# star paths


def star_psi_arrays(r1, r2, theta, t):
    """Angle from u1 of the star-path points at parameters t, row by row.

    psi = arccos(((1-t) sinh r1 + t cos(theta) sinh r2) / sinh((1-t) r1 + t r2)),
    with the argument clamped to [-1, 1]: rounding can push it past 1, and the
    clamped region is exactly where the path runs radially. A row with
    theta <= 1e-14, an edge to the origin among them, runs radially: psi 0.
    """
    psi = np.zeros(t.shape)
    pos = theta > 1e-14
    r1, r2, theta, t = r1[pos], r2[pos], theta[pos], t[pos]
    rho = (1.0 - t) * r1 + t * r2
    sr = np.sinh(rho)
    num = (1.0 - t) * np.sinh(r1) + t * np.cos(theta) * np.sinh(r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(sr > 0, num / np.where(sr > 0, sr, 1.0), 1.0)
    psi[pos] = np.arccos(np.clip(a, -1.0, 1.0))
    return psi


def star_path_arrays(r1, r2, theta, u1, u2, t):
    """(rho, psi, dirs): the points at parameters t on the star paths
    [(r1; u1), (r2; u2)]*, row by row, with theta the angle between u1 and u2.

    The radius rho is affine in t. The direction lies at the angle psi
    (star_psi_arrays) from u1 on the great circle toward u2; a row that
    runs radially keeps u1, and its row of u2 is not used.
    """
    rho = (1.0 - t) * r1 + t * r2
    psi = star_psi_arrays(r1, r2, theta, t)
    dirs = np.array(u1, dtype=float)
    pos = theta > 1e-14
    th = theta[pos]
    frac = psi[pos] / th
    dirs[pos] = (
        np.sin((1.0 - frac) * th)[:, None] * dirs[pos] + np.sin(frac * th)[:, None] * u2[pos]
    ) / np.sin(th)[:, None]
    return rho, psi, dirs


# ---------------------------------------------------------------------------
# volumes


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (dqk21): the abscissae
# xgk >= 0 of its symmetric pairs and their Kronrod weights wgk, the centre last
_K21_NODES = np.array(
    [
        0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
        0.0,
    ]
)
_K21_WEIGHTS = np.array(
    [
        0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821,
    ]
)
# the weights wg of the embedded 10-point Gauss rule, at _K21_NODES[1, 3, 5, 7, 9]
_G10_WEIGHTS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# dqk21 adds the symmetric pairs at the Gauss abscissae first, then the rest
_K21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
# scipy's quad defaults for epsabs and epsrel
_QUAD_TOL = 1.49e-8


def kronrod21(f, a, b):
    """QUADPACK's dqk21 on each interval [a[i], b[i]]: (result, abserr, resasc).

    a and b are 1-d sequences of interval ends. f maps a 1-d array of
    abscissae to the integrand's values there, one element at a time.
    dqk21's constants and order of operations give `result` the bits of its
    estimate; `abserr` is its error estimate and `resasc` its integral of
    |f - mean|, the two terms of QUADPACK's acceptance test.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    absc = _K21_NODES[:10, None] * hlgth
    n = centr.shape[0]
    fx = f(np.concatenate((centr, (centr - absc).ravel(), (centr + absc).ravel())))
    fc, fv1, fv2 = fx[:n], fx[n : 11 * n].reshape(10, n), fx[11 * n :].reshape(10, n)
    resg = np.zeros(n)
    resk = _K21_WEIGHTS[10] * fc
    resabs = np.abs(resk)
    for j in _K21_ORDER:
        fsum = fv1[j] + fv2[j]
        if j % 2:
            resg = resg + _G10_WEIGHTS[j // 2] * fsum
        resk = resk + _K21_WEIGHTS[j] * fsum
        resabs = resabs + _K21_WEIGHTS[j] * (np.abs(fv1[j]) + np.abs(fv2[j]))
    reskh = resk * 0.5
    resasc = _K21_WEIGHTS[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _K21_WEIGHTS[j] * (np.abs(fv1[j] - reskh) + np.abs(fv2[j] - reskh))
    dhlgth = np.abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = np.abs((resk - resg) * hlgth)
    scale = (resasc != 0.0) & (abserr != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * abserr / resasc) ** 1.5)
    abserr = np.where(scale, scaled, abserr)
    floor = resabs > _UFLOW / (50.0 * _EPMACH)
    abserr = np.where(floor, np.maximum(50.0 * _EPMACH * resabs, abserr), abserr)
    return result, abserr, resasc


def _integral_from_0(g, b: float) -> float:
    """integral_0^b g(s) ds with the bits of scipy's quad(g, 0, b, limit=200).

    quad returns dqk21's one-interval estimate when QUADPACK's dqagse accepts
    it: abserr <= max(epsabs, epsrel |result|) and abserr != resasc. Here
    both halves must hold with a factor of 2 to spare, so that rounding in
    this copy of the error estimate cannot accept what dqagse would refine.
    dqk21 never makes abserr larger than resasc except through its
    50 eps |f| floor, so abserr <= resasc / 2 implies abserr != resasc. Any
    other case goes to quad itself, imported here to keep scipy.integrate
    off the import path.
    """
    res, err, resasc = (
        float(v[0]) for v in kronrod21(lambda x: np.fromiter(map(g, x.tolist()), float, x.size), [0.0], [b])
    )
    if 2.0 * err <= max(_QUAD_TOL, _QUAD_TOL * abs(res)) and 2.0 * err <= resasc:
        return res
    from scipy.integrate import quad

    return quad(g, 0.0, b, limit=200)[0]


def sphere_surface(d: int) -> float:
    """d-dimensional volume of the unit sphere S^d in R^(d+1)."""
    return 2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0)


def ball_volume(d: int, r: float) -> float:
    """Volume of a hyperbolic ball: S_d * integral_0^r sinh(s)^d ds.

    Closed form 2 pi (cosh r - 1) for d = 1. For d >= 2 the integral has
    the bits of scipy's quad(limit=200): one 21-point Gauss-Kronrod pass
    where QUADPACK's acceptance test passes (d=2 up to r of about 8.6,
    d=3 to 5.7, d=4 to 4.3), quad itself, imported lazily, beyond.
    Grows like e^(d r).
    """
    if d < 1:
        raise GeometryError("dimension d must be >= 1")
    if not r >= 0:
        raise GeometryError("radius must be >= 0")
    if r == 0.0:
        return 0.0
    if d == 1:
        return 2.0 * math.pi * (math.cosh(r) - 1.0)
    return sphere_surface(d) * _integral_from_0(lambda s: math.sinh(s) ** d, r)


def shell_volume(d: int, r_lo: float, r_hi: float) -> float:
    return ball_volume(d, r_hi) - ball_volume(d, r_lo)


def sphere_cap(d: int, theta: float) -> float:
    """nu-measure on S^d of a cap of angular radius theta (2*theta for d = 1).

    For d >= 2, S_(d-1) * integral_0^theta sin(t)^(d-1) dt with the bits of
    scipy's quad(limit=200), as in `ball_volume`: one 21-point
    Gauss-Kronrod pass where QUADPACK accepts it, quad itself otherwise.
    """
    if math.isnan(theta):
        raise GeometryError("theta must not be NaN")
    theta = min(max(theta, 0.0), math.pi)
    if d == 1:
        return 2.0 * theta
    return sphere_surface(d - 1) * _integral_from_0(lambda t: math.sin(t) ** (d - 1), theta)


def cone_shell_volume(d: int, theta: float, r_lo: float, r_hi: float) -> float:
    """Volume of Cone(u, theta) intersected with the shell B(r_hi) \\ B(r_lo)."""
    return sphere_cap(d, theta) * shell_volume(d, r_lo, r_hi) / sphere_surface(d)


# ---------------------------------------------------------------------------
# isometries


def boost_from_origin(r: float, u: np.ndarray, radii, dirs):
    """Isometry taking the origin to (r; u), applied to points (radii[i]; dirs[i]).

    Hyperboloid-model boost: a point at radius s, direction v embeds as
    (cosh s, sinh s * v) and is mapped with rapidity r along the axis u.
    Returns (new_radii, new_dirs).
    """
    radii = np.asarray(radii, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    t = np.cosh(radii)
    x = np.sinh(radii)[:, None] * dirs
    xu = x @ u
    t2 = math.cosh(r) * t + math.sinh(r) * xu
    x2 = x + np.outer((math.cosh(r) - 1.0) * xu + math.sinh(r) * t, u)
    new_r = stable_arccosh1p(t2 - 1.0)
    norms = np.linalg.norm(x2, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    new_dirs = x2 / safe[:, None]
    zero = norms == 0
    if np.any(zero):
        new_dirs[zero] = 0.0
        new_dirs[zero, 0] = 1.0
    return new_r, new_dirs
