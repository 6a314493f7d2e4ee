"""Exact hyperbolic geometry in curvature -1.

Three coordinate models of (d+1)-dimensional hyperbolic space are supported:

* polar: a point is (r; u) with r the distance to a fixed origin and
  u a unit vector in R^(d+1),
* open ball (Poincare): Euclidean coordinates strictly inside the unit ball,
  metric 4 |dx|^2 / (1 - |x|^2)^2,
* half space: (x, y) with x in R^d and y > 0, metric (|dx|^2 + dy^2) / y^2.

All distances are in absolute hyperbolic units, all angles in radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

UNIT_TOL = 1e-9  # how far from 1 a direction's norm may be (Direction, sampler.PointCloud)


class GeometryError(ValueError):
    pass


def _as_unit(components) -> np.ndarray:
    v = np.asarray(components, dtype=float)
    if v.ndim != 1:
        raise GeometryError("direction must be a 1-d vector")
    # the bits of np.linalg.norm, which is sqrt(dot(v, v)) for a 1-d float vector
    n = math.sqrt(float(v @ v))
    if abs(n - 1.0) > UNIT_TOL:
        raise GeometryError(f"direction norm {n} is not 1")
    # renormalize the last few ulps so stored directions are unit to 1e-12
    return v / n


@dataclass(frozen=True, eq=False)
class Direction:
    """Unit vector in R^(d+1); the direction part of polar coordinates."""

    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _as_unit(self.components))

    def angle_to(self, other: "Direction") -> float:
        return angle_between(self.components, other.components)


def basis_direction(ambient_dim: int, axis: int = 0) -> Direction:
    v = np.zeros(ambient_dim)
    v[axis] = 1.0
    return Direction(v)


@dataclass(frozen=True, eq=False)
class PolarPoint:
    """Point (r; u): hyperbolic distance r >= 0 from the origin, direction u."""

    r: float
    u: Direction

    def __post_init__(self):
        if not self.r >= 0:
            raise GeometryError(f"radius {self.r} must be >= 0")


def polar(r: float, components) -> PolarPoint:
    return PolarPoint(float(r), Direction(components))


def origin_point(ambient_dim: int) -> PolarPoint:
    # radius-0 direction is a convention only; never used in angle terms
    return PolarPoint(0.0, basis_direction(ambient_dim))


@dataclass(frozen=True, eq=False)
class BallPoint:
    """Point of the open unit ball model."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if np.linalg.norm(c) >= 1.0:
            raise GeometryError("ball point must lie strictly inside the unit ball")
        object.__setattr__(self, "coords", c)


@dataclass(frozen=True, eq=False)
class HalfPoint:
    """Point (x, y) of the half-space model; x is the abscissa, y > 0 the ordinate."""

    x: np.ndarray
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))
        if not self.y > 0:
            raise GeometryError(f"ordinate {self.y} must be > 0")


@dataclass(frozen=True, eq=False)
class Cone:
    """Cone of apex at the origin: directions within `aperture` of `apex_direction`."""

    apex_direction: Direction
    aperture: float

    def __post_init__(self):
        if not self.aperture >= 0:
            raise GeometryError("aperture must be >= 0")

    def contains(self, z: PolarPoint) -> bool:
        if self.aperture >= math.pi:
            return True
        return self.apex_direction.angle_to(z.u) <= self.aperture


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


def angle_between(u1: np.ndarray, u2: np.ndarray) -> float:
    """Angle in [0, pi] between unit vectors, stable near 0 and pi."""
    d2 = float(np.dot(u1 - u2, u1 - u2))
    if d2 <= 2.0:
        return 2.0 * math.asin(0.5 * math.sqrt(d2))
    s2 = float(np.dot(u1 + u2, u1 + u2))
    return math.pi - 2.0 * math.asin(0.5 * math.sqrt(s2))


def angle_between_arrays(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Rowwise angle_between for (n, k) arrays of unit vectors."""
    d2 = np.sum((u1 - u2) ** 2, axis=-1)
    near = 2.0 * np.arcsin(0.5 * np.sqrt(np.minimum(d2, 4.0)))
    s2 = np.sum((u1 + u2) ** 2, axis=-1)
    far = math.pi - 2.0 * np.arcsin(0.5 * np.sqrt(np.minimum(s2, 4.0)))
    return np.where(d2 <= 2.0, near, far)


def dist_polar(z1: PolarPoint, z2: PolarPoint) -> float:
    """Hyperbolic distance from the law of cosines in polar coordinates.

    Takes cosh d - 1 = 2 sinh^2((r1-r2)/2) + (1 - <u1,u2>) sinh r1 sinh r2,
    without cancellation, with 1 - <u1,u2> = |u1-u2|^2 / 2 for unit vectors.
    """
    du2 = np.sum((z1.u.components - z2.u.components) ** 2, axis=-1)
    excess = 2.0 * np.sinh((z1.r - z2.r) / 2.0) ** 2 + 0.5 * du2 * np.sinh(z1.r) * np.sinh(z2.r)
    return float(stable_arccosh1p(excess))


def dist_half(z1: HalfPoint, z2: HalfPoint) -> float:
    """Half-space distance 2 atanh sqrt((k^2+(v-1)^2)/(k^2+(v+1)^2)).

    Evaluated through the equivalent cosh form, cosh d - 1 =
    (|x1-x2|^2 + (y1-y2)^2) / (2 y1 y2), which is exact for identical points
    and keeps precision when k, v-1 are tiny.
    """
    dx2 = np.sum((z1.x - z2.x) ** 2, axis=-1)
    return float(stable_arccosh1p((dx2 + (z1.y - z2.y) ** 2) / (2.0 * z1.y * z2.y)))


def dist_ball(b1: BallPoint, b2: BallPoint) -> float:
    c1, c2 = b1.coords, b2.coords
    n1 = np.sum(c1**2, axis=-1)
    n2 = np.sum(c2**2, axis=-1)
    d2 = np.sum((c1 - c2) ** 2, axis=-1)
    return float(stable_arccosh1p(2.0 * d2 / ((1.0 - n1) * (1.0 - n2))))


def apex_angle_arrays(h: float, xnorm, y):
    """Angle at O(h) = (0, e^h) between a half-space point and the ideal point (0,0).

    atan2 resolves the [0, pi] branch of arctan|2 x e^h / (e^2h - |x|^2 - y^2)|:
    the denominator changes sign exactly when the angle passes pi/2.
    """
    eh = math.exp(h)
    return np.arctan2(2.0 * np.abs(xnorm) * eh, eh * eh - np.asarray(xnorm) ** 2 - np.asarray(y) ** 2)


def angle_from_apex(h: float, z: HalfPoint) -> float:
    """Angle between z and the ideal point I_inf as seen from O(h) = (0, e^h).

    Requires y <= e^h with z distinct from the apex; the formula is singular
    only at O(h) itself. For d > 1 the computation happens in the totally
    geodesic plane through I_inf, z, O(h), i.e. with x replaced by |x|.
    """
    xnorm = float(np.linalg.norm(z.x))
    if z.y > math.exp(h) or (z.y == math.exp(h) and xnorm == 0.0):
        raise GeometryError(f"angle formula requires y <= e^h away from the apex (y={z.y})")
    return float(apex_angle_arrays(h, xnorm, z.y))


# ---------------------------------------------------------------------------
# model conversions


def half_to_ball(z: HalfPoint, h: float = 0.0) -> BallPoint:
    """Isometry H -> I sending O(h) = (0, e^h) to the ball center.

    Componentwise generalization of
    (x, y) -> (x^2 + y^2 - e^2h, -2 x e^h) / (|x|^2 + (y + e^h)^2).
    """
    eh = math.exp(h)
    xn2 = float(np.dot(z.x, z.x))
    denom = xn2 + (z.y + eh) ** 2
    first = (xn2 + z.y * z.y - eh * eh) / denom
    rest = (-2.0 * eh / denom) * z.x
    return BallPoint(np.concatenate(([first], rest)))


def polar_to_ball(z: PolarPoint) -> BallPoint:
    """Radial map: Euclidean radius tanh(r/2), same direction."""
    return BallPoint(math.tanh(z.r / 2.0) * z.u.components)


def ball_to_polar(b: BallPoint) -> PolarPoint:
    # scale by the largest coordinate first: squared tiny coordinates, and the
    # norm of subnormal ones, lose the digits that fix the direction
    m = float(np.max(np.abs(b.coords)))
    if m == 0.0:
        return origin_point(b.coords.shape[0])
    s = b.coords / m
    n = math.hypot(*s)
    return PolarPoint(2.0 * math.atanh(m * n), Direction(s / n))


def half_to_polar(z: HalfPoint, h: float = 0.0) -> PolarPoint:
    """Polar coordinates around O(h) through the ball model."""
    return ball_to_polar(half_to_ball(z, h))


# ---------------------------------------------------------------------------
# star paths


def slerp(u1: np.ndarray, u2: np.ndarray, theta: float, frac: float) -> np.ndarray:
    """Point at angle frac*theta from u1 on the great circle toward u2."""
    if theta < 1e-14:
        return np.asarray(u1, dtype=float)
    st = math.sin(theta)
    return (math.sin((1.0 - frac) * theta) * np.asarray(u1) + math.sin(frac * theta) * np.asarray(u2)) / st


def star_psi_arrays(r1, r2, theta, t):
    """Angle from u1 of the star-path point at parameter t.

    psi = arccos(((1-t) sinh r1 + t cos(theta) sinh r2) / sinh((1-t) r1 + t r2)),
    with the argument clamped to [-1, 1]: rounding can push it past 1, and the
    clamped region is exactly where the path runs radially.
    """
    rho = (1.0 - np.asarray(t)) * r1 + np.asarray(t) * r2
    sr = np.sinh(rho)
    num = (1.0 - np.asarray(t)) * np.sinh(r1) + np.asarray(t) * np.cos(theta) * np.sinh(r2)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(sr > 0, num / np.where(sr > 0, sr, 1.0), 1.0)
    return np.arccos(np.clip(a, -1.0, 1.0))


@dataclass(frozen=True, eq=False)
class StarPath:
    """The edge curve [z1, z2]*: radius affine in t, direction slerped through phi.

    Monotone both in distance to the origin and in distance to z1. When one
    endpoint is the origin (r = 0) or theta = 0 the path degenerates to the
    radial segment with the direction of z1.
    """

    z1: PolarPoint
    z2: PolarPoint
    theta: float = field(init=False)

    def __post_init__(self):
        if self.z1.r == 0.0 or self.z2.r == 0.0:
            th = 0.0
        else:
            th = angle_between(self.z1.u.components, self.z2.u.components)
        if th >= math.pi - 1e-12:
            raise GeometryError("antipodal endpoints: origin lies on the segment")
        object.__setattr__(self, "theta", th)


def star_eval(p: StarPath, t: float) -> PolarPoint:
    if not 0.0 <= t <= 1.0:
        raise GeometryError(f"parameter t={t} outside [0, 1]")
    r1, r2 = p.z1.r, p.z2.r
    rho = (1.0 - t) * r1 + t * r2
    if rho == 0.0:
        return origin_point(p.z1.u.components.shape[0])
    if p.theta < 1e-14:
        base = p.z1 if p.z1.r > 0 else p.z2
        return PolarPoint(rho, base.u)
    psi = float(star_psi_arrays(r1, r2, p.theta, t))
    return PolarPoint(rho, Direction(slerp(p.z1.u.components, p.z2.u.components, p.theta, psi / p.theta)))


def star_sphere_crossing(p: StarPath, r: float) -> float:
    """Parameter t with radius((1-t)r1 + t r2) = r; the radius law is affine."""
    r1, r2 = p.z1.r, p.z2.r
    lo, hi = min(r1, r2), max(r1, r2)
    if not lo <= r <= hi:
        raise GeometryError(f"radius {r} outside edge range [{lo}, {hi}]")
    if r1 == r2:
        return 0.0
    return (r - r1) / (r2 - r1)


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
# regions and isometries


def bplus_region_test(z: PolarPoint, rho: float, q: PolarPoint) -> bool:
    """Membership in B+(z, rho) = B(z, rho) intersect B(0, d(0,z))."""
    if not rho >= 0:
        raise GeometryError("rho must be >= 0")
    return q.r < z.r and dist_polar(z, q) <= rho


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
