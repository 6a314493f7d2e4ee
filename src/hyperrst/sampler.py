"""Homogeneous Poisson point processes in hyperbolic balls and half-space windows.

All randomness flows through counter-based Philox streams keyed by
(seed, replica, role), so replicas are independent and every sample is
reproducible without coordination.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

from . import hgeom
from .hgeom import GeometryError, PolarPoint

RADIAL_KNOTS = 4096
# Newton stops once no draw of the batch moves by this much
NEWTON_TOL = 1e-13
# PointCloud keeps a direction's bits when its norm is within this of 1
_UNIT_ULPS = 4 * np.finfo(float).eps


def stream(seed: int, replica: int = 0, role: str = "points") -> np.random.Generator:
    """Independent reproducible generator for (seed, replica, role)."""
    role_key = int.from_bytes(hashlib.blake2s(role.encode(), digest_size=4).digest(), "big")
    seq = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=(int(replica), role_key))
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class CloudConfig:
    """Ball window for the radial tree: dimension d, intensity lam, radius R."""

    d: int
    lam: float
    R: float
    seed: int

    def __post_init__(self):
        if self.d < 1:
            raise GeometryError("d must be >= 1")
        if not 0 < self.lam < math.inf:
            raise GeometryError("lam must be finite and > 0")
        if not 0 < self.R < math.inf:
            raise GeometryError("R must be finite and > 0")


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Poisson sample in B(R), stored as arrays sorted by increasing radius."""

    config: CloudConfig
    radii: np.ndarray
    dirs: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        u = np.asarray(self.dirs, dtype=float)
        if r.ndim != 1 or u.shape != (r.shape[0], self.config.d + 1):
            raise GeometryError("radii must be (n,), dirs (n, d+1)")
        if not (np.isfinite(r).all() and np.isfinite(u).all()):
            raise GeometryError("radii and dirs must be finite")
        norm = np.sqrt(hgeom.row_sumsq(u))
        off = np.abs(norm - 1.0)
        if np.any(off > hgeom.UNIT_TOL):
            raise GeometryError("dirs must be unit vectors")
        # the searches and validate's scan take |u| = 1: a row off by more
        # than a few ulps (a sampled one is within 1.5) is divided by its norm
        fix = off > _UNIT_ULPS
        if fix.any():
            u = np.where(fix[:, None], u / norm[:, None], u)
        if np.any(np.diff(r) < 0):
            raise GeometryError("radii must be sorted increasingly")
        if r.shape[0] and not (r[0] > 0 and r[-1] <= self.config.R):
            raise GeometryError("radii must lie in (0, R]")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "dirs", u)

    def __len__(self) -> int:
        return self.radii.shape[0]

    def point(self, i: int) -> PolarPoint:
        return PolarPoint(float(self.radii[i]), hgeom.Direction(self.dirs[i]))


# Gauss-Legendre nodes/weights on [0, 1], order 5: exact to machine precision
# for the sub-knot CDF increments of the smooth sinh^d density
_GL_NODES = np.array(
    [0.04691007703066800, 0.23076534494715845, 0.5, 0.76923465505284155, 0.95308992296933200]
)
_GL_WEIGHTS = np.array(
    [0.11846344252809454, 0.23931433524968324, 0.28444444444444444, 0.23931433524968324, 0.11846344252809454]
)


def _knot_integrals(d: int, knots: np.ndarray) -> np.ndarray:
    """Integral of sinh(s)^d over each knot interval, as scipy's quad gives it.

    On intervals this short QUADPACK's qagse accepts its first 21-point
    Gauss-Kronrod estimate, so one pass of `hgeom.kronrod21` over all
    intervals has quad's bits. The integrand stays math.sinh(s) ** d (libm
    sinh and pow): numpy's vectorized sinh and its square differ from them
    in the last bit on some nodes.
    """

    def f(s):
        return np.fromiter(map(pow, map(math.sinh, s.tolist()), repeat(float(d))), float, s.size)

    return hgeom.kronrod21(f, knots[:-1], knots[1:])[0]


class RadialLaw:
    """The sinh^d radial law on (0, R] for d >= 2: its CDF, density and inverse.

    CDF knot values on RADIAL_KNOTS knots come from one Gauss-Kronrod pass
    (`_knot_integrals`); between knots the CDF is completed with a local
    Gauss rule, and Newton iteration with a bisection guard inverts it to
    better than 1e-10.
    """

    def __init__(self, d: int, R: float):
        self.d = d
        self.R = R
        self.knots = np.linspace(0.0, R, RADIAL_KNOTS)
        self.step = self.knots[1] - self.knots[0]
        cdf_vals = np.cumsum(np.concatenate(([0.0], _knot_integrals(d, self.knots))))
        self.total = cdf_vals[-1]
        self.cdf_vals = cdf_vals / self.total
        # one law is shared by every caller through `radial_law`
        self.knots.setflags(write=False)
        self.cdf_vals.setflags(write=False)

    def cdf(self, r):
        r = np.asarray(r, dtype=float)
        k = np.clip((r // self.step).astype(int), 0, RADIAL_KNOTS - 2)
        base = self.knots[k]
        span = r - base
        local = (np.sinh(base[:, None] + span[:, None] * _GL_NODES) ** self.d) @ _GL_WEIGHTS
        return self.cdf_vals[k] + span * local / self.total

    def pdf(self, r):
        return np.sinh(r) ** self.d / self.total

    def invert(self, targets: np.ndarray) -> np.ndarray:
        """Radii with CDF equal to targets. The loop stops when the largest
        step of the whole batch is below NEWTON_TOL, so a draw's bits depend
        on the batch it is inverted in. A target of 0 has radius 0 and stays
        out of the batch: pdf(0) = 0 would stall Newton there.

        cdf's `@ _GL_WEIGHTS` goes to BLAS (a gemv), and a row's bits
        can depend on the batch it sits in: cdf over one-row batches differs
        in the last bit from one batch of the same rows on 36 of 30,000 radii
        (d=2, R=4). So an active-set or chunked Newton would change radii."""
        targets = np.asarray(targets, dtype=float)
        live = targets != 0.0
        radii = np.zeros_like(targets)
        targets = targets[live]
        r = np.interp(targets, self.cdf_vals, self.knots)
        lo = np.zeros_like(r)
        hi = np.full_like(r, self.R)
        for _ in range(100):
            f = self.cdf(r) - targets
            hi = np.where(f > 0, r, hi)
            lo = np.where(f <= 0, r, lo)
            dp = self.pdf(r)
            with np.errstate(divide="ignore", invalid="ignore"):
                r_new = r - np.where(dp > 0, f / np.where(dp > 0, dp, 1.0), 0.0)
            bad = (r_new <= lo) | (r_new >= hi) | ~np.isfinite(r_new)
            r_new = np.where(bad, 0.5 * (lo + hi), r_new)
            if np.max(np.abs(r_new - r), initial=0.0) < NEWTON_TOL:
                r = r_new
                break
            r = r_new
        radii[live] = r
        return radii


@lru_cache(maxsize=32)
def radial_law(d: int, R: float) -> RadialLaw:
    """The tabulated sinh^d radial law on (0, R], built once per (d, R)."""
    return RadialLaw(d, R)


def _uniform_directions(rng: np.random.Generator, n: int, ambient: int) -> np.ndarray:
    g = rng.normal(size=(n, ambient))
    norms = np.sqrt(hgeom.row_sumsq(g))
    redo = norms < 1e-12
    while np.any(redo):
        g[redo] = rng.normal(size=(int(redo.sum()), ambient))
        norms = np.sqrt(hgeom.row_sumsq(g))
        redo = norms < 1e-12
    return g / norms[:, None]


def sample_ball(cfg: CloudConfig, replica: int = 0) -> PointCloud:
    """Poisson(lam * Vol(B(R))) points with radial density sinh(r)^d, isotropic."""
    rng = stream(cfg.seed, replica, "ball")
    n = int(rng.poisson(cfg.lam * hgeom.ball_volume(cfg.d, cfg.R)))
    u01 = rng.uniform(size=n)
    if cfg.d == 1:
        radii = np.arccosh(1.0 + u01 * (math.cosh(cfg.R) - 1.0))
    else:
        radii = radial_law(cfg.d, cfg.R).invert(u01)
    dirs = _uniform_directions(rng, n, cfg.d + 1)
    radii = np.minimum(np.maximum(radii, 1e-12), cfg.R)
    order = hgeom.argsort_distinct(radii, *dirs.T)
    return PointCloud(cfg, radii[order], dirs[order])


# ---------------------------------------------------------------------------
# half-space windows


@dataclass(frozen=True)
class HalfWindow:
    """Box window [-L, L]^d x [y_min, y_max] in the half-space model."""

    half_width: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (0 < self.y_min < self.y_max):
            raise GeometryError("need 0 < y_min < y_max")
        if not 0 < self.half_width < math.inf:
            raise GeometryError("half_width must be finite and > 0")


def half_window_volume(d: int, w: HalfWindow) -> float:
    """Hyperbolic volume (2L)^d (y_min^-d - y_max^-d) / d of the box window."""
    return (2.0 * w.half_width) ** d * (w.y_min**-d - w.y_max**-d) / d


def window_margin(w: HalfWindow, x: np.ndarray, y) -> np.ndarray:
    """Hyperbolic distance from interior points to the window boundary.

    Horosphere faces y = const are at distance |ln(y_face / y)|; the vertical
    walls x_i = +-L at arcsinh((L - |x_i|) / y).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float)
    top = np.log(w.y_max / y)
    bottom = np.log(y / w.y_min)
    walls = np.arcsinh((w.half_width - np.abs(x)).min(axis=1) / y)
    return np.minimum(np.minimum(top, bottom), walls)


def sample_half_arrays(lam: float, d: int, w: HalfWindow, seed: int, replica: int = 0):
    """Poisson sample in the window; returns (x (n,d), y (n,)) sorted by ordinate.

    The ordinate marginal has density proportional to y^-(d+1); inversion:
    y = (y_min^-d - U (y_min^-d - y_max^-d))^(-1/d). Abscissae are uniform.
    """
    rng = stream(seed, replica, "half")
    n = int(rng.poisson(lam * half_window_volume(d, w)))
    u01 = rng.uniform(size=n)
    span = w.y_min**-d - w.y_max**-d
    y = (w.y_min**-d - u01 * span) ** (-1.0 / d)
    x = rng.uniform(-w.half_width, w.half_width, size=(n, d))
    order = hgeom.argsort_distinct(y, *x.T)
    return x[order], y[order]


# ---------------------------------------------------------------------------
# serialization


def cloud_to_json(cloud: PointCloud) -> str:
    cfg = cloud.config
    return json.dumps(
        {
            "d": cfg.d,
            "lambda": cfg.lam,
            "R": cfg.R,
            "seed": cfg.seed,
            "points": [
                {"r": float(r), "u": [float(c) for c in u]}
                for r, u in zip(cloud.radii, cloud.dirs)
            ],
        },
        sort_keys=True,
    )


def cloud_to_csv(cloud: PointCloud) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["r"] + [f"u{k}" for k in range(cloud.config.d + 1)])
    for r, u in zip(cloud.radii, cloud.dirs):
        writer.writerow([repr(float(r))] + [repr(float(c)) for c in u])
    return buf.getvalue()
