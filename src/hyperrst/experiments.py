"""Seeded Monte Carlo experiments probing the structural claims at desk scale.

Each experiment is a deterministic function of its configuration: replica
clouds come from counter-based streams keyed by (seed, replica), probe
directions and bootstrap resampling from fixed side streams. Reports carry
per-cell estimates with standard errors and, where an exponent is probed,
an OLS log-slope with a replica-bootstrap confidence interval. `analyze`
runs any set of experiments in one pass over the replicas.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import dsf, hgeom, rst, sampler
from .hgeom import GeometryError
from .sampler import CloudConfig, HalfWindow

N_PROBES = 16
GOOD_PROBES = 8
BOOT_SAMPLES = 800
BPLUS_SAMPLES = 40_000
COUPLING_MARGIN = 1.5
# Expected points in the coupling window above which `coupling` refuses to
# run. The count grows like y_min^-d: 9.6k at the defaults and 104k at d=2,
# lam=2, but 3.4M at d=3, lam=0.3, where the six searches of each replica
# would take minutes and GBs.
COUPLING_MAX_POINTS = 1_000_000
CONFINEMENT_SCALES = (0.5, 1.0, 2.0, 4.0)

DEFAULT_SEED = 20240811


@dataclass(frozen=True)
class ExperimentConfig:
    base: CloudConfig
    replicas: int = 100
    r0_grid: tuple = (1.5, 2.0, 2.5, 3.0, 3.5)
    p: float = 2.0
    A: float = 3.0
    delta: float = 0.3
    theta: float = 0.5
    a: float = 1.0
    h_grid: tuple = (2.0, 4.0, 6.0, 8.0, 10.0)

    def __post_init__(self):
        if self.replicas < 1:
            raise GeometryError("replicas must be >= 1")
        if not self.r0_grid:
            raise GeometryError("r0_grid must be nonempty")
        if any(not 0 < r < self.base.R for r in self.r0_grid):
            raise GeometryError("r0_grid must lie inside (0, R)")
        if not 1 <= self.p < math.inf:
            raise GeometryError("p must be finite and >= 1")
        if not (0 < self.A < math.inf and 0 < self.theta < math.inf):
            raise GeometryError("A and theta must be finite and > 0")
        if not 0 <= self.a < math.inf:
            raise GeometryError("a must be finite and >= 0")
        if not math.isfinite(self.delta):
            raise GeometryError("delta must be finite")
        if any(not 0 <= h < math.inf for h in self.h_grid):
            raise GeometryError("h_grid must be finite and >= 0")


def default_config(seed: int = DEFAULT_SEED, **overrides) -> ExperimentConfig:
    """Desk-scale defaults: d=1, lambda=30, R=5, 100 replicas."""
    base = CloudConfig(d=1, lam=30.0, R=5.0, seed=seed)
    return replace(ExperimentConfig(base=base), **overrides)


@dataclass(frozen=True)
class Cell:
    params: dict
    estimate: float
    stderr: float
    n: int


@dataclass(frozen=True)
class Fit:
    slope: float
    intercept: float
    r2: float
    ci_lo: float
    ci_hi: float


@dataclass(eq=False)
class StatReport:
    experiment: str
    seed: int
    replicas: int
    cells: list
    fit: Fit | None = None
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# shared machinery


@functools.lru_cache(maxsize=128)
def tree_for(base: CloudConfig, replica: int) -> rst.RadialTree:
    """The RST of one replica cloud. `analyze` needs only the last tree; the
    last 128 are kept so that separate `exp_*` calls on one config share them."""
    return rst.build(sampler.sample_ball(base, replica))


def probe_directions(d: int, k: int, seed: int) -> np.ndarray:
    """Deterministic probe directions on S^d; equally spaced for d = 1."""
    if d == 1:
        ang = 2.0 * math.pi * np.arange(k) / k
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    rng = sampler.stream(seed, 0, "probes")
    g = rng.normal(size=(k, d + 1))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def num_workers() -> int:
    """Worker processes for replicas: HYPERRST_THREADS, or 1 when it is unset."""
    env = os.environ.get("HYPERRST_THREADS", "")
    if not env:
        return 1
    try:
        workers = int(env)
    except ValueError:
        workers = 0
    if workers < 1:
        raise GeometryError(f"HYPERRST_THREADS must be an integer >= 1, got {env!r}")
    return workers


def _mean_cells(values: np.ndarray, param_name: str, grid) -> list:
    means = values.mean(axis=0)
    if values.shape[0] > 1:
        ses = values.std(axis=0, ddof=1) / math.sqrt(values.shape[0])
    else:
        ses = np.zeros(values.shape[1])
    return [
        Cell(params={param_name: float(g)}, estimate=float(means[k]), stderr=float(ses[k]), n=values.shape[0])
        for k, g in enumerate(grid)
    ]


def _report(name: str, cfg: ExperimentConfig, values: np.ndarray, param: str, grid, fit: bool,
            extra: dict) -> StatReport:
    """Per-cell means of the replica values, plus a bootstrap log-slope over
    the grid when `fit` is set."""
    return StatReport(
        experiment=name,
        seed=cfg.base.seed,
        replicas=cfg.replicas,
        cells=_mean_cells(values, param, grid),
        fit=bootstrap_fit(values, grid, cfg.base.seed) if fit else None,
        extra=extra,
    )


def ols_loglinear(xs: np.ndarray, means: np.ndarray) -> tuple:
    """OLS of log(means) on xs; returns (slope, intercept, r2)."""
    y = np.log(means)
    xbar, ybar = xs.mean(), y.mean()
    sxx = np.sum((xs - xbar) ** 2)
    slope = float(np.sum((xs - xbar) * (y - ybar)) / sxx)
    intercept = float(ybar - slope * xbar)
    resid = y - (intercept + slope * xs)
    sstot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / sstot if sstot > 0 else 1.0
    return slope, intercept, r2


def bootstrap_fit(values: np.ndarray, xs, seed: int) -> Fit | None:
    """Point OLS log-slope plus a replica-bootstrap percentile CI."""
    xs = np.asarray(xs, dtype=float)
    means = values.mean(axis=0)
    if np.any(means <= 0):
        return None
    slope, intercept, r2 = ols_loglinear(xs, means)
    reps = values.shape[0]
    rng = sampler.stream(seed, 0, "bootstrap")
    idx = rng.integers(0, reps, size=(BOOT_SAMPLES, reps))
    boot_means = values[idx].mean(axis=1)  # (B, cells)
    boot_means = np.maximum(boot_means, 1e-300)
    y = np.log(boot_means)
    xc = xs - xs.mean()
    slopes = (y @ xc) / np.sum(xc**2)
    lo, hi = np.percentile(slopes, [2.5, 97.5])
    return Fit(slope=slope, intercept=intercept, r2=r2, ci_lo=float(lo), ci_hi=float(hi))


def r_prime(cfg: ExperimentConfig) -> float:
    """Finite-window surrogate for 'level infinity': all MBDs are cut at
    R - 0.5, where descendant sets are still exact."""
    return cfg.base.R - 0.5


def _ball_sums(sweep: rst.LevelSweep, probes: np.ndarray, aperture: float, p: float) -> float:
    """Mean over probes of sum of MBD^p over crossings within the angular ball."""
    if sweep.children.size == 0:
        return 0.0
    cosap = math.cos(min(aperture, math.pi))
    member = sweep.cross_dirs @ probes.T >= cosap  # (m, k)
    return float(np.sum((sweep.mbd**p)[:, None] * member) / probes.shape[0])


# ---------------------------------------------------------------------------
# experiments


def _rep_straightness(cfg: ExperimentConfig, replica: int) -> np.ndarray:
    tree = tree_for(cfg.base, replica)
    rp = r_prime(cfg)
    out = []
    for r0 in cfg.r0_grid:
        sweep = rst.deviation_sweep(tree, r0, rp)
        out.append(float(sweep.mbd.max()) if sweep.mbd.size else 0.0)
    return np.array(out)


def _summary_straightness(cfg: ExperimentConfig, values: np.ndarray) -> StatReport:
    return _report("straightness", cfg, values, "r0", cfg.r0_grid, True, {"r_prime": r_prime(cfg)})


def _rep_mbd_moment(cfg: ExperimentConfig, replica: int) -> np.ndarray:
    tree = tree_for(cfg.base, replica)
    rp = r_prime(cfg)
    probes = probe_directions(cfg.base.d, N_PROBES, cfg.base.seed)
    out = []
    for r0 in cfg.r0_grid:
        sweep = rst.deviation_sweep(tree, r0, rp)
        out.append(_ball_sums(sweep, probes, cfg.A * math.exp(-r0), cfg.p))
    return np.array(out)


def _summary_mbd_moment(cfg: ExperimentConfig, values: np.ndarray) -> StatReport:
    extra = {"p": cfg.p, "A": cfg.A, "r_prime": r_prime(cfg)}
    return _report("mbd_moment", cfg, values, "r0", cfg.r0_grid, True, extra)


def _rep_annulus(cfg: ExperimentConfig, replica: int) -> np.ndarray:
    tree = tree_for(cfg.base, replica)
    probes = probe_directions(cfg.base.d, N_PROBES, cfg.base.seed)
    out = []
    for r0 in cfg.r0_grid:
        sweep = rst.deviation_sweep(tree, r0, r0 + cfg.delta)
        out.append(_ball_sums(sweep, probes, cfg.theta, cfg.p))
    return np.array(out)


def _summary_annulus(cfg: ExperimentConfig, values: np.ndarray) -> StatReport:
    extra = {"p": cfg.p, "delta": cfg.delta, "theta": cfg.theta}
    return _report("annulus", cfg, values, "r", cfg.r0_grid, True, extra)


def good_point_grid(cfg: ExperimentConfig) -> list:
    """(A, delta) cells spanning informative void probabilities."""
    return [
        (a_, d_)
        for a_ in (cfg.A / 4.0, cfg.A / 2.0, cfg.A)
        for d_ in (cfg.delta / 10.0, cfg.delta / 3.0)
    ]


def good_point_benchmark(cfg: ExperimentConfig, r0: float, a_: float, d_: float) -> float:
    """Poisson void probability e^{-lam V1} (1 - e^{-lam V2}); the regions are
    disjoint so the product form is exact."""
    d = cfg.base.d
    lam = cfg.base.lam
    v1 = hgeom.cone_shell_volume(d, min(3.0 * a_ * math.exp(-r0), math.pi), r0, r0 + d_)
    v2 = hgeom.cone_shell_volume(d, min(a_ * math.exp(-r0), math.pi), r0 - 1.0, r0)
    return math.exp(-lam * v1) * (1.0 - math.exp(-lam * v2))


def _rep_good_points(cfg: ExperimentConfig, replica: int) -> np.ndarray:
    cloud = sampler.sample_ball(cfg.base, replica)
    r0 = float(np.median(cfg.r0_grid))
    probes = probe_directions(cfg.base.d, GOOD_PROBES, cfg.base.seed)
    dots = cloud.dirs @ probes.T

    def shell(lo, hi):
        """The rows of dots with lo <= radius < hi, the radii being sorted."""
        a, b = np.searchsorted(cloud.radii, (lo, hi))
        return dots[a:b]

    inner = shell(r0 - 1.0, r0)
    out = []
    for a_, d_ in good_point_grid(cfg):
        cos1 = math.cos(min(3.0 * a_ * math.exp(-r0), math.pi))
        cos2 = math.cos(min(a_ * math.exp(-r0), math.pi))
        occupied1 = np.any(shell(r0, r0 + d_) >= cos1, axis=0)
        occupied2 = np.any(inner >= cos2, axis=0)
        good = ~occupied1 & occupied2
        out.append(float(good.mean()))
    return np.array(out)


def _summary_good_points(cfg: ExperimentConfig, values: np.ndarray) -> StatReport:
    r0 = float(np.median(cfg.r0_grid))
    grid = good_point_grid(cfg)
    report = _report("good_points", cfg, values, "A", [a_ for a_, _ in grid], False, {"r0": r0})
    for k, (cell, (a_, d_)) in enumerate(zip(report.cells, grid)):
        bench = good_point_benchmark(cfg, r0, a_, d_)
        se = max(cell.stderr, math.sqrt(bench * (1.0 - bench) / cfg.replicas))
        z = abs(cell.estimate - bench) / se if se > 0 else (0.0 if cell.estimate == bench else math.inf)
        params = {"A": a_, "delta": d_, "benchmark": bench, "z": z}
        report.cells[k] = replace(cell, params=params, stderr=se)
    report.extra["max_z"] = max(cell.params["z"] for cell in report.cells)
    return report


def _rep_level_counts(cfg: ExperimentConfig, replica: int) -> np.ndarray:
    tree = tree_for(cfg.base, replica)
    probes = probe_directions(cfg.base.d, N_PROBES, cfg.base.seed)
    out = []
    for r0 in cfg.r0_grid:
        cross_dirs = rst.level_geometry(tree, r0)[3]
        cosap = math.cos(min(math.exp(-r0), math.pi))
        counts = np.sum(cross_dirs @ probes.T >= cosap, axis=0)
        out.append(float(np.mean(counts.astype(float) ** cfg.p)))
    return np.array(out)


def _summary_level_counts(cfg: ExperimentConfig, values: np.ndarray) -> StatReport:
    means = values.mean(axis=0)
    ratio = float(means.max() / means.min()) if np.all(means > 0) else math.inf
    extra = {"p": cfg.p, "max_over_min": ratio}
    return _report("level_counts", cfg, values, "r0", cfg.r0_grid, True, extra)


def bplus_grid(cfg: ExperimentConfig) -> list:
    rs = [r for r in (1.5, 2.5, 3.5) if r < cfg.base.R]
    rhos = (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.0)
    return [(r, rho) for r in rs for rho in rhos]


def _boosted_radius(r: float, rad: np.ndarray, cos0: np.ndarray) -> np.ndarray:
    """Radii of the points (rad; u) after the boost taking the origin to
    (r; e0), where cos0 = <u, e0>: the radius alone of
    hgeom.boost_from_origin(r, e0, rad, u), with the same bits."""
    t2 = math.cosh(r) * np.cosh(rad) + math.sinh(r) * (np.sinh(rad) * cos0)
    return hgeom.stable_arccosh1p(t2 - 1.0)


def _bplus_chain(d: int, r: float, rho: float, u01: np.ndarray, cos0: np.ndarray) -> np.ndarray:
    """B+ membership of the draws (u01, cos0) in B(0, rho) boosted onto z at
    radius r, by the radius chain: invert u01 to a radius, boost it, test
    the boosted radius < r."""
    if d == 1:
        rad = np.arccosh(1.0 + u01 * (math.cosh(rho) - 1.0))
    else:
        rad = sampler.radial_law(d, rho).invert(u01)
    return _boosted_radius(r, rad, cos0) < r


# The band of `_bplus_members`, where its exact test may disagree with the
# rounded chain of `_bplus_chain`. Write tau = tanh(rad/2) and
# T = -cos0 tanh(r). In exact arithmetic the boosted radius is below r iff
# t2 < cosh r, and t2 - cosh r = sinh(rad) cosh(r) (tau - T), so a draw is
# in B+ iff tau < T: rad below the exit radius 2 artanh(T) of its direction.
#   Chain rounding. t2 carries at most 16 ulps of each of its two terms,
#   each at most cosh(r + rad) (math and SIMD cosh/sinh, three products, a
#   sum); arccosh1p and the comparison carry at most 16 ulps of r, worth
#   r sinh r in t2. So the chain's verdict is the exact one unless
#   |tau - T| sinh(rad) cosh r <= 2^-53 32 (1 + r) cosh(r) e^rad, and as
#   e^rad / sinh(rad) <= 2 / tau, unless tau |tau - T| <= 2 C with
#   C = 2^-53 64 (1 + r) (a factor 2 of slack). For T >= 4 sqrt(C) that set
#   lies in tau <= sqrt(C) and |tau - T| <= 4 C / T. For smaller T
#   (cos0 -> 0-, or cos0 >= 0, which the chain can accept by an ulp when
#   rad -> 0) it lies in tau <= 6 sqrt(C). T itself, artanh and the d = 1
#   arccosh add relative errors worth at most 2^-48 in tau.
#   Chain radius. At d >= 2 Newton stops once the largest step of the batch
#   is below sampler.NEWTON_TOL, so the chain's radius is within
#   2 NEWTON_TOL of the root of the tabulated CDF (a Newton step, or half a
#   bisection bracket). A batch stops in 22-34 iterations; only a draw with
#   u near 0, which lies in the band, can bisect on towards the cap of 100.
#   At d = 1 the radius is closed form. The tabulated CDF is monotone up to
#   a few ulps, and the d = 1 argument 1 + u (cosh rho - 1) is rounded; a
#   slack of 2^-46 cosh(rho) / (cosh(rho) - 1) in u covers both.
#   In u. The band is u at most the mass of tau <= 6 sqrt(C), or u within
#   twice the mass's slope times dtau of the exit mass (plus the slacks).
#   The mass P(rad < 2 artanh tau) has slope pdf(rad) drad/dtau, with
#   sinh(rad) = 2 tau / (1 - tau^2) and drad/dtau = 2 / (1 - tau^2); it
#   grows with tau, so its value at min(T + dtau, tanh(rho/2)) bounds it
#   over the band.
#   Draws in the band take the chain: at d = 1 draw by draw (the chain is
#   elementwise), at d >= 2 the whole cell, because the batch stop rule
#   makes a draw's radius depend on its batch.
_BAND_ULPS = 64.0
_BAND_TAU = 2.0**-48
_BAND_U = 2.0**-46


def _bplus_members(d: int, r: float, rho: float, u01: np.ndarray, cos0: np.ndarray):
    """`_bplus_chain(d, r, rho, u01, cos0)` without inverting the draws.

    A draw is in B+ iff its radius is below its direction's exit radius
    2 artanh(-cos0 tanh r), that is iff u01 is below the radial CDF there.
    Draws in a rounding band around that boundary (see the comment above)
    are decided by the chain itself. Returns the membership mask and the
    number of draws in the band.
    """
    half = math.tanh(0.5 * rho)
    cm1 = math.cosh(rho) - 1.0
    if d == 1:
        norm = cm1

        def mass(tau):
            # P(rad < 2 artanh tau), as cosh(2 artanh tau) - 1 = 2 tau^2 / (1 - tau^2)
            return 2.0 * tau * tau / ((1.0 - tau * tau) * cm1)

    else:
        law = sampler.radial_law(d, rho)
        norm = law.total

        def mass(tau):
            # tau = 0 has mass 0; the cdf is costly, and its bits may depend
            # on its batch, so only tau > 0 is evaluated, as one batch
            out = np.zeros_like(tau)
            pos = np.flatnonzero(tau > 0.0)
            out[pos] = law.cdf(2.0 * np.arctanh(tau[pos]))
            return out

    c_tau = 2.0**-53 * _BAND_ULPS * (1.0 + r)
    pad = 0.0 if d == 1 else 2.0 * sampler.NEWTON_TOL
    slack = _BAND_U * (cm1 + 1.0) / cm1

    def width(dtau, tau_hi):
        # half-width in u of a band of half-width dtau in tau, below tau_hi
        inv = 1.0 / (1.0 - tau_hi * tau_hi)
        pdf = (2.0 * tau_hi * inv) ** d / norm
        return 2.0 * (2.0 * inv * pdf * dtau + pdf * pad) + slack

    # -cos0 tanh r clipped to [0, tanh(rho/2)]: directions with cos0 >= 0
    # leave at once, with exit mass 0
    neg_tanh = -math.tanh(r)
    tau = np.clip(cos0 * neg_tanh, 0.0, half)
    exit_mass = mass(tau)
    inside = u01 < exit_mass
    # the widest band (the largest dtau, the slope at tanh(rho/2)) leaves a
    # few candidates, and each one's own band decides
    gap = np.abs(u01 - exit_mass)
    cand = np.flatnonzero(gap <= width(math.sqrt(c_tau) + _BAND_TAU, half))
    tc = np.maximum(cos0[cand] * neg_tanh, 0.0)
    dtau = 4.0 * c_tau / np.maximum(tc, 4.0 * math.sqrt(c_tau)) + _BAND_TAU
    cand = cand[gap[cand] <= width(dtau, np.minimum(tc + dtau, half))]
    tau0 = min(6.0 * math.sqrt(c_tau), half)
    low = np.flatnonzero(u01 <= float(mass(np.array([tau0]))[0]) + width(0.0, tau0))
    band = np.union1d(low, cand)
    if band.size and d == 1:
        inside[band] = _bplus_chain(d, r, rho, u01[band], cos0[band])
    elif band.size:
        inside = _bplus_chain(d, r, rho, u01, cos0)
    return inside, int(band.size)


class _BplusDraws:
    """One cell's draws, in arrays that the cells of a grid reuse: radial
    uniforms u01, and cos0 = <u, e0> of directions u = g / |g| with g
    standard normal in R^(d+1). Their bits are those of
    rng.uniform(size=n) and rng.normal(size=(n, d + 1)). Inside a
    `suite_d1` body, fresh draws for each of the 24 cells made the grid
    take 47 ms instead of 34 (raw, 2-core Xeon)."""

    def __init__(self, n: int, d: int):
        self.u01, self.cos0 = np.empty(n), np.empty(n)
        self.g = np.empty((n, d + 1))

    def fill(self, seed: int, cell_id: int):
        rng = sampler.stream(seed, cell_id, "bplus")
        rng.random(out=self.u01)
        rng.standard_normal(out=self.g)
        np.divide(self.g[:, 0], np.sqrt(hgeom.row_sumsq(self.g)), out=self.cos0)
        return self.u01, self.cos0


def _bplus_cell(cfg: ExperimentConfig, r: float, rho: float, cell_id: int, draws: _BplusDraws):
    """Monte Carlo rejection estimate of Vol(B+(z, rho)) for z at radius r.

    Uniform points in B(z, rho) come from sampling B(0, rho) and boosting the
    origin onto z. A draw is accepted when its boosted radius is below r,
    which `_bplus_members` decides at each direction's exit radius, without
    inverting the radial CDF.
    """
    d = cfg.base.d
    u01, cos0 = draws.fill(cfg.base.seed, cell_id)
    frac = float(np.mean(_bplus_members(d, r, rho, u01, cos0)[0]))
    total = hgeom.ball_volume(d, rho)
    se = total * math.sqrt(max(frac * (1.0 - frac), 1e-12) / BPLUS_SAMPLES)
    return frac * total, se


def _summary_bplus_volume(cfg: ExperimentConfig, values: None) -> StatReport:
    grid = bplus_grid(cfg)
    cells = []
    xs = []
    logs = []
    draws = _BplusDraws(BPLUS_SAMPLES, cfg.base.d)
    for k, (r, rho) in enumerate(grid):
        vol, se = _bplus_cell(cfg, r, rho, k, draws)
        cells.append(
            Cell(params={"r": r, "rho": rho, "min_rho_r": min(rho, r)}, estimate=vol, stderr=se, n=BPLUS_SAMPLES)
        )
        if vol > 0:
            xs.append(min(rho, r))
            logs.append(vol)
    slope, intercept, r2 = ols_loglinear(np.array(xs), np.array(logs))
    fit = Fit(slope=slope, intercept=intercept, r2=r2, ci_lo=slope, ci_hi=slope)
    return StatReport(
        experiment="bplus_volume",
        seed=cfg.base.seed,
        replicas=1,
        cells=cells,
        fit=fit,
        extra={"d_half": cfg.base.d / 2.0, "samples": BPLUS_SAMPLES},
    )


def coupling_window(cfg: ExperimentConfig) -> HalfWindow:
    """Window containing Cyl'(A, a) with a COUPLING_MARGIN-deep collar so that
    parent search balls of K-points stay inside."""
    m = COUPLING_MARGIN
    return HalfWindow(
        half_width=cfg.A + 1.5 * math.sinh(m) + 0.1,
        y_min=0.5 * math.exp(-cfg.a) * math.exp(-m) * 0.95,
        y_max=1.5 * math.exp(m) * 1.05,
    )


def _rep_coupling(cfg: ExperimentConfig, replica: int) -> np.ndarray:
    w = coupling_window(cfg)
    points = sampler.sample_half_arrays(cfg.base.lam, cfg.base.d, w, cfg.base.seed, replica)
    fractions, _ = dsf.coupling_fraction(points, w, dsf.RegionSpec("Cyl'", A=cfg.A, a=cfg.a), cfg.h_grid)
    return np.array(fractions)


def _summary_coupling(cfg: ExperimentConfig, values: np.ndarray) -> StatReport:
    means = values.mean(axis=0)
    first_above = next((float(h) for h, mean in zip(cfg.h_grid, means) if mean > 0.99), None)
    diffs = values[:, -1] - values[:, 0]
    se = diffs.std(ddof=1) / math.sqrt(len(diffs)) if len(diffs) > 1 else 0.0
    tstat = float(diffs.mean() / se) if se > 0 else math.inf
    extra = {
        "K": {"kind": "Cyl'", "A": cfg.A, "a": cfg.a},
        "first_h_above_0.99": first_above,
        "monotone_means": bool(np.all(np.diff(means) > 0)),
        "increase_tstat": tstat,
    }
    return _report("coupling", cfg, values, "h", cfg.h_grid, False, extra)


def _rep_confinement(cfg: ExperimentConfig, replica: int) -> np.ndarray:
    tree = tree_for(cfg.base, replica)
    h = float(np.median(cfg.r0_grid))
    rp = r_prime(cfg)
    sweep = rst.deviation_sweep(tree, h, rp)
    probes = probe_directions(cfg.base.d, N_PROBES, cfg.base.seed)
    out = []
    for scale in CONFINEMENT_SCALES:
        A = cfg.A * scale
        cosap = math.cos(min(2.0 * A * math.exp(-h), math.pi))
        bound = A * math.exp(-h)
        if sweep.children.size == 0:
            out.append(1.0)
            continue
        member = sweep.cross_dirs @ probes.T >= cosap  # (m, k)
        violating = sweep.mbd > bound
        ok = ~np.any(member & violating[:, None], axis=0)
        out.append(float(ok.mean()))
    return np.array(out)


def _summary_confinement(cfg: ExperimentConfig, values: np.ndarray) -> StatReport:
    extra = {
        "h": float(np.median(cfg.r0_grid)),
        "r_prime": r_prime(cfg),
        "nondecreasing": bool(np.all(np.diff(values.mean(axis=0)) >= 0)),
    }
    grid = [cfg.A * s for s in CONFINEMENT_SCALES]
    return _report("confinement", cfg, values, "A", grid, False, extra)


def _rep_direction(cfg: ExperimentConfig, replica: int) -> np.ndarray:
    tree = tree_for(cfg.base, replica)
    if len(tree) == 0:
        return np.zeros(len(cfg.r0_grid))
    best = int(tree.layers[-1][-1])  # the highest-index deepest node
    path = rst.trajectory(tree, best)[:-1]  # drop the root sentinel
    path.reverse()  # root-side first, radii increasing
    radii = tree.radii[path]
    increments = hgeom.angle_between_arrays(tree.dirs[path[:-1]], tree.dirs[path[1:]])
    out = []
    for r in cfg.r0_grid:
        out.append(float(increments[radii[:-1] >= r].sum()))
    return np.array(out)


def _summary_direction_convergence(cfg: ExperimentConfig, values: np.ndarray) -> StatReport:
    shrink = float(np.mean(values[:, -1] < values[:, 0]))
    extra = {"fraction_tail_shrinks": shrink, "r_lo": cfg.r0_grid[0], "r_hi": cfg.r0_grid[-1]}
    return _report("direction_convergence", cfg, values, "r", cfg.r0_grid, False, extra)


# name -> (kernel(cfg, replica) -> one replica's row, or None; summary(cfg, values) -> report)
EXPERIMENTS = {
    "straightness": (_rep_straightness, _summary_straightness),
    "mbd_moment": (_rep_mbd_moment, _summary_mbd_moment),
    "annulus": (_rep_annulus, _summary_annulus),
    "good_points": (_rep_good_points, _summary_good_points),
    "level_counts": (_rep_level_counts, _summary_level_counts),
    "bplus_volume": (None, _summary_bplus_volume),
    "coupling": (_rep_coupling, _summary_coupling),
    "confinement": (_rep_confinement, _summary_confinement),
    "direction_convergence": (_rep_direction, _summary_direction_convergence),
}


def _check(cfg: ExperimentConfig, names):
    """Fail before any replica runs if one of the experiments cannot run on cfg."""
    near_edge = any(not 1.0 < r < cfg.base.R - 1.0 for r in cfg.r0_grid)
    if near_edge and {"straightness", "mbd_moment", "annulus"} & set(names):
        raise GeometryError("r0_grid must stay inside (1, R-1), away from the window boundary")
    if "annulus" in names and not cfg.delta > 0:
        raise GeometryError("delta must be > 0")
    # confinement sweeps from the median of r0_grid out to r_prime
    if "confinement" in names and float(np.median(cfg.r0_grid)) > r_prime(cfg):
        raise GeometryError(f"the median of r0_grid must be <= R - 0.5 = {r_prime(cfg):g} for confinement")
    # good_points counts the shell [r0 - 1, r0) at the median r0 of r0_grid
    if "good_points" in names and float(np.median(cfg.r0_grid)) < 1.0:
        raise GeometryError("the median of r0_grid must be >= 1 for good_points")
    if "bplus_volume" in names and not bplus_grid(cfg):
        raise GeometryError("R must be > 1.5 for bplus_volume")
    if "coupling" in names:
        if not cfg.h_grid:
            raise GeometryError("h_grid must be nonempty")
        count = cfg.base.lam * sampler.half_window_volume(cfg.base.d, coupling_window(cfg))
        if count > COUPLING_MAX_POINTS:
            raise GeometryError(
                f"the coupling window would hold about {count:.3g} points per replica, "
                f"above the cap of {COUPLING_MAX_POINTS:.3g}; lower lam, d, A or a"
            )


def _replica_rows(cfg: ExperimentConfig, kernels: tuple, replica: int) -> list:
    return [EXPERIMENTS[name][0](cfg, replica) for name in kernels]


def analyze(cfg: ExperimentConfig, names) -> dict:
    """{name: StatReport} for the named experiments, from one pass over the
    replicas: every kernel runs on replica r before any runs on r + 1, so each
    tree is built once. Under HYPERRST_THREADS one pool of at most `replicas`
    workers runs one task per replica."""
    _check(cfg, names)
    kernels = tuple(name for name in names if EXPERIMENTS[name][0] is not None)
    task = functools.partial(_replica_rows, cfg, kernels)
    workers = min(num_workers(), cfg.replicas)
    if kernels and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(task, range(cfg.replicas)))
    else:
        rows = [task(r) for r in range(cfg.replicas)]
    values = {name: np.asarray([row[k] for row in rows], dtype=float) for k, name in enumerate(kernels)}
    return {name: EXPERIMENTS[name][1](cfg, values.get(name)) for name in names}


def exp_straightness(cfg: ExperimentConfig) -> StatReport:
    """E[max MBD_{r0}^{R'} over the level] against r0; the straightness
    picture predicts log-slope near -1."""
    return analyze(cfg, ["straightness"])["straightness"]


def exp_mbd_moment(cfg: ExperimentConfig) -> StatReport:
    """E[sum MBD^p over crossings within angle A e^{-r0}]; the global
    fluctuation bound predicts log-slope near -p."""
    return analyze(cfg, ["mbd_moment"])["mbd_moment"]


def exp_annulus(cfg: ExperimentConfig) -> StatReport:
    """E[sum MBD_r^{r+delta}^p over a fixed-aperture ball] against r; the
    annulus bound predicts log-slope near d - p."""
    return analyze(cfg, ["annulus"])["annulus"]


def exp_good_points(cfg: ExperimentConfig) -> StatReport:
    """Empirical good-point frequency against the analytic Poisson void
    benchmark; disagreement beyond noise indicates a geometry or sampling bug."""
    return analyze(cfg, ["good_points"])["good_points"]


def exp_level_counts(cfg: ExperimentConfig) -> StatReport:
    """E[#(L_r in an e^{-r}-ball)^p]; the count moments stay bounded in r."""
    return analyze(cfg, ["level_counts"])["level_counts"]


def exp_bplus_volume(cfg: ExperimentConfig) -> StatReport:
    """Vol(B+(z, rho)) over a grid of (r, rho); the volume bound predicts the
    log-volume to grow at rate at least d/2 in (rho ^ r)."""
    return analyze(cfg, ["bplus_volume"])["bplus_volume"]


def exp_coupling(cfg: ExperimentConfig) -> StatReport:
    """Agreement fraction between RST(h) and DSF parents on Cyl'(A, a),
    across h; the coupling sends it to 1 as h grows."""
    return analyze(cfg, ["coupling"])["coupling"]


def exp_confinement(cfg: ExperimentConfig) -> StatReport:
    """P[every crossing within angle 2A e^{-h} keeps MBD <= A e^{-h}] against
    A; the cylinder confinement drives it to 1 for large A."""
    return analyze(cfg, ["confinement"])["confinement"]


def exp_direction_convergence(cfg: ExperimentConfig) -> StatReport:
    """Tail angular variation of the deepest backward path beyond radius r;
    shrinking tails are the Cauchy surrogate of an asymptotic direction."""
    return analyze(cfg, ["direction_convergence"])["direction_convergence"]


# ---------------------------------------------------------------------------
# report serialization


def report_to_json(report: StatReport) -> str:
    obj = {
        "experiment": report.experiment,
        "seed": report.seed,
        "replicas": report.replicas,
        "cells": [
            {"params": c.params, "estimate": c.estimate, "stderr": c.stderr, "n": c.n}
            for c in report.cells
        ],
        "fit": None
        if report.fit is None
        else {
            "slope": report.fit.slope,
            "intercept": report.fit.intercept,
            "r2": report.fit.r2,
            "ci_lo": report.fit.ci_lo,
            "ci_hi": report.fit.ci_hi,
        },
        "extra": report.extra,
    }
    return json.dumps(obj, sort_keys=True)


def report_to_csv(report: StatReport) -> str:
    keys = sorted({k for c in report.cells for k in c.params})
    lines = [",".join(keys + ["estimate", "stderr", "n"])]
    for c in report.cells:
        row = [repr(float(c.params.get(k, math.nan))) for k in keys]
        row += [repr(float(c.estimate)), repr(float(c.stderr)), str(c.n)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_report(report: StatReport, out_dir: str) -> tuple:
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{report.experiment}_{report.seed}")
    json_path = base + ".json"
    csv_path = base + ".csv"
    with open(json_path, "w") as fh:
        fh.write(report_to_json(report))
    with open(csv_path, "w") as fh:
        fh.write(report_to_csv(report))
    return json_path, csv_path
