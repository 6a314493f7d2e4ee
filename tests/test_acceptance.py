"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Criteria run at their stated scales and tolerances, so this module is the
slow part of the suite (about half a minute on a 2-core machine). Replica trees are shared
through `experiments.tree_for`'s cache wherever configurations coincide.
"""

import math
import time

import numpy as np
import pytest

from hyperrst import dsf, experiments, hgeom, rst, sampler
from hyperrst.experiments import ExperimentConfig, default_config
from hyperrst.sampler import CloudConfig, HalfWindow
from oracles import ball_dist, ball_to_polar, brute_force_parents, build_dsf_brute, half_to_ball

ACCEPT_SEED = 424242


def _report(name, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] {name}: {detail} ({elapsed:.1f}s)")
    return ok


def test_criterion_1_geometry_oracles():
    """The builders' metrics, hgeom.half_pair_dist against
    hgeom.polar_pair_dist through the oracle isometry and polar_pair_dist
    against the oracle ball distance, within 1e-10 on 1e4 pairs;
    apex_angle_arrays against the triangle oracle 1e-9; star-path
    exactness of hgeom.star_path_arrays (endpoints, affine radius, the
    direction at the angle psi) 1e-12; < 10 s."""
    t0 = time.time()
    rng = np.random.default_rng(ACCEPT_SEED)

    n = 10_000
    x = rng.uniform(-3, 3, size=(n, 2))
    y = rng.uniform(0.05, 5.0, size=(n, 2))
    # pair k joins point k and point n + k
    xs, ys = x.T.reshape(2 * n, 1), y.T.ravel()
    i, j = np.arange(n), np.arange(n, 2 * n)
    ball = half_to_ball(xs, ys)
    radii, dirs = ball_to_polar(ball)
    d_half = hgeom.half_pair_dist(xs, ys)(i, j)
    d_polar = hgeom.polar_pair_dist(radii, dirs)(i, j)
    d_ball = ball_dist(ball[i], ball[j])
    worst_pair = float(max(np.max(np.abs(d_half - d_polar)), np.max(np.abs(d_polar - d_ball))))

    # the triangle apex O(h), z and the ideal point approximated far down the
    # axis, one of each per draw: rows k, n + k and 2n + k
    h, zx, zy, angle = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    for k in range(n):
        h[k] = rng.uniform(0.0, 2.0)
        zx[k] = rng.uniform(-3, 3, size=1)[0]
        zy[k] = rng.uniform(0.05, 0.98 * math.exp(h[k]))
        angle[k] = hgeom.apex_angle_arrays(h[k], zx[k], zy[k])
    tri = hgeom.half_pair_dist(np.concatenate([np.zeros(n), zx, np.zeros(n)])[:, None],
                               np.concatenate([np.exp(h), zy, np.full(n, 1e-9)]))
    apex, z, ideal = i, j, np.arange(2 * n, 3 * n)
    a, b, c = tri(apex, z), tri(apex, ideal), tri(z, ideal)
    oracle = np.arccos(np.clip((np.cosh(a) * np.cosh(b) - np.cosh(c)) / (np.sinh(a) * np.sinh(b)), -1.0, 1.0))
    worst_angle = float(np.max(np.abs(angle - oracle)))

    # 2000 star paths [z1, z2]*, one row each at t = 0, at t = 1 and at a
    # random t, through the array star path that the level crossings and
    # the rendered polylines use
    m = 2000
    r1, r2, tr = np.empty(m), np.empty(m), np.empty(m)
    u1, u2 = np.empty((m, 2)), np.empty((m, 2))
    for k in range(m):
        g1, g2 = rng.normal(size=2), rng.normal(size=2)
        u1[k], u2[k] = g1 / np.linalg.norm(g1), g2 / np.linalg.norm(g2)
        r1[k], r2[k] = rng.uniform(0.05, 5), rng.uniform(0.05, 5)
        tr[k] = rng.uniform(0, 1)
    theta = hgeom.angle_between_arrays(u1, u2)
    t = np.concatenate([np.zeros(m), np.ones(m), tr])
    rho, psi, sdirs = hgeom.star_path_arrays(
        np.tile(r1, 3), np.tile(r2, 3), np.tile(theta, 3), np.tile(u1, (3, 1)), np.tile(u2, (3, 1)), t
    )
    start, end, mid = slice(0, m), slice(m, 2 * m), slice(2 * m, 3 * m)
    worst_star = float(max(
        np.max(np.abs(rho[start] - r1)),
        np.max(np.abs(rho[end] - r2)),
        np.max(np.abs(sdirs[start] - u1)),
        np.max(np.abs(sdirs[end] - u2)),
        np.max(np.abs(rho[mid] - ((1 - tr) * r1 + tr * r2))),
        # the direction lies psi from u1 on the great circle
        np.max(np.abs(hgeom.angle_between_arrays(u1, sdirs[mid]) - psi[mid])),
    ))

    elapsed = time.time() - t0
    ok = worst_pair < 1e-10 and worst_angle < 1e-9 and worst_star < 1e-12 and elapsed < 10
    assert _report(
        "criterion 1 geometry oracles",
        ok,
        f"pair={worst_pair:.2e} angle={worst_angle:.2e} star={worst_star:.2e}",
        elapsed,
    )


def test_criterion_2_construction_oracles():
    """Accelerated RST and DSF match O(n^2) brute force exactly on 50 seeded
    clouds of n=2000; validate() clean; < 60 s."""
    t0 = time.time()
    mismatches = 0
    violations = 0
    w = HalfWindow(half_width=3.0, y_min=0.04, y_max=4.0)
    vol_ball = hgeom.ball_volume(1, 4.4)
    lam_ball = 2000.0 / vol_ball
    vol_half = sampler.half_window_volume(1, w)
    lam_half = 2000.0 / vol_half
    for seed in range(25):
        cloud = sampler.sample_ball(CloudConfig(d=1, lam=lam_ball, R=4.4, seed=ACCEPT_SEED + seed))
        tree = rst.build(cloud)
        if not np.array_equal(tree.parent, brute_force_parents(cloud)):
            mismatches += 1
        if seed < 5 and not rst.validate(tree).ok:
            violations += 1
    for seed in range(25):
        x, y = sampler.sample_half_arrays(lam_half, 1, w, seed=ACCEPT_SEED + 100 + seed)
        fast = dsf.build_dsf((x, y))
        brute = build_dsf_brute((x, y))
        if not np.array_equal(fast.parent, brute.parent):
            mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and violations == 0 and elapsed < 60
    assert _report(
        "criterion 2 construction oracles",
        ok,
        f"mismatches={mismatches} validate_violations={violations} (50 clouds, n~2000)",
        elapsed,
    )


def test_criterion_3_planarity():
    """100 replicas at d=1, lambda=30, R=5: geodesic crossing count 0; < 5 min."""
    t0 = time.time()
    base = CloudConfig(d=1, lam=30.0, R=5.0, seed=ACCEPT_SEED)
    total_crossings = 0
    for replica in range(100):
        tree = experiments.tree_for(base, replica)
        total_crossings += rst.planarity_check(tree)
    elapsed = time.time() - t0
    ok = total_crossings == 0 and elapsed < 300
    assert _report(
        "criterion 3 planarity", ok, f"crossings={total_crossings} over 100 replicas", elapsed
    )


def test_criterion_4_mbd_oracle():
    """Vertex-evaluation MBD equals dense-grid (1e3 levels) brute force within
    1e-9 on 20 seeded trees; < 2 min."""
    from test_rst import dense_grid_mbd

    t0 = time.time()
    worst = 0.0
    checked = 0
    for seed in range(20):
        cloud = sampler.sample_ball(CloudConfig(d=1, lam=10.0, R=4.0, seed=ACCEPT_SEED + seed))
        tree = rst.build(cloud)
        r0, r1 = 1.5, 3.5
        crossings = rst.level_crossings(tree, r0)
        sweep = rst.deviation_sweep(tree, r0, r1)
        order = np.argsort(sweep.mbd)[::-1]
        pick = list(order[:6]) + list(order[:: max(1, len(order) // 6)][:6])
        for k in sorted(set(int(i) for i in pick)):
            got = float(sweep.mbd[k])
            oracle = dense_grid_mbd(tree, crossings[k], r1, levels=1000)
            worst = max(worst, abs(got - oracle))
            checked += 1
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 120
    assert _report(
        "criterion 4 MBD oracle", ok, f"max|vertex-grid|={worst:.2e} on {checked} crossings", elapsed
    )


def test_criterion_5_straightness_envelope():
    """Defaults: log-slope of E[max MBD] vs r0 in [-1.3, -0.7], bootstrap CI
    excluding 0; < 10 min."""
    t0 = time.time()
    cfg = default_config(seed=ACCEPT_SEED)
    report = experiments.exp_straightness(cfg)
    fit = report.fit
    elapsed = time.time() - t0
    ok = (
        fit is not None
        and -1.3 <= fit.slope <= -0.7
        and fit.ci_hi < 0.0
        and elapsed < 600
    )
    detail = "no fit" if fit is None else f"slope={fit.slope:.3f} CI=[{fit.ci_lo:.3f},{fit.ci_hi:.3f}] r2={fit.r2:.3f}"
    assert _report("criterion 5 straightness envelope", ok, detail, elapsed)


def test_criterion_6_moment_decay():
    """p=2 moment log-slope within 25% of -2; annulus p=3 log-slope within
    30% of d-p = -2; combined < 15 min."""
    t0 = time.time()
    cfg = default_config(seed=ACCEPT_SEED)
    rep_moment = experiments.exp_mbd_moment(cfg)
    cfg3 = ExperimentConfig(
        base=cfg.base,
        replicas=cfg.replicas,
        r0_grid=cfg.r0_grid,
        p=3.0,
        A=cfg.A,
        delta=cfg.delta,
        theta=cfg.theta,
        a=cfg.a,
        h_grid=cfg.h_grid,
    )
    rep_annulus = experiments.exp_annulus(cfg3)
    elapsed = time.time() - t0
    s_m = rep_moment.fit.slope if rep_moment.fit else math.nan
    s_a = rep_annulus.fit.slope if rep_annulus.fit else math.nan
    ok_m = abs(s_m - (-2.0)) <= 0.25 * 2.0
    ok_a = abs(s_a - (-2.0)) <= 0.30 * 2.0
    ok = ok_m and ok_a and elapsed < 900
    assert _report(
        "criterion 6 moment decay",
        ok,
        f"moment_slope={s_m:.3f} (target -2 +-0.5) annulus_slope={s_a:.3f} (target -2 +-0.6)",
        elapsed,
    )


def test_criterion_7_good_point_calibration():
    """Empirical good-point frequency within 3 SE of the Poisson void
    benchmark on every grid cell; < 5 min."""
    t0 = time.time()
    cfg = default_config(seed=ACCEPT_SEED)
    report = experiments.exp_good_points(cfg)
    max_z = report.extra["max_z"]
    elapsed = time.time() - t0
    ok = max_z <= 3.0 and elapsed < 300
    assert _report(
        "criterion 7 good-point calibration",
        ok,
        f"max|z|={max_z:.2f} over {len(report.cells)} cells",
        elapsed,
    )


def test_criterion_8_coupling_trend():
    """Mean agreement fraction increases along h_grid={2,4,6,8,10} (strictly
    until saturation at exactly 1), min->max increase significant at 95%, and
    exceeds 0.99 at h=10; < 10 min."""
    t0 = time.time()
    cfg = default_config(seed=ACCEPT_SEED, replicas=40)
    report = experiments.exp_coupling(cfg)
    means = np.array([c.estimate for c in report.cells])
    elapsed = time.time() - t0
    saturated = means == 1.0
    steps_ok = all(
        (means[i + 1] > means[i]) or (saturated[i] and saturated[i + 1])
        for i in range(len(means) - 1)
    )
    tstat = report.extra["increase_tstat"]
    ok = steps_ok and means[-1] > 0.99 and tstat > 1.69 and elapsed < 600
    assert _report(
        "criterion 8 coupling trend",
        ok,
        f"means={np.round(means, 5).tolist()} tstat={tstat:.1f}",
        elapsed,
    )


def test_criterion_9_bplus_volume_bound():
    """Fitted exponent of log Vol(B+) vs (rho ^ r) at least d/2 - 0.1; < 5 min."""
    t0 = time.time()
    cfg = default_config(seed=ACCEPT_SEED)
    report = experiments.exp_bplus_volume(cfg)
    slope = report.fit.slope
    elapsed = time.time() - t0
    ok = slope >= 0.5 - 0.1 and elapsed < 300
    assert _report(
        "criterion 9 B+ volume bound", ok, f"slope={slope:.3f} target >= 0.4", elapsed
    )


def test_criterion_10_determinism(tmp_path):
    """Re-running an experiment with identical config and seed reproduces the
    output files byte for byte."""
    t0 = time.time()
    from hyperrst import cli
    import json

    p = tmp_path / "cfg.json"
    p.write_text(
        json.dumps(
            {"lambda": 10.0, "R": 3.5, "replicas": 4, "r0_grid": [1.4, 1.9, 2.4], "seed": 55}
        )
    )
    outs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        code = cli.main(["analyze", "level_counts", "--config", str(p), "--out", str(out)])
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("level_counts_55.json", "level_counts_55.csv")
    )
    elapsed = time.time() - t0
    assert _report("criterion 10 determinism", same, "json+csv byte-identical", elapsed)
