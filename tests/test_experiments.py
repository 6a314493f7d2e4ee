"""Experiment harness: determinism, report shapes, statistical invariants.

Small configurations keep this file fast; the full-scale envelope checks
live in test_acceptance.py.
"""

import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest

from hyperrst import experiments, hgeom, rst, sampler
from hyperrst.experiments import ExperimentConfig, default_config
from hyperrst.hgeom import GeometryError
from hyperrst.sampler import CloudConfig
from oracles import bplus_chain

SMALL = ExperimentConfig(
    base=CloudConfig(d=1, lam=8.0, R=3.5, seed=101),
    replicas=8,
    r0_grid=(1.3, 1.8, 2.3),
    A=2.0,
    delta=0.2,
    theta=0.5,
    a=0.7,
    h_grid=(2.0, 5.0),
)


def test_default_config_values():
    cfg = default_config()
    assert cfg.base.d == 1 and cfg.base.lam == 30.0 and cfg.base.R == 5.0
    assert cfg.replicas == 100 and cfg.p == 2.0
    assert cfg.delta == 0.3 and cfg.A == 3.0


def test_straightness_report_and_determinism():
    experiments.tree_for.cache_clear()
    rep1 = experiments.exp_straightness(SMALL)
    rep2 = experiments.exp_straightness(SMALL)
    assert experiments.report_to_json(rep1) == experiments.report_to_json(rep2)
    assert len(rep1.cells) == 3
    means = [c.estimate for c in rep1.cells]
    assert all(m > 0 for m in means)
    # deviations shrink with the base level
    assert means[-1] < means[0]


def test_grid_validation():
    with pytest.raises(GeometryError):
        experiments.exp_straightness(
            ExperimentConfig(base=SMALL.base, replicas=2, r0_grid=(0.5, 2.0))
        )
    with pytest.raises(GeometryError):
        ExperimentConfig(base=SMALL.base, replicas=0)


@pytest.mark.parametrize(
    "bad",
    [{"A": -1.0}, {"A": 0.0}, {"theta": -0.5}, {"theta": 0.0}, {"a": -0.1}, {"h_grid": (2.0, -1.0)}, {"p": math.nan},
     {"p": math.inf}, {"A": math.inf}, {"theta": math.inf}, {"a": math.inf}, {"delta": math.inf},
     {"delta": math.nan}, {"h_grid": (math.inf,)}],
    ids=["A_negative", "A_zero", "theta_negative", "theta_zero", "a_negative", "h_negative", "p_nan",
         "p_inf", "A_inf", "theta_inf", "a_inf", "delta_inf", "delta_nan", "h_inf"],
)
def test_config_rejects_bad_values(bad):
    with pytest.raises(GeometryError):
        dataclasses.replace(SMALL, **bad)


def test_config_accepts_zero_a_and_h():
    cfg = dataclasses.replace(SMALL, a=0.0, h_grid=(0.0, 2.0))
    assert cfg.a == 0.0 and cfg.h_grid == (0.0, 2.0)


def test_mbd_moment_positive_cells():
    rep = experiments.exp_mbd_moment(SMALL)
    assert all(c.estimate >= 0 and np.isfinite(c.estimate) for c in rep.cells)
    assert rep.extra["p"] == SMALL.p


def test_annulus_scaling_in_theta():
    # doubling the aperture roughly doubles the estimate for d=1
    rep1 = experiments.exp_annulus(SMALL)
    rep2 = experiments.exp_annulus(
        ExperimentConfig(
            base=SMALL.base,
            replicas=SMALL.replicas,
            r0_grid=SMALL.r0_grid,
            A=SMALL.A,
            delta=SMALL.delta,
            theta=2 * SMALL.theta,
            a=SMALL.a,
            h_grid=SMALL.h_grid,
        )
    )
    s1 = sum(c.estimate for c in rep1.cells)
    s2 = sum(c.estimate for c in rep2.cells)
    assert s2 > s1
    assert s2 / s1 == pytest.approx(2.0, rel=1.0)


def test_good_points_benchmark_agreement():
    cfg = ExperimentConfig(
        base=CloudConfig(d=1, lam=8.0, R=3.5, seed=7),
        replicas=60,
        r0_grid=(1.8, 2.0, 2.2),
        A=2.0,
        delta=0.2,
    )
    rep = experiments.exp_good_points(cfg)
    assert rep.extra["max_z"] < 3.0
    for cell in rep.cells:
        assert 0.0 <= cell.estimate <= 1.0
        assert 0.0 <= cell.params["benchmark"] <= 1.0


def masked_good_points(cfg, replica):
    """_rep_good_points by masking every (point, probe) pair in each cell."""
    cloud = sampler.sample_ball(cfg.base, replica)
    r0 = float(np.median(cfg.r0_grid))
    dots = cloud.dirs @ experiments.probe_directions(cfg.base.d, experiments.GOOD_PROBES, cfg.base.seed).T
    radii = cloud.radii
    out = []
    for a_, d_ in experiments.good_point_grid(cfg):
        shell1 = (radii >= r0) & (radii < r0 + d_)
        shell2 = (radii >= r0 - 1.0) & (radii < r0)
        occupied1 = np.any(shell1[:, None] & (dots >= math.cos(min(3.0 * a_ * math.exp(-r0), math.pi))), axis=0)
        occupied2 = np.any(shell2[:, None] & (dots >= math.cos(min(a_ * math.exp(-r0), math.pi))), axis=0)
        out.append(float((~occupied1 & occupied2).mean()))
    return np.array(out)


@pytest.mark.parametrize("d, lam, r0_grid", [(1, 30.0, (1.5, 2.0, 2.5)), (2, 1.0, (1.5, 2.0, 2.4)), (1, 8.0, (3.0,))])
def test_good_points_shells_equal_masks(d, lam, r0_grid):
    for seed in range(4):
        cfg = default_config(seed=seed, base=CloudConfig(d=d, lam=lam, R=3.5, seed=seed), r0_grid=r0_grid)
        for replica in range(2):
            got = experiments._rep_good_points(cfg, replica)
            assert got.tobytes() == masked_good_points(cfg, replica).tobytes()


def test_good_points_zero_intensity_limit():
    # benchmark collapses when Psi2 is never occupied
    cfg = ExperimentConfig(
        base=CloudConfig(d=1, lam=1e-9, R=3.5, seed=7),
        replicas=3,
        r0_grid=(1.8,),
        A=2.0,
        delta=0.2,
    )
    bench = experiments.good_point_benchmark(cfg, 1.8, 2.0, 0.2)
    assert bench == pytest.approx(0.0, abs=1e-7)


def test_good_points_monotone_in_delta():
    # analytic benchmark decreases in delta at fixed A (Psi1 grows)
    cfg = SMALL
    b = [experiments.good_point_benchmark(cfg, 2.0, 2.0, d_) for d_ in (0.02, 0.05, 0.1, 0.2)]
    assert all(x > y for x, y in zip(b, b[1:]))


def test_good_points_monotone_in_A_low_intensity():
    # with Psi2 unsaturated the A-direction is driven by occupation
    cfg = ExperimentConfig(
        base=CloudConfig(d=1, lam=0.5, R=3.5, seed=7),
        replicas=3,
        r0_grid=(2.0,),
        delta=0.05,
    )
    b = [experiments.good_point_benchmark(cfg, 2.0, a_, 0.05) for a_ in (0.5, 1.0, 2.0)]
    assert all(x < y for x, y in zip(b, b[1:]))


def test_level_counts_bounded():
    rep = experiments.exp_level_counts(SMALL)
    assert all(c.estimate >= 0 for c in rep.cells)
    assert rep.extra["max_over_min"] < 5.0


def test_level_counts_moment_ordering():
    cfg1 = ExperimentConfig(base=SMALL.base, replicas=4, r0_grid=SMALL.r0_grid, p=1.0)
    cfg2 = ExperimentConfig(base=SMALL.base, replicas=4, r0_grid=SMALL.r0_grid, p=2.0)
    r1 = experiments.exp_level_counts(cfg1)
    r2 = experiments.exp_level_counts(cfg2)
    for c1, c2 in zip(r1.cells, r2.cells):
        assert c1.estimate <= c2.estimate + 1.0


def test_bplus_volume_cells():
    cfg = ExperimentConfig(base=SMALL.base, replicas=1, r0_grid=(2.0,))
    rep = experiments.exp_bplus_volume(cfg)
    cells = {(c.params["r"], c.params["rho"]): c for c in rep.cells}
    # containment: rho >= 2r implies B(0, r) inside B+(z, rho)
    for (r, rho), cell in cells.items():
        if rho >= 2 * r:
            assert cell.estimate >= hgeom.ball_volume(1, r) - 4 * cell.stderr
        assert cell.estimate <= hgeom.ball_volume(1, rho) + 1e-9
    assert rep.fit.slope >= 0.5 - 0.1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_boosted_radius_bits_match_boost(d):
    # the B+ cells keep only the radius of the boost onto (r; e0)
    rng = np.random.default_rng(d)
    rad = rng.uniform(0.0, 6.0, 500)
    g = rng.normal(size=(500, d + 1))
    dirs = g / np.linalg.norm(g, axis=1, keepdims=True)
    e0 = np.eye(d + 1)[0]
    for r in (0.0, 1.5, 3.5):
        want = hgeom.boost_from_origin(r, e0, rad, dirs)[0]
        got = experiments._boosted_radius(r, rad, g[:, 0] / np.linalg.norm(g, axis=1))
        assert got.tobytes() == want.tobytes()


def test_confinement_trend():
    rep = experiments.exp_confinement(SMALL)
    means = [c.estimate for c in rep.cells]
    assert all(0 <= m <= 1 for m in means)
    # huge aperture scale: the deviation bound exceeds pi, trivially satisfied
    big = experiments.exp_confinement(
        ExperimentConfig(
            base=SMALL.base,
            replicas=4,
            r0_grid=SMALL.r0_grid,
            A=10.0 * math.pi * math.exp(2.0),
        )
    )
    assert big.cells[-1].estimate == 1.0


def test_direction_convergence():
    rep = experiments.exp_direction_convergence(SMALL)
    assert rep.extra["fraction_tail_shrinks"] >= 0.5
    means = [c.estimate for c in rep.cells]
    assert all(m >= 0 for m in means)
    # tail variation decreases with the cut radius
    assert means[-1] <= means[0]


def test_direction_single_edge_path_zero_tail(monkeypatch):
    # a one-point cloud has a single-edge path with no increments
    cloud = sampler.PointCloud(
        CloudConfig(d=1, lam=1.0, R=2.0, seed=0),
        np.array([1.0]),
        np.array([[1.0, 0.0]]),
    )
    tree = rst.build(cloud)
    monkeypatch.setattr(experiments, "tree_for", lambda base, replica: tree)
    cfg = ExperimentConfig(base=CloudConfig(d=1, lam=1.0, R=2.0, seed=0), replicas=1, r0_grid=(0.5,))
    rep = experiments.exp_direction_convergence(cfg)
    assert rep.cells[0].estimate == 0.0


def test_direction_picks_highest_index_deepest_node(monkeypatch):
    tree = experiments.tree_for(SMALL.base, 0)
    depth = [len(rst.trajectory(tree, i)) for i in range(len(tree))]
    deepest = [i for i, k in enumerate(depth) if k == max(depth)]
    picked = []
    trajectory = rst.trajectory
    monkeypatch.setattr(rst, "trajectory", lambda t, i: picked.append(i) or trajectory(t, i))
    experiments._rep_direction(SMALL, 0)
    assert picked == [deepest[-1]]


def _report_bytes(report):
    return experiments.report_to_json(report), experiments.report_to_csv(report)


def test_analyze_matches_single_experiments(monkeypatch):
    names = list(experiments.EXPERIMENTS)
    singles = {name: _report_bytes(getattr(experiments, "exp_" + name)(SMALL)) for name in names}
    builds = []
    build = rst.build

    def counting_build(cloud):
        builds.append(len(cloud))
        return build(cloud)

    monkeypatch.setattr(rst, "build", counting_build)
    # one pass: with a one-tree slot, each replica's tree is built once for all the experiments
    monkeypatch.setattr(experiments, "tree_for", functools.lru_cache(maxsize=1)(experiments.tree_for.__wrapped__))
    reports = experiments.analyze(SMALL, names)
    assert list(reports) == names
    assert {name: _report_bytes(rep) for name, rep in reports.items()} == singles
    assert len(builds) == SMALL.replicas
    monkeypatch.setattr(rst, "build", build)
    monkeypatch.setenv("HYPERRST_THREADS", "2")
    reports = experiments.analyze(SMALL, names)
    assert {name: _report_bytes(rep) for name, rep in reports.items()} == singles


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("threads, replicas, size", [("4", 2, [2]), ("2", 3, [2]), ("4", 1, [])])
def test_pool_sized_to_replicas(monkeypatch, threads, replicas, size):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setenv("HYPERRST_THREADS", threads)
    cfg = ExperimentConfig(base=SMALL.base, replicas=replicas, r0_grid=SMALL.r0_grid)
    pooled = experiments.exp_level_counts(cfg)
    assert _RecordingPool.sizes == size
    monkeypatch.delenv("HYPERRST_THREADS")
    assert _report_bytes(pooled) == _report_bytes(experiments.exp_level_counts(cfg))


# SHA-256 of each report's JSON bytes then CSV bytes, recorded before the
# coupling searches shared one chart index per cloud; any change to a
# statistic, a float's last bit or the serialization changes them
PINNED_D1 = ExperimentConfig(
    base=CloudConfig(d=1, lam=6.0, R=3.5, seed=11),
    replicas=3,
    r0_grid=(1.5, 2.0, 2.4),
    h_grid=(2.0, 4.0),
)
PINNED_D1_REPORTS = {
    "straightness": "f29d8d76ea365fd31e4ef57af3c9ca2ff4d1dbf5076d66aa4413fb0025e392da",
    "mbd_moment": "9954ad096bc8d2937f62c257407e461fc020bd632d22d7d22f971bfee2125226",
    "annulus": "d89ff491eaf14f7ee13f136a2e6deb9aa67d6242725251fcc452dac8ed2a2486",
    "good_points": "bf60a476fd7032bc60faee3eff328726315e9f0748a3f0257ae8590368df3265",
    "level_counts": "8b70a4d4f96a53af6dd01c9f224f55b2dac9d5612ff7b76237dfb5100034348f",
    "bplus_volume": "6ae7faf5b2d101cbeba533b304c2662c2cb9fda5d5bb785add1c1235ac92822a",
    "coupling": "fea587cd6f671bbe36c30b6a473353c595e6c8aa626ba541d05dcea8c84a6f10",
    "confinement": "1d578bba6b5a830c4d6b31cd77a0c6e5be035aa2b5d5c983745c2cdff0c370fa",
    "direction_convergence": "ab0070e61aa3bcb57d600b1373b3a61b9a5b6daaa58ee4ff58de55abc6165116",
}


# the eight ball experiments at d = 2 and 3, recorded before the radial
# law's knot table lost its per-knot quad and the B+ cells their inversion
BALL_EXPERIMENTS = [name for name in experiments.EXPERIMENTS if name != "coupling"]
PINNED_D2 = dataclasses.replace(PINNED_D1, base=CloudConfig(d=2, lam=1.0, R=3.5, seed=11))
PINNED_D2_REPORTS = {
    "straightness": "1e4a826dc7e637829d1ec73e21628cf22721afde60b5248843f9d6d8c384a284",
    "mbd_moment": "f5e17b880ed7d7d6d44673984af4e03ec55076d514980324d0956ce53e67d938",
    "annulus": "ff724e7bbbe764d88f96524ec4999c8e8ea0064c4913ad3def5e85205c182c4c",
    "good_points": "5202bc53da4de918ecc66ecf22e7197101938a9527c836052cb8f0b79f94bdbb",
    "level_counts": "4bfc4de35cdc5af4e5f6ab780f40e3b9c5536dac898fed08f983ec835388941d",
    "bplus_volume": "da82f1fa8ba3ab19845e6a34255cb33a600f9ad45322bbaac892f586186dcd59",
    "confinement": "2ee46c40b68a5a06b46cd7ef767f2b42c707bc16ac649a39f31360f34870c3cd",
    "direction_convergence": "c0d11ff8abae66cce512e47670cbf20aa4766b83ac6a6e589cb9c29bc599f8ab",
}
PINNED_D3 = dataclasses.replace(PINNED_D1, base=CloudConfig(d=3, lam=0.3, R=3.5, seed=11))
PINNED_D3_REPORTS = {
    "straightness": "c6bafbf22ffee91b85659251e4ceb5f9ea0f87bdc48a5ef1846ab06004a22b3d",
    "mbd_moment": "6eb33a38f55c6247c61e67bf65ed6e9bac071d653331f0ae912a0a396b08dbac",
    "annulus": "f772396d2397893fc4106aa37e9b93539adeab985c92f98896d261fe013ee729",
    "good_points": "3e9debb00b85dcabfc88cf64ab3069eb88d737211d551f8b6b73153bd57f4857",
    "level_counts": "5bdb3b279fa89534e93865bf0febaf01241037cd889cf2ca28b7d718ac31e2ab",
    "bplus_volume": "0fb3713064d8d3bcfa1cf38240450cc79e85a45a5c7547aa4da6d76580b87f82",
    "confinement": "6d227892c6549cff474b06f18799c0c51e913e7b6f44b16ca782a07c52e77d2c",
    "direction_convergence": "0c67251b697979d9aba41f61b2139bcdc3c1028cd3eb375240cf86d52a77d736",
}


def _report_digests(monkeypatch, tmp_path, threads, cfg, names):
    if threads is None:
        monkeypatch.delenv("HYPERRST_THREADS", raising=False)
    else:
        monkeypatch.setenv("HYPERRST_THREADS", threads)
    reports = experiments.analyze(cfg, names)
    got = {}
    for name, report in reports.items():
        json_path, csv_path = experiments.write_report(report, str(tmp_path))
        with open(json_path, "rb") as fj, open(csv_path, "rb") as fc:
            got[name] = hashlib.sha256(fj.read() + fc.read()).hexdigest()
    return got


@pytest.mark.parametrize("threads", [None, "2"])
def test_report_bytes_pinned_d1(monkeypatch, tmp_path, threads):
    got = _report_digests(monkeypatch, tmp_path, threads, PINNED_D1, list(experiments.EXPERIMENTS))
    assert got == PINNED_D1_REPORTS


@pytest.mark.parametrize("threads", [None, "2"])
def test_report_bytes_pinned_d2(monkeypatch, tmp_path, threads):
    assert _report_digests(monkeypatch, tmp_path, threads, PINNED_D2, BALL_EXPERIMENTS) == PINNED_D2_REPORTS


def test_report_bytes_pinned_d3(monkeypatch, tmp_path):
    assert _report_digests(monkeypatch, tmp_path, None, PINNED_D3, BALL_EXPERIMENTS) == PINNED_D3_REPORTS


def _bplus_draws(d, seed, cell_id):
    """The draws of `_bplus_cell`: radial uniforms, then cos0 of a direction."""
    rng = sampler.stream(seed, cell_id, "bplus")
    u01 = rng.uniform(size=experiments.BPLUS_SAMPLES)
    g = rng.normal(size=(experiments.BPLUS_SAMPLES, d + 1))
    return u01, g[:, 0] / np.sqrt(hgeom.row_sumsq(g))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bplus_members_match_chain(d):
    # every cell of the grid at R = 5, three seeds: the exit-radius test
    # gives the radius chain's verdict on every draw
    grid = experiments.bplus_grid(default_config(base=CloudConfig(d=d, lam=1.0, R=5.0, seed=0)))
    assert len(grid) == 24
    for seed in (0, 1, 29):
        for k, (r, rho) in enumerate(grid):
            u01, cos0 = _bplus_draws(d, seed, k)
            inside, _ = experiments._bplus_members(d, r, rho, u01, cos0)
            assert np.array_equal(inside, bplus_chain(d, r, rho, u01, cos0)), (seed, r, rho)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bplus_reused_draws_match(d):
    # rng.random(out=) and rng.standard_normal(out=) into reused arrays give
    # the bits of rng.uniform and rng.normal, sign bits included
    draws = experiments._BplusDraws(experiments.BPLUS_SAMPLES, d)
    for seed in (0, 1, 29):
        for k in (0, 5):
            u01, cos0 = draws.fill(seed, k)
            rng = sampler.stream(seed, k, "bplus")
            ref_u = rng.uniform(size=experiments.BPLUS_SAMPLES)
            ref_g = rng.normal(size=(experiments.BPLUS_SAMPLES, d + 1))
            ref_cos0 = ref_g[:, 0] / np.sqrt(hgeom.row_sumsq(ref_g))
            for got, want in ((u01, ref_u), (draws.g, ref_g), (cos0, ref_cos0)):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (seed, k)


def test_bplus_cells_count_the_chain():
    # every default-grid cell at d = 1, seed 29, with one set of draw arrays
    # for all: the estimate is the straight radius chain's inside count
    cfg = default_config(seed=29)
    draws = experiments._BplusDraws(experiments.BPLUS_SAMPLES, 1)
    for k, (r, rho) in enumerate(experiments.bplus_grid(cfg)):
        vol, _ = experiments._bplus_cell(cfg, r, rho, k, draws)
        u01, cos0 = _bplus_draws(1, 29, k)
        count = np.count_nonzero(experiments._bplus_chain(1, r, rho, u01, cos0))
        assert vol == count / experiments.BPLUS_SAMPLES * hgeom.ball_volume(1, rho), (r, rho)


def test_replica_sweeps_once_per_level():
    # straightness and mbd_moment share five (r0, R - 0.5) sweeps and
    # confinement one of them; annulus adds five (r0, r0 + delta): the
    # tree's memo of deviation_sweep holds the ten computed
    experiments.tree_for.cache_clear()
    cfg = default_config(seed=29, replicas=1)
    experiments.analyze(cfg, ["straightness", "mbd_moment", "annulus", "confinement"])
    assert len(experiments.tree_for(cfg.base, 0)._sweeps) == 10


def _exit_mass(d, r, rho, cos0):
    """P(rad < exit radius) computed straight, with no rounding band."""
    tau = np.minimum(np.maximum(-cos0 * math.tanh(r), 0.0), math.tanh(0.5 * rho))
    if d == 1:
        return 2.0 * tau * tau / ((1.0 - tau * tau) * (math.cosh(rho) - 1.0))
    return sampler.radial_law(d, rho).cdf(2.0 * np.arctanh(tau))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r, rho", [(1.5, 2.0), (3.5, 7.0), (0.5, 0.5)])
def test_bplus_members_band_takes_the_chain(d, r, rho):
    # draws on the boundary (u at the exit mass and one ulp either side), a
    # draw at u = 0, and c = +-0.0 at u = 0, where the chain may accept a
    # draw with c >= 0 by an ulp (it does at r = 0.5), among ordinary draws
    u01, cos0 = _bplus_draws(d, 7, 0)
    c = -np.linspace(0.05, 0.95, 64)
    m = _exit_mass(d, r, rho, c)
    fu = np.concatenate([np.nextafter(m, 0.0), m, np.nextafter(m, 2.0), [0.0, 0.0, 0.0]])
    fc = np.concatenate([c, c, c, [-0.5, 0.0, -0.0]])
    u01 = np.concatenate([u01[:2000], fu])
    cos0 = np.concatenate([cos0[:2000], fc])
    inside, n_band = experiments._bplus_members(d, r, rho, u01, cos0)
    chain = bplus_chain(d, r, rho, u01, cos0)
    assert n_band >= fu.size
    assert np.array_equal(inside, chain)
    # the straight test disagrees with the chain on some forced draw, so the
    # band is what makes the two agree
    assert np.any((u01 < _exit_mass(d, r, rho, cos0)) != chain)


def test_coupling_window_cap(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a window over the cap")

    monkeypatch.setattr(sampler, "sample_half_arrays", refuse)
    cfg = default_config(base=CloudConfig(d=3, lam=0.3, R=5.0, seed=1), replicas=1)
    count = cfg.base.lam * sampler.half_window_volume(3, experiments.coupling_window(cfg))
    assert count > experiments.COUPLING_MAX_POINTS
    for names in (["coupling"], list(experiments.EXPERIMENTS)):
        with pytest.raises(GeometryError) as exc:
            experiments.analyze(cfg, names)
        assert f"about {count:.3g} points" in str(exc.value) and "cap of 1e+06" in str(exc.value)
    # the defaults and d=2, lam=2 stay below the cap
    for base in (default_config().base, CloudConfig(d=2, lam=2.0, R=5.0, seed=1)):
        cfg = default_config(base=base)
        assert base.lam * sampler.half_window_volume(base.d, experiments.coupling_window(cfg)) < 2e5
        experiments._check(cfg, ["coupling"])


def test_confinement_median_past_r_prime(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a cloud for a config that cannot run")

    monkeypatch.setattr(sampler, "sample_ball", refuse)
    base = CloudConfig(d=1, lam=30.0, R=5.0, seed=1)
    for grid in ((4.8,), (1.5, 4.6, 4.7)):
        cfg = default_config(base=base, replicas=1, r0_grid=grid)
        assert np.median(grid) > experiments.r_prime(cfg)
        with pytest.raises(GeometryError, match="median of r0_grid must be <= R - 0.5 = 4.5"):
            experiments.analyze(cfg, ["confinement"])
    # a median at r_prime is a one-level sweep, and runs
    experiments._check(default_config(base=base, r0_grid=(4.5,)), ["confinement"])


def test_good_points_median_below_1(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a cloud for a config that cannot run")

    monkeypatch.setattr(sampler, "sample_ball", refuse)
    base = CloudConfig(d=1, lam=5.0, R=4.0, seed=1)
    for grid in ((0.5, 0.8, 0.9), (0.99,)):
        cfg = default_config(base=base, replicas=2, r0_grid=grid)
        with pytest.raises(GeometryError, match="median of r0_grid must be >= 1 for good_points"):
            experiments.analyze(cfg, ["level_counts", "good_points"])
    # a median of exactly 1 puts the inner shell at [0, 1), and runs
    experiments._check(default_config(base=base, r0_grid=(0.5, 1.0, 1.5)), ["good_points"])


def test_bplus_volume_needs_r_past_1_5(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled a cloud for a config that cannot run")

    monkeypatch.setattr(sampler, "sample_ball", refuse)
    for R in (1.2, 1.5):
        cfg = default_config(base=CloudConfig(d=1, lam=5.0, R=R, seed=1), replicas=2, r0_grid=(0.5,))
        assert not experiments.bplus_grid(cfg)
        with pytest.raises(GeometryError, match="R must be > 1.5 for bplus_volume"):
            experiments.analyze(cfg, ["level_counts", "bplus_volume"])
    cfg = default_config(base=CloudConfig(d=1, lam=5.0, R=1.6, seed=1), r0_grid=(0.5,))
    assert experiments.bplus_grid(cfg)
    experiments._check(cfg, ["bplus_volume"])


def test_coupling_small():
    cfg = ExperimentConfig(
        base=CloudConfig(d=1, lam=10.0, R=3.5, seed=5),
        replicas=4,
        r0_grid=(1.5,),
        A=2.0,
        a=0.7,
        h_grid=(2.0, 6.0),
    )
    rep = experiments.exp_coupling(cfg)
    means = [c.estimate for c in rep.cells]
    assert all(0 <= m <= 1 for m in means)
    assert means[-1] >= means[0]
    rep2 = experiments.exp_coupling(cfg)
    assert experiments.report_to_json(rep) == experiments.report_to_json(rep2)


def test_stderr_shrinks_with_replicas():
    cfg8 = SMALL
    cfg32 = ExperimentConfig(
        base=SMALL.base,
        replicas=32,
        r0_grid=SMALL.r0_grid,
        A=SMALL.A,
        delta=SMALL.delta,
        theta=SMALL.theta,
        a=SMALL.a,
        h_grid=SMALL.h_grid,
    )
    r8 = experiments.exp_straightness(cfg8)
    r32 = experiments.exp_straightness(cfg32)
    # 4x replicas should roughly halve the standard error
    ratio = r8.cells[0].stderr / r32.cells[0].stderr
    assert 1.2 < ratio < 4.0


def test_report_serialization_shapes():
    rep = experiments.exp_straightness(SMALL)
    obj = json.loads(experiments.report_to_json(rep))
    assert obj["experiment"] == "straightness"
    assert obj["fit"] is None or "slope" in obj["fit"]
    csv_text = experiments.report_to_csv(rep)
    lines = csv_text.strip().splitlines()
    assert len(lines) == len(rep.cells) + 1
    assert lines[0].split(",")[-3:] == ["estimate", "stderr", "n"]


def test_write_report(tmp_path):
    rep = experiments.exp_level_counts(SMALL)
    jp, cp = experiments.write_report(rep, str(tmp_path))
    assert jp.endswith("level_counts_101.json")
    with open(jp) as fh:
        assert json.load(fh)["experiment"] == "level_counts"


def test_bootstrap_fit_recovers_slope():
    rng = np.random.default_rng(0)
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    true = np.exp(-1.7 * xs + 0.4)
    values = true[None, :] * rng.lognormal(0.0, 0.05, size=(60, 4))
    fit = experiments.bootstrap_fit(values, xs, seed=1)
    assert fit.slope == pytest.approx(-1.7, abs=0.1)
    assert fit.ci_lo < -1.7 < fit.ci_hi
    assert fit.r2 > 0.99
