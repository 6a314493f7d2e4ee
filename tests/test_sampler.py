"""Poisson sampling: counts, radial law, isotropy, thinning, determinism."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from hyperrst import hgeom, rst, sampler
from hyperrst.hgeom import GeometryError
from hyperrst.sampler import CloudConfig, HalfWindow
from oracles import brute_force_parents, knot_integrals_quad


def test_determinism_bit_for_bit():
    cfg = CloudConfig(d=1, lam=20.0, R=4.0, seed=99)
    a = sampler.sample_ball(cfg)
    b = sampler.sample_ball(cfg)
    assert np.array_equal(a.radii, b.radii)
    assert np.array_equal(a.dirs, b.dirs)


def test_replicas_differ():
    cfg = CloudConfig(d=1, lam=20.0, R=4.0, seed=99)
    a = sampler.sample_ball(cfg, replica=0)
    b = sampler.sample_ball(cfg, replica=1)
    assert len(a) != len(b) or not np.array_equal(a.radii, b.radii)


def test_poisson_mean_count():
    cfg = CloudConfig(d=1, lam=5.0, R=3.0, seed=7)
    mean_target = cfg.lam * hgeom.ball_volume(cfg.d, cfg.R)
    counts = np.array([len(sampler.sample_ball(cfg, replica=k)) for k in range(200)])
    se = math.sqrt(mean_target / 200)
    assert abs(counts.mean() - mean_target) < 3 * se


def test_figure_one_regime_count():
    cfg = CloudConfig(d=1, lam=30.0, R=6.0, seed=1)
    expected = 30.0 * 2 * math.pi * (math.cosh(6.0) - 1.0)
    n = len(sampler.sample_ball(cfg))
    assert abs(n - expected) < 5 * math.sqrt(expected)
    assert expected == pytest.approx(37834.0, rel=1e-4)


def test_radii_sorted_in_window():
    cfg = CloudConfig(d=2, lam=1.0, R=3.0, seed=3)
    cloud = sampler.sample_ball(cfg)
    assert np.all(np.diff(cloud.radii) >= 0)
    assert cloud.radii[0] > 0 and cloud.radii[-1] <= cfg.R


def test_radial_law_ks():
    cfg = CloudConfig(d=1, lam=40.0, R=4.0, seed=21)
    cloud = sampler.sample_ball(cfg)
    cdf = lambda r: (np.cosh(r) - 1.0) / (math.cosh(cfg.R) - 1.0)  # noqa: E731
    stat = stats.kstest(cloud.radii, cdf).statistic
    assert stat < 1.5 / math.sqrt(len(cloud))


def test_radial_law_ks_d2():
    cfg = CloudConfig(d=2, lam=2.0, R=3.5, seed=22)
    cloud = sampler.sample_ball(cfg)
    total = hgeom.ball_volume(2, cfg.R)
    cdf = lambda r: np.array([hgeom.ball_volume(2, float(s)) / total for s in np.atleast_1d(r)])  # noqa: E731
    stat = stats.kstest(cloud.radii, cdf).statistic
    assert stat < 1.5 / math.sqrt(len(cloud))


def test_radial_inverter_accuracy():
    for d, R in [(2, 4.0), (3, 4.0), (4, 4.0), (2, 0.5), (3, 0.5), (2, 7.0), (3, 7.0)]:
        law = sampler.radial_law(d, R)
        total = hgeom.ball_volume(d, R)
        targets = np.linspace(0.001, 0.999, 41)
        rs = law.invert(targets)
        back = np.array([hgeom.ball_volume(d, float(r)) / total for r in rs])
        assert np.max(np.abs(back - targets)) < 1e-10, (d, R)


@pytest.mark.parametrize("d, R", [(2, 5.0), (3, 5.0), (3, 0.5)])
def test_invert_zero_target(d, R, monkeypatch):
    # a target of 0 gets radius 0 without joining the Newton batch, whose
    # global stop rule it would otherwise hold to the iteration cap
    law = sampler.radial_law(d, R)
    u01 = np.random.default_rng(d).uniform(size=40_000)
    calls = []
    cdf = law.cdf
    monkeypatch.setattr(law, "cdf", lambda r: calls.append(r.size) or cdf(r))
    want = law.invert(u01)
    alone = len(calls)
    calls.clear()
    got = law.invert(np.append(u01, 0.0))
    assert got[-1] == 0.0
    assert np.array_equal(got[:-1], want)
    assert len(calls) <= alone


# (d, R) pairs on which the vectorized knot table must carry quad's bits
KNOT_TABLE_CASES = [(2, 4.0), (3, 3.5), (2, 0.5), (2, 7.0), (3, 7.0), (4, 5.0), (2, 9.0), (5, 2.0)]


@pytest.mark.parametrize("d, R", KNOT_TABLE_CASES)
def test_knot_table_equals_quad(d, R):
    law = sampler.radial_law(d, R)
    increments = knot_integrals_quad(d, law.knots)
    assert np.array_equal(sampler._knot_integrals(d, law.knots), increments)
    cdf_vals = np.cumsum([0.0] + list(increments))
    assert np.array_equal(law.cdf_vals, cdf_vals / cdf_vals[-1])


def test_isotropy_chi_square():
    cfg = CloudConfig(d=1, lam=120.0, R=4.5, seed=23)
    cloud = sampler.sample_ball(cfg)
    angles = np.arctan2(cloud.dirs[:, 1], cloud.dirs[:, 0])
    counts, _ = np.histogram(angles, bins=24, range=(-math.pi, math.pi))
    chi2 = ((counts - counts.mean()) ** 2 / counts.mean()).sum()
    p = stats.chi2.sf(chi2, df=23)
    assert p > 0.01


def test_thinning_consistency():
    # keep each point with prob 1/2 vs sampling at lam/2: same cell-count law
    cfg_full = CloudConfig(d=1, lam=24.0, R=3.0, seed=31)
    cfg_half = CloudConfig(d=1, lam=12.0, R=3.0, seed=32)
    rng = np.random.default_rng(5)
    bins = np.linspace(0, cfg_full.R, 7)
    thinned_counts = np.zeros(6)
    direct_counts = np.zeros(6)
    reps = 60
    for k in range(reps):
        full = sampler.sample_ball(cfg_full, replica=k)
        keep = rng.uniform(size=len(full)) < 0.5
        thinned_counts += np.histogram(full.radii[keep], bins=bins)[0]
        direct = sampler.sample_ball(cfg_half, replica=k)
        direct_counts += np.histogram(direct.radii, bins=bins)[0]
    table = np.stack([thinned_counts, direct_counts])
    _, p, _, _ = stats.chi2_contingency(table)
    assert p > 0.01


@pytest.mark.parametrize("d, lam", [(1, 10.0), (2, 1.0), (3, 0.3)])
def test_ball_in_lexsort_order(d, lam):
    # sorted by radius, ties by u0, u1, ... as np.lexsort of the columns
    cloud = sampler.sample_ball(CloudConfig(d=d, lam=lam, R=3.5, seed=5))
    order = np.lexsort(tuple(cloud.dirs[:, ::-1].T) + (cloud.radii,))
    assert len(cloud) > 100 and np.array_equal(order, np.arange(len(cloud)))


@pytest.mark.parametrize("d", [1, 2])
def test_half_arrays_in_lexsort_order(d):
    # sorted by y, ties by x0, x1, ... as np.lexsort of the columns
    x, y = sampler.sample_half_arrays(4.0, d, HalfWindow(half_width=2.0, y_min=0.1, y_max=3.0), seed=5)
    order = np.lexsort(tuple(x[:, ::-1].T) + (y,))
    assert y.size > 100 and np.array_equal(order, np.arange(y.size))


class TestHalfWindow:
    def test_window_volume(self):
        w = HalfWindow(half_width=2.0, y_min=0.5, y_max=2.0)
        assert sampler.half_window_volume(1, w) == pytest.approx(4.0 * (2.0 - 0.5))

    def test_mean_count(self):
        w = HalfWindow(half_width=2.0, y_min=0.2, y_max=2.0)
        lam = 3.0
        target = lam * sampler.half_window_volume(1, w)
        counts = np.array(
            [len(sampler.sample_half_arrays(lam, 1, w, seed=9, replica=k)[1]) for k in range(200)]
        )
        assert abs(counts.mean() - target) < 3 * math.sqrt(target / 200)

    def test_bounds_and_determinism(self):
        w = HalfWindow(half_width=1.5, y_min=0.1, y_max=3.0)
        x1, y1 = sampler.sample_half_arrays(4.0, 2, w, seed=8)
        x2, y2 = sampler.sample_half_arrays(4.0, 2, w, seed=8)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)
        assert np.all(np.abs(x1) <= w.half_width)
        assert np.all((y1 >= w.y_min) & (y1 <= w.y_max))

    def test_ordinate_law(self):
        w = HalfWindow(half_width=1.0, y_min=0.2, y_max=4.0)
        _, y = sampler.sample_half_arrays(200.0, 1, w, seed=10)
        span = w.y_min**-1 - w.y_max**-1
        cdf = lambda t: (w.y_min**-1 - 1.0 / np.asarray(t)) / span  # noqa: E731
        stat = stats.kstest(y, cdf).statistic
        assert stat < 1.5 / math.sqrt(len(y))

    def test_margin_formula(self):
        w = HalfWindow(half_width=2.0, y_min=0.1, y_max=10.0)
        m = sampler.window_margin(w, np.array([[0.5]]), np.array([1.0]))
        assert m[0] == pytest.approx(min(math.log(10.0), math.log(10.0), math.asinh(1.5)))

    def test_invalid_window(self):
        with pytest.raises(GeometryError):
            HalfWindow(half_width=1.0, y_min=2.0, y_max=1.0)

    def test_non_finite_half_width_rejected(self):
        # an infinite window has no finite Poisson mean; an open top does
        for half_width in (math.inf, math.nan):
            with pytest.raises(GeometryError):
                HalfWindow(half_width=half_width, y_min=0.1, y_max=1.0)
        w = HalfWindow(half_width=1.0, y_min=0.1, y_max=math.inf)
        assert sampler.half_window_volume(1, w) == pytest.approx(20.0)


def test_invalid_config_rejected():
    with pytest.raises(GeometryError):
        CloudConfig(d=0, lam=1.0, R=1.0, seed=0)
    with pytest.raises(GeometryError):
        CloudConfig(d=1, lam=-1.0, R=1.0, seed=0)


def _cloud(radii=(1.0, 1.5, 2.0), dirs=((1.0, 0.0), (0.0, 1.0), (-1.0, 0.0))):
    return sampler.PointCloud(CloudConfig(d=1, lam=1.0, R=3.0, seed=0), np.array(radii), np.array(dirs))


@pytest.mark.parametrize(
    "make",
    [
        lambda: _cloud(radii=(1.0, math.nan, 2.0)),
        lambda: _cloud(dirs=((1.0, 0.0), (math.nan, 1.0), (-1.0, 0.0))),
        lambda: _cloud(dirs=((1.0, 0.0), (math.inf, 0.0), (-1.0, 0.0))),
        lambda: _cloud(dirs=((1.0, 0.0), (0.0, -math.inf), (-1.0, 0.0))),
        lambda: _cloud(dirs=((1.0, 0.0), (0.0, 3.0), (-1.0, 0.0))),
        lambda: _cloud(dirs=((1.0, 0.0), (0.0, 1.0 + 2e-9), (-1.0, 0.0))),
        lambda: CloudConfig(d=1, lam=math.inf, R=3.0, seed=0),
        lambda: CloudConfig(d=1, lam=1.0, R=math.inf, seed=0),
    ],
    ids=["nan_radius", "nan_dir", "inf_dir", "minus_inf_dir", "dir_norm_3", "dir_norm_off_2e-9",
         "lam_inf", "R_inf"],
)
def test_non_finite_cloud_rejected(make):
    # each would reach rst.build (scipy's "data must be finite") or numpy's
    # Poisson draw, or, with a direction of norm 3, a tree that validates
    with pytest.raises(GeometryError):
        make()


def test_direction_within_tolerance_accepted():
    # one part in 1e10 off unit passes, as hgeom.Direction lets it
    assert len(_cloud(dirs=((1.0, 0.0), (0.0, 1.0 + 1e-10), (-1.0, 0.0)))) == 3


def test_directions_off_unit_are_renormalised():
    # rows off unit norm by 1e-10 or 1e-11 are divided by their norm, as the
    # searches take |u| = 1: kept as given, 49 and 5 parents of this cloud
    # differ from the oracle's, and validate reports as many bplus faults
    cloud = sampler.sample_ball(CloudConfig(d=1, lam=1.0, R=6.0, seed=3))
    # a sampled row is within a few ulps of unit, and keeps its bits
    assert np.array_equal(sampler.PointCloud(cloud.config, cloud.radii, cloud.dirs).dirs, cloud.dirs)
    sign = np.random.default_rng(0).choice([-1.0, 1.0], len(cloud))
    for err in (1e-10, 1e-11):
        dirs = cloud.dirs * (1.0 + err * sign)[:, None]
        off = sampler.PointCloud(cloud.config, cloud.radii, dirs)
        assert np.abs(np.sqrt(hgeom.row_sumsq(off.dirs)) - 1.0).max() <= sampler._UNIT_ULPS
        assert not np.shares_memory(off.dirs, dirs)  # the caller's rows are left alone
        tree = rst.build(off)
        assert np.array_equal(tree.parent, brute_force_parents(off)), err
        assert rst.validate(tree).ok, err


def test_serialization_round_trip():
    cfg = CloudConfig(d=1, lam=5.0, R=2.0, seed=77)
    cloud = sampler.sample_ball(cfg)
    back = json.loads(sampler.cloud_to_json(cloud))
    assert np.allclose([p["r"] for p in back["points"]], cloud.radii)
    assert np.allclose([p["u"] for p in back["points"]], cloud.dirs)
    csv_text = sampler.cloud_to_csv(cloud)
    assert csv_text.splitlines()[0] == "r,u0,u1"
    assert len(csv_text.splitlines()) == len(cloud) + 1
