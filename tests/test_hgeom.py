"""Geometry oracles: distances, angles, conversions, star paths, volumes."""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import ball_volume_quad, sphere_cap_quad

from hyperrst import dsf, hgeom, search
from hyperrst.hgeom import (
    BallPoint,
    Cone,
    Direction,
    GeometryError,
    HalfPoint,
    PolarPoint,
    StarPath,
    angle_from_apex,
    ball_to_polar,
    ball_volume,
    bplus_region_test,
    dist_ball,
    dist_half,
    dist_polar,
    half_to_ball,
    half_to_polar,
    polar,
    polar_to_ball,
    star_eval,
    star_sphere_crossing,
)

RNG = np.random.default_rng(20240811)

# independently recomputed with 40-digit arithmetic
ACOSH_COSH2_1 = 1.5133740065965039598
VOL_D1_R5 = 459.99167291032082623
TANH_1 = 0.76159415595576488812
ANGLE_BRANCH_EXAMPLE = 2.0344439357957027354
VOL_D2_R3 = 614.85101740533232053


def random_polar(d=1, rmax=6.0, rng=RNG):
    g = rng.normal(size=d + 1)
    return PolarPoint(float(rng.uniform(0.01, rmax)), Direction(g / np.linalg.norm(g)))


def random_half(d=1, rng=RNG):
    return HalfPoint(rng.uniform(-3, 3, size=d), float(rng.uniform(0.05, 5.0)))


class TestDistPolar:
    def test_identity(self):
        z = random_polar()
        assert dist_polar(z, z) == 0.0

    def test_antipodal_diameter(self):
        u = np.array([1.0, 0.0])
        z1 = PolarPoint(1.3, Direction(u))
        z2 = PolarPoint(1.3, Direction(-u))
        assert dist_polar(z1, z2) == pytest.approx(2.6, abs=1e-12)

    def test_orthogonal_unit_radii(self):
        z1 = polar(1.0, [1.0, 0.0])
        z2 = polar(1.0, [0.0, 1.0])
        assert dist_polar(z1, z2) == pytest.approx(ACOSH_COSH2_1, abs=1e-12)

    def test_symmetry_and_triangle(self):
        for _ in range(300):
            a, b, c = (random_polar() for _ in range(3))
            dab = dist_polar(a, b)
            assert dab == pytest.approx(dist_polar(b, a), abs=1e-12)
            assert dab <= dist_polar(a, c) + dist_polar(c, b) + 1e-10

    def test_nearby_points_keep_precision(self):
        u = np.array([1.0, 0.0])
        eps = 1e-9
        z1 = PolarPoint(3.0, Direction(u))
        z2 = PolarPoint(3.0 + eps, Direction(u))
        assert dist_polar(z1, z2) == pytest.approx(eps, rel=1e-6)


class TestDistHalf:
    def test_identity(self):
        z = random_half()
        assert dist_half(z, z) == 0.0

    def test_vertical_closed_form(self):
        z1 = HalfPoint(np.zeros(1), 1.0)
        z2 = HalfPoint(np.zeros(1), math.e)
        assert dist_half(z1, z2) == pytest.approx(1.0, abs=1e-12)

    def test_matches_paper_atanh_form(self):
        for _ in range(200):
            z1, z2 = random_half(), random_half()
            kappa = np.linalg.norm(z1.x - z2.x) / z1.y
            v = z2.y / z1.y
            expected = 2 * math.atanh(
                math.sqrt((kappa**2 + (v - 1) ** 2) / (kappa**2 + (v + 1) ** 2))
            )
            assert dist_half(z1, z2) == pytest.approx(expected, abs=1e-12)

    def test_cross_model_oracle(self):
        # dist_half == dist_polar after conversion, 1e4 random pairs
        rng = np.random.default_rng(4)
        x = rng.uniform(-3, 3, size=(10_000, 2, 1))
        y = rng.uniform(0.05, 5.0, size=(10_000, 2))
        worst = 0.0
        for k in range(0, 10_000, 250):
            z1 = HalfPoint(x[k, 0], float(y[k, 0]))
            z2 = HalfPoint(x[k, 1], float(y[k, 1]))
            d1 = dist_half(z1, z2)
            d2 = dist_polar(half_to_polar(z1), half_to_polar(z2))
            worst = max(worst, abs(d1 - d2))
        assert worst < 1e-10


class TestAngleFromApex:
    def test_on_axis(self):
        assert angle_from_apex(1.0, HalfPoint(np.zeros(1), 0.5)) == 0.0

    def test_branch_example(self):
        # h=0, z=(1,1): denominator negative, angle = pi - arctan 2
        got = angle_from_apex(0.0, HalfPoint(np.array([1.0]), 1.0))
        assert got == pytest.approx(ANGLE_BRANCH_EXAMPLE, abs=1e-12)

    def test_vanishing_denominator(self):
        h = 0.3
        x = math.exp(h) / math.sqrt(2.0)
        z = HalfPoint(np.array([x]), x)
        assert angle_from_apex(h, z) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_rejects_high_points(self):
        with pytest.raises(GeometryError):
            angle_from_apex(0.0, HalfPoint(np.zeros(1), 2.0))

    def test_against_triangle_oracle(self):
        # law of cosines for angles using three pairwise distances,
        # with the ideal point approximated far down the axis
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(10_000 // 20):
            h = float(rng.uniform(0.0, 2.0))
            z = HalfPoint(rng.uniform(-3, 3, size=1), float(rng.uniform(0.05, 0.98 * math.exp(h))))
            apex = HalfPoint(np.zeros(1), math.exp(h))
            near_ideal = HalfPoint(np.zeros(1), 1e-9)
            a = dist_half(apex, z)
            b = dist_half(apex, near_ideal)
            c = dist_half(z, near_ideal)
            cosang = (math.cosh(a) * math.cosh(b) - math.cosh(c)) / (
                math.sinh(a) * math.sinh(b)
            )
            oracle = math.acos(max(-1.0, min(1.0, cosang)))
            worst = max(worst, abs(angle_from_apex(h, z) - oracle))
        assert worst < 1e-9


class TestConversions:
    def test_half_to_ball_sends_origin(self):
        for h in (0.0, 0.7, 2.0):
            b = half_to_ball(HalfPoint(np.zeros(1), math.exp(h)), h)
            assert np.linalg.norm(b.coords) < 1e-14

    def test_ideal_point_limit(self):
        b = half_to_ball(HalfPoint(np.zeros(1), 1e-12), 0.0)
        assert b.coords[0] == pytest.approx(-1.0, abs=1e-11)
        assert abs(b.coords[1]) < 1e-11

    def test_half_to_ball_isometry(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            h = float(rng.uniform(0, 1.5))
            pts = [HalfPoint(rng.uniform(-3, 3, size=1), float(rng.uniform(0.05, 5))) for _ in range(3)]
            balls = [half_to_ball(z, h) for z in pts]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert dist_ball(balls[i], balls[j]) == pytest.approx(
                        dist_half(pts[i], pts[j]), abs=1e-10
                    )

    def test_polar_ball_example(self):
        b = polar_to_ball(polar(2.0, [1.0, 0.0]))
        assert b.coords[0] == pytest.approx(TANH_1, abs=1e-12)
        assert b.coords[1] == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(10_000 // 10):
            z = random_polar(rng=rng)
            back = ball_to_polar(polar_to_ball(z))
            assert back.r == pytest.approx(z.r, abs=1e-12)
            assert np.allclose(back.u.components, z.u.components, atol=1e-12)

    def test_ball_distance_matches_polar(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z1, z2 = random_polar(rng=rng), random_polar(rng=rng)
            assert dist_ball(polar_to_ball(z1), polar_to_ball(z2)) == pytest.approx(
                dist_polar(z1, z2), abs=1e-10
            )


class TestStarPath:
    def test_endpoints_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            z1, z2 = random_polar(rng=rng), random_polar(rng=rng)
            p = StarPath(z1, z2)
            for t, z in ((0.0, z1), (1.0, z2)):
                got = star_eval(p, t)
                assert got.r == pytest.approx(z.r, abs=1e-12)
                assert np.allclose(got.u.components, z.u.components, atol=1e-12)

    def test_affine_radius_law(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            z1, z2 = random_polar(rng=rng), random_polar(rng=rng)
            p = StarPath(z1, z2)
            for t in rng.uniform(0, 1, size=8):
                assert star_eval(p, float(t)).r == pytest.approx(
                    (1 - t) * z1.r + t * z2.r, abs=1e-12
                )

    def test_equal_radii_constant_radius(self):
        z1 = polar(2.0, [1.0, 0.0])
        z2 = polar(2.0, [0.0, 1.0])
        p = StarPath(z1, z2)
        for t in np.linspace(0, 1, 17):
            assert star_eval(p, float(t)).r == pytest.approx(2.0, abs=1e-12)

    def test_distance_to_z1_monotone(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            z1, z2 = random_polar(rng=rng), random_polar(rng=rng)
            p = StarPath(z1, z2)
            ts = np.linspace(0, 1, 1000)
            d = np.array([dist_polar(z1, star_eval(p, float(t))) for t in ts])
            assert np.all(np.diff(d) >= -1e-9)

    def test_distance_to_origin_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            z1, z2 = random_polar(rng=rng), random_polar(rng=rng)
            p = StarPath(z1, z2)
            ts = np.linspace(0, 1, 200)
            radii = np.array([star_eval(p, float(t)).r for t in ts])
            diffs = np.diff(radii)
            assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    def test_rejects_t_outside(self):
        p = StarPath(polar(1.0, [1, 0]), polar(2.0, [0, 1]))
        with pytest.raises(GeometryError):
            star_eval(p, 1.5)

    def test_radial_degenerate(self):
        z1 = polar(1.0, [1.0, 0.0])
        z2 = polar(3.0, [1.0, 0.0])
        p = StarPath(z1, z2)
        mid = star_eval(p, 0.5)
        assert mid.r == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(mid.u.components, [1, 0])


class TestSphereCrossing:
    def test_endpoints_and_midpoint(self):
        p = StarPath(polar(1.0, [1, 0]), polar(3.0, [0, 1]))
        assert star_sphere_crossing(p, 1.0) == 0.0
        assert star_sphere_crossing(p, 2.0) == pytest.approx(0.5)

    def test_outside_rejected(self):
        p = StarPath(polar(1.0, [1, 0]), polar(3.0, [0, 1]))
        with pytest.raises(GeometryError):
            star_sphere_crossing(p, 0.5)

    def test_self_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            z1, z2 = random_polar(rng=rng), random_polar(rng=rng)
            p = StarPath(z1, z2)
            r = float(rng.uniform(min(z1.r, z2.r), max(z1.r, z2.r)))
            t = star_sphere_crossing(p, r)
            assert star_eval(p, t).r == pytest.approx(r, abs=1e-12)


class TestVolumes:
    def test_zero_radius(self):
        assert ball_volume(1, 0.0) == 0.0
        assert ball_volume(3, 0.0) == 0.0

    def test_d1_closed_form(self):
        assert ball_volume(1, 5.0) == pytest.approx(VOL_D1_R5, rel=1e-12)

    def test_d2_quadrature(self):
        assert ball_volume(2, 3.0) == pytest.approx(VOL_D2_R3, rel=1e-10)

    def test_d2_monte_carlo_oracle(self):
        # rejection estimate inside the Euclidean ball model
        rng = np.random.default_rng(14)
        R = 3.0
        n = 400_000
        rho_max = math.tanh(R / 2)
        pts = rng.uniform(-rho_max, rho_max, size=(n, 3))
        rho2 = np.sum(pts**2, axis=1)
        inside = rho2 < rho_max**2
        # hyperbolic volume element of the ball model: 2^n/(1-|x|^2)^n
        w = np.where(inside, 8.0 / np.maximum(1.0 - rho2, 1e-12) ** 3, 0.0)
        est = w.mean() * (2 * rho_max) ** 3
        assert est == pytest.approx(ball_volume(2, R), rel=0.01)

    def test_exponential_growth(self):
        # e^{d r} asymptotics: ratio of volumes approaches e^d
        for d in (1, 2):
            v1 = ball_volume(d, 8.0)
            v2 = ball_volume(d, 9.0)
            assert v2 / v1 == pytest.approx(math.exp(d), rel=0.01)

    def test_sphere_cap_d1(self):
        assert hgeom.sphere_cap(1, 0.3) == pytest.approx(0.6)
        assert hgeom.sphere_cap(1, 10.0) == pytest.approx(2 * math.pi)


@pytest.fixture
def quad_calls(monkeypatch):
    """Counts the calls of the lazily imported `scipy.integrate.quad` fallback."""
    calls = []
    quad = scipy.integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    return calls


class TestVolumeQuadBits:
    """ball_volume and sphere_cap carry the bits of one `quad(limit=200)`
    call, by one 21-point Gauss-Kronrod pass where QUADPACK accepts it and
    by quad itself beyond."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_ball_volume_grid(self, d):
        for r in np.linspace(0.0, 12.0, 97)[1:]:
            assert ball_volume(d, float(r)) == ball_volume_quad(d, float(r))

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_sphere_cap_grid(self, d):
        for theta in np.linspace(0.0, math.pi, 65)[1:]:
            assert hgeom.sphere_cap(d, float(theta)) == sphere_cap_quad(d, float(theta))

    # (d, r, fallback) on both sides of where QUADPACK stops accepting the
    # first estimate: r of about 8.6 at d=2, 5.7 at d=3, 4.3 at d=4
    @pytest.mark.parametrize(
        "d, r, fallback",
        [(2, 4.0, False), (2, 8.5, False), (2, 9.0, True), (3, 5.5, False), (3, 6.0, True),
         (4, 4.0, False), (4, 4.5, True)],
    )
    def test_ball_volume_path(self, quad_calls, d, r, fallback):
        assert ball_volume(d, r) == ball_volume_quad(d, r)
        assert quad_calls == ([(0.0, r)] if fallback else [])

    # only d=6 near a half turn falls back, from theta of about 3.05
    @pytest.mark.parametrize(
        "d, theta, fallback",
        [(2, math.pi, False), (4, math.pi, False), (6, 3.0, False), (6, math.pi, True)],
    )
    def test_sphere_cap_path(self, quad_calls, d, theta, fallback):
        assert hgeom.sphere_cap(d, theta) == sphere_cap_quad(d, theta)
        assert quad_calls == ([(0.0, theta)] if fallback else [])

    def test_validate_d2_path_leaves_integrate_unimported(self):
        # a fresh interpreter: the CLI import and a d=2 sample, build and validate
        code = (
            "import sys, hyperrst.cli\n"
            "from hyperrst import rst, sampler\n"
            "cloud = sampler.sample_ball(sampler.CloudConfig(d=2, lam=1.0, R=4.0, seed=29))\n"
            "assert rst.validate(rst.build(cloud)).ok\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestBPlus:
    def test_center_excluded(self):
        z = random_polar()
        assert not bplus_region_test(z, 1.0, z)

    def test_origin_inside_for_large_rho(self):
        z = polar(2.0, [1, 0])
        assert bplus_region_test(z, 2.5, hgeom.origin_point(2))

    def test_agreement_with_definition(self):
        rng = np.random.default_rng(15)
        for _ in range(10_000 // 10):
            z, q = random_polar(rng=rng), random_polar(rng=rng)
            rho = float(rng.uniform(0, 4))
            expected = dist_polar(z, q) <= rho and q.r < z.r
            assert bplus_region_test(z, rho, q) == expected


class TestCone:
    def test_whole_space(self):
        cone = Cone(Direction(np.array([1.0, 0.0])), math.pi)
        assert cone.contains(polar(1.0, [-1.0, 0.0]))

    def test_basic_membership(self):
        cone = Cone(Direction(np.array([1.0, 0.0])), 0.5)
        assert cone.contains(polar(2.0, [math.cos(0.4), math.sin(0.4)]))
        assert not cone.contains(polar(2.0, [math.cos(0.6), math.sin(0.6)]))


class TestBoost:
    def test_boost_preserves_distance_to_image(self):
        rng = np.random.default_rng(16)
        u = np.array([1.0, 0.0])
        r = 2.0
        rad = rng.uniform(0, 2, size=64)
        ang = rng.uniform(0, 2 * math.pi, size=64)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        new_r, new_dirs = hgeom.boost_from_origin(r, u, rad, dirs)
        target = polar(r, u)
        for k in range(64):
            moved = PolarPoint(float(new_r[k]), Direction(new_dirs[k]))
            assert dist_polar(moved, target) == pytest.approx(rad[k], abs=1e-10)


@given(
    r1=st.floats(0.01, 6.0),
    r2=st.floats(0.01, 6.0),
    ang=st.floats(0.0, 3.1),
    t=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_star_radius_affine_property(r1, r2, ang, t):
    z1 = polar(r1, [1.0, 0.0])
    z2 = polar(r2, [math.cos(ang), math.sin(ang)])
    p = StarPath(z1, z2)
    assert star_eval(p, t).r == pytest.approx((1 - t) * r1 + t * r2, abs=1e-12)


@given(rho=st.floats(0.0, 0.999), ang=st.floats(0.0, 2 * math.pi))
@example(rho=1.702455159998947e-161, ang=0.0)  # squared coordinates fall into subnormals
@example(rho=1e-320, ang=0.5)  # subnormal coordinates
@settings(max_examples=200, deadline=None)
def test_ball_polar_inverse_property(rho, ang):
    b = BallPoint(rho * np.array([math.cos(ang), math.sin(ang)]))
    back = polar_to_ball(ball_to_polar(b))
    assert np.allclose(back.coords, b.coords, atol=1e-12)


def test_direction_norm_enforced():
    with pytest.raises(GeometryError):
        Direction(np.array([1.0, 1.0]))


def test_direction_keeps_linalg_norm_bits():
    rng = np.random.default_rng(23)
    for _ in range(2000):
        g = rng.normal(size=int(rng.integers(2, 5)))
        v = g / np.linalg.norm(g) * (1.0 + rng.uniform(-1e-10, 1e-10))
        assert np.array_equal(Direction(v).components, v / np.linalg.norm(v))


def test_invalid_inputs():
    with pytest.raises(GeometryError):
        PolarPoint(-0.5, Direction(np.array([1.0, 0.0])))
    with pytest.raises(GeometryError):
        HalfPoint(np.zeros(1), 0.0)
    with pytest.raises(GeometryError):
        BallPoint(np.array([1.0, 0.2]))


_U = Direction(np.array([1.0, 0.0]))
_Z = PolarPoint(1.0, _U)


@pytest.mark.parametrize(
    "call",
    [
        lambda: dsf.build_rst_h((np.array([[0.0], [0.5]]), np.array([1.0, 2.0])), math.nan),
        lambda: dsf.build_rst_h((np.array([[0.0], [0.5]]), np.array([1.0, 2.0])), math.inf),
        lambda: ball_volume(2, math.nan),
        lambda: hgeom.sphere_cap(2, math.nan),
        lambda: hgeom.sphere_cap(1, math.nan),
        lambda: dsf.RegionSpec("Cyl'", A=1.0, a=math.nan),
        lambda: dsf.RegionSpec("Cyl'", A=1.0, h=math.nan),
        lambda: PolarPoint(math.nan, _U),
        lambda: Cone(_U, math.nan),
        lambda: bplus_region_test(_Z, math.nan, _Z),
    ],
    ids=[
        "build_rst_h_nan",
        "build_rst_h_inf",
        "ball_volume",
        "sphere_cap_d2",
        "sphere_cap_d1",
        "region_a",
        "region_h",
        "polar_point",
        "cone",
        "bplus_region_test",
    ],
)
def test_nan_rejected(call):
    # NaN fails every comparison, so a guard written as x < 0 lets it through
    with pytest.raises(GeometryError):
        call()


class TestRowSumsq:
    """row_sumsq must keep numpy's bits: np.sum(a * a, axis=1) and the square
    of np.linalg.norm(a, axis=1), in either memory layout."""

    @pytest.mark.parametrize("m", range(1, 12))
    def test_bits_equal_numpy(self, m):
        rng = np.random.default_rng(m)
        a = rng.normal(size=(20_000, m)) * rng.uniform(0.1, 10.0, (20_000, 1))
        for arr in (a, np.asfortranarray(a)):
            got = hgeom.row_sumsq(arr)
            assert got.tobytes() == np.sum(arr * arr, axis=1).tobytes()
            assert got.tobytes() == np.sum(arr**2, axis=1).tobytes()
            assert np.sqrt(got).tobytes() == np.linalg.norm(arr, axis=1).tobytes()

    def test_numpy_pairwise_from_8_columns(self):
        # why row_sumsq calls numpy from 8 columns on: a left-to-right sum
        # then differs from numpy's on a C-ordered array, and below 8 it never does
        rng = np.random.default_rng(0)
        for m in range(1, 10):
            a = rng.normal(size=(20_000, m))
            left = a[:, 0] * a[:, 0]
            for j in range(1, m):
                left = left + a[:, j] * a[:, j]
            assert np.array_equal(left, np.sum(a * a, axis=1)) == (m < 8), m


# A few small values repeat often; -0.0 beside 0.0 and NaN are ties or
# unordered, and each must send argsort_distinct to np.lexsort.
_SORT_VALUES = st.one_of(
    st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=False),
)


@st.composite
def _sort_columns(draw):
    """(columns, n): 1 to 3 float columns of one length n from 0 to 30."""
    n = draw(st.integers(0, 30))
    cols = draw(st.integers(1, 3))
    column = st.lists(_SORT_VALUES, min_size=n, max_size=n)
    return np.array(draw(st.lists(column, min_size=cols, max_size=cols)), dtype=float).reshape(cols, n)


def _argsort_distinct_exact(key, *ties):
    """argsort_distinct(key, *ties), checked against np.lexsort of the same
    columns (its last key is primary); np.lexsort runs exactly when two
    values of key tie or one is NaN."""
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        got = hgeom.argsort_distinct(key, *ties)
    repeats = key.size > 1 and (np.isnan(key).any() or np.unique(key).size < key.size)
    assert lexsort.call_count == int(repeats)
    want = np.lexsort(ties[::-1] + (key,))
    assert got.dtype == want.dtype and np.array_equal(got, want)
    return got


@given(cols=_sort_columns())
@example(cols=np.empty((2, 0)))
@example(cols=np.array([[0.25]]))
@example(cols=np.array([[0.5, 0.5, 0.5], [2.0, 1.0, 0.0]]))  # all-equal key
@example(cols=np.array([[0.0, -0.0, 0.0], [1.0, 0.0, 2.0]]))  # signed zeros tie
@example(cols=np.array([[0.0, math.nan], [0.0, 1.0]]))
@settings(max_examples=300, deadline=None)
def test_argsort_distinct_is_lexsort(cols):
    _argsort_distinct_exact(*cols)


@given(cols=_sort_columns())
@example(cols=np.array([[-0.0, 0.0, -0.0, 0.0]]))
@example(cols=np.array([[3.0, 3.0, 3.0]]))
@settings(max_examples=300, deadline=None)
def test_argsort_distinct_is_stable_argsort(cols):
    key = cols[0]
    got = _argsort_distinct_exact(key)
    assert np.array_equal(got, np.argsort(key, kind="stable"))


@given(cols=_sort_columns())
@example(cols=np.array([[-0.0, 0.0, 0.0, -0.0, 1.0, 1.0]]))
@settings(max_examples=300, deadline=None)
def test_run_starts_is_searchsorted(cols):
    keys = np.sort(cols[0][~np.isnan(cols[0])])
    want = np.searchsorted(keys, keys, side="left")
    got = search.run_starts(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)
