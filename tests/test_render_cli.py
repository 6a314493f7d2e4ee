"""SVG rendering geometry and the command-line interface."""

import hashlib
import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from hyperrst import cli, experiments, render, rst, sampler
from hyperrst.hgeom import GeometryError
from hyperrst.render import SvgScene, geodesic_arc
from hyperrst.sampler import CloudConfig


def small_tree(seed=30, lam=6.0, R=2.5):
    return rst.build(sampler.sample_ball(CloudConfig(d=1, lam=lam, R=R, seed=seed)))


class TestArcGeometry:
    def test_orthogonality_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            b1 = rng.uniform(-0.9, 0.9, size=2)
            b2 = rng.uniform(-0.9, 0.9, size=2)
            if np.linalg.norm(b1) >= 1 or np.linalg.norm(b2) >= 1:
                continue
            arc = geodesic_arc(b1, b2)
            if arc.line:
                continue
            c = np.asarray(arc.center)
            # circle orthogonal to the unit circle: |c|^2 = R^2 + 1
            assert float(c @ c) - arc.radius**2 == pytest.approx(1.0, abs=1e-6)

    def test_collinear_becomes_line(self):
        arc = geodesic_arc(np.array([0.2, 0.0]), np.array([-0.5, 0.0]))
        assert arc.line

    def test_endpoints_on_circle(self):
        arc = geodesic_arc(np.array([0.3, 0.1]), np.array([-0.2, 0.4]))
        c = np.asarray(arc.center)
        for p in (arc.p1, arc.p2):
            assert np.linalg.norm(np.asarray(p) - c) == pytest.approx(arc.radius, abs=1e-9)


class TestRenderSvg:
    def test_root_only_tree_valid_xml(self):
        cloud = sampler.PointCloud(
            CloudConfig(d=1, lam=1.0, R=1.0, seed=0), np.empty(0), np.empty((0, 2))
        )
        tree = rst.build(cloud)
        svg = render.render_svg(tree, SvgScene())
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_radial_chain_draws_line(self):
        cloud = sampler.PointCloud(
            CloudConfig(d=1, lam=1.0, R=2.0, seed=0),
            np.array([1.0, 2.0]),
            np.array([[1.0, 0.0], [1.0, 0.0]]),
        )
        tree = rst.build(cloud)
        svg = render.render_svg(tree, SvgScene(colors=False))
        assert " L " in svg and " A " not in svg.split("<circle")[0] or " L " in svg

    def test_well_formed_and_finite(self):
        tree = small_tree()
        for style in ("geodesic-arc", "star-path-polyline"):
            svg = render.render_svg(tree, SvgScene(edge_style=style))
            ET.fromstring(svg)
            for token in svg.replace('"', " ").split():
                try:
                    val = float(token)
                except ValueError:
                    continue
                assert math.isfinite(val)

    def test_points_inside_disc(self):
        tree = small_tree()
        ball = np.tanh(tree.radii / 2.0)
        assert np.all(ball < 1.0)

    def test_pure_function(self):
        tree = small_tree()
        scene = SvgScene()
        assert render.render_svg(tree, scene) == render.render_svg(tree, scene)

    @pytest.mark.parametrize("disc_px", [-5.0, 0.0, math.nan])
    def test_rejects_disc_px_not_positive(self, disc_px):
        with pytest.raises(GeometryError, match="disc_px must be > 0"):
            SvgScene(disc_px=disc_px)

    def test_rejects_d2(self):
        cloud = sampler.sample_ball(CloudConfig(d=2, lam=1.0, R=2.0, seed=1))
        tree = rst.build(cloud)
        with pytest.raises(GeometryError):
            render.render_svg(tree, SvgScene())

    def test_component_is_trajectory_root_child(self):
        tree = small_tree()
        comp, hue = render._component_hues(tree)
        assert comp.tolist() == [rst.trajectory(tree, i)[-2] for i in range(len(tree))]
        assert sorted(hue) == tree.root_children().tolist()

    def test_svg_arcs_match_minor_arc(self):
        # reconstruct each emitted arc with the SVG endpoint parameterization
        # and confirm its midpoint stays inside the unit disc
        tree = small_tree(seed=31)
        svg = render.render_svg(tree, SvgScene(colors=False))
        count = 0
        for part in svg.splitlines():
            if "<path" not in part or " A " not in part:
                continue
            d = part.split('d="')[1].split('"')[0]
            tokens = d.replace("M", "").replace("A", "").split()
            assert len(tokens) == 9
            x1, y1, r_ = float(tokens[0]), float(tokens[1]), float(tokens[2])
            large, sweep = int(tokens[5]), int(tokens[6])
            x2, y2 = float(tokens[7]), float(tokens[8])
            assert large == 0
            mid = _svg_arc_midpoint(x1, y1, x2, y2, r_, large=large, sweep=sweep)
            assert np.linalg.norm(mid) < 1.0
            count += 1
        assert count > 0


def _svg_arc_midpoint(x1, y1, x2, y2, r, large, sweep):
    """Midpoint of an SVG elliptical arc (equal radii) per the W3C
    endpoint-to-center conversion."""
    p1 = np.array([x1, y1])
    p2 = np.array([x2, y2])
    half = (p1 - p2) / 2.0
    rad2 = r * r - float(half @ half)
    rad2 = max(rad2, 0.0)
    coef = math.sqrt(rad2 / float(half @ half)) if half @ half else 0.0
    if large == sweep:
        coef = -coef
    center = (p1 + p2) / 2.0 + coef * np.array([half[1], -half[0]])
    a1 = math.atan2(y1 - center[1], x1 - center[0])
    a2 = math.atan2(y2 - center[1], x2 - center[0])
    if sweep:
        while a2 < a1:
            a2 += 2 * math.pi
    else:
        while a2 > a1:
            a2 -= 2 * math.pi
    am = (a1 + a2) / 2.0
    return center + r * np.array([math.cos(am), math.sin(am)])


class TestCli:
    def test_analyze_writes_report(self, tmp_path):
        cfg = {
            "lambda": 6.0,
            "R": 3.0,
            "replicas": 3,
            "r0_grid": [1.3, 1.8],
            "seed": 77,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = cli.main(
            ["analyze", "level_counts", "--config", str(cfg_path), "--out", str(tmp_path)]
        )
        assert code == 0
        out = tmp_path / "level_counts_77.json"
        assert out.exists()
        assert json.loads(out.read_text())["experiment"] == "level_counts"

    @pytest.mark.parametrize("kind", ["missing", "directory", "not_utf8"])
    def test_missing_config_exit_2(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not_utf8":
            path.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "out"
        assert cli.main(["analyze", "straightness", "--config", str(path), "--out", str(out)]) == 2
        assert "cannot read config" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "user",
        [
            pytest.param({"lambda": 2.0, "bogus": 1}, id="unknown_key"),
            pytest.param({"replicas": 2.7}, id="float_for_int"),
            pytest.param({"seed": 1.9}, id="float_seed"),
            pytest.param({"replicas": True}, id="bool_for_int"),
            pytest.param({"A": True}, id="bool_for_float"),
            pytest.param({"colors": "false"}, id="str_for_bool"),
            pytest.param({"edge_style": 3}, id="int_for_str"),
            pytest.param({"d": "abc"}, id="str_for_int"),
            pytest.param({"r0_grid": 5}, id="number_for_grid"),
            pytest.param({"r0_grid": []}, id="empty_grid"),
            pytest.param({"h_grid": [2.0, "4"]}, id="str_in_grid"),
            pytest.param({"A": math.nan}, id="nan"),
            pytest.param({"R": math.inf}, id="infinity"),
            pytest.param({"r0_grid": [1.5, -math.inf]}, id="infinity_in_grid"),
        ],
    )
    def test_unknown_keys_exit_2(self, tmp_path, user):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(user))
        assert cli.main(["sample", "--config", str(p)]) == 2

    def test_bad_thread_count_exit_2(self, tmp_path, monkeypatch):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 4.0, "R": 3.0, "replicas": 2, "r0_grid": [1.4, 2.0]}))
        commands = (
            ["analyze", "direction_convergence"],
            ["analyze", "bplus_volume"],
            ["sample"],
            ["rst"],
            ["dsf"],
            ["render"],
        )
        for value in ("abc", "0", "-1"):
            monkeypatch.setenv("HYPERRST_THREADS", value)
            for command in commands:
                argv = command + ["--config", str(p), "--out", str(tmp_path)]
                assert cli.main(argv) == 2, (value, command)
        assert not any(tmp_path.glob("*_*.*"))

    @pytest.mark.parametrize(
        "bad", [{"A": -1.0}, {"A": 0}, {"theta": -0.5}, {"a": -0.5}, {"h_grid": [2.0, -4.0]}],
        ids=["A_negative", "A_zero", "theta_negative", "a_negative", "h_negative"],
    )
    def test_bad_region_values_exit_2(self, tmp_path, bad):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 4.0, "R": 3.0, "replicas": 2, "r0_grid": [1.4, 2.0], **bad}))
        for name in ("mbd_moment", "confinement", "annulus", "good_points", "coupling", "all"):
            assert cli.main(["analyze", name, "--config", str(p), "--out", str(tmp_path)]) == 2, name
        assert not any(tmp_path.glob("*_*.*"))

    @pytest.mark.parametrize("grid", [[2.0], [2.0, 2.0]], ids=["one_value", "repeated_value"])
    def test_one_value_grid_refused_for_fits(self, tmp_path, capsys, grid):
        # a log-slope over one r0 is NaN, which a report cannot hold as JSON
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 3.0, "R": 4.0, "replicas": 2, "r0_grid": grid}))
        out = tmp_path / "out"
        for name in ("straightness", "mbd_moment", "annulus", "level_counts", "all"):
            assert cli.main(["analyze", name, "--config", str(p), "--out", str(out)]) == 2, name
            assert "r0_grid needs two distinct values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("disc_px", [-5, 0])
    def test_disc_px_not_positive_exit_2(self, tmp_path, capsys, disc_px):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 6.0, "R": 2.5, "disc_px": disc_px}))
        out = tmp_path / "out"
        assert cli.main(["render", "--config", str(p), "--out", str(out)]) == 2
        assert "disc_px must be > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_coupling_window_over_cap_exit_2(self, tmp_path, capsys):
        # d=3, lambda=0.3 puts about 3.4M points in the coupling window
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"d": 3, "lambda": 0.3, "R": 3.5, "replicas": 1, "r0_grid": [1.5, 2.0]}))
        for name in ("coupling", "all"):
            assert cli.main(["analyze", name, "--config", str(p), "--out", str(tmp_path)]) == 2, name
            assert "above the cap" in capsys.readouterr().err
        assert not any(tmp_path.glob("*_*.*"))

    def test_confinement_median_past_r_prime_exit_2(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a cloud for a config that cannot run")

        monkeypatch.setattr(sampler, "sample_ball", refuse)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"R": 5, "r0_grid": [4.8], "replicas": 1}))
        assert cli.main(["analyze", "confinement", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert "r0_grid" in capsys.readouterr().err
        assert not any(tmp_path.glob("*_*.*"))

    @pytest.mark.parametrize(
        "user, name, message",
        [
            ({"lambda": 5, "R": 4, "r0_grid": [0.5, 0.8, 0.9], "replicas": 2}, "good_points", "r0_grid"),
            ({"lambda": 5, "R": 1.2, "r0_grid": [0.5], "replicas": 2}, "bplus_volume", "R must be > 1.5"),
        ],
        ids=["good_points", "bplus_volume"],
    )
    def test_unrunnable_experiment_exit_2(self, tmp_path, capsys, monkeypatch, user, name, message):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a cloud for a config that cannot run")

        monkeypatch.setattr(sampler, "sample_ball", refuse)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(user))
        assert cli.main(["analyze", name, "--config", str(p), "--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert cli.main(["analyze", "all", "--config", str(p), "--out", str(tmp_path)]) == 2
        assert not any(tmp_path.glob("*_*.*"))

    def test_dsf_bytes_independent_of_number_type(self, tmp_path):
        written = []
        for number in (int, float):
            user = {k: number(v) for k, v in {"lambda": 4, "half_width": 2, "y_min": 1, "y_max": 2}.items()}
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps({**user, "seed": 13}))
            out = tmp_path / number.__name__
            assert cli.main(["dsf", "--config", str(p), "--out", str(out)]) == 0
            written.append((out / "dsf_13.json").read_bytes())
        assert written[0] == written[1]

    def test_unknown_experiment_exit_2(self, tmp_path):
        assert cli.main(["analyze", "wat", "--out", str(tmp_path)]) == 2

    def test_stray_experiment_argument_exit_2(self, tmp_path):
        for command in ("sample", "rst", "dsf", "render"):
            assert cli.main([command, "straightness", "--out", str(tmp_path)]) == 2, command
        assert not any(tmp_path.iterdir())

    def test_analyze_all_matches_single_runs(self, tmp_path):
        p = tmp_path / "cfg.json"
        user = {"lambda": 6.0, "R": 3.5, "replicas": 2, "r0_grid": [1.3, 2.3], "A": 2.0, "a": 0.7, "h_grid": [2.0, 5.0]}
        p.write_text(json.dumps({**user, "seed": 21}))
        for name in experiments.EXPERIMENTS:
            assert cli.main(["analyze", name, "--config", str(p), "--out", str(tmp_path / "one")]) == 0
        assert cli.main(["analyze", "all", "--config", str(p), "--out", str(tmp_path / "all")]) == 0
        files = sorted(f.name for f in (tmp_path / "one").iterdir())
        assert len(files) == 18
        assert sorted(f.name for f in (tmp_path / "all").iterdir()) == files
        for name in files:
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_sample_and_render(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 4.0, "R": 2.0, "seed": 12}))
        assert cli.main(["sample", "--config", str(p), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "cloud_12.json").exists()
        assert (tmp_path / "cloud_12.csv").exists()
        assert cli.main(["render", "--config", str(p), "--out", str(tmp_path)]) == 0
        svg = (tmp_path / "rst_12.svg").read_text()
        ET.fromstring(svg)

    @pytest.mark.parametrize(
        "style, digest",
        [
            ("geodesic-arc", "de6d9275a6388082094bd4a8dcbb13789fe87a803b731c9431ab042626c5e11c"),
            ("star-path-polyline", "2689ede52b94487fdad2bef6d19245fe1c7b42e6f4a9d29216340ad86feef15c"),
        ],
    )
    def test_render_bytes_pinned(self, tmp_path, style, digest):
        # digests of the SVGs drawn before the subtree hues were carried by
        # depth layers; any change to a colour or a coordinate changes them
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 6.0, "R": 2.5, "seed": 30, "edge_style": style}))
        assert cli.main(["render", "--config", str(p), "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "rst_30.svg").read_bytes()).hexdigest() == digest

    def test_dsf_bytes_pinned(self, tmp_path):
        # digest of the forest written before the DSF and RST(h) searches
        # shared one chart index per cloud
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 6.0, "seed": 11}))
        assert cli.main(["dsf", "--config", str(p), "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256((tmp_path / "dsf_11.json").read_bytes()).hexdigest()
        assert digest == "bf06377fcaa3f3f75be969cce364a658203b7fc7c9048cb1948eb28caa182976"

    def test_rst_and_dsf_commands(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "lambda": 4.0,
                    "R": 2.0,
                    "seed": 13,
                    "half_width": 2.0,
                    "y_min": 0.2,
                    "y_max": 2.0,
                }
            )
        )
        assert cli.main(["rst", "--config", str(p), "--out", str(tmp_path)]) == 0
        assert cli.main(["dsf", "--config", str(p), "--out", str(tmp_path)]) == 0
        tree = json.loads((tmp_path / "rst_13.json").read_text())
        assert "parent" in tree and "cloud_ref" in tree
        forest = json.loads((tmp_path / "dsf_13.json").read_text())
        assert forest["frontier"] == -2

    def test_seed_override(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"lambda": 4.0, "R": 2.0, "seed": 1}))
        code = cli.main(
            ["sample", "--config", str(p), "--seed", "99", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "cloud_99.json").exists()

    def test_byte_determinism(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps({"lambda": 5.0, "R": 3.0, "replicas": 2, "r0_grid": [1.4, 2.0], "seed": 3})
        )
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        argv = ["analyze", "direction_convergence", "--config", str(p)]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        for name in ("direction_convergence_3.json", "direction_convergence_3.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
