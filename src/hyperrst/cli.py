"""Command line entry point: sampling, tree building, analysis, rendering.

Exit codes: 0 success, 2 configuration error, 3 runtime failure. The resolved
configuration (seed included) is echoed to stderr for reproducibility.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import dsf, experiments, render, rst, sampler
from .hgeom import GeometryError
from .sampler import CloudConfig, HalfWindow

_EXPERIMENT = asdict(experiments.default_config())
_CLOUD = _EXPERIMENT.pop("base")
_SCENE = render.SvgScene()

# Every config key with its default; a user value must have the default's type.
DEFAULTS = {
    "d": _CLOUD["d"],
    "lambda": _CLOUD["lam"],
    "R": _CLOUD["R"],
    "seed": _CLOUD["seed"],
    **{k: list(v) if isinstance(v, tuple) else v for k, v in _EXPERIMENT.items()},
    "half_width": 4.0,
    "y_min": 0.05,
    "y_max": 4.0,
    "edge_style": _SCENE.edge_style,
    "colors": _SCENE.colors,
    "disc_px": _SCENE.disc_px,
}


class ConfigError(ValueError):
    pass


def _has_default_type(value, default) -> bool:
    """A float takes any finite number (never a bool), a list a non-empty list
    of them; every other type must match exactly."""
    if isinstance(default, list):
        return type(value) is list and bool(value) and all(_has_default_type(v, 0.0) for v in value)
    if isinstance(default, float):
        # a bound, not math.isfinite, which overflows on a huge int
        return type(value) in (int, float) and -sys.float_info.max <= value <= sys.float_info.max
    return type(value) is type(default)


def load_config(path: str, seed_override: int | None) -> dict:
    """Flat JSON config; unknown keys are errors (fail closed)."""
    cfg = dict(DEFAULTS)
    if path != "defaults":
        try:
            with open(path) as fh:
                user = json.load(fh)
        except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8, not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(user) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        wrong = sorted(k for k, v in user.items() if not _has_default_type(v, DEFAULTS[k]))
        if wrong:
            raise ConfigError(f"config values of the wrong type or not finite: {wrong}")
        cfg.update(user)
    if seed_override is not None:
        cfg["seed"] = int(seed_override)
    return cfg


def cloud_config(cfg: dict) -> CloudConfig:
    return CloudConfig(d=int(cfg["d"]), lam=float(cfg["lambda"]), R=float(cfg["R"]), seed=int(cfg["seed"]))


def experiment_config(cfg: dict) -> experiments.ExperimentConfig:
    def typed(k):
        default = DEFAULTS[k]
        return tuple(float(v) for v in cfg[k]) if isinstance(default, list) else type(default)(cfg[k])

    return experiments.ExperimentConfig(base=cloud_config(cfg), **{k: typed(k) for k in _EXPERIMENT})


def _echo_config(cfg: dict):
    print("resolved config: " + json.dumps(cfg, sort_keys=True), file=sys.stderr)


def _cmd_sample(cfg: dict, out_dir: str) -> int:
    cloud = sampler.sample_ball(cloud_config(cfg))
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"cloud_{cfg['seed']}")
    with open(base + ".json", "w") as fh:
        fh.write(sampler.cloud_to_json(cloud))
    with open(base + ".csv", "w") as fh:
        fh.write(sampler.cloud_to_csv(cloud))
    print(f"wrote {base}.json ({len(cloud)} points)", file=sys.stderr)
    return 0


def _cmd_rst(cfg: dict, out_dir: str) -> int:
    tree = rst.build(sampler.sample_ball(cloud_config(cfg)))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"rst_{cfg['seed']}.json")
    with open(path, "w") as fh:
        fh.write(rst.tree_to_json(tree))
    print(f"wrote {path} ({len(tree)} nodes)", file=sys.stderr)
    return 0


def _cmd_dsf(cfg: dict, out_dir: str) -> int:
    # floats, so that 4 and 4.0 in a config write the same bytes
    w = HalfWindow(*(float(cfg[k]) for k in ("half_width", "y_min", "y_max")))
    lam = float(cfg["lambda"])
    x, y = sampler.sample_half_arrays(lam, int(cfg["d"]), w, int(cfg["seed"]))
    forest = dsf.build_dsf((x, y))
    parents = forest.parent_in_input_order()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"dsf_{cfg['seed']}.json")
    payload = {
        "window": {"half_width": w.half_width, "y_min": w.y_min, "y_max": w.y_max},
        "lambda": lam,
        "d": int(cfg["d"]),
        "seed": int(cfg["seed"]),
        "frontier": int(dsf.FRONTIER),
        "parent": [int(p) for p in parents],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    print(f"wrote {path} ({len(forest)} nodes)", file=sys.stderr)
    return 0


def _cmd_analyze(experiment: str, cfg: dict, out_dir: str) -> int:
    if experiment != "all" and experiment not in experiments.EXPERIMENTS:
        print(
            f"unknown experiment {experiment!r}; choose 'all' or one of {sorted(experiments.EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    names = list(experiments.EXPERIMENTS) if experiment == "all" else [experiment]
    for report in experiments.analyze(experiment_config(cfg), names).values():
        json_path, csv_path = experiments.write_report(report, out_dir)
        print(f"wrote {json_path} and {csv_path}", file=sys.stderr)
    return 0


def _cmd_render(cfg: dict, out_dir: str) -> int:
    scene = render.SvgScene(
        disc_px=float(cfg["disc_px"]), edge_style=cfg["edge_style"], colors=bool(cfg["colors"])
    )
    config = cloud_config(cfg)
    render.require_disc(config.d)
    svg = render.render_svg(rst.build(sampler.sample_ball(config)), scene)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"rst_{cfg['seed']}.svg")
    with open(path, "w") as fh:
        fh.write(svg)
    print(f"wrote {path}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hyperrst",
        description="Radial spanning trees of hyperbolic Poisson processes.",
    )
    parser.add_argument("command", choices=["sample", "rst", "dsf", "analyze", "render"])
    parser.add_argument("experiment", nargs="?", help="experiment name or 'all', for `analyze` only")
    parser.add_argument("--config", default="defaults", help="JSON config path or 'defaults'")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--out", default=".", help="output directory")
    args = parser.parse_args(argv)
    if args.experiment is not None and args.command != "analyze":
        print(f"`{args.command}` takes no experiment name, got {args.experiment!r}", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _echo_config(cfg)

    try:
        experiments.num_workers()
        if args.command == "sample":
            return _cmd_sample(cfg, args.out)
        if args.command == "rst":
            return _cmd_rst(cfg, args.out)
        if args.command == "dsf":
            return _cmd_dsf(cfg, args.out)
        if args.command == "render":
            return _cmd_render(cfg, args.out)
        if args.command == "analyze":
            if not args.experiment:
                print("analyze requires an experiment name or 'all'", file=sys.stderr)
                return 2
            return _cmd_analyze(args.experiment, cfg, args.out)
    except (GeometryError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - runtime failures exit 3 by contract
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    return 2


if __name__ == "__main__":
    sys.exit(main())
