"""One benchmark operation in a fresh process.

The worker imports hyperrst, builds the workload's inputs from the seed,
runs the workload body once under a timer while sampling the machine's speed
(SpeedProbe), checks the outputs and prints one JSON line. With --trace 1 it
also records spans around the library's public functions, writes them as
JSON lines to --out, and reports per-layer sums.

    PYTHONPATH=src python3 perfbench/worker.py --workload suite_d1 --seed 1 \
        --scale full --trace 0 --out .perfbench_out

run.py starts one worker per operation; the worker is not meant to be run
by hand except to debug one operation.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import numpy as np

import spans

SUITE = (
    "straightness",
    "mbd_moment",
    "annulus",
    "good_points",
    "level_counts",
    "bplus_volume",
    "confinement",
    "direction_convergence",
)

# Workload sizes. "full" is what the benchmark measures; "toy" keeps the
# smoke tests fast and is never used for a reported number.
SIZES = {
    "suite_d1": {
        "full": {"lam": 30.0, "R": 5.0, "replicas": 1},
        "toy": {"lam": 5.0, "R": 3.0, "replicas": 2, "r0_grid": (1.2, 1.5, 1.8)},
    },
    "coupling_half": {
        "full": {"replicas": 1},
        "toy": {"replicas": 1, "A": 0.5, "a": 0.0, "h_grid": (2.0, 4.0)},
    },
    "level_api_d1": {
        "full": {"lam": 10.0, "R": 4.0, "trees": 2, "levels": 100, "r0": 1.5, "r1": 3.5},
        "toy": {"lam": 3.0, "R": 3.0, "trees": 1, "levels": 4, "r0": 1.0, "r1": 2.0},
    },
    "validate_d2": {
        "full": {"lam": 1.0, "R": 4.0, "replicas": 1, "r0_grid": (1.5, 2.0, 2.5), "r1": 3.5},
        "toy": {"lam": 0.5, "R": 2.5, "replicas": 1, "r0_grid": (1.0,), "r1": 2.0},
    },
}

# Public functions that get a span in a traced operation. The exp_* bodies
# share one span name, so that their self time adds up to one layer.
TRACED = {
    "sampler": ("sample_ball", "sample_half_arrays"),
    "rst": ("build", "validate", "deviation_sweep", "planarity_check", "level_crossings", "cfd", "mbd"),
    "dsf": ("build_dsf", "build_rst_h", "coupling_fraction"),
    "search": ("nearest_lower",),
    "experiments": ("tree_for", "bootstrap_fit", "write_report"),
    "hgeom": ("boost_from_origin",),
}
EXP_SPAN = "experiments.exp"

TOL = 1e-9


def digest(*arrays_or_bytes) -> str:
    h = hashlib.sha256()
    for a in arrays_or_bytes:
        if isinstance(a, bytes):
            h.update(a)
        else:
            h.update(str(a.dtype).encode())
            h.update(a.tobytes())
    return h.hexdigest()[:32]


def file_digest(paths) -> str:
    data = b""
    for p in paths:
        with open(p, "rb") as fh:
            data += fh.read()
    return digest(data)


# The host's speed swings by up to 1.7x within seconds: the same rst.build
# took 80 to 140 ms within one minute on the 2-core Xeon VM of the first
# baseline, and a CPU-time clock swings as much. So while the body runs, a
# SIGALRM handler times a fixed calibration kernel every PROBE_INTERVAL_S,
# and the handler's time is taken out of the body's. run.py rescales the
# operation's times by CAL_REF_S / (mean kernel time), which gives the time
# the body would take at the speed where the kernel takes CAL_REF_S (a fixed
# reference; the kernel took 10 to 13 ms on that VM). The mean, not the
# median, because the body's time integrates 1/speed over the same interval.
PROBE_INTERVAL_S = 0.1
CAL_REF_S = 0.010


def calibration_kernel() -> float:
    """Fixed work shaped like the library's inner loops: binary searches,
    small numpy reductions and scalar interpreter arithmetic."""
    rng = np.random.default_rng(12345)
    keys = np.sort(rng.random(500))
    pts = rng.random((500, 2))
    acc = 0.0
    for i in range(500):
        lo = int(np.searchsorted(keys, keys[i] - 0.2))
        hi = int(np.searchsorted(keys, keys[i]))
        if hi > lo:
            acc += float(np.min(np.sum((pts[lo:hi] - pts[i]) ** 2, axis=1)))
        acc += math.sqrt(abs(math.sin(i)))
    return acc


class SpeedProbe:
    """Samples the machine's speed with the calibration kernel while a body
    runs, from a SIGALRM handler re-armed after every tick. Each tick's
    (start, end) is kept, so that a traced operation can take the ticks out
    of the spans they land in."""

    def __init__(self):
        self.ticks: list = []
        self.spent = 0.0  # seconds the handler took out of the body

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.ticks.append((t0, t1))
        self.spent += t1 - t0
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.ticks:  # a body shorter than one interval
            t0 = time.perf_counter()
            calibration_kernel()
            self.ticks.append((t0, time.perf_counter()))
        return False

    def mean_s(self) -> float:
        return statistics.fmean(t1 - t0 for t0, t1 in self.ticks)


# ---------------------------------------------------------------------------
# workload bodies: only library calls, so that wall_s is the library's time


def inputs_suite_d1(lib, size, seed):
    experiments = lib["experiments"]
    cfg = experiments.default_config(seed=seed, replicas=size["replicas"])
    base = dataclasses.replace(cfg.base, lam=size["lam"], R=size["R"])
    return dataclasses.replace(cfg, base=base, r0_grid=size.get("r0_grid", cfg.r0_grid))


def watch_suite_d1(lib, seen):
    """rst.planarity_check runs on each tree as soon as rst.build returns it,
    so that the benchmark keeps no tree alive; only its size, parent digest
    and crossing count are kept."""
    rst = lib["rst"]

    def on_tree(tree):
        seen.append({"n": len(tree), "parent": digest(tree.parent), "crossings": rst.planarity_check(tree)})

    return {("rst", "build"): [on_tree]}


def body_suite_d1(lib, cfg, out_dir):
    experiments = lib["experiments"]
    files = {}
    for name in SUITE:
        report = getattr(experiments, "exp_" + name)(cfg)
        files[name] = experiments.write_report(report, out_dir)
    return {"files": files}


def watch_coupling_half(lib, seen):
    """Keep the label, size and parent digest of each forest, not the forest."""

    def on_forest(forest):
        label = "dsf" if forest.h is None else f"rst_h{forest.h:g}"
        seen.append({"n": len(forest), "parent": digest(forest.parent), "label": label})

    return {("dsf", "build_dsf"): [on_forest], ("dsf", "build_rst_h"): [on_forest]}


def inputs_coupling_half(lib, size, seed):
    return lib["experiments"].default_config(seed=seed, **size)


def body_coupling_half(lib, cfg, out_dir):
    experiments = lib["experiments"]
    return {"files": experiments.write_report(experiments.exp_coupling(cfg), out_dir)}


def inputs_ball(lib, size, seed, d):
    cfg = lib["sampler"].CloudConfig(d=d, lam=size["lam"], R=size["R"], seed=seed)
    return dict(size, cloud=cfg)


def body_level_api_d1(lib, inp, out_dir):
    rst, sampler = lib["rst"], lib["sampler"]
    r0, r1, levels = inp["r0"], inp["r1"], inp["levels"]
    out = []
    for replica in range(inp["trees"]):
        tree = rst.build(sampler.sample_ball(inp["cloud"], replica))
        report = rst.validate(tree)
        sweep = rst.deviation_sweep(tree, r0, r1)
        mbd = [rst.mbd(tree, c, r1) for c in rst.level_crossings(tree, r0)]
        grid = []
        for k in range(1, levels + 1):
            crossings = rst.level_crossings(tree, r0 + (r1 - r0) * k / levels)
            grid.append((crossings, [rst.cfd(tree, r0, c) for c in crossings]))
        out.append({"tree": tree, "ok": report.ok, "sweep": sweep, "mbd": mbd, "grid": grid})
    return {"trees": out}


def body_validate_d2(lib, inp, out_dir):
    rst, sampler = lib["rst"], lib["sampler"]
    out = []
    for replica in range(inp["replicas"]):
        tree = rst.build(sampler.sample_ball(inp["cloud"], replica))
        report = rst.validate(tree)
        sweeps = [rst.deviation_sweep(tree, r0, inp["r1"]) for r0 in inp["r0_grid"]]
        out.append({"tree": tree, "ok": report.ok, "sweeps": sweeps})
    return {"trees": out}


# ---------------------------------------------------------------------------
# checks: (name, ok, detail) rows and output digests, computed after timing


def check_suite_d1(lib, cfg, result):
    checks, digests = [], {}
    for name, paths in result["files"].items():
        digests["report." + name] = file_digest(paths)
    trees = lib["seen"]
    if len(trees) != cfg.replicas:
        checks.append(("trees_built", False, f"{len(trees)} trees for {cfg.replicas} replicas"))
    for k, tree in enumerate(trees):
        digests[f"parent.{k}"] = tree["parent"]
        checks.append((f"planarity.{k}", tree["crossings"] == 0, f"{tree['crossings']} geodesic crossings"))
    return checks, digests, [t["n"] for t in trees]


def check_coupling_half(lib, cfg, result):
    digests = {"report.coupling": file_digest(result["files"])}
    forests = lib["seen"]
    for k, forest in enumerate(forests):
        digests[f"parent.{k}.{forest['label']}"] = forest["parent"]
    # reaching this point means no MarginError was raised
    checks = [("margin_audit", True, "no MarginError")]
    return checks, digests, [forests[0]["n"]] if forests else []


def _ancestor_index(tree, sweep, r0):
    """Index into sweep.children of each node's r0-level ancestor edge (-1 if none).

    Parents have smaller radii, hence smaller indices, so one forward pass
    resolves every node.
    """
    slot = {int(c): k for k, c in enumerate(sweep.children)}
    parent = tree.parent.tolist()
    radii = tree.radii.tolist()
    anc = [-1] * len(parent)
    for i, p in enumerate(parent):
        if i in slot:
            anc[i] = slot[i]
        elif p >= 0 and radii[p] > r0:
            anc[i] = anc[p]
    return anc


def check_level_api_d1(lib, inp, result):
    checks, digests, ns = [], {}, []
    r0 = inp["r0"]
    for k, row in enumerate(result["trees"]):
        tree, sweep = row["tree"], row["sweep"]
        ns.append(len(tree))
        digests[f"parent.{k}"] = digest(tree.parent)
        checks.append((f"validate.{k}", row["ok"], "validate().ok"))
        worst = max((abs(a - b) for a, b in zip(row["mbd"], sweep.mbd.tolist())), default=0.0)
        same_len = len(row["mbd"]) == len(sweep.mbd)
        checks.append((f"mbd_scalar_vs_sweep.{k}", same_len and worst <= TOL, f"max diff {worst:.3e}"))
        anc = _ancestor_index(tree, sweep, r0)
        mbd = sweep.mbd.tolist()
        above = 0
        cells = 0
        for crossings, values in row["grid"]:
            for c, v in zip(crossings, values):
                cells += 1
                a = anc[c.edge_child]
                if a < 0 or v > mbd[a] + TOL:
                    above += 1
        checks.append((f"grid_cfd_below_mbd.{k}", above == 0, f"{above} of {cells} grid CFDs above MBD"))
    return checks, digests, ns


def check_validate_d2(lib, inp, result):
    checks, digests, ns = [], {}, []
    for k, row in enumerate(result["trees"]):
        tree = row["tree"]
        ns.append(len(tree))
        digests[f"cloud.{k}"] = digest(tree.radii, tree.dirs)
        digests[f"parent.{k}"] = digest(tree.parent)
        digests[f"sweep_mbd.{k}"] = digest(*[s.mbd for s in row["sweeps"]])
        checks.append((f"validate.{k}", row["ok"], "validate().ok"))
    return checks, digests, ns


def watch_nothing(lib, seen):
    return {}


# name -> (inputs, watch, body, check). inputs(lib, size, seed) runs in
# set-up; watch(lib, seen) gives result hooks {(module, function): [hook]}
# that append what the check needs to seen; body(lib, inputs, out_dir) is
# timed, hooks included; check(lib, inputs, result) is not.
WORKLOADS = {
    "suite_d1": (inputs_suite_d1, watch_suite_d1, body_suite_d1, check_suite_d1),
    "coupling_half": (inputs_coupling_half, watch_coupling_half, body_coupling_half, check_coupling_half),
    "level_api_d1": (
        lambda lib, size, seed: inputs_ball(lib, size, seed, d=1),
        watch_nothing,
        body_level_api_d1,
        check_level_api_d1,
    ),
    "validate_d2": (
        lambda lib, size, seed: inputs_ball(lib, size, seed, d=2),
        watch_nothing,
        body_validate_d2,
        check_validate_d2,
    ),
}


# ---------------------------------------------------------------------------


def install(lib, hooks: dict, tracer: spans.Tracer | None):
    """Wrap each hooked function once, and with a tracer each traced one too."""
    hooks = {key: list(fs) for key, fs in hooks.items()}
    traced = []
    if tracer is not None:
        traced = [(mod, fname) for mod, names in TRACED.items() for fname in names]
        counters = {
            ("sampler", "sample_ball"): lambda c: tracer.count("sampler.points", len(c)),
            ("sampler", "sample_half_arrays"): lambda xy: tracer.count("sampler.points", len(xy[1])),
            ("rst", "level_crossings"): lambda cs: tracer.count("rst.crossings", len(cs)),
            ("rst", "deviation_sweep"): lambda s: tracer.count("rst.crossings", len(s.children)),
        }
        for key, counter in counters.items():
            hooks.setdefault(key, []).append(counter)
        for name in SUITE + ("coupling",):
            spans.wrap(lib["experiments"], "exp_" + name, tracer, EXP_SPAN)
    for mod, fname in traced:
        spans.wrap(lib[mod], fname, tracer, on_result=hooks.pop((mod, fname), ()))
    for (mod, fname), fs in hooks.items():
        spans.wrap(lib[mod], fname, on_result=fs)


def layer_metrics(tracer: spans.Tracer, body_s: float, ticks: list) -> dict:
    summary = spans.summarize(tracer.spans, body_s, ticks)
    by_name = summary["by_name"]
    names = [f"{mod}.{f}" for mod, fs in TRACED.items() for f in fs] + [EXP_SPAN]
    out = {}
    for name in names:
        row = by_name.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[name + ".busy_s"] = row["busy_s"]
        out[name + ".calls"] = row["calls"]
    out[EXP_SPAN + ".self_s"] = by_name.get(EXP_SPAN, {"self_s": 0.0})["self_s"]
    out["sampler.points"] = tracer.counts.get("sampler.points", 0)
    out["rst.crossings"] = tracer.counts.get("rst.crossings", 0)
    out["trace.uncovered_frac"] = summary["uncovered_frac"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full", choices=("full", "toy"))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out", required=True, help="directory for this operation's reports and spans")
    args = ap.parse_args(argv)

    import scipy

    from hyperrst import dsf, experiments, hgeom, rst, sampler, search

    lib = {
        "dsf": dsf,
        "experiments": experiments,
        "hgeom": hgeom,
        "rst": rst,
        "sampler": sampler,
        "search": search,
        "seen": [],
    }
    make_inputs, watch, body, check = WORKLOADS[args.workload]
    inputs = make_inputs(lib, SIZES[args.workload][args.scale], args.seed)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    install(lib, watch(lib, lib["seen"]), tracer)
    ready = time.monotonic()

    error = None
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        try:
            result = body(lib, inputs, out_dir)
        except Exception as exc:  # a failed operation is reported, not fatal
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0 - probe.spent

    checks, digests, ns = [], {}, []
    if error is None:
        try:
            checks, digests, ns = check(lib, inputs, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    out = {
        "ready": ready,
        "wall_s": wall,
        "cal_s": probe.mean_s(),
        "cal_samples": len(probe.ticks),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "n": ns,
        "error": error,
        "checks": [list(c) for c in checks],
        "digests": digests,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "hyperrst_file": os.path.abspath(rst.__file__),
        },
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer, wall, probe.ticks)
        path = os.path.join(out_dir, "spans.jsonl")
        tracer.write_jsonl(path, probe.ticks)
        out["spans_file"] = path
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
