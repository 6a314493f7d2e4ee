"""hyperrst benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload suite_d1 --seed 1 --seconds 20 --trace 0

Run from the repository root. Each operation is a fresh worker process
(perfbench/worker.py) that imports hyperrst from ./src, builds the inputs
from the seed, times the workload body once, and checks its outputs against
the digests in perfbench/golden.json and against the workload's invariants.
Operations repeat until --seconds have passed (at least MIN_OPS of them);
every operation of a run uses the same inputs, so the run reports medians.

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced operations and reports per-layer metrics from
the traced ones, plus the tracing overhead. The last line of standard output
is the result object; the line before it holds the machine, the inputs and
every per-operation sample.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
GOLDEN = os.path.join(HERE, "golden.json")
OUT_DIR = ".perfbench_out"
MIN_OPS = 3
RUN_LIMIT_S = 170.0  # the whole run must end well within 180 s

sys.path.insert(0, HERE)
from worker import CAL_REF_S, SIZES, WORKLOADS  # noqa: E402


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: str):
    """HEAD of the git work tree rooted at root; None elsewhere."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def run_op(root: str, out_dir: str, workload: str, seed: int, scale: str, traced: bool, timeout: float) -> dict:
    """Spawn one worker; returns its result with setup_s added, or an error."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("HYPERRST_THREADS", None)  # every workload runs sequentially
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--scale", scale, "--trace", "1" if traced else "0", "--out", out_dir,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {timeout:.0f} s", "traced": traced}
    finished = time.monotonic()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return {"error": f"worker failed: {tail[0]}", "traced": traced}
    res = json.loads(lines[-1])
    # every reported time is rescaled to the reference machine speed; see worker.CAL_REF_S
    res["speed"] = CAL_REF_S / res["cal_s"]
    res["raw_wall_s"] = res["wall_s"]
    res["wall_s"] *= res["speed"]
    res["setup_s"] = (res["ready"] - spawned) * res["speed"]
    for name in res.get("layers", {}):
        if name.endswith("_s"):
            res["layers"][name] *= res["speed"]
    res["op_s"] = finished - spawned
    res["traced"] = traced
    expected = os.path.join(src, "hyperrst")
    if not res["versions"]["hyperrst_file"].startswith(expected + os.sep):
        res["error"] = f"imported {res['versions']['hyperrst_file']}, not the code under {expected}"
    return res


def score(ops: list, golden: dict | None) -> tuple:
    """(attempted, failed, failures): every check and every output digest is
    one operation. Digests are compared with golden.json when it has this
    workload and seed, else with the first operation of the run."""
    reference = golden
    if reference is None:
        reference = next((op["digests"] for op in ops if not op.get("error")), {})
    attempted = failed = 0
    failures = []
    for k, op in enumerate(ops):
        if op.get("error"):
            attempted += 1
            failed += 1
            failures.append(f"op {k}: {op['error']}")
            continue
        for name, ok, detail in op["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                failures.append(f"op {k}: {name}: {detail}")
        names = set(reference) | set(op["digests"])
        for name in sorted(names):
            attempted += 1
            if op["digests"].get(name) != reference.get(name):
                failed += 1
                failures.append(f"op {k}: digest {name} is {op['digests'].get(name)}, expected {reference.get(name)}")
    return attempted, failed, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hyperrst benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--scale", default="full", choices=("full", "toy"), help="toy is for the smoke tests only")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hyperrst", "__init__.py")):
        print("perfbench: src/hyperrst not found; run from the root of a hyperrst checkout", file=sys.stderr)
        return 2
    run_dir = os.path.join(root, OUT_DIR, f"{args.workload}_{args.seed}_{args.scale}_trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)

    start = time.monotonic()
    ops: list = []
    while True:
        elapsed = time.monotonic() - start
        if len(ops) >= MIN_OPS:
            typical = statistics.median(op.get("op_s", 0.0) for op in ops)
            if elapsed + typical > args.seconds:
                break
        if elapsed >= RUN_LIMIT_S:
            break
        # a traced run alternates untraced and traced operations
        traced = bool(args.trace) and len(ops) % 2 == 1
        op_dir = os.path.join(run_dir, f"op{len(ops)}")
        ops.append(run_op(root, op_dir, args.workload, args.seed, args.scale, traced, RUN_LIMIT_S - elapsed))

    with open(GOLDEN) as fh:
        golden = json.load(fh).get(args.scale, {}).get(args.workload, {}).get(str(args.seed))
    attempted, failed, failures = score(ops, golden)

    good = [op for op in ops if not op.get("error")]
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    metrics = {}
    if plain:
        wall = statistics.median(op["wall_s"] for op in plain)
        points = sum(plain[0]["n"])
        if args.trace:
            metrics = layer_metrics(traced, wall)
        else:
            metrics = {
                "wall_s": {"value": wall, "unit": "s"},
                "setup_s": {"value": statistics.median(op["setup_s"] for op in plain), "unit": "s"},
                "points_per_s": {"value": points / wall, "unit": "1/s"},
                "peak_rss_mb": {"value": statistics.median(op["rss_mb"] for op in plain), "unit": "MB"},
            }

    versions = good[0]["versions"] if good else {}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "sizes": SIZES[args.workload][args.scale],
        "n_per_replica": good[0]["n"] if good else [],
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": versions.get("python"),
            "numpy": versions.get("numpy"),
            "scipy": versions.get("scipy"),
            "platform": platform.platform(),
        },
        "commit": git_commit(root),
        "golden": golden is not None,
        "fail_frac": failed / attempted if attempted else 1.0,
        "failures": failures[:20],
        "samples": [
            {
                k: op.get(k)
                for k in ("traced", "wall_s", "setup_s", "raw_wall_s", "cal_s", "cal_samples", "speed", "rss_mb", "op_s", "error", "spans_file")
            }
            for op in ops
        ],
    }
    print(json.dumps({"info": info}))
    correct = failed == 0 and bool(plain) and (not args.trace or bool(traced))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(traced: list, untraced_wall: float) -> dict:
    """Medians over the traced operations of every per-layer value, plus the
    tracing overhead against the untraced operations of the same run."""
    if not traced:
        return {}
    names = traced[0]["layers"].keys()
    out = {}
    for name in names:
        median = statistics.median if name.endswith(("_s", "_frac")) else statistics.median_low
        value = median(op["layers"][name] for op in traced)
        out[name] = {"value": value, "unit": layer_unit(name)}
    builds = out["rst.build.calls"]["value"]
    lookups = out["experiments.tree_for.calls"]["value"]
    out["experiments.tree_reuse"] = {"value": 1.0 - builds / lookups if lookups else 0.0, "unit": "ratio"}
    out["trace.overhead_s"] = {
        "value": statistics.median(op["wall_s"] for op in traced) - untraced_wall,
        "unit": "s",
    }
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
