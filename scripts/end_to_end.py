"""End-to-end record: `hyperrst analyze` and the ten acceptance criteria, timed.

Each run of a checkout runs `hyperrst analyze EXPERIMENT --config CONFIG`
once in a fresh process (by default `analyze all --config defaults`), then
each acceptance criterion as its own `pytest tests/test_acceptance.py -k
criterion_N_` from the checkout's own `tests`. Runs of any other command
skip the criteria, and the record says so. It writes one JSON record
with, for every run, the command's wall time, peak RSS and a digest of its
report bytes, and each criterion's wall time (interpreter start-up and
collection included) and exit code, plus the machine and the numpy/scipy
versions. For each checkout it also records the start-up cost that every
`hyperrst` process pays: the best of 5 wall times and the peak RSS of a
fresh `python -c "import hyperrst.cli"`. Each checkout is imported from its
own `src`. Comparing two checkouts alternates their runs, so that a slow
spell of the machine is shared.

    python3 scripts/end_to_end.py --checkout parent=../parent --checkout change=. \\
        --runs 1 --out BENCH_end_to_end.json
    python3 scripts/end_to_end.py --checkout parent=../parent --checkout change=. \\
        --config scripts/configs/bplus_d2.json --experiment bplus_volume --runs 2 --out d2.json

A run takes about two minutes at the defaults, so this is not part of the
test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

DEFAULT_CONFIG = "defaults"
DEFAULT_EXPERIMENT = "all"
CRITERIA = range(1, 11)
IMPORT_RUNS = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state(root: str) -> dict:
    """HEAD of the git work tree rooted at root, and whether its tracked
    files differ from HEAD; nulls outside a git work tree."""
    out = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True)
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(root):
        return {"commit": None, "dirty": None}
    status = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True)
    return {"commit": lines[1], "dirty": bool(status.stdout.strip())}


def reports_digest(out_dir: str) -> str:
    """SHA-256 over the name and bytes of every report file, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def checkout_env(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    env.pop("HYPERRST_THREADS", None)
    return env


def run_criterion(root: str, k: int) -> dict:
    """Acceptance criterion k of root's own tests, in a fresh pytest process."""
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "tests/test_acceptance.py", "-k", f"criterion_{k}_"]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=checkout_env(root), cwd=root, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return {"exit_code": proc.returncode, "wall_s": time.perf_counter() - start}


def run_child(root: str, argv: list) -> dict:
    """Exit code, wall time and peak RSS of argv in a fresh process importing root/src."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=checkout_env(root), cwd=root, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)  # the child's own peak RSS
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # kilobytes on Linux
    }


def run_once(root: str, command: list, criteria: bool) -> dict:
    """One `hyperrst <command>` in a fresh process importing root/src, then,
    if criteria is set, each acceptance criterion."""
    with tempfile.TemporaryDirectory() as out_dir:
        row = run_child(root, [sys.executable, "-m", "hyperrst.cli", *command, "--out", out_dir])
        row["reports"] = len(os.listdir(out_dir))
        row["reports_sha256"] = reports_digest(out_dir)
    row["criteria"] = {str(k): run_criterion(root, k) for k in CRITERIA} if criteria else {}
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                    help="a hyperrst checkout to run, under a label; repeat to compare")
    ap.add_argument("--config", default=DEFAULT_CONFIG, help="config file for analyze, or 'defaults'")
    ap.add_argument("--experiment", default=DEFAULT_EXPERIMENT, help="experiment for analyze, or 'all'")
    ap.add_argument("--runs", type=int, default=1, help="runs per checkout")
    ap.add_argument("--out", required=True, help="JSON record to write")
    args = ap.parse_args(argv)

    checkouts = {}
    for item in args.checkout:
        label, sep, root = item.partition("=")
        if not sep or not os.path.isfile(os.path.join(root, "src", "hyperrst", "cli.py")):
            ap.error(f"--checkout {item!r}: expected LABEL=DIR with DIR/src/hyperrst")
        checkouts[label] = os.path.abspath(root)
    config, config_values = args.config, None
    if config != DEFAULT_CONFIG:
        if not os.path.isfile(config):
            ap.error(f"--config {config!r}: no such file")
        config = os.path.abspath(config)  # each checkout runs in its own directory
        with open(config) as fh:
            config_values = json.load(fh)
    command = ["analyze", args.experiment, "--config", config]
    criteria = (args.config, args.experiment) == (DEFAULT_CONFIG, DEFAULT_EXPERIMENT)

    imports = {label: [] for label in checkouts}
    for _ in range(IMPORT_RUNS):
        for label, root in checkouts.items():
            imports[label].append(run_child(root, [sys.executable, "-c", "import hyperrst.cli"]))
    startup = {
        label: {
            "exit_code": max(r["exit_code"] for r in rows),
            "wall_s_best": min(r["wall_s"] for r in rows),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rows),
            "runs": len(rows),
        }
        for label, rows in imports.items()
    }
    for label, row in startup.items():
        print(f"{label} import hyperrst.cli: best {row['wall_s_best']:.3f} s, {row['peak_rss_mb']:.1f} MB, "
              f"exit {row['exit_code']}", file=sys.stderr)

    runs = {label: [] for label in checkouts}
    for k in range(args.runs):
        for label, root in checkouts.items():
            row = run_once(root, command, criteria)
            runs[label].append(row)
            crit = " ".join(f"c{c}={r['wall_s']:.1f}" + ("" if r["exit_code"] == 0 else "!")
                            for c, r in row["criteria"].items())
            print(f"{label} run {k}: {row['wall_s']:.1f} s, {row['peak_rss_mb']:.1f} MB, exit {row['exit_code']}; "
                  f"{crit}", file=sys.stderr)

    record = {
        "command": "hyperrst " + " ".join(["analyze", args.experiment, "--config", args.config]),
        "config": args.config,
        "config_values": config_values,
        "experiment": args.experiment,
        "criteria_timed": criteria,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "checkouts": {
            label: {**git_state(root), "import_cli": startup[label], "runs": runs[label]}
            for label, root in checkouts.items()
        },
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    failed = any(r["exit_code"] != 0 for rows in runs.values() for row in rows
                 for r in (row, *row["criteria"].values()))
    failed = failed or any(row["exit_code"] != 0 for row in startup.values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
