"""Layer record for `rst.validate`: its time and the empty-B+ band scan's work.

For each of four clouds (seed 29) a child process, importing the checkout's
own `src`, builds the RST, times `rst.validate` (best of 15 calls) and counts,
over one further call, what the band scan of `rst._nearest_lower_in_balls`
does: band visits (queries handed to `rst._band_ranges`, one per query and
band), ranges and candidate pairs (the `(query, lo, hi)` ranges it yields
and their total length), each per point. Comparing two checkouts alternates
their children, so that a slow spell of the machine is shared; the record
keeps every round, the best time over rounds and its speed-up over the first
checkout, with the machine, each checkout's commit and the python, numpy and
scipy versions.

    python3 scripts/bench_validate.py --checkout parent=../parent --checkout change=. \\
        --rounds 5 --out BENCH_validate.json

A child takes a few seconds, so five rounds of two checkouts take about half
a minute.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import numpy
import scipy

from end_to_end import checkout_env, cpu_model, git_state

SEED = 29
CALLS = 15
CLOUDS = {
    "d1_n1.7k": {"d": 1, "lam": 10.0, "R": 4.0},
    "d1_n14k": {"d": 1, "lam": 30.0, "R": 5.0},
    "d2_n4.7k": {"d": 2, "lam": 1.0, "R": 4.0},
    "d3_n9k": {"d": 3, "lam": 0.3, "R": 3.5},
}


def measure(name: str) -> dict:
    """One cloud in this process: n, the best validate time, and the band
    scan's work per point over one counted call."""
    import time

    from hyperrst import rst, sampler

    cloud = sampler.sample_ball(sampler.CloudConfig(seed=SEED, **CLOUDS[name]))
    tree = rst.build(cloud)
    if not rst.validate(tree).ok:
        raise SystemExit(f"{name}: validate reports violations on a built tree")
    best = float("inf")
    for _ in range(CALLS):
        start = time.perf_counter()
        rst.validate(tree)
        best = min(best, time.perf_counter() - start)
    seen = {"band_visits": 0, "ranges": 0, "pairs": 0}
    band_ranges = rst._band_ranges

    def counting(index, u, chord):
        seen["band_visits"] += u.shape[0]
        for k, lo, hi in band_ranges(index, u, chord):
            seen["ranges"] += k.size
            seen["pairs"] += int((hi - lo).sum())
            yield k, lo, hi

    rst._band_ranges = counting
    try:
        rst.validate(tree)
    finally:
        rst._band_ranges = band_ranges
    n = len(tree)
    return {
        "n": n,
        "validate_s_best": best,
        "calls": CALLS,
        **{f"{k}_per_point": v / n for k, v in seen.items()},
        **seen,
    }


def run_child(root: str, module: str) -> dict:
    """Every cloud of the script `module` measured in one fresh process
    importing root/src."""
    here = os.path.dirname(os.path.abspath(__file__))
    code = f"import json, sys; sys.path.insert(0, {here!r}); import {module} as b; " \
           "print(json.dumps({k: b.measure(k) for k in b.CLOUDS}))"
    proc = subprocess.run([sys.executable, "-c", code], env=checkout_env(root), cwd=root,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def compare(argv, doc: str, module: str, clouds: dict, time_key: str, work: str | None) -> int:
    """The command line of a layer record: run the checkouts' children in
    alternating rounds, keep the best of `time_key` per cloud over rounds and
    check that every other count repeats exactly, print `work` per point (if
    given) next to the best times, and write the record."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=DIR",
                    help="a hyperrst checkout to run, under a label; repeat to compare")
    ap.add_argument("--rounds", type=int, default=5, help="children per checkout, alternated")
    ap.add_argument("--out", required=True, help="JSON record to write")
    args = ap.parse_args(argv)

    checkouts = {}
    for item in args.checkout:
        label, sep, root = item.partition("=")
        if not sep or not os.path.isfile(os.path.join(root, "src", "hyperrst", "rst.py")):
            ap.error(f"--checkout {item!r}: expected LABEL=DIR with DIR/src/hyperrst")
        checkouts[label] = os.path.abspath(root)

    rounds = {label: [] for label in checkouts}
    for k in range(args.rounds):
        # alternate which checkout goes first
        for label in list(checkouts)[:: 1 if k % 2 == 0 else -1]:
            row = run_child(checkouts[label], module)
            rounds[label].append(row)
            line = " ".join(f"{c}={r[time_key] * 1e3:.1f}ms" for c, r in row.items())
            print(f"{label} round {k}: {line}", file=sys.stderr)

    summary = {}
    for label, rows in rounds.items():
        summary[label] = {}
        for c in clouds:
            first = rows[0][c]
            counts = {key: v for key, v in first.items() if key != time_key}
            # the counts repeat exactly; only the times vary between rounds
            if any({key: v for key, v in r[c].items() if key != time_key} != counts for r in rows):
                raise SystemExit(f"{label} {c}: counts differ between rounds")
            summary[label][c] = {**counts, time_key: min(r[c][time_key] for r in rows),
                                 time_key.replace("_best", "_rounds"): [r[c][time_key] for r in rows]}
    base = next(iter(summary))
    for s in summary.values():
        for c in clouds:
            s[c][f"speedup_vs_{base}"] = summary[base][c][time_key] / s[c][time_key]
    for c in clouds:
        line = " ".join(f"{label} {s[c][time_key] * 1e3:.1f} ms"
                        + (f", {s[c][work + '_per_point']:.2f} {work}/pt;" if work else ";")
                        for label, s in summary.items())
        print(f"{c}: {line}", file=sys.stderr)

    record = {
        # checkouts by label: their directories are local, their commits are below
        "command": f"python3 scripts/{module}.py " + " ".join(
            [*(f"--checkout {label}=DIR" for label in checkouts), f"--rounds {args.rounds}"]),
        "seed": SEED,
        "clouds": clouds,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "checkouts": {
            label: {**git_state(root), "clouds": summary[label]}
            for label, root in checkouts.items()
        },
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    return compare(argv, __doc__, "bench_validate", CLOUDS, "validate_s_best", "pairs")


if __name__ == "__main__":
    sys.exit(main())
