"""Record the output digests that run.py checks every operation against.

    python3 perfbench/golden.py --seeds 0-99 20240811 [--scale full]

Run from the repository root at a commit whose outputs are known good. Runs
one worker per (workload, seed), one after another, refuses to record an
operation whose own checks fail, and rewrites perfbench/golden.json. Reports and
parent arrays are meant to stay byte-identical across performance work, so
a changed digest is a failure of the change, not a reason to re-record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run
from worker import WORKLOADS


def parse_seeds(items) -> list:
    seeds = []
    for item in items:
        lo, _, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if hi else [int(lo)])
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="record perfbench/golden.json")
    ap.add_argument("--seeds", nargs="+", required=True, help="seeds or inclusive ranges like 0-40")
    ap.add_argument("--scale", default="full", choices=("full", "toy"))
    args = ap.parse_args(argv)

    root = os.getcwd()
    out_dir = os.path.join(root, run.OUT_DIR, "golden")
    recorded = {}
    if os.path.exists(run.GOLDEN):
        with open(run.GOLDEN) as fh:
            recorded = json.load(fh)
    golden = recorded.setdefault(args.scale, {})
    bad = 0
    for workload in sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            op_dir = os.path.join(out_dir, f"{workload}_{seed}")
            res = run.run_op(root, op_dir, workload, seed, args.scale, False, run.RUN_LIMIT_S)
            failed = res.get("error") or [c for c in res["checks"] if not c[1]]
            if failed:
                bad += 1
                print(f"{workload} seed {seed}: not recorded: {failed}", file=sys.stderr)
                continue
            golden.setdefault(workload, {})[str(seed)] = res["digests"]
            print(f"{workload} seed {seed}: n={res['n']}", file=sys.stderr)
    recorded[args.scale] = {
        w: dict(sorted(by_seed.items(), key=lambda kv: int(kv[0]))) for w, by_seed in sorted(golden.items())
    }
    with open(run.GOLDEN, "w") as fh:
        json.dump(dict(sorted(recorded.items())), fh, indent=1)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
