"""The benchmark's workloads at toy scale: every output matches its golden
digests and invariants, so a broken `exp_*`, crossing or `cfd`/`mbd`
contract fails here rather than only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


WORKLOADS = ["suite_d1", "coupling_half", "level_api_d1", "validate_d2"]
# public functions each workload's body reaches through its module
CALLED = {
    "suite_d1": ["rst.build", "rst.deviation_sweep", "rst.planarity_check"],
    "coupling_half": ["dsf.build_dsf", "dsf.build_rst_h", "dsf.coupling_fraction"],
    "level_api_d1": ["rst.level_crossings", "rst.cfd", "rst.mbd"],
    "validate_d2": ["rst.build", "rst.validate"],
}


def run_toy(workload, trace):
    """The result line of a one-second toy run of the workload."""
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--scale", "toy", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert info["golden"], "toy digests missing from golden.json"
    assert result["correct"], info["failures"]
    assert result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_correct(workload):
    run_toy(workload, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_traced(workload):
    # the traced run wraps public names (rst.cfd, rst.mbd, ...) from
    # outside; a renamed one would report no calls under its old name
    metrics = run_toy(workload, 1)["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [m["name"] for m in declared if m["name"] not in metrics] == []
    assert [f for f in CALLED[workload] if not metrics[f + ".calls"]["value"] > 0] == []
