"""The benchmark's workloads at toy scale: every output matches its golden
digests and invariants, so a broken `exp_*`, crossing or `cfd`/`mbd`
contract fails here rather than only in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["suite_d1", "coupling_half", "level_api_d1", "validate_d2"])
def test_toy_workload_correct(workload):
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--scale", "toy", "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
    assert info["golden"], "toy digests missing from golden.json"
    assert result["correct"], info["failures"]
    assert result["failed"] == 0
