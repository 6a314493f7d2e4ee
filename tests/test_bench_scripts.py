"""The stage-record scripts run on this checkout: a script that reaches a
moved or renamed library name fails here, not only when a record is taken."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_level_api_record_one_round(tmp_path):
    out = tmp_path / "record.json"
    cmd = [
        sys.executable, str(ROOT / "scripts" / "bench_level_api.py"),
        "--checkout", f"this={ROOT}", "--rounds", "1", "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    checked_in = json.loads((ROOT / "BENCH_level_api.json").read_text())
    assert set(record) == set(checked_in)
    assert set(record["machine"]) == set(checked_in["machine"])
    stages = record["checkouts"]["this"]["clouds"]
    want = next(iter(checked_in["checkouts"].values()))["clouds"]

    def keys(clouds):
        # the speed-up key is named after the first checkout's label
        return {c: {k for k in v if not k.startswith("speedup_vs_")} for c, v in clouds.items()}

    assert keys(stages) == keys(want)
    # every crossing of the grid takes one cfd call, down to a few ancestors
    assert stages["cfd"]["cfd_calls"] == stages["level_crossings"]["crossings"] > 0
    assert 0 < stages["cfd"]["distinct_ancestors"] < stages["cfd"]["cfd_calls"]
    assert all(s["stage_s_best"] > 0 for s in stages.values())
