"""The stage-record scripts run on this checkout: a script that reaches a
moved or renamed library name fails here, not only when a record is taken."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def one_round(tmp_path, script, checked_in):
    """Run one round of scripts/<script> on this checkout and check its
    record's keys against the checked-in record; returns the record's
    clouds."""
    out = tmp_path / "record.json"
    cmd = [
        sys.executable, str(ROOT / "scripts" / script),
        "--checkout", f"this={ROOT}", "--rounds", "1", "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    checked_in = json.loads((ROOT / checked_in).read_text())
    assert set(record) == set(checked_in)
    assert set(record["machine"]) == set(checked_in["machine"])
    clouds = record["checkouts"]["this"]["clouds"]
    want = next(iter(checked_in["checkouts"].values()))["clouds"]

    def keys(clouds):
        # the speed-up key is named after the first checkout's label
        return {c: {k for k in v if not k.startswith("speedup_vs_")} for c, v in clouds.items()}

    assert keys(clouds) == keys(want)
    return clouds


def test_level_api_record_one_round(tmp_path):
    stages = one_round(tmp_path, "bench_level_api.py", "BENCH_level_api.json")
    # every crossing of the grid takes one cfd call, down to a few ancestors
    assert stages["cfd"]["cfd_calls"] == stages["level_crossings"]["crossings"] > 0
    assert 0 < stages["cfd"]["distinct_ancestors"] < stages["cfd"]["cfd_calls"]
    assert all(s["stage_s_best"] > 0 for s in stages.values())


def test_suite_record_one_round(tmp_path):
    stages = one_round(tmp_path, "bench_suite.py", "BENCH_suite_d1.json")
    # straightness and mbd_moment share five sweeps, annulus adds five
    assert stages["sweep_kernels"]["sweeps"] == 10
    assert stages["planarity_check"]["crossings"] == 0 < stages["planarity_check"]["pairs_enumerated"]
    assert all(s["stage_s_best"] > 0 for s in stages.values())


def test_validate_record_one_round(tmp_path):
    clouds = one_round(tmp_path, "bench_validate.py", "BENCH_validate.json")
    for c in clouds.values():
        # the band scan visits bands and reads candidate pairs
        assert c["n"] > 0 and c["band_visits"] > 0 and c["pairs"] > 0
        assert c["validate_s_best"] > 0


def test_build_record_one_round(tmp_path):
    clouds = one_round(tmp_path, "bench_build.py", "BENCH_build.json")
    for c in clouds.values():
        # every cloud sends some rows to the k-d ball query (route 2)
        assert c["n"] > 0 and c["route2_rows"] > 0
        assert c["build_s_best"] > 0
    # the counts are deterministic: a change to the search's routing must
    # come with a new record
    counted = ("n", "wide_rows", "unbounded_rows", "route2_rows", "route2_candidates")
    record = json.loads((ROOT / "BENCH_build.json").read_text())
    for checkout in record["checkouts"].values():
        for name, c in checkout["clouds"].items():
            assert {k: clouds[name][k] for k in counted} == {k: c[k] for k in counted}, name


def test_sampling_record_one_round(tmp_path):
    stages = one_round(tmp_path, "bench_sampling.py", "BENCH_sampling.json")
    # a window's sample and its six sorts see the same points
    for half in ("half_d1", "half_d2"):
        assert stages[f"{half}_sample"]["n"] == stages[f"{half}_ordered"]["n"] > 0
        assert stages[f"{half}_ordered"]["sorts"] == 6
    assert all(s["n"] > 0 and s["stage_s_best"] > 0 for s in stages.values())
