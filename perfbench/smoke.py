"""Smoke tests for the benchmark itself, at toy scale (a few hundred points).

    python3 -m unittest perfbench/smoke.py      # from the repository root

They check that every workload prints every metric BENCHMARK.json names,
with its unit, and that a perturbed parent array or report byte is counted
as a failed operation. The perturbations are injected from outside through
a sitecustomize module on PYTHONPATH, so the benchmark has no test-only path.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench_out", "smoke")
WORKLOADS = ("suite_d1", "coupling_half", "level_api_d1", "validate_d2")

PERTURB_PARENT = """
import hyperrst.rst as rst
_build = rst.build
def build(cloud):
    tree = _build(cloud)
    tree.parent = tree.parent.copy()
    tree.parent[-1] = 0 if tree.parent[-1] == -1 else -1
    return tree
rst.build = build
"""

PERTURB_REPORT = """
import hyperrst.experiments as experiments
_to_csv = experiments.report_to_csv
experiments.report_to_csv = lambda report: _to_csv(report) + " "
"""


def bench(workload: str, trace: int, cwd: str = ROOT, inject: str | None = None, seed: int = 1):
    env = dict(os.environ)
    if inject is not None:
        site = os.path.join(SCRATCH, "site")
        shutil.rmtree(site, ignore_errors=True)
        os.makedirs(site)
        with open(os.path.join(site, "sitecustomize.py"), "w") as fh:
            fh.write(textwrap.dedent(inject))
        env["PYTHONPATH"] = site
    cmd = [
        sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--scale", "toy",
    ]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170)


def result_of(proc) -> tuple:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            cls.spec = json.load(fh)

    def test_every_workload_prints_every_metric_with_its_unit(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]), sorted(WORKLOADS))
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[group]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    info, res = result_of(proc)
                    self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(res["correct"], info["failures"])
                    self.assertTrue(info["golden"], "toy digests missing from golden.json")
                    self.assertEqual(res["failed"], 0)
                    self.assertGreaterEqual(res["attempted"], 1)
                    got = {name: m["unit"] for name, m in res["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in res["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_perturbed_parent_array_counts_as_failed(self):
        info, res = result_of(bench("validate_d2", 0, inject=PERTURB_PARENT))
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertGreater(info["fail_frac"], 0)
        self.assertTrue(any("digest parent.0" in f for f in info["failures"]), info["failures"])

    def test_perturbed_report_byte_counts_as_failed(self):
        info, res = result_of(bench("coupling_half", 0, inject=PERTURB_REPORT))
        self.assertFalse(res["correct"])
        self.assertGreater(res["failed"], 0)
        self.assertTrue(any("digest report.coupling" in f for f in info["failures"]), info["failures"])

    def test_refuses_to_run_without_the_library(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("suite_d1", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
