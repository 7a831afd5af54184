"""Checks of the benchmark itself.

Run from the root of a checkout (takes a few minutes)::

    python3 perfbench/selftest.py

* Two traced runs of each workload at the canonical seed reproduce the
  deterministic counters recorded in ``baseline.json`` exactly.
* ``run.py`` exits non-zero without printing a result when the checkout
  holds no program sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def scratch():
    path = run.ROOT / ".perfbench-tmp"
    path.mkdir(exist_ok=True)
    return path


class CountersRepeat(unittest.TestCase):
    def traced_counters(self, workload, work):
        path = work.scenario(run.scenario_for(workload, run.CANONICAL_SEED))
        trace_out = work.file("trace.json")
        code, *_, report = run.verify(work, path, run.HARD_LIMIT_S, tracer_out=trace_out)
        self.assertEqual(code, 0, f"{workload}: traced verify exited {code}")
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        self.assertEqual(trace["untraced"], [])
        metrics = run.layer_metrics(trace)
        return {name: metrics[name]["value"] for name in run.baseline()[workload]["counters"]}

    def test_two_traced_runs_match_the_baseline(self):
        with tempfile.TemporaryDirectory(dir=scratch()) as tmp:
            work = run.Work(tmp)
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload):
                    first = self.traced_counters(workload, work)
                    second = self.traced_counters(workload, work)
                    self.assertEqual(first, second)
                    self.assertEqual(first, run.baseline()[workload]["counters"])


class RefusesWithoutProgram(unittest.TestCase):
    def test_bare_benchmark_directory_exits_nonzero(self):
        with tempfile.TemporaryDirectory(dir=scratch()) as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "shipped",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
