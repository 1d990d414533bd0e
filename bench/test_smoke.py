"""Smoke test of the benchmark at tiny input sizes.

    python3 -m unittest discover -s bench -p "test_*.py"

Runs every workload for a fraction of a second, untraced and traced, and
checks the output contract: every metric named in ``BENCHMARK.json`` with
its unit, no failed op, the same output digest for the same seed, and a
non-zero exit without a result where the program is missing.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def tiny(workload: str, trace: int) -> subprocess.CompletedProcess:
    return run("--workload", workload, "--seed", "1", "--seconds", "0.3",
               "--trace", str(trace), "--tiny")


class SmokeTest(unittest.TestCase):
    def check_result(self, done: subprocess.CompletedProcess, metrics: list[dict]) -> str:
        self.assertEqual(done.returncode, 0, done.stderr)
        *report, last = done.stdout.splitlines()
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 100)
        expected = {m["name"]: m["unit"] for m in metrics}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
        text = "\n".join(report)
        for name, unit in expected.items():
            self.assertRegex(text, rf"\b{re.escape(name)}\s+\S+\s+{re.escape(unit)}(?!\S)")
        return text

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                text = self.check_result(tiny(workload, 0), BENCHMARK["end_to_end"])
                self.assertRegex(text, r"\berror_rate\s+0\.0000 ratio")
                self.assertRegex(text, r"\d+ ops")
                digest = re.search(r"output digest (\w+)", text).group(1)
                again = re.search(r"output digest (\w+)", tiny(workload, 0).stdout).group(1)
                self.assertEqual(digest, again)

    def test_traced_runs_print_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                text = self.check_result(tiny(workload, 1), BENCHMARK["per_layer"])
                self.assertRegex(text, r"spans written to")

    def test_fails_without_the_program(self):
        bare = ROOT / ".bench_out" / "smoke-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
