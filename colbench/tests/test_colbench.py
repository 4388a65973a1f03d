#!/usr/bin/env python3
"""Self-test of the colscore benchmark.

Run from the repository root:

    python3 colbench/tests/test_colbench.py

Builds colbench (as colbench/run.py does), then checks that
  * the span self-time arithmetic holds on a synthetic span tree;
  * every workload runs at a tiny size and emits exactly the metric names and
    units declared in BENCHMARK.json (end_to_end with --trace 0, per_layer
    with --trace 1), with every correctness check passing; the traced runs
    also compare the traced replay with the untraced library run;
  * the benchmark fails, without printing a result, in a directory holding
    only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "colbench"))

import run  # noqa: E402  (colbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def target_dir() -> str:
    return os.path.abspath(os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))


def bench(workload: str, trace: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "colbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", trace, "--tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)


class ColbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        cls.binary = run.build(ROOT, os.path.join(target_dir(), "colbench"))

    def test_self_time_arithmetic(self) -> None:
        out = subprocess.run([self.binary, "--selftest"], capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stderr)
        self.assertIn("selftest ok", out.stdout)

    def test_workloads_emit_declared_metrics(self) -> None:
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = bench(workload, trace)
                    self.assertEqual(out.returncode, 0, out.stderr)
                    result = json.loads(out.stdout.strip().splitlines()[-1])
                    self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    declared = {m["name"]: m["unit"] for m in SPEC[key]}
                    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(emitted, declared)
                    if trace == "0":
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_fails_without_sources(self) -> None:
        bare = os.path.join(target_dir(), "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        out = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn('"metrics"', out.stdout)


if __name__ == "__main__":
    unittest.main()
