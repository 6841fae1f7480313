#!/usr/bin/env python3
"""Tests of the repository benchmark, at tiny instance sizes (about a minute).

Run from the repository root:

    python3 perfbench/test_run.py
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(workload, *extra, seed=3, trace=0, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
           "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            for workload in run.WORKLOADS:
                metrics = self.result(bench(workload, trace=trace))["metrics"]
                printed = {name: m["unit"] for name, m in metrics.items()}
                self.assertEqual(printed, declared, (workload, trace))

    def test_each_workload_completes_at_tiny_size(self):
        for workload in run.WORKLOADS:
            result = self.result(bench(workload))
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertGreaterEqual(result["attempted"], 1, workload)
            for name, metric in result["metrics"].items():
                self.assertGreater(metric["value"], 0, (workload, name))

    def test_digest_is_identical_across_runs(self):
        for workload in run.WORKLOADS:
            digests = [line for seed in (3, 3, 4)
                       for line in bench(workload, seed=seed).stdout.splitlines()
                       if line.startswith("digest:")]
            self.assertEqual(len(digests), 3, workload)
            self.assertEqual(digests[0], digests[1], workload)
            self.assertNotEqual(digests[0], digests[2], workload)

    def test_outcome_check_trips_on_a_tampered_result(self):
        for workload in run.WORKLOADS:
            result = self.result(bench(workload, "--tamper"))
            self.assertFalse(result["correct"], workload)
            self.assertGreaterEqual(result["failed"], 1, workload)

    def test_traced_run_separates_the_layers(self):
        shares = {}
        for workload in run.WORKLOADS:
            metrics = self.result(bench(workload, trace=1))["metrics"]
            self.assertEqual(metrics["obs.mirror_mismatches"]["value"], 0)
            self.assertEqual(metrics["obs.dropped_events"]["value"], 0)
            total = sum(metrics[f"{layer}.share_pct"]["value"]
                        for layer in run.TASK_LAYERS)
            self.assertAlmostEqual(total, 100.0, places=6)
            shares[workload] = {layer: metrics[f"{layer}.share_pct"]["value"]
                                for layer in run.TASK_LAYERS}
        self.assertEqual(shares["decay-lanes-gnp"]["cluster"], 0)
        self.assertGreater(shares["decay-lanes-gnp"]["radio"], 50)
        precompute = {w: s["cluster"] + s["schedule"] for w, s in shares.items()}
        self.assertGreater(precompute["cd-gnp"], precompute["le-cliquepath"])

    def test_fails_without_the_library_sources(self):
        bare = ROOT / "bench_out" / "perfbench-bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.iterdir():
            if path.is_file():
                shutil.copy(path, bare / "perfbench")
        proc = bench("cd-gnp", cwd=bare)
        shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
