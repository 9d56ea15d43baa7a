#!/usr/bin/env python3
"""The benchmark's own tests, on the sub-second n = 4 smoke workloads.

    python3 perfbench/test_bench.py      (from the root of a checkout)

Checks that each smoke workload passes its correctness gate and prints
every metric BENCHMARK.json names, with its unit, in both modes; that a
doctored certificate (one covering pair dropped) and a drifted exact count
are counted as failures; and that the command fails without printing a
result in a directory holding only BENCHMARK.json and the benchmark.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE = ("adversary-4", "explore-4", "campaign-4")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    """Run the benchmark command with its default build directory."""
    cmd = ["python3", "perfbench/run.py", "--seed", "7", "--seconds", "0.2",
           *args]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600, env=env)


def result_of(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


class SmokeWorkloads(unittest.TestCase):
    def check_metrics(self, result, listed):
        metrics = result["metrics"]
        for m in listed:
            self.assertIn(m["name"], metrics)
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
        self.assertEqual(set(metrics), {m["name"] for m in listed})

    def test_end_to_end_metrics(self):
        for w in SMOKE:
            with self.subTest(workload=w):
                proc = bench("--workload", w, "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                r = result_of(proc)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                self.check_metrics(r, SPEC["end_to_end"])
                for m in SPEC["end_to_end"]:
                    self.assertGreater(r["metrics"][m["name"]]["value"], 0)

    def test_per_layer_metrics(self):
        for w in SMOKE:
            with self.subTest(workload=w):
                proc = bench("--workload", w, "--trace", "1")
                self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
                r = result_of(proc)
                self.assertTrue(r["correct"])
                self.check_metrics(r, SPEC["per_layer"])
                self.assertIn("self time by layer", proc.stdout)
                m = r["metrics"]
                total = sum(v["value"] for k, v in m.items()
                            if k.startswith("self_s."))
                self.assertAlmostEqual(total, m["traced_wall_s"]["value"],
                                       places=6)

    def test_doctored_certificate_fails(self):
        proc = bench("--workload", "adversary-4", "--trace", "0",
                     "--doctor-certificate")
        self.assertNotEqual(proc.returncode, 0)
        r = result_of(proc)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertIn("CHECK FAILED: certificate covers 2 distinct registers",
                      proc.stdout)

    def test_drifted_exact_count_fails(self):
        self.assertEqual(
            bench("--workload", "adversary-4", "--trace", "0").returncode, 0)
        binary = ROOT / ".bench_build" / "perfbench" / "tsb_perfbench"
        build_id = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
        record = (ROOT / ".bench_build" / "perfbench-state" / build_id /
                  "exact-adversary-4.txt")
        saved = record.read_text()
        try:
            record.write_text(saved.replace("sim.reach.expanded=",
                                            "sim.reach.expanded=1"))
            proc = bench("--workload", "adversary-4", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertIn("exact count sim.reach.expanded drifted",
                          proc.stdout)
            self.assertFalse(result_of(proc)["correct"])
        finally:
            record.write_text(saved)

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(ROOT / "perfbench", Path(d) / "perfbench")
            proc = bench("--workload", "adversary-4", "--trace", "0", cwd=d)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    sys.exit(unittest.main())
