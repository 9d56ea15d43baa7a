#!/usr/bin/env python3
"""Unit tests for check_perf.compare — stdlib only, run by ctest.

The comparator gates CI perf smokes; these tests pin its contract:
exact keys fail on any drift, rate keys fail only below the tolerance
floor, improvements never fail, missing rows fail, and the delta table
covers every compared metric on pass and fail alike.
"""

import io
import sys
import unittest

sys.path.insert(0, __file__.rsplit("/", 1)[0])
import check_perf


def doc(rows, bench="bench_explore"):
    return {"bench": bench, "rows": rows}


BASE = doc([{"n": 4, "threads": 1, "configs": 100,
             "configs_per_sec": 1000.0, "seconds": 0.1}])


class CompareTest(unittest.TestCase):
    def test_identical_passes(self):
        rows, failures = check_perf.compare(BASE, BASE, tolerance=25)
        self.assertEqual(failures, [])
        self.assertEqual(
            sorted(key for _, key, *_ in rows),
            ["configs", "configs_per_sec", "seconds"],
        )

    def test_exact_drift_fails(self):
        cur = doc([{"n": 4, "threads": 1, "configs": 101,
                    "configs_per_sec": 1000.0}])
        rows, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(len(failures), 1)
        self.assertIn("configs", failures[0])
        statuses = {key: s for _, key, *_, s in rows}
        self.assertEqual(statuses["configs"], "DRIFT")

    def test_rate_within_tolerance_passes(self):
        cur = doc([{"n": 4, "threads": 1, "configs": 100,
                    "configs_per_sec": 800.0}])
        _, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(failures, [])

    def test_rate_below_floor_fails(self):
        cur = doc([{"n": 4, "threads": 1, "configs": 100,
                    "configs_per_sec": 700.0}])
        rows, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(len(failures), 1)
        self.assertIn("configs_per_sec", failures[0])
        statuses = {key: s for _, key, *_, s in rows}
        self.assertEqual(statuses["configs_per_sec"], "FAIL")

    def test_improvement_never_fails(self):
        cur = doc([{"n": 4, "threads": 1, "configs": 100,
                    "configs_per_sec": 9000.0}])
        _, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(failures, [])

    def test_lemmas_expansion_rate_is_gated(self):
        base = doc([{"n": 5, "spill": 0, "expanded": 753357,
                     "expanded_per_sec": 2.0e6}], bench="lemmas")
        slow = doc([{"n": 5, "spill": 0, "expanded": 753357,
                     "expanded_per_sec": 1.4e6}], bench="lemmas")
        rows, failures = check_perf.compare(base, slow, tolerance=25)
        self.assertEqual(len(failures), 1)
        self.assertIn("expanded_per_sec", failures[0])
        statuses = {key: s for _, key, *_, s in rows}
        self.assertEqual(statuses["expanded_per_sec"], "FAIL")
        ok = doc([{"n": 5, "spill": 0, "expanded": 753357,
                   "expanded_per_sec": 1.6e6}], bench="lemmas")
        _, failures = check_perf.compare(base, ok, tolerance=25)
        self.assertEqual(failures, [])

    def test_retired_fact_columns_are_not_gated(self):
        base = doc([{"n": 5, "spill": 0, "expanded": 10,
                     "fact_answers": 1, "fact_subsumed": 3}], bench="lemmas")
        cur = doc([{"n": 5, "spill": 0, "expanded": 10}], bench="lemmas")
        rows, failures = check_perf.compare(base, cur, tolerance=25)
        self.assertEqual(failures, [])
        self.assertEqual([key for _, key, *_ in rows], ["expanded"])

    def test_missing_row_fails(self):
        cur = doc([{"n": 5, "threads": 1, "configs": 100,
                    "configs_per_sec": 1000.0}])
        _, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertTrue(any("missing" in f for f in failures))

    def test_bench_mismatch_fails(self):
        cur = doc(BASE["rows"], bench="bench_lemmas")
        _, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertTrue(any("mismatch" in f for f in failures))

    def test_empty_baseline_fails(self):
        _, failures = check_perf.compare(doc([]), doc([]), tolerance=25)
        self.assertTrue(any("no comparable" in f for f in failures))

    def test_seconds_ungated(self):
        cur = doc([{"n": 4, "threads": 1, "configs": 100,
                    "configs_per_sec": 1000.0, "seconds": 99.0}])
        rows, failures = check_perf.compare(BASE, cur, tolerance=25)
        self.assertEqual(failures, [])
        statuses = {key: s for _, key, *_, s in rows}
        self.assertEqual(statuses["seconds"], "ungated")

    def test_delta_pct(self):
        self.assertAlmostEqual(check_perf.delta_pct(100, 110), 10.0)
        self.assertAlmostEqual(check_perf.delta_pct(100, 90), -10.0)
        self.assertIsNone(check_perf.delta_pct(0, 5))

    def test_parallel_floor_passes_when_faster(self):
        cur = {"bench": "explore", "rows": [
            {"n": 4, "threads": 1, "configs_per_sec": 1000.0},
            {"n": 4, "threads": 2, "configs_per_sec": 1500.0},
        ]}
        self.assertEqual(
            check_perf.parallel_floor_failures(cur, 0.9, cpu_count=8), [])

    def test_parallel_floor_allows_small_dip(self):
        cur = {"bench": "explore", "rows": [
            {"n": 4, "threads": 1, "configs_per_sec": 1000.0},
            {"n": 4, "threads": 2, "configs_per_sec": 950.0},
        ]}
        self.assertEqual(
            check_perf.parallel_floor_failures(cur, 0.9, cpu_count=8), [])

    def test_parallel_floor_fails_on_regression(self):
        cur = {"bench": "explore", "rows": [
            {"n": 4, "threads": 1, "configs_per_sec": 1000.0},
            {"n": 4, "threads": 2, "configs_per_sec": 800.0},
        ]}
        failures = check_perf.parallel_floor_failures(cur, 0.9, cpu_count=8)
        self.assertEqual(len(failures), 1)
        self.assertIn("threads=2", failures[0])
        self.assertIn("slower than not parallelizing", failures[0])

    def test_parallel_floor_default_rejects_any_slowdown(self):
        cur = {"bench": "explore", "rows": [
            {"n": 4, "threads": 1, "configs_per_sec": 1000.0},
            {"n": 4, "threads": 2, "configs_per_sec": 950.0},
        ]}
        failures = check_perf.parallel_floor_failures(
            cur, check_perf.DEFAULT_PAR_FLOOR, cpu_count=8)
        self.assertEqual(len(failures), 1)
        self.assertIn("threads=2", failures[0])

    def test_parallel_floor_exempts_oversubscribed_rows(self):
        # threads > cores measures scheduling overhead by design.
        cur = {"bench": "explore", "rows": [
            {"n": 4, "threads": 1, "configs_per_sec": 1000.0},
            {"n": 4, "threads": 8, "configs_per_sec": 100.0},
        ]}
        self.assertEqual(
            check_perf.parallel_floor_failures(cur, 0.9, cpu_count=4), [])
        self.assertEqual(
            len(check_perf.parallel_floor_failures(cur, 0.9, cpu_count=16)),
            1)

    def test_parallel_floor_only_gates_explore(self):
        cur = {"bench": "lemmas", "rows": [
            {"n": 4, "threads": 1, "configs_per_sec": 1000.0},
            {"n": 4, "threads": 2, "configs_per_sec": 1.0},
        ]}
        self.assertEqual(
            check_perf.parallel_floor_failures(cur, 0.9, cpu_count=8), [])

    def test_forced_spill_gate_requires_nonzero_bytes(self):
        cur = {"bench": "lemmas", "rows": [
            {"n": 4, "spill": 0, "queries": 10},
            {"n": 4, "spill": 1, "queries": 10, "graph_spill": 0},
        ]}
        failures = check_perf.forced_spill_failures(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("graph_spill", failures[0])
        self.assertIn("spill=1", failures[0])

    def test_forced_spill_gate_passes_with_bytes_on_disk(self):
        cur = {"bench": "lemmas", "rows": [
            {"n": 4, "spill": 1, "queries": 10, "graph_spill": 4096},
            {"n": 4, "threads": 1, "spill": 1, "arena_spill": 512},
        ]}
        self.assertEqual(check_perf.forced_spill_failures(cur), [])

    def test_forced_spill_gate_skips_resident_and_legacy_rows(self):
        # spill=0 rows and pre-column rows (no spill key, no byte counts)
        # are not evidence rows; the gate must not invent failures there.
        cur = {"bench": "explore", "rows": [
            {"n": 4, "spill": 0, "arena_spill": 0},
            {"n": 4, "configs": 100},
            {"n": 4, "spill": 1},
        ]}
        self.assertEqual(check_perf.forced_spill_failures(cur), [])

    def test_parallel_floor_ignores_spilled_sequential_anchor(self):
        # The forced-spill sequential row is slower by design; it must not
        # replace the resident anchor and mask (or cause) a floor failure.
        cur = {"bench": "explore", "rows": [
            {"n": 4, "threads": 1, "spill": 0, "configs_per_sec": 1000.0},
            {"n": 4, "threads": 1, "spill": 1, "configs_per_sec": 200.0},
            {"n": 4, "threads": 2, "spill": 0, "configs_per_sec": 500.0},
        ]}
        failures = check_perf.parallel_floor_failures(cur, 0.9, cpu_count=8)
        self.assertEqual(len(failures), 1)
        self.assertIn("sequential 1000", failures[0])

    def test_spill_identity_key_separates_rows(self):
        base = doc([{"n": 4, "threads": 1, "spill": 0, "configs": 100},
                    {"n": 4, "threads": 1, "spill": 1, "configs": 100}])
        cur = doc([{"n": 4, "threads": 1, "spill": 0, "configs": 100},
                   {"n": 4, "threads": 1, "spill": 1, "configs": 101}])
        rows, failures = check_perf.compare(base, cur, tolerance=25)
        self.assertEqual(len(failures), 1)
        self.assertIn("spill=1", failures[0])
        self.assertEqual(
            [s for label, *_, s in rows if "spill=0" in label], ["exact"])

    def test_table_renders_all_rows(self):
        cur = doc([{"n": 4, "threads": 1, "configs": 101,
                    "configs_per_sec": 700.0, "seconds": 0.2}])
        rows, _ = check_perf.compare(BASE, cur, tolerance=25)
        buf = io.StringIO()
        check_perf.print_table(rows, out=buf)
        text = buf.getvalue()
        for key in ("configs", "configs_per_sec", "seconds"):
            self.assertIn(key, text)
        self.assertIn("DRIFT", text)
        self.assertIn("FAIL", text)
        self.assertIn("ungated", text)


if __name__ == "__main__":
    unittest.main()
