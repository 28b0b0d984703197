"""Self-tests of the benchmark: generators, metric names, golden comparison.

Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on the path)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class GeneratorTests(unittest.TestCase):
    def setUp(self):
        self.W, self.sb = run.fresh_import()
        import families

        self.families = families

    def test_dimension_four_families_are_right_alternative(self):
        m11 = self.families.matrix_superalgebra(1, 1)
        lambda2 = self.families.grassmann(2)
        for algebra in (m11, lambda2):
            self.assertEqual(algebra.space.dim, 4)
            self.assertTrue(self.sb.suites.run_suite(algebra, "RIGHT_ALT").passed)
        self.assertTrue(self.sb.suites.run_suite(lambda2, "SUPERCOMMUTATIVE").passed)
        self.assertFalse(self.sb.suites.run_suite(m11, "SUPERCOMMUTATIVE").passed)

    def test_family_dimensions_and_parities(self):
        self.assertEqual(self.families.matrix_superalgebra(2, 1).space.dim_odd, 4)
        self.assertEqual(self.families.matrix_superalgebra(2, 2).space.dim, 16)
        self.assertEqual(self.families.grassmann(3).space.dim_odd, 4)

    def test_diagonal_conjugation_is_an_automorphism(self):
        import random

        entries = self.families.diagonal_entries(2, 1, random.Random(7))
        self.assertEqual(len({abs(e) for e in entries}), 3)
        beta = self.families.diagonal_automorphism(2, 1, entries)
        m21 = self.families.matrix_superalgebra(2, 1)
        self.assertTrue(self.sb.structures.is_even_self_morphism(m21, beta).passed)

    def test_oracle_accepts_the_generated_families(self):
        _, generated = self.W.operator_lemmas(self.sb, 0)
        self.assertTrue(all(ok for _, ok in self.W.oracle_checks(self.sb, generated, 0)))


class NameTests(unittest.TestCase):
    def setUp(self):
        with open(run.ROOT / "BENCHMARK.json") as handle:
            self.spec = json.load(handle)

    def test_declared_metrics_match_what_the_runs_print(self):
        declared = [(m["name"], m["unit"]) for m in self.spec["end_to_end"]]
        self.assertEqual(declared, list(run.END_TO_END))
        declared = [(m["name"], m["unit"]) for m in self.spec["per_layer"]]
        self.assertEqual(declared, run.per_layer_names())
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)

    def test_names_units_and_bounds_are_well_formed(self):
        e2e, layers, workloads = self.spec["end_to_end"], self.spec["per_layer"], self.spec["workloads"]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layers), 128)
        self.assertTrue(2 <= len(workloads) <= 8)
        names = [item["name"] for item in e2e + layers + workloads]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for metric in e2e + layers:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in e2e}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        for workload in workloads:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)


class GoldenTests(unittest.TestCase):
    def test_corrupted_golden_report_counts_as_failed(self):
        ctx = run.setup("ladder", 0, str(run.OUT))
        jobs = [job for job in ctx.jobs if job.id.startswith("m11/")]
        _, results = run.run_pass(jobs, ctx.workdir)
        golden = run.load_golden()
        self.assertEqual(run.failures(ctx.W, "ladder", results, golden), [])

        corrupted = copy.deepcopy(golden)
        key = "ladder/m11/RIGHT_ALT"
        corrupted[key] = corrupted[key].replace('"pass"', '"fail"', 1)
        failed = run.failures(ctx.W, "ladder", results, corrupted)
        self.assertEqual(failed, [f"{key}: output differs from golden"])
        self.assertGreater(len(failed) / len(results), 0)


if __name__ == "__main__":
    unittest.main()
