"""Tests of the benchmark itself: the answer gate and the tracer.

    python3 bench/selftest.py

Uses only the quick cases, so it runs in a few seconds.  It writes under
.bench_out/selftest/ in the checkout.
"""

from __future__ import annotations

import json
import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cases  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

PACKAGE = run.import_package()
WORKDIR = os.path.join(run.OUT, "selftest")


def quick_derive_case():
    return next(c for c in cases.derive_cases(PACKAGE) if c.name == "sp(1)(x)A_3")


def cli_error_cases(seed=1):
    os.makedirs(WORKDIR, exist_ok=True)
    cases.cli_files(WORKDIR, seed)
    runner = cases.CliRunner(WORKDIR, run.SRC, in_process=True)
    return [c for c in cases.cli_cases(runner, seed) if c.name.endswith("violation")]


class GateTest(unittest.TestCase):
    def test_right_answers_pass(self):
        passes = [run.run_pass([quick_derive_case()] + cli_error_cases(), 0)]
        self.assertEqual(run.tally(passes), (3, 0))

    def test_planted_wrong_dimension_is_an_error(self):
        case = quick_derive_case()
        case.expect["dim"] += 1
        attempted, failed = run.tally([run.run_pass([case], 0)])
        self.assertGreater(failed / attempted, 0)

    def test_planted_wrong_exit_code_is_an_error(self):
        bad = cli_error_cases()
        bad[1].expect["exit"] = 0  # the schema violation really exits 2
        attempted, failed = run.tally([run.run_pass(bad, 0)])
        self.assertEqual((attempted, failed), (2, 1))

    def test_output_must_match_first_pass(self):
        case = cases.Case("c", lambda: {}, {"sha": cases.FIRST})
        self.assertIsNone(case.check({"sha": "a"}))
        self.assertIsNone(case.check({"sha": "a"}))
        self.assertIsNotNone(case.check({"sha": "b"}))

    def test_a_crash_is_an_error(self):
        def boom():
            raise ValueError("boom")

        attempted, failed = run.tally([run.run_pass([cases.Case("c", boom, {})], 0)])
        self.assertEqual((attempted, failed), (1, 1))

    def test_other_seed_a_prime_is_still_a_prime(self):
        for seed in (1, 2):
            a = PACKAGE.algebra_from_dict(inputs.a_prime_doc(seed))
            self.assertTrue(a.check_axioms())
            self.assertEqual(PACKAGE.jacobson_radical(a).dim, 2)
            self.assertEqual(PACKAGE.wedderburn_complement(a).dim, 2)
        self.assertNotEqual(inputs.a_prime_doc(1), inputs.a_prime_doc(2))


class RunLengthTest(unittest.TestCase):
    def test_no_case_starts_that_would_end_late(self):
        def sleeper(seconds):
            return lambda: time.sleep(seconds) or {}

        long, short = cases.Case("long", sleeper(0.4), {}), cases.Case("short", sleeper(0.02), {})
        start = time.perf_counter()
        passes = run.timed_passes([long, short], 1.0)
        elapsed = time.perf_counter() - start
        self.assertLess(elapsed, 1.0 + 0.15)
        self.assertGreaterEqual(len(passes), 2)
        # the short case fills the end of the run once the long one no longer fits
        self.assertNotIn("long", passes[-1]["case_s"])
        self.assertIn("short", passes[-1]["case_s"])


class DeclarationTest(unittest.TestCase):
    def test_benchmark_json_lists_what_run_prints(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in doc["end_to_end"]}, run.END_TO_END)
        units = run.layer_units()
        self.assertEqual([(m["name"], m["unit"]) for m in doc["per_layer"]],
                         [(name, units[name]) for name in run.PER_LAYER])
        self.assertLessEqual({w["name"] for w in doc["workloads"]}, set(cases.WORKLOADS))


class TracerTest(unittest.TestCase):
    def test_aliases_are_traced_and_restored(self):
        from currentlie import current, linalg

        original = linalg.commutator
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(current.commutator, original)
            self.assertIs(current.commutator, linalg.commutator)
            quick_derive_case().run()
        finally:
            tracer.uninstall()
        self.assertIs(current.commutator, original)
        self.assertIs(linalg.commutator, original)
        self.assertGreater(tracer.calls["lie.derivations"], 0)
        self.assertGreater(tracer.calls["linalg.ExactMatrix.matmul"], 0)
        self.assertEqual(tracer.counters["lie.derivations.unknowns"], 12 * 12)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.install()
        try:
            quick_derive_case().run()
        finally:
            tracer.uninstall()
        by_index = {}
        for index, (name, start, end, parent, _) in enumerate(tracer.spans):
            self.assertLessEqual(start, end)
            by_index[index] = end - start
        total = sum(d for i, d in by_index.items() if tracer.spans[i][3] == -1)
        self.assertEqual(sum(tracer.self_ns.values()), total)


if __name__ == "__main__":
    unittest.main()
