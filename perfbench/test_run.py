#!/usr/bin/env python3
"""Unit tests for the benchmark's result parser, phase merge, metric
contract and quartile spread.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import spread  # noqa: E402


def line(correct=True, attempted=3, failed=0, metrics=None):
    import json
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics or {}})


class ParseResultTest(unittest.TestCase):
    def test_takes_the_last_non_empty_line(self):
        out = "noise\nrun_s = 1 s\n" + line(
            metrics={"run_s": {"value": 1.5, "unit": "s"}}) + "\n\n"
        doc = run.parse_result(out)
        self.assertEqual(doc["metrics"]["run_s"]["value"], 1.5)
        self.assertEqual(doc["attempted"], 3)

    def test_rejects_missing_or_extra_keys(self):
        with self.assertRaises(run.ResultError):
            run.parse_result('{"correct": true, "attempted": 1, "metrics": {}}')
        with self.assertRaises(run.ResultError):
            run.parse_result('{"correct": true, "attempted": 1, "failed": 0, '
                             '"metrics": {}, "extra": 1}')

    def test_rejects_bad_types(self):
        with self.assertRaises(run.ResultError):
            run.parse_result(line(correct="yes"))
        with self.assertRaises(run.ResultError):
            run.parse_result(line(attempted=1.5))
        with self.assertRaises(run.ResultError):
            run.parse_result(line(failed=-1))
        with self.assertRaises(run.ResultError):
            run.parse_result(line(metrics={"x": {"value": "1", "unit": "s"}}))
        with self.assertRaises(run.ResultError):
            run.parse_result(line(metrics={"x": {"value": True, "unit": "s"}}))
        with self.assertRaises(run.ResultError):
            run.parse_result(line(metrics={"x": {"value": 1}}))

    def test_rejects_empty_and_non_json_output(self):
        with self.assertRaises(run.ResultError):
            run.parse_result("")
        with self.assertRaises(run.ResultError):
            run.parse_result("done\nnot json")


class MergeResultsTest(unittest.TestCase):
    def test_sums_checks_and_same_named_metrics(self):
        setup = run.parse_result(line(attempted=0, metrics={
            "setup_s": {"value": 2.0, "unit": "s"},
            "routing.rib_records": {"value": 10, "unit": "count"}}))
        measured = run.parse_result(line(attempted=5, failed=1, correct=False,
                                         metrics={
            "setup_s": {"value": 0.5, "unit": "s"},
            "run_s": {"value": 3.0, "unit": "s"}}))
        merged = run.merge_results([setup, measured])
        self.assertFalse(merged["correct"])
        self.assertEqual((merged["attempted"], merged["failed"]), (5, 1))
        self.assertEqual(merged["metrics"]["setup_s"]["value"], 2.5)
        self.assertEqual(merged["metrics"]["run_s"]["value"], 3.0)
        self.assertEqual(merged["metrics"]["routing.rib_records"]["value"], 10)

    def test_unit_conflict_is_an_error(self):
        a = run.parse_result(line(metrics={"x": {"value": 1, "unit": "s"}}))
        b = run.parse_result(line(metrics={"x": {"value": 1, "unit": "ms"}}))
        with self.assertRaises(run.ResultError):
            run.merge_results([a, b])


class ContractTest(unittest.TestCase):
    BENCHMARK = {
        "end_to_end": [{"name": "run_s", "unit": "s"},
                       {"name": "qps", "unit": "req/s"}],
        "per_layer": [{"name": "core.atoms_s", "unit": "s"}],
    }

    def test_expected_metrics_follow_the_trace_flag(self):
        self.assertEqual(run.expected_metrics(self.BENCHMARK, 0),
                         {"run_s": "s", "qps": "req/s"})
        self.assertEqual(run.expected_metrics(self.BENCHMARK, 1),
                         {"core.atoms_s": "s"})

    def test_reports_missing_unlisted_mismatched_and_zero(self):
        result = run.parse_result(line(metrics={
            "run_s": {"value": 0, "unit": "ms"},
            "other": {"value": 1, "unit": "s"}}))
        errors = run.contract_errors(
            result, run.expected_metrics(self.BENCHMARK, 0), 0)
        self.assertIn("missing metric qps", errors)
        self.assertIn("unlisted metric other", errors)
        self.assertIn("metric run_s has unit ms, expected s", errors)
        self.assertIn("end-to-end metric run_s is not positive", errors)

    def test_per_layer_metrics_may_be_zero(self):
        result = run.parse_result(line(metrics={
            "core.atoms_s": {"value": 0, "unit": "s"}}))
        self.assertEqual(run.contract_errors(
            result, run.expected_metrics(self.BENCHMARK, 1), 1), [])

    def test_nothing_attempted_is_an_error(self):
        result = run.parse_result(line(attempted=0, metrics={
            "core.atoms_s": {"value": 1, "unit": "s"}}))
        self.assertEqual(run.contract_errors(
            result, run.expected_metrics(self.BENCHMARK, 1), 1),
            ["no operation was attempted"])


class SpreadTest(unittest.TestCase):
    def test_quartiles_match_statistics_exclusive_method(self):
        # Exclusive quartiles of 1..10: 2.75 and 8.25; median 5.5.
        values = [float(v) for v in range(10, 0, -1)]
        self.assertAlmostEqual(spread.spread(values), (8.25 - 2.75) / 5.5)

    def test_constant_sample_has_no_spread(self):
        self.assertEqual(spread.spread([4.0, 4.0, 4.0, 4.0]), 0.0)

    def test_two_values(self):
        # The exclusive method extrapolates for two values: [1, 3] gives
        # Q1 = 0.5 and Q3 = 3.5.
        self.assertAlmostEqual(spread.spread([1.0, 3.0]), (3.5 - 0.5) / 2.0)


if __name__ == "__main__":
    unittest.main()
