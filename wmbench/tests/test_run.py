"""Tests of run.py: result-line validation, the combination of a run's
processes and host-stamp comparison."""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

STAMP = {"nproc": 4, "build_threads": 4, "isa": "avx2",
         "build_type": "Release", "compiler": "gcc 12.2.0",
         "git_sha": "a", "workload": "score_lot", "seed": 1, "trace": 0}


def result(metrics):
    """A result reporting each named metric as 1.0 in its BENCHMARK.json unit
    (unit "s" for names BENCHMARK.json does not list)."""
    units = {**run.expected_metrics(0), **run.expected_metrics(1)}
    return {"correct": True, "attempted": 10, "failed": 0,
            "metrics": {m: {"value": 1.0, "unit": units.get(m, "s")}
                        for m in metrics}}


class ValidateTest(unittest.TestCase):
    def test_every_end_to_end_metric_passes(self):
        names = run.expected_metrics(0)
        self.assertEqual(run.validate(result(names), 0), [])

    def test_missing_metric_is_reported(self):
        names = sorted(run.expected_metrics(0))
        problems = run.validate(result(names[1:]), 0)
        self.assertEqual(len(problems), 1)
        self.assertIn(names[0], problems[0])

    def test_zero_negative_and_nan_values_are_reported(self):
        names = sorted(run.expected_metrics(0))
        for bad in (0, -0.5, float("nan"), float("inf"), None, True):
            r = result(names)
            r["metrics"][names[0]]["value"] = bad
            problems = run.validate(r, 0)
            self.assertEqual(len(problems), 1, bad)
            self.assertIn("finite positive", problems[0])

    def test_wrong_unit_is_reported(self):
        names = sorted(run.expected_metrics(0))
        r = result(names)
        r["metrics"]["setup_s"]["unit"] = "ms"
        problems = run.validate(r, 0)
        self.assertEqual(len(problems), 1)
        self.assertIn("setup_s", problems[0])

    def test_extra_keys_are_reported(self):
        r = result(run.expected_metrics(1))
        r["note"] = "x"
        self.assertTrue(run.validate(r, 1))


class CombineTest(unittest.TestCase):
    def test_counts_add_and_metrics_take_the_median(self):
        names = run.expected_metrics(0)
        rs = [result(names) for _ in range(3)]
        for r, v in zip(rs, (3.0, 1.0, 2.0)):
            r["metrics"]["wps"]["value"] = v
        rs[1]["failed"] = 1
        c = run.combine(rs)
        self.assertEqual(c["attempted"], 30)
        self.assertEqual(c["failed"], 1)
        self.assertEqual(c["metrics"]["wps"]["value"], 2.0)
        self.assertEqual(run.validate(c, 0), [])

    def test_one_incorrect_process_makes_the_run_incorrect(self):
        rs = [result(run.expected_metrics(0)) for _ in range(3)]
        rs[2]["correct"] = False
        self.assertFalse(run.combine(rs)["correct"])

    def test_a_metric_missing_from_one_process_is_missing(self):
        names = sorted(run.expected_metrics(0))
        rs = [result(names), result(names[1:]), result(names)]
        problems = run.validate(run.combine(rs), 0)
        self.assertEqual(len(problems), 1)
        self.assertIn(names[0], problems[0])


class CompareTest(unittest.TestCase):
    def write(self, d, name, stamp, value):
        p = Path(d) / name
        r = result(["wps"])
        r["metrics"]["wps"]["value"] = value
        p.write_text(json.dumps({"stamp": stamp, "result": r}))
        return str(p)

    def compare(self, old_stamp, new_stamp):
        with tempfile.TemporaryDirectory() as d:
            a = self.write(d, "a.json", old_stamp, 100.0)
            b = self.write(d, "b.json", new_stamp, 150.0)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = run.compare(a, b)
            return rc, out.getvalue()

    def test_different_hosts_are_incomparable(self):
        rc, out = self.compare(STAMP, dict(STAMP, nproc=1))
        self.assertEqual(rc, 3)
        self.assertIn("incomparable", out)
        self.assertIn("nproc", out)
        self.assertNotIn("wps", out)

    def test_same_host_compares_metrics(self):
        rc, out = self.compare(STAMP, dict(STAMP, seed=2, git_sha="b"))
        self.assertEqual(rc, 0)
        self.assertIn("wps", out)
        self.assertIn("+50.00%", out)


if __name__ == "__main__":
    unittest.main()
