"""Self-tests of the benchmark's correctness gate and tracer.

    python3 bench/selftest.py
"""

from __future__ import annotations

import copy
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import tracer  # noqa: E402

EXPECTED = {
    "renorm-audit": {"exit": 0, "rows": [
        {"case": "a", "status": "PASS", "witness": False, "renorm": 1.5, "M": 2.0},
        {"case": "b", "status": "PASS", "witness": False, "renorm": 2.5, "M": 2.0},
    ]},
    "oracle:sup": {"value": [1.0, 2.0]},
}


def actual():
    out = copy.deepcopy(EXPECTED)
    for o in out.values():
        o["error"] = None
    out["renorm-audit"]["sha256"] = "abc"
    return out


def error_rate(act) -> float:
    attempted, failures, _ = checks.check_pass(EXPECTED, act)
    return len(failures) / attempted


class GateTest(unittest.TestCase):
    def test_reference_outcome_passes(self):
        self.assertEqual(error_rate(actual()), 0.0)

    def test_value_inside_tolerance_passes(self):
        act = actual()
        act["renorm-audit"]["rows"][0]["renorm"] *= 1 + 1e-12
        self.assertEqual(error_rate(act), 0.0)

    def test_perturbed_value_fails(self):
        act = actual()
        act["renorm-audit"]["rows"][0]["renorm"] *= 1 + 1e-6
        self.assertAlmostEqual(error_rate(act), 1 / 3)

    def test_perturbed_oracle_value_fails(self):
        act = actual()
        act["oracle:sup"]["value"][1] += 1e-3
        self.assertAlmostEqual(error_rate(act), 1 / 3)

    def test_wrong_exit_code_fails_every_row(self):
        act = actual()
        act["renorm-audit"]["exit"] = 1
        self.assertAlmostEqual(error_rate(act), 2 / 3)
        self.assertEqual(checks.check_pass(EXPECTED, act)[2], 1)

    def test_exception_fails(self):
        act = actual()
        act["oracle:sup"] = {"error": "RuntimeError: boom", "value": None}
        self.assertAlmostEqual(error_rate(act), 1 / 3)

    def test_verdict_flip_fails(self):
        act = actual()
        act["renorm-audit"]["rows"][1]["status"] = "FAIL"
        self.assertAlmostEqual(error_rate(act), 1 / 3)

    def test_missing_row_fails(self):
        act = actual()
        act["renorm-audit"]["rows"].pop()
        self.assertAlmostEqual(error_rate(act), 1 / 3)

    def test_csv_difference_fails(self):
        again = actual()
        self.assertEqual(checks.check_identical(actual(), again), (1, []))
        again["renorm-audit"]["sha256"] = "abd"
        self.assertEqual(len(checks.check_identical(actual(), again)[1]), 1)

    def test_nan_equals_nan(self):
        self.assertTrue(checks.close(float("nan"), float("nan"), checks.DEFAULT_TOL))
        self.assertFalse(checks.close(float("nan"), 1.0, checks.DEFAULT_TOL))


class TracerTest(unittest.TestCase):
    def test_self_time_is_duration_minus_children(self):
        ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0])
        tr = tracer.Tracer(clock=lambda: next(ticks))
        root = tr.enter("root")      # 0
        a = tr.enter("a")            # 1
        g = tr.enter("g")            # 2
        tr.exit(g)                   # 3
        tr.exit(a)                   # 4
        b = tr.enter("b")            # 5
        tr.exit(b)                   # 6
        tr.exit(root)                # 10
        selfs = tracer.self_times(tr.spans)
        self.assertEqual([s.parent for s in tr.spans], [-1, 0, 1, 0])
        self.assertEqual(selfs, [10.0 - 3.0 - 1.0, 3.0 - 1.0, 1.0, 1.0])

    def test_overlapping_children_are_counted_once(self):
        spans = [tracer.Span(0, -1, "p", 0.0, 10.0), tracer.Span(1, 0, "c", 1.0, 5.0),
                 tracer.Span(2, 0, "c", 3.0, 7.0), tracer.Span(3, 0, "c", 9.0, 12.0)]
        self.assertEqual(tracer.self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_install_rebinds_every_module_and_undo_restores(self):
        from latlab import cli, span_lattice

        import latlab

        originals = [latlab.span_norm, cli.span_norm, span_lattice.span_norm]
        self.assertTrue(all(f is originals[0] for f in originals))
        tr = tracer.Tracer()
        patcher = tracer.install(tr)
        try:
            bound = [latlab.span_norm, cli.span_norm, span_lattice.span_norm]
            self.assertTrue(all(f is bound[0] and f is not originals[0] for f in bound))
        finally:
            patcher.undo()
        self.assertTrue(all(f is originals[0]
                            for f in (latlab.span_norm, cli.span_norm,
                                      span_lattice.span_norm)))

    def test_layer_metrics_count_nested_calls(self):
        import numpy as np

        from latlab import cli
        from latlab.ordered_space import OrderedSpaceSpec

        tr = tracer.Tracer()
        patcher = tracer.install(tr)
        try:
            space = OrderedSpaceSpec.standard_lp(np.ones(4), 3.0)
            cli.span_norm(space, np.array([1.0, -2.0, 0.5, -0.25]))
        finally:
            patcher.undo()
        m = tracer.layer_metrics(tr.spans)
        self.assertEqual(m["span_lattice.span_norm.calls"], 1)
        self.assertEqual(m["ordered_space.norm_build.calls"], 1)
        evals = sum(1 for s in tr.spans if s.name == "ordered_space.norm_value"
                    and s.parent >= 0 and tr.spans[s.parent].name != "ordered_space.norm_build")
        self.assertEqual(m["span_lattice.span_norm.norm_evals_per_call"], evals)
        self.assertGreater(evals, 0)
        total = max(s.end for s in tr.spans) - min(s.start for s in tr.spans)
        self.assertLessEqual(sum(v for k, v in m.items() if k.endswith("self_s")),
                             total + 1e-9)

    def test_every_per_layer_metric_is_derived(self):
        derived = set(tracer.layer_metrics([])) | set(tracer.RUN_METRICS)
        self.assertEqual(derived, set(tracer.PER_LAYER))


if __name__ == "__main__":
    unittest.main()
