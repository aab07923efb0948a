"""Self-tests of the benchmark harness.

    python3 bench/selftest.py
"""
import tempfile
import unittest
from pathlib import Path

import run  # sets the thread caps and the import path before numpy loads
import spans
import workloads

import passlab.flow
from passlab.fields import ScalarField
from passlab.gridoracle import GridGraph


class TailRule(unittest.TestCase):
    def test_median_only_below_twenty_ops(self):
        self.assertEqual(run.tail([5.0, 1.0, 3.0]),
                         ("p50 (median only, N=3)", 3.0))
        label, value = run.tail([float(i) for i in range(19)])
        self.assertEqual((label, value), ("p50 (median only, N=19)", 9.0))

    def test_ten_ops_beyond_the_tail(self):
        for n, want_label in ((20, "p50 (N=20)"), (100, "p90 (N=100)"),
                              (1000, "p99 (N=1000)")):
            times = [float(i) for i in range(n, 0, -1)]
            label, value = run.tail(times)
            self.assertEqual(label, want_label)
            self.assertEqual(sum(t > value for t in times), 10)


class SelfTime(unittest.TestCase):
    def test_self_time_subtracts_child_coverage(self):
        # root [0, 10] has children a [1, 4] and b [3, 6], which overlap,
        # and c [9, 12], which ends after root; a has a child [2, 3].
        tree = [
            [0, None, "root", 0.0, 10.0, 0, 0, None],
            [1, 0, "a", 1.0, 4.0, 0, 0, None],
            [2, 0, "b", 3.0, 6.0, 0, 0, None],
            [3, 0, "c", 9.0, 12.0, 0, 0, None],
            [4, 1, "a.child", 2.0, 3.0, 0, 0, None],
        ]
        got = spans.self_times(tree)
        self.assertEqual(got, {0: 10.0 - 6.0, 1: 2.0, 2: 3.0, 3: 3.0, 4: 1.0})

    def test_ratios_report_zero_on_an_empty_base(self):
        op = run.Op(1, 0, 2.0, True)
        m = spans.layer_metrics([], [op], 1.5)
        self.assertEqual(m["flow.rows_per_rhs"], 0.0)
        self.assertEqual(m["flow.vector_field.calls"], 0.0)
        self.assertEqual(m["trace.overhead_s"], 0.5)

    def test_tracer_restores_every_patched_attribute(self):
        before = [vars(owner)[attr] for owner, attr, *_ in spans.patch_points()]
        vector_field = passlab.flow.vector_field
        evaluate = vars(ScalarField)["evaluate"]
        tracer = spans.Tracer()
        with tracer.installed(0):
            self.assertIsNot(passlab.flow.vector_field, vector_field)
            self.assertIsNot(vars(ScalarField)["evaluate"], evaluate)
            self.assertIsInstance(vars(GridGraph)["from_field"], classmethod)
        after = [vars(owner)[attr] for owner, attr, *_ in spans.patch_points()]
        self.assertEqual(len(before), len(after))
        for a, b in zip(before, after):
            self.assertIs(a, b)


class FailureAccounting(unittest.TestCase):
    def test_bad_config_op_lands_in_failed_frac(self):
        bad = workloads.Workload(
            "bad_config", (("deform", {"deformation": {"c": 0.0, "eps": 0.1}}),),
            workloads.check_deform)
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
            ops, _ = run.run_ops(bad, seed=0, seconds=0, workdir=Path(tmp))
        self.assertEqual([op.failures for op in ops], [["exit_2"], ["exit_2"]])
        metrics, rows = run.end_to_end(ops, [0.5])
        failed_frac = next(r for r in rows if r[0] == "failed_frac")
        self.assertEqual(failed_frac[1], 1.0)
        self.assertIn("exit_2", failed_frac[3])

    def test_payload_mismatch_fails_the_repeat(self):
        a, b = run.Op(0, 7, 1.0, False), run.Op(1, 7, 1.0, False)
        a.payload, b.payload = "[1]", "[2]"
        calls = iter([a, b])
        saved = run.run_op
        run.run_op = lambda *args, **kw: next(calls)
        try:
            run.OUT.mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
                ops, _ = run.run_ops(workloads.WORKLOADS["diagnostics"],
                                  seed=0, seconds=0, workdir=Path(tmp))
        finally:
            run.run_op = saved
        self.assertEqual(ops[1].failures, ["nondeterministic_payload"])


if __name__ == "__main__":
    unittest.main()
