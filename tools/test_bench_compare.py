#!/usr/bin/env python3
"""Unit tests for tools/bench_compare.py (stdlib only; CI runs this file
directly: `python3 tools/test_bench_compare.py`).

The contract under test: comparison runs over the intersection of the two
metrics objects (asymmetric keys warn, they do not error), "qps"/"gteps"
metrics are higher-is-better, regressions past --max-regress exit 1, any
change of an --exact key exits 1, and malformed input or an empty
intersection exits 2.
"""

import io
import json
import sys
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench_compare  # noqa: E402


def run_compare(old: dict, new: dict, *extra_args: str):
    """Run bench_compare.main() on two temp JSON docs; return (code, out, err)."""
    with tempfile.TemporaryDirectory() as d:
        old_p, new_p = Path(d) / "old.json", Path(d) / "new.json"
        old_p.write_text(json.dumps(old))
        new_p.write_text(json.dumps(new))
        argv = sys.argv
        sys.argv = ["bench_compare.py", str(old_p), str(new_p), *extra_args]
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = bench_compare.main()
        finally:
            sys.argv = argv
        return code, out.getvalue(), err.getvalue()


def doc(metrics: dict, bench: str = "demo", schema: str = "sunbfs.bench/1"):
    return {"schema": schema, "bench": bench, "metrics": metrics}


class BenchCompareTest(unittest.TestCase):
    def test_identical_ok(self):
        code, out, _ = run_compare(doc({"gteps": 1.0}), doc({"gteps": 1.0}))
        self.assertEqual(code, 0)
        self.assertIn("OK", out)

    def test_asymmetric_keys_warn_not_error(self):
        # Baseline lacks a metric the candidate has (and vice versa): the
        # shared key still compares, the odd ones warn on stderr, exit 0.
        old = doc({"gteps": 1.0, "old_only_s": 2.0})
        new = doc({"gteps": 1.0, "qps_new_point": 500.0})
        code, out, err = run_compare(old, new)
        self.assertEqual(code, 0)
        self.assertIn("warning", err)
        self.assertIn("old_only_s", err)
        self.assertIn("qps_new_point", err)
        self.assertIn("gteps", out)

    def test_no_shared_keys_is_error(self):
        code, _, err = run_compare(doc({"a": 1.0}), doc({"b": 1.0}))
        self.assertEqual(code, 2)
        self.assertIn("no metrics in common", err)

    def test_lower_is_better_regression(self):
        code, out, _ = run_compare(doc({"wall_s": 1.0}), doc({"wall_s": 1.5}))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)

    def test_higher_is_better_qps_regression(self):
        # qps dropping is a regression; qps rising is not.
        code, _, _ = run_compare(doc({"qps_open_low": 1000.0}),
                                 doc({"qps_open_low": 500.0}))
        self.assertEqual(code, 1)
        code, _, _ = run_compare(doc({"qps_open_low": 1000.0}),
                                 doc({"qps_open_low": 2000.0}))
        self.assertEqual(code, 0)

    def test_higher_is_better_gteps_improvement_ok(self):
        code, _, _ = run_compare(doc({"gteps": 1.0}), doc({"gteps": 2.0}))
        self.assertEqual(code, 0)

    def test_max_regress_threshold(self):
        old, new = doc({"wall_s": 1.0}), doc({"wall_s": 1.15})
        code, _, _ = run_compare(old, new)  # 15% > default 10%
        self.assertEqual(code, 1)
        code, _, _ = run_compare(old, new, "--max-regress", "20")
        self.assertEqual(code, 0)

    def test_schema_mismatch_is_error(self):
        code, _, err = run_compare(doc({"gteps": 1.0}, schema="bogus/9"),
                                   doc({"gteps": 1.0}))
        self.assertEqual(code, 2)
        self.assertIn("schema", err)

    def test_bench_mismatch_is_error(self):
        code, _, err = run_compare(doc({"gteps": 1.0}, bench="a"),
                                   doc({"gteps": 1.0}, bench="b"))
        self.assertEqual(code, 2)
        self.assertIn("different benches", err)

    def test_higher_is_better_classifier(self):
        self.assertTrue(bench_compare.higher_is_better("qps_open_low"))
        self.assertTrue(bench_compare.higher_is_better("harmonic_GTEPS"))
        self.assertTrue(bench_compare.higher_is_better("alltoallv_reduction_pct"))
        self.assertTrue(bench_compare.higher_is_better("encoding_saved_bytes"))
        self.assertFalse(bench_compare.higher_is_better("latency_p99_ms"))
        self.assertFalse(bench_compare.higher_is_better("peak_rss_bytes"))
        self.assertFalse(bench_compare.higher_is_better("alltoallv_bytes"))

    def test_lower_is_better_wire_bytes_regression(self):
        # The encoding ablation's byte counts: growth is a regression, a
        # shrink is an improvement.
        old, new = doc({"alltoallv_bytes": 100000.0}), doc({"alltoallv_bytes": 130000.0})
        code, out, _ = run_compare(old, new)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)
        code, _, _ = run_compare(new, old)
        self.assertEqual(code, 0)

    def test_fault_mode_counters_get_wider_band(self):
        # Fault-mode counters (retries/sheds/failed of the service bench's
        # fault points) compare at 3x --max-regress: +25% retries passes the
        # default 10% gate, +40% still fails.
        code, _, _ = run_compare(doc({"retries_fault_recover": 20.0}),
                                 doc({"retries_fault_recover": 25.0}))
        self.assertEqual(code, 0)
        code, out, _ = run_compare(doc({"retries_fault_recover": 20.0}),
                                   doc({"retries_fault_recover": 28.0}))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)
        code, _, _ = run_compare(doc({"sheds_fault_shed": 40.0}),
                                 doc({"sheds_fault_shed": 50.0}))
        self.assertEqual(code, 0)

    def test_fault_mode_p99_stays_tight_and_lower_is_better(self):
        # The fault points' latency quantiles get NO widened band: the whole
        # point of shedding is a bounded p99, so it gates like any latency.
        old = doc({"latency_p99_ms_fault_shed": 5.0})
        new = doc({"latency_p99_ms_fault_shed": 6.0})
        code, out, _ = run_compare(old, new)
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)
        code, _, _ = run_compare(new, old)  # improvement passes
        self.assertEqual(code, 0)

    def test_tolerance_multiplier_classifier(self):
        self.assertEqual(bench_compare.tolerance_multiplier("retries_x"), 3.0)
        self.assertEqual(bench_compare.tolerance_multiplier("sheds_fault"), 3.0)
        self.assertEqual(bench_compare.tolerance_multiplier("failed_open"), 3.0)
        self.assertEqual(
            bench_compare.tolerance_multiplier("latency_p99_ms_fault_shed"),
            1.0)
        self.assertEqual(bench_compare.tolerance_multiplier("qps_open"), 1.0)

    def test_higher_is_better_cache_keys(self):
        # The distance-oracle cache keys: a falling hit rate or hit count is
        # a regression, a rise is an improvement.
        self.assertTrue(bench_compare.higher_is_better("hit_rate_zipf_cache"))
        self.assertTrue(bench_compare.higher_is_better("hits_zipf_cache"))
        code, out, _ = run_compare(doc({"hit_rate_zipf_cache": 0.6}),
                                   doc({"hit_rate_zipf_cache": 0.4}))
        self.assertEqual(code, 1)
        self.assertIn("REGRESSED", out)
        code, _, _ = run_compare(doc({"hit_rate_zipf_cache": 0.6}),
                                 doc({"hit_rate_zipf_cache": 0.8}))
        self.assertEqual(code, 0)
        code, _, _ = run_compare(doc({"hits_zipf_cache": 50.0}),
                                 doc({"hits_zipf_cache": 40.0}))
        self.assertEqual(code, 1)

    def test_higher_is_better_reduction_pct_regression(self):
        # A shrinking reduction percentage means the encoder got worse.
        code, _, _ = run_compare(doc({"alltoallv_reduction_pct": 50.0}),
                                 doc({"alltoallv_reduction_pct": 30.0}))
        self.assertEqual(code, 1)
        code, _, _ = run_compare(doc({"alltoallv_reduction_pct": 50.0}),
                                 doc({"alltoallv_reduction_pct": 60.0}))
        self.assertEqual(code, 0)

    def test_exact_keys_fail_on_any_change_in_either_direction(self):
        # A 1-byte shrink passes the band but fails the exact gate, and so
        # does a 1-byte growth; keys without the substring keep the band.
        old = doc({"alltoallv_bytes": 100000.0, "reduction_pct": 50.0})
        for moved in (99999.0, 100001.0):
            new = doc({"alltoallv_bytes": moved, "reduction_pct": 50.0})
            code, out, err = run_compare(old, new, "--max-regress", "5",
                                         "--exact", "bytes")
            self.assertEqual(code, 1)
            self.assertIn("CHANGED", out)
            self.assertIn("alltoallv_bytes", err)
            code, _, _ = run_compare(old, new, "--max-regress", "5")
            self.assertEqual(code, 0)
        new = doc({"alltoallv_bytes": 100000.0, "reduction_pct": 51.0})
        code, out, _ = run_compare(old, new, "--exact", "bytes")
        self.assertEqual(code, 0)
        self.assertIn("exact metrics unchanged", out)

    def test_exact_is_repeatable(self):
        old = doc({"alltoallv_bytes": 10.0, "rounds_path": 7.0, "wall_s": 1.0})
        new = doc({"alltoallv_bytes": 10.0, "rounds_path": 6.0, "wall_s": 1.0})
        code, _, _ = run_compare(old, new, "--exact", "bytes")
        self.assertEqual(code, 0)  # a fewer-rounds improvement passes the band
        code, _, err = run_compare(old, new, "--exact", "bytes",
                                   "--exact", "rounds")
        self.assertEqual(code, 1)
        self.assertIn("rounds_path", err)


if __name__ == "__main__":
    unittest.main()
