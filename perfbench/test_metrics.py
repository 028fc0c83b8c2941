"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import unittest
from pathlib import Path

import metrics
import run

HERE = Path(__file__).resolve().parent


def span(id_, parent, start, end, name="s"):
    return {"name": name, "start": start, "end": end, "id": id_, "parent": parent, "job": 1}


def served(latency, submit=0.0, queue_wait=0.0, acquire=0.0, solve=0.0, fetch=0.0,
           status="ok"):
    return {"latency_s": latency, "submit_s": submit, "queue_wait_s": queue_wait,
            "acquire_s": acquire, "solve_s": solve, "fetch_s": fetch, "status": status}


class PercentileSupport(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertFalse(metrics.percentile_supported(99, 90))
        self.assertTrue(metrics.percentile_supported(100, 90))

    def test_p50_needs_20_samples(self):
        self.assertFalse(metrics.percentile_supported(19, 50))
        self.assertTrue(metrics.percentile_supported(20, 50))

    def test_tail_latency_falls_back_to_p50(self):
        lat = [float(i) for i in range(1, 9)]
        value, p = run.tail_latency(lat)
        self.assertEqual(p, 50.0)
        self.assertEqual(value, 4.5)
        value, p = run.tail_latency([float(i) for i in range(101)])
        self.assertEqual(p, 90.0)
        self.assertAlmostEqual(value, 90.0)

    def test_interpolation(self):
        self.assertEqual(metrics.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertEqual(metrics.percentile([5.0], 90), 5.0)

    def test_failed_slice_misses_every_latency(self):
        slices = [{"latency_s": 0.1, "status": "ok"}, {"latency_s": 0.05, "status": "refused"}]
        lat = metrics.slice_latencies(slices)
        self.assertEqual(lat, [0.1, math.inf])
        self.assertEqual(metrics.percentile(lat, 100), math.inf)


class SelfTime(unittest.TestCase):
    def test_nested_children(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 6]
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 4), span(3, 2, 2, 3), span(4, 1, 5, 6)]
        st = metrics.self_times(spans)
        self.assertAlmostEqual(st[1], 10 - 3 - 1)  # grandchild is not subtracted twice
        self.assertAlmostEqual(st[2], 3 - 1)
        self.assertAlmostEqual(st[3], 1)
        self.assertAlmostEqual(st[4], 1)

    def test_overlapping_children_count_once(self):
        # Two concurrent children [1, 5] and [3, 7] cover [1, 7].
        spans = [span(1, 0, 0, 10), span(2, 1, 1, 5), span(3, 1, 3, 7)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 4)

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, 2, 6), span(2, 1, 0, 3), span(3, 1, 5, 9)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 2)

    def test_child_share_and_median_self(self):
        spans = [span(1, 0, 0, 10, "recon.solve"), span(2, 1, 0, 8, "core.forward"),
                 span(3, 0, 20, 30, "recon.solve"), span(4, 3, 20, 26, "core.adjoint")]
        self.assertAlmostEqual(metrics.child_share(spans, "recon.solve"), 14 / 20)
        self.assertAlmostEqual(metrics.median_self_time(spans, "recon.solve"), 3)
        self.assertIsNone(metrics.child_share(spans, "absent"))


class Unattributed(unittest.TestCase):
    def test_subtracts_every_layer(self):
        s = served(0.100, submit=0.010, queue_wait=0.020, acquire=0.005, solve=0.040,
                   fetch=0.003)
        self.assertAlmostEqual(metrics.unattributed(s), 0.022)

    def test_parts_sum_to_latency(self):
        s = served(0.5, submit=0.1, solve=0.3)
        parts = sum(s[k] for k in metrics.UNATTRIBUTED_PARTS) + metrics.unattributed(s)
        self.assertAlmostEqual(parts, s["latency_s"])


class FailedFrac(unittest.TestCase):
    def test_refused_expired_mismatched(self):
        slices = [served(0.1), served(0.1, status="refused"), served(0.1, status="expired"),
                  served(0.1, status="mismatch"), served(0.1, status="failed"), served(0.1),
                  served(0.1), served(0.1)]
        self.assertEqual(metrics.failed_count(slices), 4)
        self.assertAlmostEqual(metrics.failed_frac(slices), 0.5)

    def test_all_ok_and_none_attempted(self):
        self.assertEqual(metrics.failed_frac([served(0.1)] * 3), 0.0)
        self.assertEqual(metrics.failed_frac([]), 1.0)


class Definitions(unittest.TestCase):
    def test_every_per_layer_metric_is_documented(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        layers = json.loads((HERE / "layers.json").read_text())["metrics"]
        self.assertEqual([m["name"] for m in spec["per_layer"]], list(layers))
        workloads = {w["name"] for w in spec["workloads"]}
        e2e = {m["name"] for m in spec["end_to_end"]}
        for name, entry in layers.items():
            for metric, workload in entry["moves"]:
                self.assertIn(metric, e2e, name)
                self.assertIn(workload, workloads, name)

    def test_end_to_end_metrics_are_computed(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        res = {"slices": [{"latency_s": 0.1, "status": "ok", "rmse": 0.2, "algo": "fbp"}] * 4,
               "window_s": 1.0, "setup_s": [1.0, 2.0, 3.0], "rss_peak_mb": 10.0}
        values, _ = run.end_to_end(res)
        self.assertEqual(set(values), {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(values["setup_s"], 2.0)
        self.assertEqual(values["slices_per_s"], 4.0)

    def test_rmse_is_balanced_over_algorithms(self):
        # Three SIRT slices and one CGLS slice weigh the same as one of each.
        ok = [{"algo": "sirt", "rmse": 0.1}] * 3 + [{"algo": "cgls", "rmse": 0.3}]
        self.assertAlmostEqual(run.balanced_rmse(ok), 0.2)


if __name__ == "__main__":
    unittest.main()
