"""Tests for the benchmark's own derivations.

    python3 perfbench/test_derive.py
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import derive

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cell(label, scheme, freeze_s, total_s, arrived=0, requests=0, host_s=0.0):
    return {"label": label, "scheme": scheme, "freeze_s": freeze_s, "total_s": total_s,
            "pages_arrived": arrived, "fault_requests": requests, "host_s": host_s}


def cells_hitting(values):
    """Three cells per label whose comparison reproduces `values` exactly."""
    cells = []
    for label, v in values.items():
        om_total = 100.0
        cells.append(cell(label, "openMosix", 50.0, om_total))
        cells.append(cell(label, "NoPrefetch", 0.1, om_total * (1 + v["noprefetch_overhead"] / 100),
                          arrived=10000, requests=10000))
        cells.append(cell(label, "AMPoM", 50.0 * (1 - v["freeze_avoided"] / 100), om_total,
                          arrived=10000, requests=round(10000 * (1 - v["faults_prevented"] / 100))))
    return cells


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(derive.tail_percentile(range(1, 1001), 0.99), 990)
        with self.assertRaises(ValueError):
            derive.tail_percentile(range(1, 1000), 0.99)  # only 9 beyond

    def test_cluster_size_has_51_beyond(self):
        samples = list(range(5120))
        p99 = derive.tail_percentile(samples, 0.99)
        self.assertEqual(sum(1 for s in samples if s > p99), 51)

    def test_nearest_rank_ignores_input_order(self):
        self.assertEqual(derive.tail_percentile([5, 1, 4, 2, 3] * 20, 0.5, min_beyond=1), 3)

    def test_small_workload_reports_its_maximum(self):
        self.assertEqual(derive.turnaround_tail([3.0, 9.0, 1.0] + [2.0] * 11), 9.0)

    def test_bad_quantile(self):
        with self.assertRaises(ValueError):
            derive.tail_percentile([1.0], 1.0)


class PaperReference(unittest.TestCase):
    def test_constants_match_experiments_md(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        fig6 = text[text.index("## Figure 6"):text.index("## Figure 7")]
        fig7 = text[text.index("## Figure 7"):text.index("## Figure 8")]
        headline = text[text.index("## Headline claims"):]
        for kernel, ref in derive.PAPER.items():
            overhead = re.search(rf"\| {kernel} \| \+(\d+) % \|", fig6)
            prevented = re.search(rf"\| {kernel} \| (\d+) % \|", fig7)
            self.assertIsNotNone(overhead, kernel)
            self.assertIsNotNone(prevented, kernel)
            self.assertEqual(float(overhead.group(1)), ref["noprefetch_overhead"], kernel)
            self.assertEqual(float(prevented.group(1)), ref["faults_prevented"], kernel)
            self.assertEqual(ref["freeze_avoided"], 98.0)
        self.assertIn("| Migration freeze time avoided | 98 % |", headline)
        self.assertEqual(len(derive.PAPER) * len(derive.PAPER_CLAIMS), 12)

    def test_exact_reproduction_has_zero_error(self):
        per_label = derive.comparisons(cells_hitting(derive.PAPER))
        self.assertAlmostEqual(derive.paper_err_pp(per_label), 0.0, places=9)

    def test_error_is_mean_absolute_gap_over_twelve(self):
        shifted = {k: dict(v) for k, v in derive.PAPER.items()}
        shifted["DGEMM"]["noprefetch_overhead"] += 6.0    # +6 pp
        shifted["FFT"]["faults_prevented"] -= 3.0         # -3 pp
        per_label = derive.comparisons(cells_hitting(shifted))
        self.assertAlmostEqual(derive.paper_err_pp(per_label), 9.0 / 12, places=9)

    def test_other_labels_compare_to_the_kernel_mean(self):
        mean = {c: statistics.fmean(v[c] for v in derive.PAPER.values())
                for c in derive.PAPER_CLAIMS}
        per_label = derive.comparisons(cells_hitting({"job0": mean}))
        self.assertAlmostEqual(derive.paper_err_pp(per_label), 0.0, places=9)

    def test_paper_metrics_of_the_paper_workload(self):
        cells = cells_hitting(derive.PAPER)
        cells.append(cell("DGEMM-ws", "openMosix", 50.0, 60.0))
        cells.append(cell("DGEMM-ws", "AMPoM", 1.0, 20.0, arrived=10, requests=1))
        got = derive.paper_metrics("paper_migration", {"cells": cells})
        self.assertAlmostEqual(got["freeze_avoided_pct"], 98.0)
        self.assertAlmostEqual(got["faults_prevented_pct"],
                               statistics.fmean(v["faults_prevented"] for v in derive.PAPER.values()),
                               places=1)
        self.assertAlmostEqual(got["runtime_vs_openmosix_pct"], 100.0)
        self.assertAlmostEqual(got["small_ws_speedup"], 3.0)

    def test_cluster_prevention_is_pooled_over_its_processes(self):
        ex = {"cells": cells_hitting({"job0": derive.PAPER["DGEMM"]}),
              "pages_arrived": 400, "fault_requests": 100}
        self.assertAlmostEqual(derive.paper_metrics("cluster_scale", ex)["faults_prevented_pct"],
                               75.0)

    def test_prefetch_host_cost_pairs_ampom_with_noprefetch(self):
        cells = [cell("A", "AMPoM", 1, 1, host_s=5.0), cell("A", "NoPrefetch", 1, 1, host_s=1.0),
                 cell("A", "openMosix", 1, 1, host_s=0.5), cell("B", "AMPoM", 1, 1, host_s=9.0)]
        self.assertAlmostEqual(derive.prefetch_host_s(cells), 4.0)


class FailureCounting(unittest.TestCase):
    EX = {"attempted": 14, "failed": 1, "failures": ["DGEMM.AMPoM: migration did not complete"],
          "det": {"a": 1, "b": 2, "c": 3}}

    def test_unrecorded_seed_counts_only_operation_failures(self):
        self.assertEqual(derive.count_failures(self.EX, None)[:2], (14, 1))

    def test_each_differing_recorded_output_is_a_failure(self):
        attempted, failed, notes = derive.count_failures(self.EX, {"a": 1, "b": 5, "d": 4})
        self.assertEqual((attempted, failed), (14, 4))  # b differs, d missing, c unexpected
        self.assertIn("deterministic output b differs", notes)

    def test_failures_never_exceed_attempts(self):
        expected = {f"k{i}": i for i in range(50)}
        self.assertEqual(derive.count_failures(self.EX, expected)[1], 14)

    def test_matching_record_adds_nothing(self):
        self.assertEqual(derive.count_failures(self.EX, dict(self.EX["det"]))[1], 1)

    def test_result_line_shape(self):
        line = derive.result_line(True, 3, 0, {"x": 1.5}, {"x": "s"})
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(line["metrics"], {"x": {"value": 1.5, "unit": "s"}})


class MetricNames(unittest.TestCase):
    def test_charset(self):
        for good in ("wall_s", "simcore.events", "p99-x", "9lives"):
            self.assertTrue(derive.valid_name(good), good)
        for bad in ("", "_x", ".x", "a b", "a/b", "x" * 65, "é"):
            self.assertFalse(derive.valid_name(bad), bad)
        for good in ("ms", "1/s", "%", "sim_s", "count"):
            self.assertTrue(derive.valid_unit(good), good)
        for bad in ("", "a b", "x" * 17, "µs"):
            self.assertFalse(derive.valid_unit(bad), bad)

    def test_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
                 for m in spec[group]]
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(all(derive.valid_name(n) for n in names))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(derive.valid_unit(m["unit"]))
            self.assertLessEqual(m["bound"], 0.25)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertTrue(derive.valid_unit(m["unit"]))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))

    def test_metric_map_documents_every_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        doc = (HERE / "METRICS.md").read_text()
        for group in ("workloads", "end_to_end", "per_layer"):
            for m in spec[group]:
                self.assertIn(f"`{m['name']}`", doc, m["name"])


if __name__ == "__main__":
    unittest.main()
