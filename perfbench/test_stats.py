"""Self-tests for the benchmark's statistics and parsing.

    python3 perfbench/test_stats.py      (or: run.py --self-test)
"""

import json
import math
import os
import random
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True
import stats  # noqa: E402

# Two scrapes in the shape serve-daemon writes (histogram buckets, label
# escaping, families the stage parse must ignore).
GOLDEN_BEFORE = r"""
# HELP srpp_stage_duration_seconds Time in each serving stage.
# TYPE srpp_stage_duration_seconds histogram
srpp_stage_duration_seconds_bucket{stage="admission",le="1e-06"} 3
srpp_stage_duration_seconds_bucket{stage="admission",le="+Inf"} 10
srpp_stage_duration_seconds_sum{stage="admission"} 0.00001
srpp_stage_duration_seconds_count{stage="admission"} 10
srpp_stage_duration_seconds_sum{stage="batch"} 0.00002
srpp_stage_duration_seconds_count{stage="batch"} 10
srpp_stage_duration_seconds_sum{stage="flush"} 0.0001
srpp_stage_duration_seconds_count{stage="flush"} 10
srpp_stage_duration_seconds_sum{stage="queue"} 0.0002
srpp_stage_duration_seconds_count{stage="queue"} 10
srpp_stage_duration_seconds_sum{stage="score"} 0.0005
srpp_stage_duration_seconds_count{stage="score"} 10
srpp_requests_total{tenant="a \"b\"",code="shed"} 1
srpp_requests_total{tenant="hot",code="shed"} 2
srpp_reloads_total{outcome="applied"} 4
"""
GOLDEN_AFTER = r"""# TYPE srpp_stage_duration_seconds histogram
srpp_stage_duration_seconds_bucket{stage="admission",le="+Inf"} 110
srpp_stage_duration_seconds_sum{stage="admission"} 0.00011
srpp_stage_duration_seconds_count{stage="admission"} 110
srpp_stage_duration_seconds_sum{stage="batch"} 0.00022
srpp_stage_duration_seconds_count{stage="batch"} 110
srpp_stage_duration_seconds_sum{stage="flush"} 0.0021
srpp_stage_duration_seconds_count{stage="flush"} 110
srpp_stage_duration_seconds_sum{stage="queue"} 0.0032
srpp_stage_duration_seconds_count{stage="queue"} 110
srpp_stage_duration_seconds_sum{stage="score"} 0.0105
srpp_stage_duration_seconds_count{stage="score"} 110
srpp_requests_total{tenant="a \"b\"",code="shed"} 1
srpp_requests_total{tenant="hot",code="shed"} 7
srpp_reloads_total{outcome="applied"} 6
"""


def record(due, sent, done, code=0, query=0, target=0, digest=0):
    return (due, sent, done, digest, query, code, target)


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 1010))  # 1009 samples: p99 leaves 10 above
        self.assertEqual(stats.percentile(values, 0.99), 999)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1, 1000)), 0.99)  # only 9 above
        self.assertEqual(stats.percentile(list(range(1, 22)), 0.5), 11)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1, 20)), 0.5)

    def test_window_size_supports_p99(self):
        window = list(range(stats.WINDOW))
        rank = stats.percentile_rank(stats.WINDOW, 0.99)
        self.assertGreaterEqual(stats.WINDOW - 1 - rank, 10)
        self.assertEqual(stats.percentile(window, 0.99), rank)

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)


class Quartiles(unittest.TestCase):
    def test_match_statistics_quantiles(self):
        rng = random.Random(5)
        for n in (2, 3, 4, 5, 10, 11, 37):
            values = [rng.uniform(0, 100) for _ in range(n)]
            want = statistics.quantiles(values, n=4)
            got = stats.quartiles(values)
            for a, b in zip(got, want):
                self.assertAlmostEqual(a, b, places=9)

    def test_relative_spread(self):
        values = [10, 11, 9, 10, 12, 8, 10, 10, 11, 9]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.relative_spread(values), (q3 - q1) / q2)


class Exposition(unittest.TestCase):
    def test_stage_delta_of_golden_scrapes(self):
        before = stats.parse_exposition(GOLDEN_BEFORE)
        after = stats.parse_exposition(GOLDEN_AFTER)
        means, shares, total = stats.stage_means(stats.diff(before, after))
        want = {"admission": 1.0, "batch": 2.0, "flush": 20.0,
                "queue": 30.0, "score": 100.0}
        for stage, us in want.items():
            self.assertAlmostEqual(means[stage], us, places=6)
        self.assertAlmostEqual(total, 153.0, places=6)
        self.assertAlmostEqual(sum(shares.values()), 1.0, places=12)
        self.assertAlmostEqual(shares["score"], 100.0 / 153.0, places=12)

    def test_labels_and_sums(self):
        after = stats.parse_exposition(GOLDEN_AFTER)
        self.assertEqual(stats.metric_sum(after, "srpp_requests_total",
                                          code="shed"), 8)
        self.assertEqual(stats.metric_sum(after, "srpp_requests_total",
                                          tenant='a \\"b\\"'), 1)
        self.assertEqual(stats.metric_sum(after, "srpp_reloads_total",
                                          outcome="applied"), 6)
        self.assertEqual(stats.metric_sum(after, "srpp_absent_total"), 0)

    def test_rejects_garbage(self):
        with self.assertRaises(ValueError):
            stats.parse_exposition("not a sample line at all {")


class OpenLoop(unittest.TestCase):
    def test_latency_runs_from_due_time(self):
        # The generator sent every request 40 us late; the daemon took
        # 10 us after the send. Latency is 50 us, lag 40 us.
        recs = [record(i * 1000, i * 1000 + 40_000, i * 1000 + 50_000)
                for i in range(stats.WINDOW)]
        out = stats.summarize_open_loop(recs, 1000.0, 1.1)
        self.assertAlmostEqual(out["p50_us"], 50.0)
        self.assertAlmostEqual(out["p99_us"], 50.0)
        self.assertAlmostEqual(out["mean_us"], 50.0)
        self.assertAlmostEqual(out["lag_p99_us"], 40.0)
        self.assertEqual(out["failed"], 0)
        self.assertAlmostEqual(out["achieved_rate"], stats.WINDOW / 1.1)

    def test_stall_counts_against_every_delayed_request(self):
        # A 5 ms stall holds back the sends due during it: each is timed
        # from its own due time, so the delay shows in its latency.
        recs = []
        for i in range(2 * stats.WINDOW):
            due = i * 100_000
            sent = max(due, 5_000_000)
            recs.append(record(due, sent, sent + 20_000))
        out = stats.summarize_open_loop(recs, 10000.0, 0.22)
        lat = sorted((r[2] - r[0]) / 1e3 for r in recs)
        self.assertEqual(lat[-1], 5020.0)
        self.assertAlmostEqual(out["lag_p99_us"],
                               stats.percentile(sorted((r[1] - r[0]) / 1e3
                                                       for r in recs), 0.99))
        self.assertGreater(out["pooled_p99_us"], 20.0)

    def test_failures_miss_every_limit(self):
        recs = [record(i, i, i + 1000) for i in range(stats.WINDOW)]
        for i in range(0, stats.WINDOW, 50):  # 22 failures > 1%
            recs[i] = record(i, i, -1, code=stats.NO_REPLY)
        out = stats.summarize_open_loop(recs, 1.0, 1.0)
        self.assertEqual(out["failed"], 22)
        self.assertTrue(math.isinf(out["p99_us"]))
        self.assertFalse(stats.meets_slo(out, 1e9))

    def test_windowed_p99_ignores_one_bad_window(self):
        recs = []
        for i in range(5 * stats.WINDOW):
            lat = 900_000 if stats.WINDOW <= i < 2 * stats.WINDOW else 1000
            recs.append(record(i * 1000, i * 1000, i * 1000 + lat))
        out = stats.summarize_open_loop(recs, 1.0, 1.0)
        self.assertEqual(out["windows"], 5)
        self.assertAlmostEqual(out["p99_us"], 1.0)
        self.assertAlmostEqual(out["pooled_p99_us"], 900.0)

    def test_record_layout_matches_the_generator(self):
        self.assertEqual(stats.RECORD.size, 40)
        blob = stats.RECORD.pack(1, 2, -1, 3, 4, stats.NO_REPLY, 5)
        self.assertEqual(stats.read_records(blob),
                         [(1, 2, -1, 3, 4, stats.NO_REPLY, 5)])
        with self.assertRaises(ValueError):
            stats.read_records(blob[:-1])


class SloCapacity(unittest.TestCase):
    def phase(self, rate, p99, failed=0, achieved=None):
        return {"offered_rate": rate, "achieved_rate": achieved or rate,
                "p99_us": p99, "failed": failed}

    def test_interpolates_the_crossing(self):
        phases = [self.phase(1000, 100), self.phase(2000, 1000),
                  self.phase(4000, 100000)]
        # log-linear between 1000 us at 2000/s and 100000 us at 4000/s:
        # the 10000 us limit sits half way.
        self.assertAlmostEqual(stats.slo_capacity(phases, 10000), 3000.0)

    def test_failures_or_backlog_under_the_limit_stop_at_the_lower_rate(self):
        self.assertEqual(stats.slo_capacity(
            [self.phase(1000, 100), self.phase(2000, math.inf, failed=30)],
            10000), 1000)
        self.assertEqual(stats.slo_capacity(
            [self.phase(1000, 100), self.phase(2000, 500, achieved=1500)],
            10000), 1000)

    def test_backlog_past_the_limit_interpolates(self):
        got = stats.slo_capacity(
            [self.phase(1000, 1000), self.phase(2000, 100000, achieved=1500)],
            10000)
        self.assertAlmostEqual(got, 1500.0)

    def test_all_pass_and_none_pass(self):
        self.assertEqual(stats.slo_capacity(
            [self.phase(1000, 100), self.phase(2000, 200)], 1000), 2000)
        self.assertEqual(stats.slo_capacity([self.phase(1000, 5000)], 1000),
                         0.0)


class SelfTimes(unittest.TestCase):
    def test_children_and_overlap(self):
        spans = {
            "root": ("compute", None, 0, 100),
            "a": ("load", "root", 0, 30),
            "b": ("run", "root", 20, 80),   # overlaps a by 10
            "c": ("kernel", "b", 30, 50),
        }
        got = stats.self_times(spans)
        self.assertAlmostEqual(got["compute"], 20 / 1e9)
        self.assertAlmostEqual(got["load"], 30 / 1e9)
        self.assertAlmostEqual(got["run"], 40 / 1e9)
        self.assertAlmostEqual(got["kernel"], 20 / 1e9)


class Catalogue(unittest.TestCase):
    def test_benchmark_json_matches_run_py(self):
        import run
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        with open(os.path.join(HERE, "CATALOGUE.md")) as f:
            catalogue = f.read()
        for name in list(run.END_TO_END) + list(run.WORKLOADS):
            self.assertIn("`%s`" % name, catalogue)


def main():
    result = unittest.main(module=__name__, argv=[sys.argv[0]], exit=False)
    return 0 if result.result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
