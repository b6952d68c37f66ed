#!/usr/bin/env python3
"""Self-tests for the benchmark's own helpers (stdlib unittest):

    python3 perfbench/test_benchlib.py
"""
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
import compare  # noqa: E402


class WindowedRate(unittest.TestCase):
    def test_steady_jobs_give_the_plain_rate(self):
        # 10 jobs of 100 units, 1 ms each: 100k units/s in every window.
        rate, windows = benchlib.windowed_rate([1_000_000] * 10, 100, 2)
        self.assertAlmostEqual(rate, 100_000.0)
        self.assertEqual(windows, 5)

    def test_one_stall_moves_one_window_not_the_median(self):
        times = [1_000_000] * 12
        times[5] = 50_000_000  # job 5 stalls 50 ms
        rate, windows = benchlib.windowed_rate(times, 100, 3)
        self.assertEqual(windows, 4)
        self.assertAlmostEqual(rate, 100_000.0)
        # Total units over total time would read 4x lower.
        self.assertLess(12 * 100 / (sum(times) * 1e-9), rate / 4)

    def test_trailing_partial_window_is_dropped(self):
        _, windows = benchlib.windowed_rate([1, 1, 1], 1, 2)
        self.assertEqual(windows, 1)

    def test_too_few_jobs_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.windowed_rate([1, 2], 1, 3)


class JobTimes(unittest.TestCase):
    def test_time_between_segments_belongs_to_no_job(self):
        # Segment 0 starts at 0 (jobs 0-1), segment 1 at 100 (jobs 2-3).
        ends = [4, 5, 103, 110]
        self.assertEqual(benchlib.job_times([0, 100], [0, 2], ends),
                         [4, 1, 3, 7])

    def test_windows_span_segments_without_the_gap(self):
        times = benchlib.job_times([0, 1_000_000_000], [0, 2],
                                   [1_000_000, 2_000_000,
                                    1_001_000_000, 1_002_000_000])
        rate, windows = benchlib.windowed_rate(times, 10, 4)
        self.assertEqual(windows, 1)
        self.assertAlmostEqual(rate, 10_000.0)


class SegmentMedians(unittest.TestCase):
    def test_one_median_per_segment(self):
        values = [1, 2, 3, 10, 20, 5]
        self.assertEqual(benchlib.segment_medians(values, [0, 3, 5]),
                         [2, 15, 5])

    def test_a_slow_minority_of_segments_does_not_move_the_median(self):
        # Three fast segments (1 ms jobs), two slow ones (2 ms jobs).
        values = [1.0] * 30 + [2.0] * 20 + [1.0] * 10
        meds = benchlib.segment_medians(values, [0, 10, 30, 40, 50])
        self.assertEqual(statistics.median(meds), 1.0)

    def test_empty_segments_are_skipped(self):
        self.assertEqual(benchlib.segment_medians([4, 6], [0, 2, 2]), [5])


class TailRule(unittest.TestCase):
    def test_p90_needs_100_samples(self):
        self.assertIsNone(benchlib.supported_tail(5))
        self.assertEqual(benchlib.supported_tail(99), 75.0)
        self.assertEqual(benchlib.supported_tail(100), 90.0)
        self.assertEqual(benchlib.supported_tail(20), 50.0)
        self.assertEqual(benchlib.supported_tail(40), 75.0)

    def test_never_above_the_wanted_percentile(self):
        self.assertEqual(benchlib.supported_tail(100_000, 90.0), 90.0)
        self.assertEqual(benchlib.supported_tail(100_000, 99.0), 99.0)
        self.assertEqual(benchlib.supported_tail(1000, 99.9), 99.0)

    def test_tail_value(self):
        values = list(range(1, 101))  # 100 samples
        pct, v = benchlib.tail(values)
        self.assertEqual(pct, 90.0)
        self.assertAlmostEqual(v, benchlib.percentile(values, 90.0))
        # Too few samples for any percentile: falls back to the median.
        self.assertEqual(benchlib.tail([3, 1, 2]), (50.0, 2))

    def test_percentile_interpolates(self):
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 50), 2.5)
        self.assertEqual(benchlib.percentile([5], 90), 5)
        self.assertEqual(benchlib.percentile([1, 3], 0), 1)
        self.assertEqual(benchlib.percentile([1, 3], 100), 3)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([(0, 10, 25)]), [15])

    def test_children_are_subtracted(self):
        spans = [(0, 0, 100), (1, 10, 30), (1, 50, 60)]
        self.assertEqual(benchlib.self_times(spans), [70, 20, 10])

    def test_overlapping_children_count_once(self):
        # Two concurrent children covering [10, 40) and [20, 50): 40 covered.
        spans = [(0, 0, 100), (1, 10, 40), (1, 20, 50)]
        self.assertEqual(benchlib.self_times(spans)[0], 60)

    def test_child_outside_its_parent_is_clipped(self):
        spans = [(0, 0, 100), (1, 90, 130)]
        self.assertEqual(benchlib.self_times(spans), [90, 40])

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [(0, 0, 100), (1, 10, 60), (2, 20, 30)]
        self.assertEqual(benchlib.self_times(spans), [50, 40, 10])


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, med, q3 = benchlib.quartiles(values)
        self.assertAlmostEqual(benchlib.spread(values), (q3 - q1) / med)


class CompareVerdicts(unittest.TestCase):
    LOWER = {"better": "lower", "bound": 0.1}

    def test_clear_gain_is_better(self):
        base = [10.0, 10.1, 9.9, 10.05, 9.95]
        change = [8.0, 8.1, 7.9, 8.05, 7.95]
        self.assertEqual(compare.verdict(base, change, self.LOWER), "better")

    def test_regression_beyond_bound_is_worse(self):
        base = [10.0, 10.1, 9.9, 10.05, 9.95]
        change = [12.0, 12.1, 11.9, 12.05, 11.95]
        self.assertEqual(compare.verdict(base, change, self.LOWER), "worse")

    def test_small_shift_is_same(self):
        base = [10.0, 10.1, 9.9, 10.05, 9.95]
        change = [10.2, 10.3, 10.1, 10.25, 10.15]
        self.assertEqual(compare.verdict(base, change, self.LOWER), "same")

    def test_noise_wider_than_bound_is_unresolved(self):
        base = [10.0, 14.0, 7.0, 12.0, 8.0]
        change = [10.5, 14.5, 7.5, 12.5, 8.5]
        self.assertEqual(compare.verdict(base, change, self.LOWER),
                         "unresolved")

    def test_identical_counts_without_a_bound_are_same(self):
        counts = [42.0] * 10
        self.assertEqual(compare.verdict(counts, list(counts), {}), "same")
        self.assertEqual(compare.verdict(counts, [43.0] * 10, {}), "worse")

    def test_unbounded_shift_within_the_spread_is_same(self):
        base = [10.0, 11.0, 9.0, 10.5, 9.5]
        change = [10.2, 11.2, 9.2, 10.7, 9.7]
        self.assertEqual(compare.verdict(base, change, {}), "same")

    def test_higher_is_better_direction(self):
        spec = {"better": "higher", "bound": 0.1}
        base = [10.0, 10.1, 9.9, 10.05, 9.95]
        change = [12.0, 12.1, 11.9, 12.05, 11.95]
        self.assertEqual(compare.verdict(base, change, spec), "better")


if __name__ == "__main__":
    unittest.main()
