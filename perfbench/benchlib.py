"""Statistics helpers shared by run.py and compare.py (stdlib only).

Every helper here is covered by test_benchlib.py.
"""
import json
import math
import statistics

# Candidate tail percentiles, highest first. A tail is reported only where
# the run holds at least MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def percentile(values, pct):
    """Linear-interpolated percentile (pct in [0, 100]) of a non-empty list."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = (len(xs) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def supported_tail(n, wanted=90.0):
    """Highest percentile <= `wanted` with at least MIN_BEYOND of `n`
    samples beyond it, or None when not even the median qualifies."""
    for pct in TAIL_PERCENTILES:
        # n * (100 - pct) / 100 keeps e.g. 100 samples beyond p90 exact.
        if pct <= wanted and n * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return None


def tail(values, wanted=90.0):
    """(percentile used, value) under the >= MIN_BEYOND-samples rule;
    falls back to the median of what there is when no percentile
    qualifies."""
    pct = supported_tail(len(values), wanted)
    if pct is None:
        pct = 50.0
    return pct, percentile(values, pct)


def job_times(seg_start, seg_first, end_ns):
    """Host time each job accounts for in a closed loop: its completion
    minus the previous completion of the same segment (the segment's start
    for its first job). Time between segments belongs to no job."""
    out = []
    starts = dict(zip(seg_first, seg_start))
    prev = None
    for i, end in enumerate(end_ns):
        if i in starts:
            prev = starts[i]
        out.append(end - prev)
        prev = end
    return out


def segment_medians(values, seg_first):
    """Median of each segment's values, where segment k holds
    values[seg_first[k]:seg_first[k + 1]]. Empty segments are skipped."""
    bounds = list(seg_first) + [len(values)]
    return [statistics.median(values[lo:hi])
            for lo, hi in zip(bounds, bounds[1:]) if hi > lo]


def windowed_rate(job_ns, units_per_job, jobs_per_window):
    """Median over windows of consecutive jobs of units completed per
    second of the jobs' host time (see job_times), so one stall lowers one
    window's rate instead of the whole run's figure. An incomplete trailing
    window is dropped. Returns (median rate, number of windows)."""
    rates = []
    for k in range(len(job_ns) // jobs_per_window):
        span = sum(job_ns[k * jobs_per_window:(k + 1) * jobs_per_window])
        if span > 0:
            rates.append(units_per_job * jobs_per_window / (span * 1e-9))
    if not rates:
        raise ValueError("no complete window of %d jobs" % jobs_per_window)
    return statistics.median(rates), len(rates)


def self_times(spans):
    """Self time of each span: its duration minus the part of it its
    children cover (overlapping children count once).

    `spans` is a list of (parent, start, end) with parent a 1-based index
    into the same list (0 = root). Returns a list of self times."""
    children = [[] for _ in spans]
    for i, (parent, _, _) in enumerate(spans):
        if parent:
            children[parent - 1].append(i)
    out = []
    for i, (_, start, end) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def last_json_line(text):
    """The last line of `text` that parses as a JSON object, or None."""
    for line in reversed(text.strip().splitlines()):
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict):
            return obj
    return None
