"""The benchmark's own arithmetic: percentiles and whether a sample count
supports them, span self time, the unattributed share of a served job's
latency, and the failure fraction.

Pure functions over plain data, so test_metrics.py can check each one.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

OK = "ok"


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return n * (100.0 - p) / 100.0


def percentile_supported(n, p):
    return samples_beyond(n, p) >= MIN_BEYOND - 1e-9


def percentile(values, p):
    """Linearly interpolated percentile (the rule util::percentile uses).
    Infinite values (failed slices) sort last."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi or xs[lo] == xs[hi]:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def slice_latencies(slices):
    """Latency samples of attempted slices; a slice that failed, was refused,
    expired or returned wrong output misses every latency limit (+inf)."""
    return [s["latency_s"] if s["status"] == OK else math.inf for s in slices]


def failed_count(slices):
    return sum(1 for s in slices if s["status"] != OK)


def failed_frac(slices):
    if not slices:
        return 1.0
    return failed_count(slices) / len(slices)


def union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals clipped to [lo, hi)."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    its child spans cover (overlapping children count once).

    spans: iterable of dicts with keys name, start, end, id, parent.
    Returns {span id: self seconds}.
    """
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = union_length(children.get(s["id"], []), s["start"], s["end"])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def child_share(spans, name):
    """Share of the total duration of spans called `name` that their
    children cover: 1 - self / duration, summed over those spans."""
    selves = self_times(spans)
    total = 0.0
    self_total = 0.0
    for s in spans:
        if s["name"] == name:
            total += s["end"] - s["start"]
            self_total += selves[s["id"]]
    return (total - self_total) / total if total > 0 else None


def median_self_time(spans, name):
    selves = self_times(spans)
    values = [selves[s["id"]] for s in spans if s["name"] == name]
    return statistics.median(values) if values else None


UNATTRIBUTED_PARTS = ("submit_s", "queue_wait_s", "acquire_s", "solve_s", "fetch_s")


def unattributed(s):
    """The part of a served job's latency no layer explains:
    latency - (submit + queue_wait + acquire + solve + fetch)."""
    return s["latency_s"] - sum(s[k] for k in UNATTRIBUTED_PARTS)
