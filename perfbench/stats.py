"""Statistics and parsing shared by run.py and its self-tests.

Everything here is a pure function of its arguments, so test_stats.py can
pin each rule on hand-made inputs.
"""

import math
import re
import struct

# One open-loop request record, as perfbench_tool openloop writes it.
RECORD = struct.Struct("<qqqQIHBx")
NO_REPLY = 0xFFFF


def percentile_rank(n, q):
    """Index of the q-quantile in a sorted sample of n (nearest rank)."""
    return min(n - 1, max(0, math.ceil(q * n) - 1))


def percentile(sorted_values, q):
    """Nearest-rank q-quantile of an ascending list. Raises ValueError
    unless at least ten samples lie beyond the reported rank, so a tail
    figure is never read off a handful of points."""
    n = len(sorted_values)
    rank = percentile_rank(n, q) if n else 0
    if n == 0 or n - 1 - rank < 10:
        raise ValueError(
            "p%g needs at least ten samples beyond it, have %d samples"
            % (q * 100, n))
    return sorted_values[rank]


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def quartiles(values):
    """(q1, median, q3) with Python's statistics.quantiles(n=4) rule
    (the 'exclusive' method)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        raise ValueError("quartiles need at least two values")
    cuts = []
    for i in (1, 2, 3):
        j = i * (n + 1) / 4
        lo = min(max(int(math.floor(j)), 1), n - 1)
        delta = j - lo
        cuts.append(ordered[lo - 1] * (1 - delta) + ordered[lo] * delta)
    return tuple(cuts)


def relative_spread(values):
    """Interquartile range as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else float("inf")


def read_records(blob):
    """Decodes an openloop record file into tuples
    (due_ns, sent_ns, done_ns, digest, query, code, target)."""
    if len(blob) % RECORD.size:
        raise ValueError("truncated record file")
    return list(RECORD.iter_unpack(blob))


WINDOW = 1100  # requests per window: eleven beyond its p99


def summarize_open_loop(records, offered_rate, seconds):
    """Reduces one open-loop phase.

    Latency runs from each request's due time, not from when the
    generator got round to sending it, so generator lateness and daemon
    stalls both count against the requests they delay. A request that
    got no reply or a non-ok code is a failure and misses any latency
    limit. p50 and p99 are medians over consecutive windows of WINDOW
    requests (in due order) of each window's percentile, so one short
    stall of the host moves one window, not the run's figure; the pooled
    p99 is kept beside them. Returns client-side figures in
    microseconds.
    """
    ordered = sorted(records)
    latency = []
    ok_latency = []
    lag = []
    failed = 0
    for due, sent, done, _digest, _query, code, _target in ordered:
        lag.append((max(sent, due) - due) / 1e3)  # sent 0: never left
        if done < 0 or code != 0:
            failed += 1
            latency.append(math.inf)
        else:
            value = (done - due) / 1e3
            latency.append(value)
            ok_latency.append(value)
    windows = [sorted(latency[i:i + WINDOW])
               for i in range(0, len(latency) - WINDOW + 1, WINDOW)]
    if not windows:
        raise ValueError("a phase needs at least %d requests" % WINDOW)
    pooled = sorted(latency)
    lag.sort()
    return {
        "attempted": len(records),
        "failed": failed,
        "offered_rate": offered_rate,
        "achieved_rate": len(ok_latency) / seconds if seconds else 0.0,
        "mean_us": (sum(ok_latency) / len(ok_latency) if ok_latency
                    else math.inf),
        "p50_us": median([percentile(w, 0.5) for w in windows]),
        "p99_us": median([percentile(w, 0.99) for w in windows]),
        "pooled_p99_us": percentile(pooled, 0.99),
        "windows": len(windows),
        "lag_p99_us": percentile(lag, 0.99),
    }


def keeps_up(phase):
    """Completions kept pace with the offered rate: no growing backlog."""
    return phase["achieved_rate"] >= 0.97 * phase["offered_rate"]


def meets_slo(phase, p99_limit_us):
    """A rate holds when p99 (failures counting as misses) stays under
    the limit and there is no growing backlog."""
    return phase["p99_us"] <= p99_limit_us and keeps_up(phase)


def slo_capacity(phases, p99_limit_us):
    """Highest rate meeting the limit, from phases run in ascending rate
    order. Between the last rate that holds and the first that does not,
    the crossing is interpolated on log p99, so the figure moves smoothly
    with the knee instead of jumping a whole rung; a first miss with more
    than 1% failed (an infinite p99) answers the lower rate. Rates are
    the achieved ones. 0 when even the first phase misses."""
    best = None
    for phase in phases:
        if meets_slo(phase, p99_limit_us):
            best = phase
            continue
        if best is None:
            return 0.0
        p_lo, p_hi = best["p99_us"], phase["p99_us"]
        r_lo, r_hi = best["achieved_rate"], phase["offered_rate"]
        if not math.isfinite(p_hi) or p_hi <= p99_limit_us:
            return r_lo
        frac = ((math.log(p99_limit_us) - math.log(p_lo))
                / (math.log(p_hi) - math.log(p_lo)))
        return r_lo + frac * (r_hi - r_lo)
    return best["achieved_rate"] if best else 0.0


_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)\s*$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text):
    """Prometheus text exposition -> {(name, frozenset(labels)): value}.
    Comment lines are skipped; histogram buckets are kept like any other
    sample."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if not m:
            raise ValueError("unparsable exposition line: %r" % line)
        labels = frozenset(_LABEL.findall(m.group(2) or ""))
        samples[(m.group(1), labels)] = float(m.group(3))
    return samples


def metric_sum(samples, name, **labels):
    """Sum of every sample of `name` whose labels include `labels`."""
    want = set(labels.items())
    return sum(v for (n, ls), v in samples.items()
               if n == name and want <= set(ls))


STAGES = ("admission", "queue", "batch", "score", "flush")


def diff(before, after):
    """Sample-wise after - before of two parsed scrapes (counters and
    histogram sums only grow, so this is the activity in between)."""
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def add(a, b):
    out = dict(a)
    for key, value in b.items():
        out[key] = out.get(key, 0.0) + value
    return out


def stage_means(delta):
    """Per-stage mean microseconds, each stage's share of the in-daemon
    total, and that total, from a srpp_stage_duration_seconds delta."""
    means = {}
    for stage in STAGES:
        d_sum = metric_sum(delta, "srpp_stage_duration_seconds_sum",
                           stage=stage)
        d_count = metric_sum(delta, "srpp_stage_duration_seconds_count",
                             stage=stage)
        means[stage] = d_sum / d_count * 1e6 if d_count > 0 else 0.0
    total = sum(means.values())
    shares = {s: (means[s] / total if total else 0.0) for s in STAGES}
    return means, shares, total


def self_times(spans):
    """Per-name total self time in seconds.

    `spans` maps span id -> (name, parent_id, start_ns, end_ns). A span's
    self time is its duration minus the part of it that its children's
    intervals cover (overlapping children count once).
    """
    children = {}
    for sid, (_name, parent, _s, _e) in spans.items():
        children.setdefault(parent, []).append(sid)
    totals = {}
    for sid, (name, _parent, start, end) in spans.items():
        covered = 0
        cursor = start
        kids = sorted((max(spans[c][2], start), min(spans[c][3], end))
                      for c in children.get(sid, []))
        for s, e in kids:
            s = max(s, cursor)
            if e > s:
                covered += e - s
                cursor = e
        totals[name] = totals.get(name, 0.0) + (end - start - covered) / 1e9
    return totals
