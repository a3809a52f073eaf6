"""Reductions of raw benchmark samples: percentiles, due-time latency,
failure counts, open-loop rung verdicts and span self times.

Pure functions over plain lists and dicts, so test_stats.py can check them
without a server.  Every percentile is computed from raw per-request
samples (nearest rank), never from a bucketed histogram.
"""

import math
import statistics

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
# A tail needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples (the epsilon
    keeps p * n / 100 from rounding up past an exact integer)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def nearest_rank(values, p):
    """The p-th percentile (0 < p <= 100) by nearest rank: the smallest
    sample with at least p% of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n):
    """The highest ladder percentile with >= TAIL_MIN_BEYOND of n samples
    strictly beyond its rank; None when even the median has too few."""
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            best = p
    return best


def tail(values):
    """(percentile, value) of the tail of `values` (see tail_percentile)."""
    p = tail_percentile(len(values))
    if p is None:
        raise ValueError("%d samples are too few for a tail" % len(values))
    return p, nearest_rank(values, p)


# Requests per block of a long run's tail.
TAIL_BLOCK = 1000


def block_tail(values, block=TAIL_BLOCK):
    """(label, value) of the tail of a long run of samples: the run, in send
    order, is cut into whole blocks of `block` samples, each block's tail is
    taken as `tail` defines it, and the median of those is reported,
    labelled e.g. "median of 33 block p99".  This is not the run's own tail:
    a stall that hits fewer than half of the blocks does not move it, which
    keeps the figure steady on a host whose stalls are not the program's;
    report `tail` of the raw samples beside it so that such stalls still
    show.  Runs shorter than two blocks report the tail of all their
    samples, labelled e.g. "p75"."""
    if len(values) < 2 * block:
        p, value = tail(values)
        return "p%g" % p, value
    tails = [tail(values[i:i + block]) for i in range(0, len(values) - block + 1, block)]
    return "median of %d block p%g" % (len(tails), tails[0][0]), median([v for _, v in tails])


def median(values):
    return statistics.median(values)


def from_due_ms(due_us, done_us):
    """Latency of each request from when it was due to be sent, so a stall
    also charges the requests queued behind it."""
    return [(done - due) / 1000.0 for due, done in zip(due_us, done_us)]


def send_lag_ms(due_us, send_us):
    """How late the generator sent each request."""
    return [(send - due) / 1000.0 for due, send in zip(due_us, send_us)]


STATUS_NAMES = ("ok", "error", "rejected", "wrong")


def failure_counts(statuses):
    """Counts per status (perfbench_load codes 0 ok, 1 error, 2 rejected, 3 wrong
    result) plus `failed`, the sum of everything but ok."""
    counts = {name: 0 for name in STATUS_NAMES}
    for s in statuses:
        counts[STATUS_NAMES[s]] += 1
    counts["attempted"] = len(statuses)
    counts["failed"] = counts["attempted"] - counts["ok"]
    return counts


# A rung's backlog is growing when its last response comes later after its
# last arrival than this share of the span of its arrivals.
BACKLOG_SHARE = 0.03


def rung_verdict(due_us, done_us, statuses, limit_ms):
    """Judge one open-loop rung.  It passes when every request succeeded,
    the tail latency (from due time) is within `limit_ms`, and the backlog
    does not grow: the last response arrives within BACKLOG_SHARE of the
    arrival span after the last arrival.  Returns a dict with the tail,
    the achieved rate (successes per second from the first due time to the
    last response) and `passes`.
    """
    lat = from_due_ms(due_us, done_us)
    label, value = block_tail(lat)
    arrivals_ms = (max(due_us) - min(due_us)) / 1000.0
    span_s = (max(done_us) - min(due_us)) / 1e6
    drain_ms = (max(done_us) - max(due_us)) / 1000.0
    ok = sum(1 for s in statuses if s == 0)
    return {
        "tail_label": label,
        "tail_ms": value,
        "p50_ms": median(lat),
        "drain_ms": drain_ms,
        "achieved_rps": ok / span_s if span_s > 0 else 0.0,
        "passes": ok == len(statuses) and value <= limit_ms and drain_ms <= BACKLOG_SHARE * arrivals_ms,
    }


def capacity(verdicts):
    """The highest probed rate the server sustains.  `verdicts` are
    rung_verdict results with a `rate`, several bursts per rate.  A rate
    passes when a majority of its bursts pass; walking the rates upward,
    the result is the median achieved rate of the passing bursts at the last
    rate before the first one that fails, or 0.0 when the lowest fails."""
    by_rate = {}
    for v in verdicts:
        by_rate.setdefault(v["rate"], []).append(v)
    best = 0.0
    for rate in sorted(by_rate):
        passed = [v["achieved_rps"] for v in by_rate[rate] if v["passes"]]
        if 2 * len(passed) <= len(by_rate[rate]):
            break
        best = median(passed)
    return best


# Spans on one thread of one request may differ from exact nesting by the
# microsecond truncation of their start and duration.
NEST_TOLERANCE_US = 2


def span_tree(spans, tolerance_us=NEST_TOLERANCE_US):
    """Nest duration spans by containment within each (tid, trace_id) and
    compute self time: duration minus the time the direct children cover.

    `spans` are dicts with name, ts, dur (us), tid and trace_id.  Returns
    (nodes, violations): nodes are dicts with the span's fields plus
    `parent` (index or None), `children` (indices) and `self_us`;
    violations list spans that partly overlap another span of the same
    thread and request, which would make any attribution wrong.
    """
    nodes = [dict(s, parent=None, children=[]) for s in spans]
    groups = {}
    for i, s in enumerate(nodes):
        groups.setdefault((s["tid"], s["trace_id"]), []).append(i)
    violations = []
    for members in groups.values():
        members.sort(key=lambda i: (nodes[i]["ts"], -nodes[i]["dur"]))
        stack = []
        for i in members:
            s = nodes[i]
            while stack and nodes[stack[-1]]["ts"] + nodes[stack[-1]]["dur"] <= s["ts"] + tolerance_us:
                stack.pop()
            if stack:
                parent = nodes[stack[-1]]
                if s["ts"] + s["dur"] > parent["ts"] + parent["dur"] + tolerance_us:
                    violations.append(i)
                    continue
                s["parent"] = stack[-1]
                parent["children"].append(i)
            stack.append(i)
    for s in nodes:
        covered = sum(nodes[c]["dur"] for c in s["children"])
        s["self_us"] = max(0, s["dur"] - covered)
    return nodes, violations


def attribution(nodes):
    """Per parent span name: total duration, total self time and the
    unattributed share (self / duration).  Checked at every parent, not
    only the request root."""
    out = {}
    for s in nodes:
        if not s["children"]:
            continue
        row = out.setdefault(s["name"], {"count": 0, "dur_us": 0, "self_us": 0})
        row["count"] += 1
        row["dur_us"] += s["dur"]
        row["self_us"] += s["self_us"]
    for row in out.values():
        row["unattributed_share"] = row["self_us"] / row["dur_us"] if row["dur_us"] else 0.0
    return out


def descendants(nodes, i):
    """Indices of every span nested under span i."""
    out, todo = [], list(nodes[i]["children"])
    while todo:
        j = todo.pop()
        out.append(j)
        todo.extend(nodes[j]["children"])
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them; a single
    value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
