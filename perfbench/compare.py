#!/usr/bin/env python3
"""Compare two sets of benchmark results, metric by metric and workload by
workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are directories (searched recursively) or files of result
JSON written by perfbench/run.py, e.g. copies of
.bench_build/perfbench/results taken on the parent commit and on a change.
A run that failed its correctness gate or had any failed request is left
out and listed; two runs of one workload, trace mode and seed on the same
side are an error.  Runs pair up by seed; seeds only one side has are
listed and not compared.  For each metric the table gives both sides'
median and quartiles, the share of pairs the new side wins (ties count for
neither) and a verdict:

  improved               new wins >= 90% of pairs and the medians differ
                         by more than the base runs' own quartile spread
  no worse within bound  new median no worse than base median by more
                         than the metric's bound in BENCHMARK.json
  worse                  worse by more than the bound
  unresolved             fewer than 10 seed-paired runs, or the
                         run-to-run spread is wider than the bound (or the
                         metric has no bound) and not every new run is
                         better than every base run
"""

import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

IMPROVED_WIN_SHARE = 0.9
MIN_PAIRS = 10


def better_than(a, b, better):
    return a < b if better == "lower" else a > b


def win_share(base, new, better):
    """Share of (base, new) pairs, in order, that the new side wins."""
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better_than(n, b, better))
    return wins / len(pairs) if pairs else 0.0


def verdict(base, new, better, bound):
    """(verdict, details) for one metric on one workload; `base` and `new`
    are run values paired by seed, `bound` the allowed worsening share or
    None."""
    if len(base) != len(new):
        raise ValueError("%d base runs against %d new runs: pair them by seed" % (len(base), len(new)))
    bq1, bmed, bq3 = stats.quartiles(base)
    nq1, nmed, nq3 = stats.quartiles(new)
    share = win_share(base, new, better)
    details = {"base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3), "win_share": share}
    if len(base) < MIN_PAIRS:
        return "unresolved", details
    if share >= IMPROVED_WIN_SHARE and better_than(nmed, bmed, better) and abs(nmed - bmed) > bq3 - bq1:
        return "improved", details
    every_new_better = all(better_than(n, b, better) for n in new for b in base)
    spread = max((bq3 - bq1) / bmed if bmed else 0.0, (nq3 - nq1) / nmed if nmed else 0.0)
    if (bound is None or spread > bound) and not every_new_better:
        return "unresolved", details
    worse_by = (nmed - bmed) / bmed if bmed else 0.0
    if better == "higher":
        worse_by = -worse_by
    details["worse_by"] = worse_by
    if bound is not None and worse_by > bound:
        return "worse", details
    return "no worse within bound", details


def collect(results):
    """Index run results, given as (name, result dict) pairs, by
    (workload, metric) -> {seed: value}.  Returns (runs, skipped): skipped
    lists the names of runs left out because they failed the correctness
    gate or had failed requests.  Two runs with the same workload, trace
    mode and seed raise ValueError."""
    runs, skipped, seen = {}, [], {}
    for name, r in results:
        meta = r["meta"]
        key = (meta["workload"], meta["trace"], meta["seed"])
        if key in seen:
            raise ValueError("%s and %s are both %s seed %d trace %d"
                             % (seen[key], name, key[0], key[2], key[1]))
        seen[key] = name
        if not r["correct"] or r["failed"] > 0:
            skipped.append(name)
            continue
        metrics = r["per_layer"] if meta["trace"] else r["end_to_end"]
        for metric, (value, _unit) in metrics.items():
            runs.setdefault((meta["workload"], metric), {})[meta["seed"]] = value
    return runs, skipped


def load(path):
    files = [path] if os.path.isfile(path) else glob.glob(os.path.join(path, "**", "*.json"), recursive=True)
    results = []
    for f in sorted(files):
        with open(f) as fh:
            r = json.load(fh)
        if "meta" in r:
            results.append((f, r))
    return collect(results)


def paired(base, new):
    """Values of the seeds both sides ran, in seed order, and the seeds
    only one side ran."""
    common = sorted(set(base) & set(new))
    unpaired = sorted(set(base) ^ set(new))
    return [base[s] for s in common], [new[s] for s in common], unpaired


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: (m["better"], m.get("bound")) for m in bench["end_to_end"] + bench["per_layer"]}
    try:
        (base, base_skipped), (new, new_skipped) = load(argv[1]), load(argv[2])
    except ValueError as e:
        print("compare: %s" % e, file=sys.stderr)
        return 1
    for side, skipped in (("base", base_skipped), ("new", new_skipped)):
        for name in skipped:
            print("left out (%s): %s failed its correctness gate or had failed requests" % (side, name))
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in spec:
            continue
        better, bound = spec[name]
        b, n, unpaired = paired(base[key], new[key])
        if not b:
            print("no seed-paired runs: %s %s (seeds %s)" % (workload, name, unpaired))
            continue
        v, d = verdict(b, n, better, bound)
        rows.append((workload, name, v, d, len(b), unpaired))
    print("%-20s %-36s %-34s %-34s %5s  %s" % ("workload", "metric", "base median [q1, q3]",
                                              "new median [q1, q3]", "wins", "verdict"))
    for workload, name, v, d, pairs, unpaired in rows:
        fmt = lambda q: "%.5g [%.5g, %.5g]" % (q[1], q[0], q[2])  # noqa: E731
        note = "; unpaired seeds %s" % unpaired if unpaired else ""
        print("%-20s %-36s %-34s %-34s %5.2f  %s (%d pairs%s)"
              % (workload, name, fmt(d["base"]), fmt(d["new"]), d["win_share"], v, pairs, note))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
