"""Self-tests of the benchmark's reductions.

    python3 perfbench/test_stats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402
import compare  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100, shuffled order must not matter
        values.reverse()
        self.assertEqual(stats.nearest_rank(values, 50), 50)
        self.assertEqual(stats.nearest_rank(values, 99), 99)
        self.assertEqual(stats.nearest_rank(values, 100), 100)
        self.assertEqual(stats.nearest_rank([7.0], 50), 7.0)
        with self.assertRaises(ValueError):
            stats.nearest_rank([], 50)

    def test_tail_keeps_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(39), 50.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 95.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)
        for n in (20, 40, 48, 100, 1000, 6000, 10000):
            p, value = stats.tail(list(range(n)))
            self.assertGreaterEqual(sum(1 for v in range(n) if v > value), 10, n)

    def test_block_tail_is_median_of_block_tails(self):
        # Three blocks of 1000; one holds a stall of 50 slow requests.
        values = [1.0] * 3000
        for i in range(1000, 1050):
            values[i] = 100.0
        label, value = stats.block_tail(values)
        self.assertEqual(label, "median of 3 block p99")
        self.assertEqual(value, 1.0)  # the stall moves one block only
        self.assertEqual(stats.tail(values), (99.0, 100.0))  # the run's own tail
        # Short runs fall back to the plain tail.
        self.assertEqual(stats.block_tail(list(range(40))), ("p75", stats.tail(list(range(40)))[1]))


class DueTime(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # A request sent 3 ms late and answered 1 ms after sending was 4 ms
        # late for its caller.
        due, send, done = [1000, 2000], [4000, 2000], [5000, 2500]
        self.assertEqual(stats.from_due_ms(due, done), [4.0, 0.5])
        self.assertEqual(stats.send_lag_ms(due, send), [3.0, 0.0])

    def test_rung_verdict(self):
        due = [i * 1000 for i in range(40)]
        done = [d + 500 for d in due]
        ok = [0] * 40
        v = stats.rung_verdict(due, done, ok, limit_ms=1.0)
        self.assertTrue(v["passes"])
        self.assertEqual(v["tail_label"], "p75")
        self.assertAlmostEqual(v["achieved_rps"], 40 / 0.0395)
        # A growing backlog: each response later than the last, though
        # the tail stays within the limit.
        late = [d + 500 + 20 * i for i, d in enumerate(due)]
        self.assertLessEqual(stats.rung_verdict(due, late, ok, limit_ms=1.5)["tail_ms"], 1.5)
        self.assertFalse(stats.rung_verdict(due, late, ok, limit_ms=1.5)["passes"])
        # Over the limit.
        self.assertFalse(stats.rung_verdict(due, done, ok, limit_ms=0.4)["passes"])
        # Any failure fails the rung.
        self.assertFalse(stats.rung_verdict(due, done, [0] * 39 + [2], limit_ms=1.0)["passes"])


    def test_capacity_takes_the_majority_of_bursts(self):
        def burst(rate, achieved, passes):
            return {"rate": rate, "achieved_rps": achieved, "passes": passes}
        verdicts = [burst(8000, 7990, True), burst(8000, 3600, False), burst(8000, 7980, True),
                    burst(8800, 8790, True), burst(8800, 8770, True), burst(8800, 8780, False),
                    burst(9680, 9000, False), burst(9680, 9600, True), burst(9680, 9100, False),
                    burst(10648, 10600, True), burst(10648, 10610, True), burst(10648, 10620, True)]
        # 9680/s fails by majority; the pass above it does not count.
        self.assertEqual(stats.capacity(verdicts), 8780)
        self.assertEqual(stats.capacity(verdicts[:3]), 7985)
        self.assertEqual(stats.capacity(verdicts[6:9]), 0.0)


class Failures(unittest.TestCase):
    def test_failure_counts(self):
        c = stats.failure_counts([0, 0, 1, 2, 3, 0])
        self.assertEqual(c, {"ok": 3, "error": 1, "rejected": 1, "wrong": 1, "attempted": 6, "failed": 3})
        self.assertEqual(stats.failure_counts([])["failed"], 0)


def span(name, ts, dur, tid=1, trace="a"):
    return {"name": name, "ts": ts, "dur": dur, "tid": tid, "trace_id": trace}


class SelfTime(unittest.TestCase):
    def test_containment_and_self_time(self):
        spans = [
            span("request", 0, 100),
            span("queue", 0, 10),
            span("run", 10, 90),
            span("encoder", 12, 80),
            span("value_projection", 15, 30),
            span("gather_aggregate", 50, 20),
            # Same interval, other thread or other request: never a child.
            span("encoder", 12, 80, tid=2),
            span("encoder", 12, 80, trace="b"),
        ]
        nodes, violations = stats.span_tree(spans)
        self.assertEqual(violations, [])
        by = {(n["name"], n["tid"], n["trace_id"]): n for n in nodes}
        self.assertEqual(by[("request", 1, "a")]["self_us"], 0)
        self.assertEqual(by[("run", 1, "a")]["self_us"], 10)
        self.assertEqual(by[("encoder", 1, "a")]["self_us"], 30)
        self.assertEqual(by[("encoder", 2, "a")]["self_us"], 80)
        self.assertEqual(by[("encoder", 1, "b")]["children"], [])
        enc = nodes.index(by[("encoder", 1, "a")])
        self.assertEqual(sorted(nodes[j]["name"] for j in stats.descendants(nodes, enc)),
                         ["gather_aggregate", "value_projection"])
        att = stats.attribution(nodes)
        self.assertAlmostEqual(att["encoder"]["unattributed_share"], 30 / 80)
        self.assertAlmostEqual(att["request"]["unattributed_share"], 0.0)

    def test_rounding_tolerance_and_partial_overlap(self):
        # A child ending 1 us after its parent (truncation) still nests.
        nodes, violations = stats.span_tree([span("run", 0, 50), span("encoder", 10, 41)])
        self.assertEqual(violations, [])
        self.assertEqual(nodes[1]["parent"], 0)
        # A span straddling its would-be parent's end is reported.
        nodes, violations = stats.span_tree([span("run", 0, 50), span("encoder", 40, 30)])
        self.assertEqual(violations, [1])


class Compare(unittest.TestCase):
    def test_verdicts(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
        faster = [v * 0.8 for v in base]
        slower = [v * 1.5 for v in base]
        self.assertEqual(compare.verdict(base, faster, "lower", 0.1)[0], "improved")
        self.assertEqual(compare.verdict(base, base, "lower", 0.1)[0], "no worse within bound")
        self.assertEqual(compare.verdict(base, slower, "lower", 0.1)[0], "worse")
        noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
        self.assertEqual(compare.verdict(noisy, noisy, "lower", 0.1)[0], "unresolved")
        self.assertEqual(compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1)[0], "improved")

    def test_too_few_pairs_are_unresolved(self):
        base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9]
        self.assertEqual(compare.verdict(base, [v * 0.5 for v in base], "lower", 0.1)[0], "unresolved")
        self.assertEqual(compare.verdict([10.0], [5.0], "lower", 0.1)[0], "unresolved")
        with self.assertRaises(ValueError):
            compare.verdict(base, base[:-1], "lower", 0.1)

    def test_win_share_pairs_by_seed(self):
        self.assertEqual(compare.win_share([1, 2, 3], [0, 2, 4], "lower"), 1 / 3)
        b, n, unpaired = compare.paired({1: 5.0, 2: 6.0, 3: 7.0}, {3: 1.0, 1: 2.0, 4: 3.0})
        self.assertEqual((b, n, unpaired), ([5.0, 7.0], [2.0, 1.0], [2, 4]))
        self.assertEqual(compare.paired({1: 5.0}, {2: 6.0}), ([], [], [1, 2]))


def result(seed, value, correct=True, failed=0, trace=0):
    return {"meta": {"workload": "w", "trace": trace, "seed": seed}, "correct": correct, "failed": failed,
            "end_to_end": {"latency_p50_ms": [value, "ms"]}, "per_layer": {"obs.dropped_spans": [0, "count"]}}


class CompareLoad(unittest.TestCase):
    def test_failed_runs_are_left_out(self):
        runs, skipped = compare.collect([("a", result(1, 1.0)), ("b", result(2, 0.5, correct=False)),
                                         ("c", result(3, 0.5, failed=2))])
        self.assertEqual(runs, {("w", "latency_p50_ms"): {1: 1.0}})
        self.assertEqual(skipped, ["b", "c"])

    def test_duplicate_seeds_are_an_error(self):
        runs, _ = compare.collect([("a", result(1, 1.0)), ("b", result(1, 2.0, trace=1))])
        self.assertEqual(runs[("w", "latency_p50_ms")], {1: 1.0})
        with self.assertRaises(ValueError):
            compare.collect([("a", result(1, 1.0)), ("b", result(1, 2.0))])


if __name__ == "__main__":
    unittest.main()
