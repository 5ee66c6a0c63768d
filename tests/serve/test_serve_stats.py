"""ServiceStats: counter bookkeeping and snapshot fields."""

import threading

import repro.serve.stats as stats_module
from repro.serve import ServiceStats
from repro.serve.stats import LATENCY_WINDOW, percentile


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class FakeResult:
    def __init__(self, sequential_queries=10, parallel_rounds=0, exact=True):
        self.sequential_queries = sequential_queries
        self.parallel_rounds = parallel_rounds
        self.exact = exact


class TestPercentile:
    def test_empty(self):
        assert percentile([], 0.5) == 0.0

    def test_median_and_tail(self):
        # Nearest-rank (ceil) semantics: rank ⌈q·n⌉ counted from 1.  The
        # old ``int(q * n)`` indexing overshot by one whole rank exactly
        # on rank boundaries (p50 of 100 values landed on the 51st).
        values = sorted(float(v) for v in range(100))
        assert percentile(values, 0.50) == 49.0  # the 50th value, not the 51st
        assert percentile(values, 0.99) == 98.0  # the 99th value
        assert percentile(values, 1.0) == 99.0  # clamped to the last rank

    def test_exact_rank_boundaries(self):
        # q·n integral is the biased case: ceil-rank must NOT advance to
        # the next value.
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.25) == 1.0
        assert percentile(values, 0.50) == 2.0
        assert percentile(values, 0.75) == 3.0
        assert percentile(values, 1.0) == 4.0

    def test_fractional_ranks_round_up(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.26) == 2.0
        assert percentile(values, 0.51) == 3.0
        assert percentile(values, 0.76) == 4.0

    def test_single_value_and_extremes(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 1.0) == 7.0
        assert percentile([1.0, 2.0], 0.0) == 1.0  # q=0 clamps to the first rank


class TestCounters:
    def test_snapshot_follows_lifecycle(self):
        clock = FakeClock()
        stats = ServiceStats(clock=clock)
        for _ in range(4):
            stats.record_submit()
        assert stats.queue_depth == 4

        stats.record_batch(3, target=4)
        clock.now = 2.0
        for latency in (0.5, 1.0, 2.0):
            stats.record_complete(latency, FakeResult(sequential_queries=6))
        snap = stats.snapshot()
        assert snap["submitted"] == 4
        assert snap["completed"] == 3
        assert snap["queue_depth"] == 1
        assert snap["batches_executed"] == 1
        assert snap["batch_fill_ratio"] == 0.75
        assert snap["mean_batch_size"] == 3.0
        assert snap["sequential_queries"] == 18
        assert snap["exact"] == 3
        # busy span: first submit at t=0, last completion at t=2 → 1.5/s
        assert snap["instances_per_sec"] == 1.5
        assert snap["p50_latency"] == 1.0
        assert snap["max_latency"] == 2.0

    def test_fill_ratio_is_weighted_by_target(self):
        # One full big batch + one near-empty deadline flush: unweighted
        # averaging would report (1.0 + 0.125) / 2 ≈ 0.56; the weighted
        # ratio charges the straggler only for its capacity share.
        stats = ServiceStats(clock=FakeClock())
        stats.record_batch(64, target=64)
        stats.record_batch(1, target=8)
        snap = stats.snapshot()
        assert snap["batch_fill_ratio"] == 65 / 72
        assert snap["fill_p10"] == 0.125  # the tail flush shows up here

    def test_fill_p10_tracks_the_worst_batches(self):
        stats = ServiceStats(clock=FakeClock())
        for _ in range(16):
            stats.record_batch(10, target=10)
        for _ in range(4):
            stats.record_batch(1, target=10)
        snap = stats.snapshot()
        assert snap["fill_p10"] == 0.1
        assert snap["batch_fill_ratio"] == 164 / 200

    def test_fill_percentiles_expose_the_distribution(self):
        stats = ServiceStats(clock=FakeClock())
        for fill in (2, 4, 6, 8, 10):
            stats.record_batch(fill, target=10)
        snap = stats.snapshot()
        assert snap["fill_p10"] == 0.2
        assert snap["fill_p50"] == 0.6
        assert snap["fill_p90"] == 1.0

    def test_failures_reduce_queue_depth(self):
        stats = ServiceStats(clock=FakeClock())
        stats.record_submit()
        stats.record_failure()
        assert stats.queue_depth == 0
        assert stats.snapshot()["failed"] == 1

    def test_empty_snapshot_is_all_zero(self):
        snap = ServiceStats(clock=FakeClock()).snapshot()
        assert snap["instances_per_sec"] == 0.0
        assert snap["batch_fill_ratio"] == 0.0
        assert snap["fill_p10"] == 0.0
        assert snap["p99_latency"] == 0.0


class TestAggregate:
    def test_merges_counters_and_spans(self):
        clock_a, clock_b = FakeClock(), FakeClock()
        a = ServiceStats(clock=clock_a)
        b = ServiceStats(clock=clock_b)
        a.record_submit()  # first submit at t=0 on shard a
        clock_b.now = 1.0
        b.record_submit()
        b.record_submit()
        a.record_batch(4, target=8)
        b.record_batch(8, target=8)
        clock_a.now = 2.0
        a.record_complete(0.5, FakeResult(sequential_queries=6))
        clock_b.now = 4.0  # the tier's busy span ends here
        b.record_complete(1.5, FakeResult(sequential_queries=4, exact=False))
        b.record_failure()

        view = ServiceStats.aggregate([a, b])
        assert view["submitted"] == 3
        assert view["completed"] == 2
        assert view["failed"] == 1
        assert view["exact"] == 1
        assert view["batches_executed"] == 2
        assert view["batch_fill_ratio"] == 12 / 16
        assert view["sequential_queries"] == 10
        # span: earliest first submit (t=0, shard a) → latest completion
        # (t=4, shard b) → 2 completions / 4 s.
        assert view["instances_per_sec"] == 0.5
        assert view["max_latency"] == 1.5
        per_shard = view["per_shard"]
        assert len(per_shard) == 2
        assert per_shard[0]["completed"] == 1
        assert per_shard[1]["failed"] == 1

    def test_pools_every_shards_full_window(self):
        # Two full windows, one slow shard and one fast: the pooled
        # percentiles must see both, not just the last shard merged.
        slow, fast = ServiceStats(clock=FakeClock()), ServiceStats(clock=FakeClock())
        for _ in range(LATENCY_WINDOW):
            slow.record_complete(1.0, FakeResult())
            slow.record_batch(1, target=4)
            fast.record_complete(0.001, FakeResult())
            fast.record_batch(4, target=4)
        view = ServiceStats.aggregate([slow, fast])
        assert view["completed"] == 2 * LATENCY_WINDOW
        assert view["p50_latency"] == 0.001
        assert view["p99_latency"] == 1.0
        assert view["max_latency"] == 1.0
        assert view["fill_p10"] == 0.25
        assert view["fill_p90"] == 1.0

    def test_leaves_every_shard_untouched(self):
        # Pooling copies the windows: each shard keeps its own capped
        # window and snapshot.
        slow, fast = ServiceStats(clock=FakeClock()), ServiceStats(clock=FakeClock())
        for _ in range(LATENCY_WINDOW):
            slow.record_complete(1.0, FakeResult())
            fast.record_complete(0.001, FakeResult())
        before = [slow.snapshot(), fast.snapshot()]
        view = ServiceStats.aggregate([slow, fast])
        assert view["per_shard"] == before
        assert [slow.snapshot(), fast.snapshot()] == before
        assert slow._latencies.maxlen == fast._latencies.maxlen == LATENCY_WINDOW
        assert len(slow._latencies) == len(fast._latencies) == LATENCY_WINDOW

    def test_empty_aggregate(self):
        view = ServiceStats.aggregate([])
        assert view["submitted"] == 0
        assert view["per_shard"] == []


class TestWindowBounds:
    """Percentiles run over the most-recent window, not lifetime history."""

    def test_latency_window_keeps_most_recent_only(self, monkeypatch):
        monkeypatch.setattr(stats_module, "LATENCY_WINDOW", 8)
        stats = ServiceStats(clock=FakeClock())
        # 100 slow completions followed by 8 fast ones: the overflowed
        # window must report the fast regime only.
        for _ in range(100):
            stats.record_complete(50.0, FakeResult())
        for latency in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0):
            stats.record_complete(latency, FakeResult())
        snap = stats.snapshot()
        assert len(stats._latencies) == 8
        assert snap["p50_latency"] == 4.0
        assert snap["p99_latency"] == 8.0
        assert snap["max_latency"] == 8.0
        assert snap["completed"] == 108  # lifetime counters keep counting

    def test_fill_window_keeps_most_recent_only(self, monkeypatch):
        monkeypatch.setattr(stats_module, "FILL_WINDOW", 4)
        stats = ServiceStats(clock=FakeClock())
        for _ in range(50):
            stats.record_batch(1, target=10)  # old trickle regime
        for _ in range(4):
            stats.record_batch(10, target=10)  # current full-batch regime
        snap = stats.snapshot()
        assert len(stats._fills) == 4
        assert snap["fill_p10"] == 1.0
        # The weighted mean stays lifetime-wide by design.
        assert snap["batch_fill_ratio"] == 90 / 540

    def test_window_bound_holds_under_concurrent_writers(self, monkeypatch):
        monkeypatch.setattr(stats_module, "LATENCY_WINDOW", 16)
        monkeypatch.setattr(stats_module, "FILL_WINDOW", 16)
        stats = ServiceStats(clock=FakeClock())
        errors: list[BaseException] = []

        def hammer(worker: int) -> None:
            try:
                for i in range(500):
                    stats.record_submit()
                    stats.record_batch(4, target=8)
                    stats.record_complete(float(worker * 1000 + i), FakeResult())
            except BaseException as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(stats._latencies) == 16
        assert len(stats._fills) == 16
        snap = stats.snapshot()
        assert snap["submitted"] == snap["completed"] == 2000
        # Every surviving window entry is a real recorded value and the
        # percentile surface stays within the window's value range.
        window = sorted(stats._latencies)
        assert window[0] <= snap["p50_latency"] <= window[-1]
        assert snap["max_latency"] == window[-1]
