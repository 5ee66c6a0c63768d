"""End-to-end traces through every execution strategy and serving tier."""

import os

import pytest

import repro
from repro.analysis import InstanceSpec
from repro.api import SamplingRequest
from repro.database import WorkloadSpec
from repro.obs import disable_tracing, enable_tracing


@pytest.fixture(autouse=True)
def _tracing_off_after():
    yield
    disable_tracing()


def _spec() -> InstanceSpec:
    return InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=64, total=24),
        n_machines=2,
        nu=24,
    )


def _requests(count: int) -> list[SamplingRequest]:
    return [SamplingRequest(spec=_spec(), batchable=True) for _ in range(count)]


def _names(result) -> set[str]:
    return {record["name"] for record in result.trace}


class TestStrategyTraces:
    @pytest.mark.parametrize(
        "strategy,kwargs",
        [
            ("instance", {}),
            ("stacked", {}),
            ("fanout", {"jobs": 2}),
            ("served", {}),
        ],
    )
    def test_every_strategy_emits_stitched_per_request_traces(
        self, strategy, kwargs
    ):
        enable_tracing()
        results = repro.sample_many(
            _requests(4), rng=11, strategy=strategy, **kwargs
        )
        for result in results:
            assert result.trace, f"{strategy} left a request untraced"
            names = _names(result)
            assert "request" in names
            assert "build" in names
            assert "execute" in names
            roots = [r for r in result.trace if r["name"] == "request"]
            assert len(roots) == 1
            trace_id = roots[0]["trace_id"]
            # Every span in the trace either carries the trace_id or was
            # a batch span stitched in via its trace_ids attribute.
            for record in result.trace:
                listed = record.get("attributes", {}).get("trace_ids") or []
                assert record["trace_id"] == trace_id or trace_id in listed
            row = result.row()
            assert row["trace_id"] == trace_id
            assert "build" in row["trace_spans"]

    def test_plan_span_and_summary(self):
        enable_tracing()
        results = repro.sample_many(_requests(3), rng=5)
        summary = results.trace_summary()
        assert {"request", "build", "execute"} <= set(summary)
        assert summary["build"]["count"] == 3
        assert summary["request"]["max_s"] >= summary["request"]["p50_s"] >= 0

    def test_summary_counts_each_span_once(self):
        """A batch-level span rides every request's trace but is one
        span: the summary counts one ``execute`` per stacked chunk, and
        no phase that runs serially inside the call can total more than
        the call's own wall time.  (The per-request ``request`` roots
        overlap — each spans the whole call — so they are exempt.)"""
        import time

        enable_tracing()
        start = time.perf_counter()
        results = repro.sample_many(_requests(64), rng=5, batch_size=16)
        wall = time.perf_counter() - start
        assert set(results.strategies()) == {"stacked"}
        summary = results.trace_summary()
        assert summary["execute"]["count"] == 64 // 16
        assert summary["build"]["count"] == 64
        for name, stats in summary.items():
            if name != "request":
                assert stats["total_s"] <= wall, name

    def test_fanout_traces_cross_processes(self):
        enable_tracing()
        results = repro.sample_many(_requests(4), rng=11, strategy="fanout", jobs=2)
        pids = {
            record["pid"] for result in results for record in result.trace
        }
        assert any(pid != os.getpid() for pid in pids)

    def test_untraced_rows_carry_no_trace_columns(self):
        results = repro.sample_many(_requests(2), rng=3)
        for row in results.rows():
            assert "trace_id" not in row
            assert "trace_spans" not in row
        assert results[0].trace is None
        assert results.trace_summary() == {}


class TestServedTraces:
    def test_serve_front_door_traces_in_process_tier(self):
        enable_tracing()
        results = repro.serve(_requests(4), rng=9)
        for result in results:
            names = _names(result)
            assert {"request", "build", "execute"} <= names

    def test_sharded_tier_stitches_worker_process_spans(self):
        enable_tracing()
        results = repro.serve(_requests(6), rng=9, shards=2)
        dispatcher_pid = os.getpid()
        for result in results:
            names = _names(result)
            assert {"request", "dispatch", "build", "execute"} <= names
            worker_pids = {
                record["pid"]
                for record in result.trace
                if record["name"] in ("build", "execute", "marshal")
            }
            assert worker_pids, "no worker spans shipped home"
            assert all(pid != dispatcher_pid for pid in worker_pids)
            roots = [r for r in result.trace if r["name"] == "request"]
            assert len(roots) == 1

    @pytest.mark.parametrize("shards", [None, 2], ids=["in-process", "sharded"])
    def test_both_tiers_trace_the_same_request_lane(self, shards):
        """Span parity: one lane, so both tiers emit build, pack and
        execute into every served request's stitched trace."""
        enable_tracing()
        results = repro.serve(_requests(6), rng=9, shards=shards)
        for result in results:
            assert {"request", "build", "pack", "execute"} <= _names(result)

    def test_sharded_rows_match_untraced_run(self):
        plain = repro.serve(_requests(4), rng=13, shards=2)
        enable_tracing()
        traced = repro.serve(_requests(4), rng=13, shards=2)
        for row_a, row_b in zip(plain.rows(), traced.rows()):
            for key, value in row_a.items():
                if key != "wall_time_s":
                    assert row_b[key] == value, key
