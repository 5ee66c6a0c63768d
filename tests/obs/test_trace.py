"""Span tracer mechanics: nesting, stitching, sinks, flight recorder."""

import json
import os
import sys
import threading

import pytest

from repro.obs.recorder import FlightRecorder
from repro.obs.trace import (
    SpanContext,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    stitch,
    summarize,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    disable_tracing()


class TestDisabledFastPath:
    def test_span_is_a_shared_noop(self):
        assert not tracing_enabled()
        cm1 = span("plan", requests=3)
        cm2 = span("execute")
        assert cm1 is cm2  # one shared no-op context manager, no allocation
        with cm1 as opened:
            opened.set(backend="dense")  # swallowed
            assert opened.context is None

    def test_get_tracer_is_none(self):
        assert get_tracer() is None


class TestTracer:
    def test_start_finish_produces_a_record(self):
        tracer = Tracer()
        opened = tracer.start("build", label="x")
        record = tracer.finish(opened)
        assert record["kind"] == "span"
        assert record["name"] == "build"
        assert record["parent_id"] is None
        assert record["pid"] == os.getpid()
        assert record["duration_s"] >= 0.0
        assert record["attributes"] == {"label": "x"}
        assert tracer.spans() == [record]

    def test_nesting_links_parent_and_trace(self):
        tracer = Tracer()
        with tracer.span("request") as root:
            with tracer.span("build") as child:
                assert child.trace_id == root.trace_id
                assert child.parent_id == root.span_id
        names = [record["name"] for record in tracer.spans()]
        assert names == ["build", "request"]  # finished inner-first

    def test_explicit_parent_crosses_context(self):
        tracer = Tracer()
        ctx = SpanContext(trace_id="t1", span_id="s1")
        record = tracer.finish(tracer.start("execute", parent=ctx))
        assert record["trace_id"] == "t1"
        assert record["parent_id"] == "s1"

    def test_context_sets_ambient_parent_without_a_span(self):
        tracer = Tracer()
        ctx = SpanContext(trace_id="t2", span_id="s2")
        with tracer.context(ctx):
            assert tracer.current() == ctx
            record = tracer.finish(tracer.start("pack"))
        assert record["trace_id"] == "t2"
        assert tracer.current() is None

    def test_emit_fabricates_a_finished_span(self):
        tracer = Tracer()
        ctx = SpanContext(trace_id="t3", span_id="s3")
        record = tracer.emit("pack", duration_s=0.25, parent=ctx, batch=8)
        assert record["duration_s"] == 0.25
        assert record["trace_id"] == "t3"
        assert record["attributes"] == {"batch": 8}

    def test_record_adopts_foreign_span_dicts(self):
        tracer = Tracer()
        shipped = {"kind": "span", "name": "execute", "trace_id": "t", "ts": 1.0}
        tracer.record(shipped)
        assert tracer.spans() == [shipped]

    def test_drain_pops_the_buffer(self):
        tracer = Tracer()
        tracer.finish(tracer.start("a"))
        drained = tracer.drain()
        assert len(drained) == 1
        assert tracer.spans() == []
        assert tracer.drain() == []

    def test_buffer_is_bounded(self):
        tracer = Tracer(buffer_size=4)
        for index in range(10):
            tracer.finish(tracer.start(f"s{index}"))
        names = [record["name"] for record in tracer.spans()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_sink_receives_every_span_as_json_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=str(path))
        tracer.finish(tracer.start("build"))
        tracer.drain()  # the sink keeps its copy regardless
        tracer.finish(tracer.start("execute"))
        tracer.write({"kind": "metrics", "metrics": {}})
        tracer.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r.get("name", r["kind"]) for r in records] == [
            "build", "execute", "metrics",
        ]

    def test_ids_stay_unique_across_threads(self):
        """Stress: ids come from a shared counter, not a lock; threads
        minting at a tiny switch interval never draw the same one."""
        from repro.obs.trace import _new_id

        minted: list[list[str]] = [[] for _ in range(8)]

        def mint(out: list[str]) -> None:
            for _ in range(2000):
                out.append(_new_id())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=mint, args=(out,)) for out in minted]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        ids = [i for out in minted for i in out]
        assert len(set(ids)) == len(ids) == 16000

    def test_sink_lines_are_written_in_bulk(self, tmp_path, monkeypatch):
        """Finishing a span writes nothing; pending lines go out once
        ``SINK_BATCH`` of them wait, or at drain/write/close."""
        monkeypatch.setattr("repro.obs.trace.SINK_BATCH", 3)
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(sink=str(path))

        def lines():
            return len(path.read_text().splitlines())

        tracer.finish(tracer.start("a"))
        tracer.finish(tracer.start("b"))
        assert lines() == 0
        tracer.finish(tracer.start("c"))
        assert lines() == 3
        tracer.finish(tracer.start("d"))
        tracer.drain()
        assert lines() == 4
        tracer.finish(tracer.start("e"))
        tracer.write({"kind": "metrics", "metrics": {}})
        assert lines() == 6
        tracer.finish(tracer.start("f"))
        tracer.close()
        assert lines() == 7


class TestGlobalTracer:
    def test_enable_installs_and_disable_removes(self):
        tracer = enable_tracing()
        assert get_tracer() is tracer
        assert tracing_enabled()
        with span("plan", requests=1) as opened:
            opened.set(groups=1)
        assert tracer.spans()[0]["attributes"] == {"requests": 1, "groups": 1}
        disable_tracing()
        assert get_tracer() is None

    def test_reenable_replaces_the_tracer(self):
        first = enable_tracing()
        second = enable_tracing()
        assert first is not second
        assert get_tracer() is second


class TestStitch:
    def test_groups_by_trace_and_orders_by_ts(self):
        spans = [
            {"name": "b", "trace_id": "t1", "ts": 2.0},
            {"name": "a", "trace_id": "t1", "ts": 1.0},
            {"name": "c", "trace_id": "t2", "ts": 0.5},
        ]
        by_trace = stitch(spans)
        assert [s["name"] for s in by_trace["t1"]] == ["a", "b"]
        assert [s["name"] for s in by_trace["t2"]] == ["c"]

    def test_batch_spans_join_every_listed_trace(self):
        batch = {
            "name": "execute",
            "trace_id": "tbatch",
            "ts": 1.0,
            "attributes": {"trace_ids": ["t1", "t2"]},
        }
        by_trace = stitch([batch])
        assert set(by_trace) == {"tbatch", "t1", "t2"}
        assert all(traced == [batch] for traced in by_trace.values())

    def test_summarize_is_compact(self):
        text = summarize([
            {"name": "build", "duration_s": 0.001},
            {"name": "execute", "duration_s": 0.0205},
        ])
        assert text == "build:1.000ms;execute:20.500ms"


class TestFlightRecorder:
    def test_records_and_dumps(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("route", index=0, shard=1)
        recorder.record("death", shard=1)
        dump = recorder.dump()
        assert len(recorder) == 2
        assert [entry["event"] for entry in dump] == ["route", "death"]
        assert dump[0]["shard"] == 1
        assert "ts" in dump[0]

    def test_ring_wraps_at_capacity(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", index=index)
        dump = recorder.dump()
        assert len(dump) == 4
        assert [entry["index"] for entry in dump] == [6, 7, 8, 9]


class TestWallClockIndependence:
    """Duration math is monotonic-only: a wall clock stepping backward
    (NTP, DST) must never produce negative durations or perturb traced
    sampling results relative to untraced ones."""

    def _backwards_clock(self):
        ticks = iter(range(10**6, 0, -1))  # strictly decreasing wall time

        def stepped_back():
            return float(next(ticks))

        return stepped_back

    def test_span_durations_survive_backwards_wall_clock(self, monkeypatch):
        from repro.obs import trace as trace_mod

        monkeypatch.setattr(trace_mod.time, "time", self._backwards_clock())
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(1000))
        for record in tracer.spans():
            assert record["duration_s"] >= 0.0

    def test_traced_rows_bit_identical_under_backwards_wall_clock(
        self, monkeypatch
    ):
        from repro.api import SamplingRequest, sample
        from repro.database import partition, zipf_dataset

        def run():
            db = partition(zipf_dataset(16, 24, rng=3), 2)
            result = sample(SamplingRequest(database=db))
            assert result.sampling is not None
            return result.sampling.summary(), result.trace

        untraced, _ = run()

        from repro.obs import trace as trace_mod

        monkeypatch.setattr(trace_mod.time, "time", self._backwards_clock())
        enable_tracing()
        try:
            traced, spans = run()
        finally:
            disable_tracing()

        # Bit-identical result rows: tracing (even under a broken wall
        # clock) must never touch the sampled physics.
        assert traced == untraced
        assert spans, "the traced run recorded no spans"
        assert all(record["duration_s"] >= 0.0 for record in spans)
