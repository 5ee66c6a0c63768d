"""Fork hygiene for process-global observability state.

The shard tier and the fanout pool fork workers; the ``os.register_at_fork``
hooks in :mod:`repro.obs` guarantee a child never inherits the parent's
counters, active tracer (with its open-span stack and sink handle) or
flight-recorder rings.  These tests fork for real and report the child's
observations back over a pipe — the regression REP003 exists to prevent.
"""

import json
import os

import pytest

from repro.obs import trace
from repro.obs.metrics import METRICS
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import disable_tracing, enable_tracing, get_tracer

requires_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="os.fork unavailable on this platform"
)


def _fork_and_probe(probe):
    """Fork; run ``probe()`` in the child; return its JSON result."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never return into pytest
        try:
            payload = json.dumps(probe()).encode()
            os.write(write_fd, payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 65536)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    os.waitpid(pid, 0)
    return json.loads(b"".join(chunks).decode())


@requires_fork
class TestForkHygiene:
    def test_child_metrics_start_from_zero(self):
        METRICS.reset()
        METRICS.counter("fork_probe_events").inc(5)
        try:
            child = _fork_and_probe(lambda: METRICS.snapshot())
            assert child == {}
            # The parent's registry is untouched by the child's reset.
            assert METRICS.snapshot()["fork_probe_events"] == 5
        finally:
            METRICS.reset()

    def test_child_drops_inherited_tracer(self):
        tracer = enable_tracing()
        with tracer.span("parent-phase"):
            child = _fork_and_probe(lambda: {"tracing": get_tracer() is not None})
        try:
            assert child == {"tracing": False}
            # The parent tracer survives, sink intact.
            assert get_tracer() is tracer
        finally:
            disable_tracing()

    def test_parent_and_child_ids_never_collide(self):
        """Span ids are a per-process random prefix plus a counter; the
        fork hook re-draws the child's prefix, so ids minted on both
        sides of a fork stay distinct even though the child inherits the
        parent's counter."""
        before = [trace._new_id() for _ in range(100)]
        child = _fork_and_probe(lambda: [trace._new_id() for _ in range(1000)])
        after = [trace._new_id() for _ in range(1000)]
        assert len(set(child)) == len(child) == 1000
        assert not set(child) & (set(before) | set(after))
        assert {i[:8] for i in child}.isdisjoint({i[:8] for i in before + after})

    def test_child_ring_is_empty_parent_ring_intact(self):
        recorder = FlightRecorder(capacity=8)
        recorder.record("parent-incident", worker=3)
        child = _fork_and_probe(lambda: {"events": len(recorder)})
        assert child == {"events": 0}
        assert [entry["event"] for entry in recorder.dump()] == ["parent-incident"]

    def test_clear_empties_the_ring(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("one")
        recorder.record("two")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.dump() == []
