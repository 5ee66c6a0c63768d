"""Span-based tracing for the request → plan → execute pipeline.

A **span** is one timed phase of one request's life — ``plan``,
``pack``, ``build``, ``execute``, ``marshal``, ``dispatch`` — with
monotonic start/duration, structured attributes (backend, strategy,
batch size, shard id, fault mask) and parent/child linkage.  Spans that
share a ``trace_id`` form one per-request trace, stitched even when the
phases ran in different processes: the fanout pool and the sharded
tier's workers run their own local :class:`Tracer`, parent their spans
to the :class:`SpanContext` the dispatcher shipped with the request,
and return the finished span dicts in their result messages for the
dispatcher to :meth:`~Tracer.record`.

Tracing is **opt-in and free when off**: :func:`span` — the one helper
the hot paths call — reads a single module global and returns a shared
no-op context manager when no tracer is enabled; no allocation, no
clock reads.  Enable with :func:`enable_tracing` (optionally with a
JSON-lines ``sink`` path: every finished span is appended as one JSON
object, the ``--trace out.jsonl`` CLI surface).

When on, a span makes no system call, because a call that releases
the GIL costs a busy service far more than the call itself: ids are a
per-process random prefix plus a counter, and sink lines are written in
bulk (at ``drain``/``write``/``close``, at exit, and every
:data:`SINK_BATCH` records).  A killed process loses at most
``SINK_BATCH - 1`` pending sink lines.

Cross-process timing caveat: ``duration_s`` is always a monotonic
difference measured inside one process and is comparable everywhere;
``ts`` is wall-clock (for ordering) and ``pid`` records where the span
ran.
"""

from __future__ import annotations

import atexit
import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

#: How many finished spans a tracer retains (oldest dropped first); the
#: JSONL sink, when configured, still sees every span.
DEFAULT_BUFFER = 4096

#: Pending sink records that trigger one bulk serialize-and-write.
SINK_BATCH = 1024


def _draw_prefix(avoid: str = "") -> str:
    """Eight random hex digits, never ``avoid``."""
    prefix = avoid
    while prefix == avoid:
        prefix = os.urandom(4).hex()
    return prefix


_id_prefix = _draw_prefix()
_id_counter = itertools.count()


def _new_id() -> str:
    """The process's id prefix, then a counter: unique while prefixes differ."""
    return f"{_id_prefix}{next(_id_counter):08x}"


@dataclass(frozen=True)
class SpanContext:
    """The cross-process address of a span: picklable, tiny.

    Ship this with a request (pipe message, pool payload) so remote
    spans join the same trace.
    """

    trace_id: str
    span_id: str


class Span:
    """One open span (``context`` addresses it); finished spans are dicts."""

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attributes", "ts", "_start",
        "context",
    )

    def __init__(
        self,
        name: str,
        trace_id: str,
        parent_id: str | None,
        attributes: dict[str, object],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = _new_id()
        self.parent_id = parent_id
        self.attributes = attributes
        self.context = SpanContext(trace_id, self.span_id)
        self.ts = time.time()
        self._start = time.perf_counter()

    def set(self, **attributes: object) -> None:
        """Attach attributes discovered mid-span (resolved backend, sizes)."""
        self.attributes.update(attributes)


class _NoopSpan:
    """The shared do-nothing span the disabled-tracer fast path yields."""

    __slots__ = ()

    def set(self, **attributes: object) -> None:
        pass

    @property
    def context(self) -> None:
        return None


class _NoopSpanCM:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


class _SpanScope:
    """:meth:`Tracer.span`'s context manager (a class: no generator frame)."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", opened: Span) -> None:
        self._tracer = tracer
        self._span = opened

    def __enter__(self) -> Span:
        self._token = self._tracer._current.set(self._span.context)
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._current.reset(self._token)
        self._tracer.finish(self._span)
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP_CM = _NoopSpanCM()


class Tracer:
    """Collects finished spans (bounded buffer + optional JSONL sink).

    Thread-safe.  The module-level :func:`enable_tracing` installs one
    process-wide tracer; worker processes construct short-lived local
    tracers and ship :meth:`drain`'d span dicts home instead.
    """

    def __init__(self, sink: str | None = None, buffer_size: int = DEFAULT_BUFFER):
        self._lock = threading.Lock()
        self._finished: deque[dict] = deque(maxlen=buffer_size)
        self._sink_path = sink
        self._sink = open(sink, "a", encoding="utf-8") if sink else None
        self._unwritten: list[dict] = []
        self._current: ContextVar[SpanContext | None] = ContextVar(
            "repro-trace-current", default=None
        )

    # -- producing spans ---------------------------------------------------------

    def start(
        self,
        name: str,
        parent: Span | SpanContext | None = None,
        **attributes: object,
    ) -> Span:
        """Open a span under an explicit parent (or as a new trace root).

        ``parent=None`` falls back to the ambient :meth:`span` nesting
        context; with no ambient span either, a fresh ``trace_id`` is
        minted — the span is a root.
        """
        if parent is None:
            parent = self._current.get()
        if isinstance(parent, Span):
            parent = parent.context
        # ``**attributes`` is already a fresh dict: the span owns it.
        if parent is None:
            return Span(name, _new_id(), None, attributes)
        return Span(name, parent.trace_id, parent.span_id, attributes)

    def finish(self, span: Span) -> dict:
        """Stamp the duration and record the finished span."""
        record = {
            "kind": "span",
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "ts": span.ts,
            "duration_s": time.perf_counter() - span._start,
            "pid": os.getpid(),
            "attributes": span.attributes,
        }
        self.record(record)
        return record

    def span(
        self,
        name: str,
        parent: Span | SpanContext | None = None,
        **attributes: object,
    ) -> _SpanScope:
        """Open, nest (ambient context) and finish one span around a block."""
        return _SpanScope(self, self.start(name, parent=parent, **attributes))

    @contextmanager
    def context(self, parent: Span | SpanContext | None) -> Iterator[None]:
        """Set the ambient parent without opening a span (batch stitching)."""
        if isinstance(parent, Span):
            parent = parent.context
        token = self._current.set(parent)
        try:
            yield
        finally:
            self._current.reset(token)

    def current(self) -> SpanContext | None:
        """The ambient span context, if inside a :meth:`span` block."""
        return self._current.get()

    def emit(
        self,
        name: str,
        duration_s: float,
        parent: Span | SpanContext | None = None,
        **attributes: object,
    ) -> dict:
        """Record a span measured externally (e.g. a queue wait already over).

        The packer's ``pack`` phase ends the moment a batch launches —
        the wait was measured by the service clock, not bracketed by
        this tracer — so the span is fabricated whole.
        """
        if isinstance(parent, Span):
            parent = parent.context
        record = {
            "kind": "span",
            "name": name,
            "trace_id": parent.trace_id if parent else _new_id(),
            "span_id": _new_id(),
            "parent_id": parent.span_id if parent else None,
            "ts": time.time(),
            "duration_s": float(duration_s),
            "pid": os.getpid(),
            "attributes": dict(attributes),
        }
        self.record(record)
        return record

    # -- collecting spans --------------------------------------------------------

    def record(self, span_dict: dict) -> None:
        """Adopt one finished span (local or shipped from a worker)."""
        with self._lock:
            self._finished.append(span_dict)
            if self._sink is not None:
                self._unwritten.append(span_dict)
                if len(self._unwritten) >= SINK_BATCH:
                    self._write_unwritten()

    def write(self, record: dict) -> None:
        """Append a non-span record (e.g. a metrics snapshot) to the sink."""
        with self._lock:
            if self._sink is not None:
                self._unwritten.append(record)
                self._write_unwritten()

    def _write_unwritten(self) -> None:
        """Serialize and write the pending sink records (lock held)."""
        if self._sink is None or not self._unwritten:
            return
        self._sink.write("".join(json.dumps(r) + "\n" for r in self._unwritten))
        self._sink.flush()
        self._unwritten.clear()

    def spans(self) -> list[dict]:
        """A copy of the buffered finished spans (oldest first)."""
        with self._lock:
            return list(self._finished)

    def drain(self) -> list[dict]:
        """Pop every buffered finished span (the sink keeps its copy)."""
        with self._lock:
            drained = list(self._finished)
            self._finished.clear()
            self._write_unwritten()
        return drained

    def close(self) -> None:
        with self._lock:
            if self._sink is not None:
                self._write_unwritten()
                self._sink.close()
                self._sink = None


# -- the process-wide tracer -------------------------------------------------------

_ACTIVE: Tracer | None = None


def enable_tracing(sink: str | None = None, buffer_size: int = DEFAULT_BUFFER) -> Tracer:
    """Install (and return) the process-wide tracer; replaces any prior one."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = Tracer(sink=sink, buffer_size=buffer_size)
    return _ACTIVE


def disable_tracing() -> None:
    """Close and remove the process-wide tracer; :func:`span` is free again."""
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = None


# A normal exit writes the pending sink lines.
atexit.register(disable_tracing)


def _reset_after_fork() -> None:
    """Drop the inherited tracer in a forked child.

    A forked worker inherits ``_ACTIVE`` — including its open-span
    ContextVar stack and its JSONL sink *file handle*, which the parent
    still owns.  The child must not adopt either: it drops the
    reference without :meth:`Tracer.close` (closing would steal the
    parent's sink) and starts untraced, re-enabling a local tracer
    explicitly the way the shard/fanout workers do.  It also re-draws
    the id prefix, so its ids never collide with the parent's.
    """
    global _ACTIVE, _id_prefix
    _ACTIVE = None
    _id_prefix = _draw_prefix(avoid=_id_prefix)


if hasattr(os, "register_at_fork"):  # POSIX only; a no-op elsewhere
    os.register_at_fork(after_in_child=_reset_after_fork)


def get_tracer() -> Tracer | None:
    """The process-wide tracer, or ``None`` when tracing is off."""
    return _ACTIVE


def tracing_enabled() -> bool:
    return _ACTIVE is not None


def span(name: str, parent: Span | SpanContext | None = None, **attributes: object):
    """Trace one block under the process tracer — a no-op when disabled.

    The hot-path helper: one global read when tracing is off, returning
    a shared do-nothing context manager whose ``as`` target swallows
    ``set(...)`` calls.
    """
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP_CM
    return _SpanScope(tracer, tracer.start(name, parent, **attributes))


# -- stitching ---------------------------------------------------------------------


def stitch(span_dicts: list[dict]) -> dict[str, list[dict]]:
    """Group finished spans into per-trace lists (start-time ordered).

    A batch-level span (one ``execute`` covering B requests) carries a
    ``trace_ids`` attribute listing every participating trace; it is
    stitched into each of them, so every request's trace shows the
    batch it rode in.
    """
    by_trace: dict[str, list[dict]] = {}
    for record in span_dicts:
        targets = {record["trace_id"]}
        extra = record.get("attributes", {}).get("trace_ids")
        if extra:
            targets.update(extra)
        for trace_id in targets:
            by_trace.setdefault(trace_id, []).append(record)
    for spans in by_trace.values():
        spans.sort(key=lambda record: record["ts"])
    return by_trace


def summarize(spans: list[dict]) -> str:
    """One compact audit-column cell: ``name:duration_ms`` per span."""
    return ";".join(
        f"{record['name']}:{record['duration_s'] * 1e3:.3f}ms" for record in spans
    )
