"""The sharded multi-process serving tier: the forked case of one tier.

:class:`ShardedSamplerService` is :class:`~repro.serve.service.SamplerService`
with its request lane moved into ``shards`` worker *processes*: the
future surface, submission, seeding, the close protocol and the
completion/failure paths are the in-process tier's own
(:mod:`repro.serve.service`), and each single-threaded worker runs the
same build → pack → execute lane (``_Lane.build``, a
:class:`~repro.serve.packer.ShapePacker`, ``_Lane.execute``) on its
slice of the request stream — so the spec builds and the stacked
amplification kernels, the two CPU-bound halves of serving, run
on real cores instead of sharing one GIL.  A worker drains its packer
whenever its pipe is empty: single-threaded, it is idle when it polls.

What the forked case adds:

* **sharding front dispatcher** — an accepted request is routed by its
  *affinity key* (the spec recipe + backend, i.e. everything that
  determines its schedule shape without building anything) hashed with a
  stable CRC-32, so repeats of one workload shape always land on the
  same shard, and requests that queue behind a busy worker join one
  same-shape batch instead of ``1/n`` fragments on every shard;
* **zero-copy result handoff** — each worker owns a
  :class:`~repro.serve.shm.ShmArena`; finished batches come back as a
  small pickled control message (indices, rows, plain-scalar meta, an
  :class:`~repro.serve.shm.ShmBlock` handle + array layout) while the
  CSR class planes, spec-built class maps (or the ``(B, N, 2)`` dense
  payload) cross through shared memory.  A live snapshot's class map
  crosses once: it goes out pickled with the request (one byte per
  element for ``ν ≤ 255``), the dispatcher keeps it for death salvage,
  and the worker leaves it out of the block.  The dispatcher rebuilds
  full :class:`~repro.core.result.SamplingResult` objects
  (:func:`~repro.batch.engine.unpack_group_results` — copies the
  aliased arrays and reattaches each held snapshot map by identity)
  for the requests still in flight, then sends a ``release`` so the
  worker's arena recycles the block.  A momentarily full arena
  degrades that one batch to pickling whole results (counted as
  ``shm_fallback_batches``) instead of waiting for a free block.  The
  pipe protocol itself can deadlock under
  backlog: ``_Shard.send`` holds ``send_lock`` across a blocking
  ``conn.send``, so a submit thread stuck on a full request pipe keeps
  the lock, the collector's ``("release", block)`` send waits on it and
  stops draining results, and the worker, blocked writing those
  results, never reads the pipe the submit thread is waiting on
  (ROADMAP open item 1);
* **graceful degradation** — a dead worker's pending requests are
  re-queued to a live shard and retried once (``worker_restarts`` and
  ``requeued_batches`` count the events); a replacement worker is
  spawned for subsequent traffic.  A request lost twice fails its
  future instead of hanging the stream.

Seeds are drawn by the shared submission path and workers build with
``ClassInstance.from_spec(spec, seed, mask)``, so a sharded stream
reproduces the unsharded service's rows for the same requests and seeds
regardless of shard count (regression-tested with ``==`` on every row
value by
``tests/serve/test_shard.py`` and ``benchmarks/bench_e26_sharded_serving.py``).

Telemetry aggregates per-shard :class:`~repro.serve.stats.ServiceStats`
(:meth:`ServiceStats.aggregate`) plus the tier counters:
``shards``, ``worker_restarts``, ``requeued_batches``, ``shm_batches``,
``shm_fallback_batches``, ``flight_dumps``.

When tracing is enabled (:func:`repro.obs.enable_tracing`) before
construction, the request's :class:`~repro.obs.trace.SpanContext` rides
the ``req`` pipe message and each worker installs a fresh process tracer
after fork: the lane's ``build``/``pack``/``execute`` spans and the
worker's ``marshal`` span ship home as the trailing element of result
messages, and the dispatcher stitches them — with its own ``dispatch``
span — into the process-wide trace, so one request's trace spans every
process that touched it.  A :class:`~repro.obs.recorder.FlightRecorder`
ring buffers routing/result events and is dumped to ``death_dumps``
whenever a worker dies.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
import zlib
import multiprocessing as mp
from multiprocessing import connection, shared_memory
from typing import Callable

from ..analysis.sweep import InstanceSpec
from ..batch.driver import DEFAULT_BATCH_SIZE, RowFn, default_row
from ..batch.engine import pack_group_results, unpack_group_results
from ..config import CONFIG
from ..core.result import SamplingResult
from ..errors import ValidationError
from ..obs.recorder import FlightRecorder
from ..obs.trace import enable_tracing, get_tracer, span, tracing_enabled
from ..utils.validation import require_pos_int
from .packer import ShapePacker
from .service import (
    ServedRequest,
    ServiceClosedError,
    _complete,
    _Lane,
    _reject,
    _ServingTier,
    _trace_ids,
    _trace_pack,
)
from .shm import ArenaClient, ShmArena, arrays_nbytes, read_arrays, write_arrays
from .stats import ServiceStats


def shard_for(affinity_key: str, shards: int) -> int:
    """The stable shard index an affinity key routes to."""
    return zlib.crc32(affinity_key.encode()) % shards


def _affinity(
    spec: InstanceSpec | None,
    label: str,
    backend: str | None,
    fault_mask: tuple[int, ...] | None = None,
) -> str:
    """Everything that pins a request's schedule shape, sans building.

    Two requests with equal keys build equal-shaped instances (same
    workload recipe, sharding, substrate and fault mask — a degraded
    topology changes the amplification plan, so masked and healthy
    repeats of one recipe pack separately), so routing by this key keeps
    a shape's whole stream on one shard — requests that queue behind its
    busy worker then pack into one batch where a round-robin split would
    flush ``1/shards`` fragments everywhere.
    """
    mask = "" if fault_mask is None else f"|mask={','.join(map(str, fault_mask))}"
    if spec is None:
        return f"live:{label}:{backend}"
    return f"{spec.label()}|{spec.strategy}|{spec.nu}|{backend}{mask}"


# -- worker side ----------------------------------------------------------------------
#
# One process per shard, running this module-level loop (module-level so
# the default fork/spawn pickling both find it).  The worker is single-
# threaded: it reads its duplex pipe (requests, block releases,
# lifecycle) message by message, flushes full groups as they fill, and
# drains its packer whenever the pipe is empty.


def _shard_worker_main(conn, config: dict, arena_name: str) -> None:
    """The worker loop: the shared lane, results out via shm."""
    # The dispatcher picked the (unique) arena name so it can unlink the
    # segment even when this process dies without running its finally.
    arena = ShmArena(arena_name, config["arena_bytes"])
    if config["tracing"]:
        # The fork hook dropped the dispatcher's tracer and its sink; this
        # fresh one buffers the worker's spans until _ship drains them.
        enable_tracing()
    lane: _Lane = config["lane"]
    packer: ShapePacker[ServedRequest] = ShapePacker(config["batch_size"])

    def fail(request: ServedRequest, error: BaseException) -> None:
        conn.send(("fail", request.index, error))

    def flush(batch: list[ServedRequest]) -> None:
        _trace_pack(batch, time.monotonic())
        _ship(conn, arena, len(batch), lane.execute(batch, fail))

    try:
        while True:
            if packer.pending and not conn.poll():
                # Idle: nothing waits in the pipe, so run what is packed.
                for batch in packer.drain():
                    flush(batch)
            message = conn.recv()
            kind = message[0]
            if kind == "req":
                # Stamped at receipt, so the worker's pack span is its own
                # queue wait; the trailing retry count is the dispatcher's
                # business.
                _, index, label, spec, seed, instance, mask, trace_ctx, _ = message
                request = ServedRequest(
                    index, label, spec, seed, instance, time.monotonic(),
                    fault_mask=mask, trace_ctx=trace_ctx,
                )
                key = lane.build(request, fail)
                if key is not None:
                    packer.add(key, request)
                    for batch in packer.pop_full():
                        flush(batch)
            elif kind == "release":
                arena.free(message[1])
            elif kind == "drain":
                for batch in packer.drain():
                    flush(batch)
                conn.send(("drained",))
            elif kind == "stop":
                break
    except (EOFError, BrokenPipeError):  # dispatcher went away
        pass
    finally:
        arena.close()
        conn.close()


def _ship(
    conn,
    arena: ShmArena,
    size: int,
    done: list[tuple[ServedRequest, SamplingResult, dict[str, object] | None]],
) -> None:
    """Send one executed batch home: arrays through the arena, the rest pickled.

    ``size`` is the flushed batch's size (rows that failed included),
    for the dispatcher's fill telemetry.  Every span the worker buffered
    so far rides along as the message's trailing element.  A live
    snapshot's class map came from the dispatcher, which still holds it,
    so the block leaves it out.
    """
    if not done:
        return
    requests = [request for request, _, _ in done]
    entries = [(request.index, row) for request, _, row in done]
    results = [result for _, result, _ in done]
    held = {i for i, request in enumerate(requests) if request.spec is None}
    with span(
        "marshal",
        parent=requests[0].trace_ctx,
        batch=len(done),
        trace_ids=_trace_ids(requests),
    ) as marshal:
        block = None
        try:
            meta, arrays = pack_group_results(results, held)
            block = arena.alloc(arrays_nbytes(arrays))
        except ValidationError:
            pass  # unmarshalable substrate: whole-result pickle below
        if block is not None:
            layout = write_arrays(arena.payload(block), arrays)
        marshal.set(shm=block is not None)
    tracer = get_tracer()
    spans = tracer.drain() if tracer is not None else []
    if block is None:
        conn.send(("pbatch", entries, results, size, spans))
    else:
        conn.send(("batch", entries, meta, block, layout, size, spans))


# -- dispatcher side ------------------------------------------------------------------


class _Shard:
    """Dispatcher-side handle for one worker process."""

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.send_lock = threading.Lock()
        #: index → the ("req", ...) message, kept until resolution so a
        #: dead worker's in-flight requests can be re-queued verbatim.
        self.pending: dict[int, tuple] = {}
        self.drained = False
        self.segment: str | None = None  # OS-visible arena name

    def send(self, message: tuple) -> bool:
        with self.send_lock:
            try:
                self.conn.send(message)
                return True
            except (BrokenPipeError, OSError):
                return False


class ShardedSamplerService(_ServingTier):
    """Multi-process sharded twin of :class:`~repro.serve.SamplerService`.

    The same future surface (``submit`` / ``submit_live`` →
    :class:`~repro.serve.service.ServedRequest`, ``requests``,
    ``purge_completed``, ``iter_results``, ``rows``), determinism
    contract and drain-on-close semantics — it *is* that tier's code —
    but the request lane runs in ``shards`` worker processes with
    results returned zero-copy through per-worker shared-memory arenas.
    See the module docstring for the architecture; parameters mirror
    :class:`SamplerService` (minus ``workers``) plus:

    Parameters
    ----------
    shards:
        Worker processes (>= 1).  One shard is still a valid
        configuration — the dispatcher overhead then buys build/execute
        work moving off the submitting process's GIL.
    arena_bytes:
        Per-worker shared-memory arena capacity (default
        :attr:`repro.config.NumericsConfig.shard_arena_bytes`).
        Undersizing degrades batches to pickling, visible as
        ``shm_fallback_batches`` in :meth:`telemetry`.
    """

    def __init__(
        self,
        shards: int = 2,
        model: str = "sequential",
        batch_size: int = DEFAULT_BATCH_SIZE,
        rng: object = None,
        include_probabilities: bool = False,
        row_fn: RowFn = default_row,
        capacity: str = "all",
        backend: str = "classes",
        arena_bytes: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        require_pos_int(shards, "shards")
        super().__init__(
            model, batch_size, rng, include_probabilities, row_fn, clock,
            capacity, backend,
        )
        self._config = {
            "lane": self._lane,
            "batch_size": self._batch_size,
            "arena_bytes": (
                CONFIG.shard_arena_bytes if arena_bytes is None else arena_bytes
            ),
            # Captured at construction: workers trace when it was enabled.
            "tracing": tracing_enabled(),
        }
        self._n_shards = shards
        self._shard_stats = [ServiceStats(clock=clock) for _ in range(shards)]
        self._client = ArenaClient()
        self._futures: dict[int, ServedRequest] = {}
        self._state_lock = threading.Lock()
        self._done = threading.Condition(self._state_lock)
        self._stopping = False
        self.worker_restarts = 0
        self.requeued_batches = 0
        self.shm_batches = 0
        self.shm_fallback_batches = 0
        #: The tier's flight recorder: a bounded ring of routing/result/
        #: death events, dumped into ``death_dumps`` whenever a worker
        #: dies so the events leading up to the death survive the churn.
        self.recorder = FlightRecorder()
        self.death_dumps: list[list[dict]] = []
        # The arena contract (repro.serve.shm) relies on owner and peers
        # sharing ONE resource tracker under fork.  The tracker starts
        # lazily on first shm use — force it up in the dispatcher before
        # forking, or each worker spawns a private tracker and the
        # dispatcher's attach registrations outlive the owner's unlink.
        from multiprocessing import resource_tracker

        resource_tracker.ensure_running()
        self._shards = [self._spawn(i) for i in range(shards)]
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-shard-collect", daemon=True
        )
        self._collector.start()

    def _spawn(self, shard_id: int) -> _Shard:
        parent_conn, child_conn = mp.Pipe()
        arena_name = f"shard{shard_id}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        process = mp.Process(
            target=_shard_worker_main,
            args=(child_conn, self._config, arena_name),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard = _Shard(process, parent_conn)
        shard.segment = f"repro-{arena_name}"  # ShmArena's OS-name prefix
        return shard

    # -- routing ------------------------------------------------------------------

    def _shard_of(self, request: ServedRequest) -> int:
        """The shard ``request`` routes to (and whose stats counted it)."""
        key = _affinity(request.spec, request.label, self._backend, request.fault_mask)
        return shard_for(key, self._n_shards)

    def _enqueue(self, request: ServedRequest) -> None:
        """Route an accepted request to its affinity shard.

        A live request's snapshot, taken at submission, is pickled onto
        the pipe here with its ``O(N)`` element-class map, one byte per
        element for ``ν ≤ 255`` (a 100 KB pipe write at ``N = 10⁵``).
        The map does not come back: the message stays in ``pending``
        until the request resolves, and the collector reattaches the
        snapshot's map to the result.
        """
        shard_id = self._shard_of(request)
        # The retry count stays LAST: the death handler re-queues with
        # ``message[:-1] + (retries + 1,)``.
        message = (
            "req", request.index, request.label, request.spec, request.seed,
            request._instance, request.fault_mask, request.trace_ctx, 0,
        )
        with span("dispatch", parent=request.trace_ctx, shard=shard_id):
            # Shard lookup and the pending entry go under one lock so a
            # concurrent death handler either sees this request (and
            # re-queues it) or has already installed the replacement shard.
            with self._state_lock:
                shard = self._shards[shard_id]
                self._futures[request.index] = request
                shard.pending[request.index] = message
            self._shard_stats[shard_id].record_submit()
            # A failed send means the worker just died; the death handler
            # re-queues from ``pending``, so nothing more to do here.
            shard.send(message)
        self.recorder.record("route", index=request.index, shard=shard_id, retries=0)

    def _claim(self, index: int, shard: _Shard) -> ServedRequest | None:
        """Take a request out of flight (``None`` if already resolved)."""
        with self._done:
            request = self._futures.pop(index, None)
            shard.pending.pop(index, None)
            self._done.notify_all()
        return request

    # -- telemetry ----------------------------------------------------------------

    @property
    def stats(self) -> tuple[ServiceStats, ...]:
        """Per-shard telemetry surfaces, shard order."""
        return tuple(self._shard_stats)

    def telemetry(self) -> dict[str, object]:
        """Aggregated counters across shards, plus the tier's own."""
        view = ServiceStats.aggregate(self._shard_stats)
        view["shards"] = self._n_shards
        view["worker_restarts"] = self.worker_restarts
        view["requeued_batches"] = self.requeued_batches
        view["shm_batches"] = self.shm_batches
        view["shm_fallback_batches"] = self.shm_fallback_batches
        view["flight_dumps"] = len(self.death_dumps)
        return view

    # -- lifecycle ----------------------------------------------------------------

    def _shutdown(self, drain: bool) -> None:
        """Drain (or abandon) every shard, then stop the worker tier.

        ``drain=True`` flushes every shard's packer and waits for all
        in-flight requests, surviving worker deaths along the way.
        """
        if drain:
            for shard in self._shards:
                shard.send(("drain",))
            with self._done:
                while not self._drained_and_empty():
                    self._done.wait(timeout=0.1)
        else:
            with self._state_lock:
                unresolved = list(self._futures.values())
                self._futures.clear()
                for shard in self._shards:
                    shard.pending.clear()
            for request in unresolved:
                error = ServiceClosedError("service closed without draining")
                _reject(request, error, self._shard_stats[self._shard_of(request)])
        self._stopping = True
        for shard in self._shards:
            shard.send(("stop",))
        for shard in self._shards:
            shard.process.join(timeout=5.0)
            if shard.process.is_alive():  # pragma: no cover - stuck worker
                shard.process.terminate()
                shard.process.join(timeout=5.0)
        self._collector.join(timeout=5.0)
        self._client.detach_all()

    def _drained_and_empty(self) -> bool:
        return all(shard.drained for shard in self._shards) and not self._futures

    # -- the collector -------------------------------------------------------------

    def _collect_loop(self) -> None:
        """Single reader of every worker pipe + death sentinel."""
        while not self._stopping:
            shards = list(self._shards)
            sources: list[object] = [shard.conn for shard in shards]
            sources += [shard.process.sentinel for shard in shards]
            for ready in connection.wait(sources, timeout=0.1):
                for shard_id, shard in enumerate(shards):
                    if ready is shard.conn:
                        self._drain_conn(shard_id, shard)
                        break
                    if ready is shard.process.sentinel:
                        self._handle_death(shard_id, shard)
                        break

    def _drain_conn(self, shard_id: int, shard: _Shard) -> None:
        try:
            while shard.conn.poll():
                self._handle_message(shard_id, shard, shard.conn.recv())
        except (EOFError, BrokenPipeError, OSError):
            pass  # the sentinel fires next; death handling re-queues

    def _record_spans(self, spans: list[dict]) -> None:
        """Stitch worker-shipped span dicts into the dispatcher's tracer."""
        tracer = get_tracer()
        if tracer is None:
            return
        for record in spans:
            tracer.record(record)

    def _handle_message(self, shard_id: int, shard: _Shard, message: tuple) -> None:
        kind = message[0]
        if kind == "batch":
            _, entries, meta, block, layout, size, spans = message
            self._record_spans(spans)
            # Rebuild only results someone still waits for (position →
            # request); a live snapshot's map never left this process,
            # so its result gets the dispatcher's copy back.
            with self._state_lock:
                waiting = {
                    pos: self._futures[index]
                    for pos, (index, _) in enumerate(entries)
                    if index in self._futures
                }
            held = {
                pos: req._instance.joints
                for pos, req in waiting.items()
                if req.spec is None
            }
            try:
                views = read_arrays(self._client.view(block), layout)
                results = unpack_group_results(
                    meta, views, self._lane.model, self._lane.skip_zero_capacity,
                    held, waiting,
                )
            except (ValidationError, FileNotFoundError):
                # The worker died and its arena is gone (or recycled)
                # before we attached: leave the requests pending — the
                # death handler re-queues them on a live shard.
                return
            shard.send(("release", block))
            self.shm_batches += 1
            self.recorder.record("batch", shard=shard_id, size=size, shm=True)
            self._resolve_batch(
                shard_id, shard, [entries[pos] for pos in waiting], results, size
            )
        elif kind == "pbatch":
            _, entries, results, size, spans = message
            self._record_spans(spans)
            self.shm_fallback_batches += 1
            self.recorder.record("batch", shard=shard_id, size=size, shm=False)
            self._resolve_batch(shard_id, shard, entries, results, size)
        elif kind == "fail":
            _, index, error = message
            self.recorder.record("fail", shard=shard_id, index=index)
            request = self._claim(index, shard)
            if request is not None:
                _reject(request, error, self._shard_stats[shard_id])
        elif kind == "drained":
            with self._done:
                shard.drained = True
                self._done.notify_all()

    def _resolve_batch(self, shard_id, shard, entries, results, size) -> None:
        stats = self._shard_stats[shard_id]
        stats.record_batch(size, self._batch_size)
        completed_at = self._clock()
        for (index, row), result in zip(entries, results):
            request = self._claim(index, shard)
            if request is not None:  # else already failed or abandoned
                _complete(request, result, row, stats, completed_at)

    def _handle_death(self, shard_id: int, shard: _Shard) -> None:
        if self._stopping:
            return
        # Salvage whatever the dying worker already shipped, then drop the
        # stale pipe and any cached attachment to its (gone) arena.
        self._drain_conn(shard_id, shard)
        shard.process.join()
        # The black box: snapshot the event ring at the moment of death —
        # the routing/result traffic leading up to it — before recovery
        # starts rewriting it.
        self.recorder.record(
            "death",
            shard=shard_id,
            pid=shard.process.pid,
            exitcode=shard.process.exitcode,
            pending=len(shard.pending),
        )
        self.death_dumps.append(self.recorder.dump())
        shard.conn.close()
        self._client.detach_all()
        if shard.segment is not None:
            try:  # a killed worker never unlinked its segment
                stale = shared_memory.SharedMemory(name=shard.segment)
                stale.close()
                stale.unlink()
            except FileNotFoundError:
                pass
        self.worker_restarts += 1
        replacement = self._spawn(shard_id)
        # Orphan collection and the shard swap are atomic with respect to
        # _enqueue: a racing submit either lands in ``pending`` here (and
        # is re-queued below) or routes to the replacement.
        with self._state_lock:
            orphans = list(shard.pending.items())
            shard.pending.clear()
            was_drained = shard.drained
            replacement.drained = was_drained
            self._shards[shard_id] = replacement
        if self._closed and not was_drained:
            replacement.send(("drain",))
            with self._done:
                replacement.drained = True
                self._done.notify_all()
        if not orphans:
            return
        self.requeued_batches += 1
        # Re-queue the in-flight batch on a live shard (the next one when
        # the tier has more than one — "a live shard", per the recovery
        # contract — falling back to the replacement).
        target_id = (shard_id + 1) % self._n_shards if self._n_shards > 1 else shard_id
        target = self._shards[target_id]
        for index, message in orphans:
            retries = message[-1]
            if retries >= 1:
                request = self._claim(index, shard)
                if request is not None:
                    error = RuntimeError(
                        f"request {index} lost to two worker deaths; giving up"
                    )
                    _reject(request, error, self._shard_stats[shard_id])
                continue
            requeued = message[:-1] + (retries + 1,)
            with self._state_lock:
                target.pending[index] = requeued
            target.send(requeued)
