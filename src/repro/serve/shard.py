"""The sharded multi-process serving tier.

:class:`ShardedSamplerService` scales the single-process
:class:`~repro.serve.service.SamplerService` across worker *processes*:
``shards`` workers each run the full pack → build → execute loop
(:class:`~repro.serve.packer.ShapePacker` +
:func:`~repro.batch.engine.execute_class_batch`) on their own slice of
the request stream, so database materialization and the stacked
amplification kernels — the two CPU-bound halves of serving — run on
real cores instead of sharing one GIL.

The moving parts:

* **sharding front dispatcher** — :meth:`submit` hashes each request's
  *affinity key* (the spec recipe + backend, i.e. everything that
  determines its schedule shape without building anything) with a stable
  CRC-32, so repeats of one workload shape always land on the same
  shard and its packer fills whole same-shape batches instead of ``1/n``
  fragments on every shard;
* **zero-copy result handoff** — each worker owns a
  :class:`~repro.serve.shm.ShmArena`; finished batches come back as a
  small pickled control message (indices, rows, plain-scalar meta, an
  :class:`~repro.serve.shm.ShmBlock` handle + array layout) while the
  CSR class planes (or the ``(B, N, 2)`` dense payload) cross through
  shared memory.  The dispatcher rebuilds full
  :class:`~repro.core.result.SamplingResult` objects
  (:func:`~repro.batch.engine.unpack_group_results` — copies the
  aliased arrays), then sends a ``release`` so the worker's arena
  recycles the block.  A momentarily full arena degrades that one batch
  to pickling (counted as ``shm_fallback_batches``), never deadlocks;
* **graceful degradation** — a dead worker's pending requests are
  re-queued to a live shard and retried once (``worker_restarts`` and
  ``requeued_batches`` count the events); a replacement worker is
  spawned for subsequent traffic.  A request lost twice fails its
  future instead of hanging the stream;
* **determinism** — child seeds are drawn under the submission lock in
  submission order, exactly the
  :func:`~repro.batch.driver.run_batched` /
  :class:`~repro.serve.service.SamplerService` contract, and workers
  build from ``spec.build(rng=seed)`` — so a sharded stream reproduces
  the unsharded service's rows for the same requests and seeds
  regardless of shard count (regression-tested by
  ``benchmarks/bench_e26_sharded_serving.py`` and, with ``==`` on every
  row value, by ``tests/serve/test_shard.py``).

Telemetry aggregates per-shard :class:`~repro.serve.stats.ServiceStats`
(:meth:`ServiceStats.aggregate`) plus the tier counters:
``shards``, ``worker_restarts``, ``requeued_batches``, ``shm_batches``,
``shm_fallback_batches``, ``flight_dumps``.

When tracing is enabled (:func:`repro.obs.enable_tracing`) the request's
:class:`~repro.obs.trace.SpanContext` rides the ``req`` pipe message,
each worker runs a *local* tracer whose ``build``/``execute``/``marshal``
spans ship home as the trailing element of result messages, and the
dispatcher stitches them into the process-wide trace — so one request's
trace spans every process that touched it.  A
:class:`~repro.obs.recorder.FlightRecorder` ring buffers routing/result
events and is dumped to ``death_dumps`` whenever a worker dies.
"""

from __future__ import annotations

import os
import threading
import time
import uuid
import zlib
import multiprocessing as mp
from multiprocessing import connection, shared_memory
from typing import Callable, Iterator

from ..analysis.sweep import InstanceSpec
from ..batch.backends import AUTO_STACKED_BACKEND, resolve_stacked_name
from ..batch.driver import DEFAULT_BATCH_SIZE, RowFn, default_row
from ..batch.engine import (
    ClassInstance,
    cached_plan,
    execute_class_batch,
    pack_group_results,
    unpack_group_results,
)
from ..config import CONFIG
from ..core.result import SamplingResult
from ..database.dynamic import UpdateStream
from ..errors import ValidationError
from ..obs.recorder import FlightRecorder
from ..obs.trace import SpanContext, Tracer, get_tracer, span, tracing_enabled
from ..utils.rng import as_generator, spawn_seed
from ..utils.validation import require_pos_int
from .packer import ShapePacker
from .service import (
    DEFAULT_FLUSH_DEADLINE,
    ServedRequest,
    ServiceClosedError,
    _finish_trace,
    _open_trace,
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
    a shape's whole stream on one shard — its packer then flushes full
    batches where a round-robin split would flush ``1/shards`` fragments
    everywhere.
    """
    mask = "" if fault_mask is None else f"|mask={','.join(map(str, fault_mask))}"
    if spec is None:
        return f"live:{label}:{backend}"
    return f"{spec.label()}|{spec.strategy}|{spec.nu}|{backend}{mask}"


# -- worker side ----------------------------------------------------------------------
#
# One process per shard, running this module-level loop (module-level so
# the default fork/spawn pickling both find it).  The worker is single-
# threaded: it alternates between draining its duplex pipe (requests,
# block releases, lifecycle) and flushing its packer, using the packer's
# next-deadline as the poll timeout — the same cadence the in-process
# dispatcher thread uses.


class _Work:
    """One request, worker-side: the future's pickled essentials."""

    __slots__ = (
        "index", "label", "spec", "seed", "instance", "fault_mask", "trace",
        "db", "backend", "retries",
    )

    def __init__(self, index, label, spec, seed, instance, fault_mask, trace, retries):
        self.index = index
        self.label = label
        self.spec = spec
        self.seed = seed
        self.instance = instance
        self.fault_mask = fault_mask
        self.trace = trace  # the request's SpanContext (or None when untraced)
        self.db = None
        self.backend = None
        self.retries = retries


def _worker_prepare(work: _Work, config: dict) -> tuple:
    """Materialize one request and return its packing key."""
    tracer: Tracer | None = config.get("tracer")
    build_span = (
        tracer.start(
            "build", parent=work.trace, label=work.label, shard=config["shard_id"]
        )
        if tracer is not None and work.trace is not None
        else None
    )
    try:
        if work.instance is None:
            assert work.spec is not None
            work.db = work.spec.build(rng=work.seed)
            if work.fault_mask is not None:
                # Scenario traffic: drop the lost shards and republish their
                # capacities as zero, worker-side, exactly as the in-process
                # dispatcher does.
                from ..database.fault import apply_fault_mask

                work.db = apply_fault_mask(work.db, work.fault_mask)
            work.instance = ClassInstance.from_db(work.db)
    finally:
        if build_span is not None:
            tracer.finish(build_span)
    plan = cached_plan(work.instance.overlap())
    backend = work.backend = config["substrate"]
    return (backend, plan.grover_reps, plan.needs_final)


def _worker_execute(conn, arena: ShmArena, config: dict, batch: list[_Work]) -> None:
    """Run one shape group and ship its results through the arena.

    When the dispatcher enabled tracing, the worker's local tracer
    records ``execute`` and ``marshal`` spans parented into the request
    traces and ships every buffered span dict as the result message's
    trailing element — the dispatcher records them into the process-wide
    tracer so cross-process traces stitch by ``trace_id``.
    """
    tracer: Tracer | None = config.get("tracer")
    parent: SpanContext | None = next(
        (work.trace for work in batch if work.trace is not None), None
    )
    traced = tracer is not None and parent is not None
    trace_ids = [work.trace.trace_id for work in batch if work.trace is not None]

    def _drained() -> list[dict]:
        return tracer.drain() if tracer is not None else []

    exec_span = (
        tracer.start(
            "execute",
            parent=parent,
            backend=batch[0].backend,
            batch=len(batch),
            shard=config["shard_id"],
            trace_ids=trace_ids,
        )
        if traced
        else None
    )
    try:
        results = execute_class_batch(
            [work.instance for work in batch],
            model=config["model"],
            include_probabilities=config["include_probabilities"],
            skip_zero_capacity=config["skip_zero_capacity"],
            backend=batch[0].backend,
        )
    except BaseException as error:
        if exec_span is not None:
            exec_span.set(error=repr(error))
            tracer.finish(exec_span)
        for work in batch:
            conn.send(("fail", work.index, error))
        return
    if exec_span is not None:
        tracer.finish(exec_span)
    row_fn: RowFn = config["row_fn"]
    shipped: list[tuple[_Work, SamplingResult, dict | None]] = []
    for work, result in zip(batch, results):
        try:
            row = dict(row_fn(work.spec, work.db, result)) if work.spec is not None else None
        except BaseException as error:  # a broken row_fn fails its request
            conn.send(("fail", work.index, error))
            continue
        shipped.append((work, result, row))
    if not shipped:
        return
    entries = [(work.index, row) for work, _, row in shipped]
    marshal_span = (
        tracer.start(
            "marshal",
            parent=parent,
            batch=len(shipped),
            shard=config["shard_id"],
            trace_ids=trace_ids,
        )
        if traced
        else None
    )
    block = None
    try:
        meta, arrays = pack_group_results([result for _, result, _ in shipped])
        block = arena.alloc(arrays_nbytes(arrays))
    except ValidationError:
        meta = None  # unmarshalable substrate: whole-result pickle below
    if block is None:
        if marshal_span is not None:
            marshal_span.set(shm=False)
            tracer.finish(marshal_span)
        conn.send(
            (
                "pbatch", entries, [result for _, result, _ in shipped],
                len(batch), _drained(),
            )
        )
        return
    layout = write_arrays(arena.payload(block), arrays)
    if marshal_span is not None:
        marshal_span.set(shm=True)
        tracer.finish(marshal_span)
    conn.send(("batch", entries, meta, block, layout, len(batch), _drained()))


def _shard_worker_main(shard_id: int, conn, config: dict, arena_name: str) -> None:
    """The worker loop: pack → build → execute, results out via shm."""
    # The dispatcher picked the (unique) arena name so it can unlink the
    # segment even when this process dies without running its finally.
    arena = ShmArena(arena_name, config["arena_bytes"])
    # A LOCAL tracer (never the process-global, which belongs to the
    # dispatcher under fork): spans buffer here and ship home with each
    # result message.  The copy keeps the dispatcher's config pristine.
    config = dict(config)
    config["shard_id"] = shard_id
    config["tracer"] = Tracer() if config.get("tracing") else None
    packer: ShapePacker[_Work] = ShapePacker(
        config["batch_size"], config["flush_deadline"]
    )
    try:
        while True:
            timeout = packer.seconds_until_flush()
            if conn.poll(timeout):
                message = conn.recv()
                kind = message[0]
                if kind == "req":
                    work = _Work(*message[1:])
                    try:
                        key = _worker_prepare(work, config)
                    except BaseException as error:
                        conn.send(("fail", work.index, error))
                    else:
                        packer.add(key, work)
                elif kind == "release":
                    arena.free(message[1])
                elif kind == "drain":
                    for batch in packer.drain():
                        _worker_execute(conn, arena, config, batch)
                    conn.send(("drained",))
                elif kind == "stop":
                    break
            for batch in packer.pop_ready():
                _worker_execute(conn, arena, config, batch)
    except (EOFError, BrokenPipeError):  # dispatcher went away
        pass
    finally:
        arena.close()
        conn.close()


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


class ShardedSamplerService:
    """Multi-process sharded twin of :class:`~repro.serve.SamplerService`.

    Same future surface (``submit`` / ``submit_live`` →
    :class:`~repro.serve.service.ServedRequest`), same determinism
    contract, same drain-on-close semantics — but the pack → build →
    execute loop runs in ``shards`` worker processes with results
    returned zero-copy through per-worker shared-memory arenas.  See the
    module docstring for the architecture; parameters mirror
    :class:`SamplerService` plus:

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
        flush_deadline: float = DEFAULT_FLUSH_DEADLINE,
        rng: object = None,
        include_probabilities: bool = False,
        row_fn: RowFn = default_row,
        capacity: str = "all",
        backend: str = "classes",
        arena_bytes: int | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        from ..api.planner import require_model, skip_zero_capacity_for

        require_pos_int(shards, "shards")
        self._model = require_model(model)
        skip = skip_zero_capacity_for(capacity)
        substrate = resolve_stacked_name(backend, self._model)
        self._backend = backend
        self._row_fn = row_fn
        self._clock = clock
        self._gen = as_generator(rng)
        self._batch_size = require_pos_int(batch_size, "batch_size")
        self._config = {
            "model": self._model,
            "batch_size": self._batch_size,
            "flush_deadline": float(flush_deadline),
            "include_probabilities": include_probabilities,
            "skip_zero_capacity": skip,
            # The concrete substrate every request runs ("auto" is classes).
            "substrate": substrate,
            "row_fn": row_fn,
            "arena_bytes": (
                CONFIG.shard_arena_bytes if arena_bytes is None else arena_bytes
            ),
            # Captured at construction: workers fork with the dispatcher's
            # tracing state and run local tracers when it was enabled.
            "tracing": tracing_enabled(),
        }
        self._n_shards = shards
        self._shard_stats = [ServiceStats(clock=clock) for _ in range(shards)]
        self._client = ArenaClient()
        self._requests: list[ServedRequest] = []
        self._futures: dict[int, ServedRequest] = {}
        self._next_index = 0
        self._submit_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._done = threading.Condition(self._state_lock)
        self._closed = False
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
            args=(shard_id, child_conn, self._config, arena_name),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard = _Shard(process, parent_conn)
        shard.segment = f"repro-{arena_name}"  # ShmArena's OS-name prefix
        return shard

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        spec: InstanceSpec,
        seed: int | None = None,
        fault_mask: tuple[int, ...] | None = None,
        trace_ctx: "SpanContext | None" = None,
    ) -> ServedRequest:
        """Queue one spec request on its affinity shard; future back now.

        Seeds are drawn under the submission lock in submission order —
        the exact :class:`SamplerService` contract, so a sharded stream
        reproduces the unsharded rows for the same ``rng``.
        ``fault_mask`` travels with the request and is applied
        worker-side after the build (see :meth:`SamplerService.submit`).
        """
        with self._submit_lock:
            self._check_open()
            request = ServedRequest(
                index=self._next_index,
                label=spec.label(),
                spec=spec,
                seed=seed if seed is not None else spawn_seed(self._gen),
                instance=None,
                submitted_at=self._clock(),
                row_fn=self._row_fn,
                fault_mask=tuple(fault_mask) if fault_mask else None,
            )
            _open_trace(request, trace_ctx)
            self._next_index += 1
            self._requests.append(request)
            self._route(request, instance=None)
        return request

    def submit_live(
        self,
        stream: UpdateStream,
        label: str = "live",
        trace_ctx: "SpanContext | None" = None,
    ) -> ServedRequest:
        """Queue a live-snapshot re-sample (see :meth:`SamplerService.submit_live`).

        The ``O(ν)`` count-class snapshot is taken here (the database
        lives in this process) and pickled to its shard — request-side
        marshalling is off the hot path; only results come back through
        shared memory.
        """
        if self._backend not in (AUTO_STACKED_BACKEND, "classes"):
            raise ValidationError(
                f"backend {self._backend!r} cannot execute a live snapshot; "
                "live requests run on the class substrate — construct the "
                "service with backend='auto' or 'classes'"
            )
        db = stream.database
        snapshot = ClassInstance.from_class_state(
            stream.class_state(), db.n_machines, capacities=db.capacities
        )
        with self._submit_lock:
            self._check_open()
            request = ServedRequest(
                index=self._next_index,
                label=label,
                spec=None,
                seed=None,
                instance=snapshot,
                submitted_at=self._clock(),
                row_fn=self._row_fn,
            )
            _open_trace(request, trace_ctx)
            self._next_index += 1
            self._requests.append(request)
            self._route(request, instance=snapshot)
        return request

    def _route(self, request: ServedRequest, instance, retries: int = 0) -> None:
        shard_id = shard_for(
            _affinity(request.spec, request.label, self._backend, request.fault_mask),
            self._n_shards,
        )
        # ``retries`` stays LAST: the death handler re-queues with
        # ``message[:-1] + (retries + 1,)``, so the trace context slots in
        # just before it.
        message = (
            "req", request.index, request.label, request.spec, request.seed,
            instance, request.fault_mask, request.trace_ctx, retries,
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
        self.recorder.record(
            "route", index=request.index, shard=shard_id, retries=retries
        )

    # -- results & telemetry ------------------------------------------------------

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

    def requests(self) -> list[ServedRequest]:
        """All retained requests, in submission order."""
        with self._submit_lock:
            return list(self._requests)

    def iter_results(self) -> Iterator[tuple[ServedRequest, SamplingResult]]:
        """Yield ``(request, result)`` in submission order, blocking."""
        for request in self.requests():
            yield request, request.result()

    def rows(self) -> list[dict[str, object]]:
        """All result rows in submission order (blocks until complete)."""
        return [request.row() for request in self.requests()]

    # -- lifecycle ----------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut the worker tier down.

        ``drain=True`` flushes every shard's packer, waits for all
        in-flight requests (surviving worker deaths along the way) and
        only then stops the workers.  ``drain=False`` fails unresolved
        futures with :class:`ServiceClosedError`.
        """
        with self._close_lock:
            if self._closed:
                return
            with self._submit_lock:
                self._closed = True
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
                for future in unresolved:
                    error = ServiceClosedError("service closed without draining")
                    _finish_trace(future, error)
                    future._fail(error)
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

    def __enter__(self) -> "ShardedSamplerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is closed; no further submissions")

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
        if not spans:
            return
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
            try:
                views = read_arrays(self._client.view(block), layout)
                results = unpack_group_results(
                    meta, views, self._model, self._config["skip_zero_capacity"]
                )
            except (ValidationError, FileNotFoundError):
                # The worker died and its arena is gone (or recycled)
                # before we attached: leave the requests pending — the
                # death handler re-queues them on a live shard.
                return
            shard.send(("release", block))
            self.shm_batches += 1
            self.recorder.record("batch", shard=shard_id, size=size, shm=True)
            self._fulfill(shard_id, shard, entries, results, size)
        elif kind == "pbatch":
            _, entries, results, size, spans = message
            self._record_spans(spans)
            self.shm_fallback_batches += 1
            self.recorder.record("batch", shard=shard_id, size=size, shm=False)
            self._fulfill(shard_id, shard, entries, results, size)
        elif kind == "fail":
            _, index, error = message
            with self._done:
                future = self._futures.pop(index, None)
                shard.pending.pop(index, None)
                self._done.notify_all()
            self.recorder.record("fail", shard=shard_id, index=index)
            if future is not None:
                _finish_trace(future, error)
                future._fail(error)
                self._shard_stats[shard_id].record_failure()
        elif kind == "drained":
            with self._done:
                shard.drained = True
                self._done.notify_all()

    def _fulfill(self, shard_id, shard, entries, results, size) -> None:
        self._shard_stats[shard_id].record_batch(size, self._batch_size)
        completed_at = self._clock()
        for (index, row), result in zip(entries, results):
            with self._done:
                future = self._futures.pop(index, None)
                shard.pending.pop(index, None)
                self._done.notify_all()
            if future is None:  # already failed or abandoned
                continue
            future._row = row
            future.db = None
            future._instance = None
            future.completed_at = completed_at
            future._fulfill(result)
            _finish_trace(future)
            self._shard_stats[shard_id].record_complete(
                completed_at - future.submitted_at, result
            )

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
        # _route: a racing submit either lands in ``pending`` here (and is
        # re-queued below) or routes to the replacement.
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
                with self._done:
                    future = self._futures.pop(index, None)
                    self._done.notify_all()
                if future is not None:
                    error = RuntimeError(
                        f"request {index} lost to two worker deaths; giving up"
                    )
                    _finish_trace(future, error)
                    future._fail(error)
                    self._shard_stats[shard_id].record_failure()
                continue
            requeued = message[:-1] + (retries + 1,)
            with self._state_lock:
                target.pending[index] = requeued
            target.send(requeued)
