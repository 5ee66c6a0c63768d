"""The serving tier: one future surface, one request lane, one resolution path.

In the paper's oblivious model the coordinator's query schedule is fixed
before any machine answers, so serving a request is the same fixed
sequence wherever it runs.  This module writes that sequence once:

* **submit** — callers hand in
  :class:`~repro.analysis.sweep.InstanceSpec` recipes (``submit``) or
  live dynamic databases (``submit_live``) and get a
  :class:`ServedRequest` future back immediately.  The future surface
  (submission, ``requests``/``purge_completed``/``iter_results``/
  ``rows``, ``close``, the context manager) belongs to a private base
  both tiers share;
* **build** — :meth:`_Lane.build` builds a spec request straight into
  class coordinates (:meth:`~repro.batch.engine.ClassInstance.from_spec`,
  fault mask included — no database) and looks up its memoized
  amplification plan, inside a ``build`` span, and returns its packer
  key: the service's one stacked substrate (``backend="auto"`` runs
  ``classes``) × schedule shape;
* **pack** — a :class:`~repro.serve.packer.ShapePacker` re-packs
  in-flight requests into schedule-shape groups.  Dispatch is
  work-conserving (adaptive batching, as in Clipper): a full group
  flushes at once, and every group flushes as soon as a worker is idle,
  so requests batch only while every worker is busy.  Every flush emits
  the batch's ``pack`` span;
* **execute** — :meth:`_Lane.execute` runs the flushed batch through
  :func:`~repro.batch.engine.execute_class_batch` inside an ``execute``
  span, then each request's ``row_fn``; a failure fails only the
  requests it touched, and each request keeps its own honest
  :class:`~repro.database.ledger.QueryLedger`;
* **resolve** — every future resolves through :func:`_complete` or
  :func:`_reject`, which record :class:`~repro.serve.stats.ServiceStats`
  first, close the service-minted root span second and resolve the
  future last — so a caller reading :meth:`SamplerService.telemetry`
  right after its ``result()`` always sees its own request counted.

:class:`SamplerService` runs the lane in-process: a dispatcher thread
builds and packs, a thread pool executes flushed batches while the
dispatcher keeps packing, and a finished batch wakes the dispatcher.
:class:`~repro.serve.shard.ShardedSamplerService` is the forked case:
the same lane runs in single-threaded shard worker processes.

Determinism mirrors :func:`~repro.batch.driver.run_batched`: child seeds
are drawn one per spec request **in submission order** from the service's
``rng``, so a served spec stream reproduces ``run_batched`` rows for the
same seeds (regression-tested with ``==`` on every row value, as the
batch driver's own packing-invariance tests are).

Dynamic databases are served without ``O(nN)`` rebuilds: a live request
snapshots :meth:`UpdateStream.class_state` — the ``O(1)``-maintained
count-class view — into a
:class:`~repro.batch.engine.ClassInstance` (one ``O(N)`` class-map copy,
no machine scan), pinning the request to the database state at
submission time while updates keep streaming.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Hashable, Iterator, TypeVar

from ..analysis.sweep import InstanceSpec
from ..batch.backends import CLASS_SUBSTRATE, resolve_stacked_name
from ..batch.driver import DEFAULT_BATCH_SIZE, RowFn, audit_row, default_row
from ..batch.engine import ClassInstance, cached_plan, execute_class_batch
from ..core.result import SamplingResult
from ..database.dynamic import UpdateStream
from ..errors import ValidationError
from ..obs.trace import SpanContext, get_tracer, span
from ..utils.rng import as_generator, spawn_seed
from ..utils.validation import require_pos_int
from .packer import ShapePacker
from .stats import ServiceStats

_STOP = object()
#: Put on the input queue by an executor thread when its batch finishes.
_DONE = object()

_Tier = TypeVar("_Tier", bound="_ServingTier")


class ServiceClosedError(ValidationError):
    """Submission after :meth:`SamplerService.close`, or abandoned drain."""


class ServedRequest:
    """One in-flight sampling request: a future plus its audit context.

    Returned by :meth:`SamplerService.submit` /
    :meth:`SamplerService.submit_live`; resolves to a
    :class:`~repro.core.result.SamplingResult` with the same honest
    ledger, plan and schedule an unbatched ``classes`` run would carry.
    """

    def __init__(
        self,
        index: int,
        label: str,
        spec: InstanceSpec | None,
        seed: int | None,
        instance: ClassInstance | None,
        submitted_at: float,
        fault_mask: tuple[int, ...] | None = None,
        trace_ctx: "SpanContext | None" = None,
    ) -> None:
        self.index = index
        self.label = label
        self.spec = spec
        self.seed = seed
        #: Machine-loss mask applied after the build (scenario traffic);
        #: ``None`` for healthy requests.
        self.fault_mask = fault_mask
        #: Trace context this request's phase spans parent to (``None``
        #: untraced).  Either handed in by the front door (its root) or
        #: minted by the service at submit time for direct callers.
        self.trace_ctx = trace_ctx
        #: The root span the *service* opened (only when it minted the
        #: context itself); finished when the request resolves.
        self._trace_root = None
        self.submitted_at = submitted_at
        #: Service-clock timestamp of batch completion (None until done);
        #: ``completed_at - submitted_at`` is the request's latency.
        self.completed_at: float | None = None
        # Built by the lane for spec requests, snapshotted at submission
        # for live ones; released once the row is built at completion.
        self._instance = instance
        self._row: dict[str, object] | None = None
        self._event = threading.Event()
        self._result: SamplingResult | None = None
        self._error: BaseException | None = None

    # -- future surface ----------------------------------------------------------

    def done(self) -> bool:
        """Whether a result (or error) has been delivered."""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> SamplingResult:
        """Block until the request resolves; re-raise its error if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"request {self.index} ({self.label}) still in flight")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The error the request failed with, or ``None`` on success."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"request {self.index} ({self.label}) still in flight")
        return self._error

    def row(self) -> dict[str, object]:
        """The request as a sweep-compatible result row.

        Spec requests produce **exactly** the configured ``row_fn``'s
        columns (``default_row`` by default) — bit-compatible with
        :func:`~repro.batch.driver.run_batched` rows for the same spec
        and seed; the row is built once at completion and copied out
        here.  Live requests
        share :func:`~repro.batch.driver.audit_row`, reading the sizes
        from the result's public parameters (there is no spec or
        database to label them).
        """
        result = self.result()
        if self._row is not None:
            return dict(self._row)
        params = result.public_parameters
        return audit_row(
            self.label, params["n"], params["N"], params["M"], params["nu"], result
        )

    # -- resolution (only via _complete / _reject) -------------------------------

    def _fulfill(self, result: SamplingResult) -> None:
        self._result = result
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


def _open_trace(request: ServedRequest, trace_ctx: SpanContext | None) -> None:
    """Wire a submission into the active trace (no-op when tracing is off).

    The front door hands in its per-request root's context; a direct
    service caller gets a service-minted root instead, finished when the
    request resolves (:func:`_finish_trace`).
    """
    if trace_ctx is not None:
        request.trace_ctx = trace_ctx
        return
    tracer = get_tracer()
    if tracer is None:
        return
    root = tracer.start(
        "request", label=request.label, strategy="served", index=request.index
    )
    request.trace_ctx = root.context
    request._trace_root = root


def _finish_trace(request: ServedRequest, error: BaseException | None = None) -> None:
    """Close a service-minted root span, if this request carries one."""
    root = request._trace_root
    if root is None:
        return
    request._trace_root = None
    tracer = get_tracer()
    if tracer is not None:
        if error is not None:
            root.set(error=repr(error))
        tracer.finish(root)


# -- resolution: the one completion path and the one failure path --------------------


def _complete(
    request: ServedRequest,
    result: SamplingResult,
    row: dict[str, object] | None,
    stats: ServiceStats,
    completed_at: float,
) -> None:
    """Resolve a request with its result: stats, then trace, then future."""
    # Row and result are all a resolved request keeps: the instance is
    # released here (its class map lives on in the result's final state).
    request._row = row
    request._instance = None
    request.completed_at = completed_at
    stats.record_complete(completed_at - request.submitted_at, result)
    _finish_trace(request)
    request._fulfill(result)


def _reject(request: ServedRequest, error: BaseException, stats: ServiceStats) -> None:
    """Fail a request: stats, then trace, then future."""
    stats.record_failure()
    _finish_trace(request, error)
    request._fail(error)


# -- the request lane ----------------------------------------------------------------

#: ``fail(request, error)``: how a lane step reports a request it could not serve.
_FailFn = Callable[[ServedRequest, BaseException], None]


@dataclass(frozen=True)
class _Lane:
    """The path one request takes: build, key, execute, row.

    Holds a tier's fixed execution settings and pickles with the worker
    config, so the in-process dispatcher and every forked shard worker
    run the very same two steps.  Neither step raises: a failure is
    handed to ``fail(request, error)`` and costs only its own request.
    """

    model: str
    substrate: str
    include_probabilities: bool
    skip_zero_capacity: bool
    row_fn: RowFn

    def build(self, request: ServedRequest, fail: _FailFn) -> Hashable | None:
        """Materialize ``request``; return its packer key, ``None`` if it failed.

        Every request of a tier runs its one substrate, so requests of
        one schedule shape share a group whatever their ``ν``.
        """
        try:
            with span("build", parent=request.trace_ctx, label=request.label):
                if request._instance is None:
                    assert request.spec is not None
                    request._instance = ClassInstance.from_spec(
                        request.spec, request.seed, request.fault_mask
                    )
                plan = cached_plan(request._instance.overlap())
        except BaseException as error:  # bad spec/plan: fail just this request
            fail(request, error)
            return None
        return (self.substrate, plan.grover_reps, plan.needs_final)

    def execute(
        self, batch: list[ServedRequest], fail: _FailFn
    ) -> list[tuple[ServedRequest, SamplingResult, dict[str, object] | None]]:
        """Run one flushed batch; ``(request, result, row)`` per success."""
        try:
            with span(
                "execute",
                parent=batch[0].trace_ctx,
                backend=self.substrate,
                batch=len(batch),
                trace_ids=_trace_ids(batch),
            ):
                results = execute_class_batch(
                    [request._instance for request in batch],
                    model=self.model,
                    include_probabilities=self.include_probabilities,
                    skip_zero_capacity=self.skip_zero_capacity,
                    backend=self.substrate,
                )
        except BaseException as error:
            for request in batch:
                fail(request, error)
            return []
        done = []
        for request, result in zip(batch, results):
            try:
                row = (
                    dict(self.row_fn(request.spec, result))
                    if request.spec is not None
                    else None
                )
            except BaseException as error:  # a broken row_fn fails its request
                fail(request, error)
            else:
                done.append((request, result, row))
        return done


def _trace_ids(batch: list[ServedRequest]) -> list[str] | None:
    """The traces a batch-level span stitches into (``None`` untraced)."""
    return [r.trace_ctx.trace_id for r in batch if r.trace_ctx] or None


def _trace_pack(batch: list[ServedRequest], now: float) -> None:
    """Emit a flushed batch's ``pack`` span: its oldest member's wait."""
    tracer = get_tracer()
    if tracer is not None:
        tracer.emit(
            "pack",
            duration_s=now - min(r.submitted_at for r in batch),
            parent=batch[0].trace_ctx,
            batch=len(batch),
            trace_ids=_trace_ids(batch),
        )


# -- the future surface ------------------------------------------------------------


class _ServingTier:
    """The future surface both serving tiers share.

    Owns construction-time validation, submission (seeds drawn in
    submission order, trace roots opened), the retained request history
    and the close protocol.  A tier supplies only :meth:`_enqueue` (hand
    an accepted request on), :meth:`_shutdown` (the one-time teardown
    behind :meth:`close`) and ``telemetry``.
    """

    def __init__(
        self,
        model: str,
        batch_size: int,
        rng: object,
        include_probabilities: bool,
        row_fn: RowFn,
        clock: Callable[[], float],
        capacity: str,
        backend: str,
    ) -> None:
        # Model and capacity policy are the front-door planner's rules;
        # imported at call time so this lower layer carries no load-time
        # dependency on the api package above it.
        from ..api.planner import require_model, skip_zero_capacity_for

        model = require_model(model)
        skip_zero_capacity = skip_zero_capacity_for(capacity)
        self._lane = _Lane(
            model=model,
            # Fail fast at construction, not on a dispatcher or worker.
            substrate=resolve_stacked_name(backend, model),
            include_probabilities=include_probabilities,
            skip_zero_capacity=skip_zero_capacity,
            row_fn=row_fn,
        )
        self._backend = backend
        self._batch_size = require_pos_int(batch_size, "batch_size")
        self._clock = clock
        self._gen = as_generator(rng)
        self._next_index = 0
        self._requests: list[ServedRequest] = []
        self._submit_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        spec: InstanceSpec,
        seed: int | None = None,
        fault_mask: tuple[int, ...] | None = None,
        trace_ctx: SpanContext | None = None,
    ) -> ServedRequest:
        """Queue one spec-built instance; returns its future immediately.

        Without an explicit ``seed``, the child seed is drawn under the
        submission lock, so the seed sequence is exactly the
        spec-submission order — the ``run_batched`` determinism
        contract, continuously (and on every shard count).  The
        :mod:`repro.api` front door passes pre-drawn seeds (same
        sequence, drawn in request order) instead.

        ``fault_mask`` marks machines lost for this request only: the
        lane applies it on the built counts, as
        :func:`~repro.database.fault.apply_fault_mask` does on a database
        (shard dropped, capacity republished as zero), so scenario traces interleave
        degraded and healthy requests in one service and each submission
        re-plans against its own topology.

        ``trace_ctx`` parents this request's phase spans when tracing is
        enabled (the front door's per-request root); omitted, the
        service mints a root itself.
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
                fault_mask=tuple(fault_mask) if fault_mask else None,
            )
            self._accept(request, trace_ctx)
        return request

    def submit_live(
        self,
        stream: UpdateStream,
        label: str = "live",
        trace_ctx: SpanContext | None = None,
    ) -> ServedRequest:
        """Queue a re-sample of a mutating dynamic database.

        Snapshots the stream's ``O(1)``-maintained count-class view
        (:meth:`~repro.database.dynamic.UpdateStream.class_state`) into a
        :class:`~repro.batch.engine.ClassInstance` **at submission time**
        — one ``O(N)`` class-map copy, no ``O(nN)`` machine scan — so the
        result reflects the database exactly as of this call even while
        updates keep streaming.  (The first ``class_state()`` call on a
        stream builds the view once; prime it before heavy traffic.)
        """
        if self._lane.substrate != CLASS_SUBSTRATE:
            # Mirror the front-door planner: a stream snapshot cannot run
            # on an explicitly pinned dense substrate — reject loudly
            # instead of silently substituting classes.
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
            )
            self._accept(request, trace_ctx)
        return request

    def _accept(self, request: ServedRequest, trace_ctx: SpanContext | None) -> None:
        """Register an accepted request and hand it on (submission lock held)."""
        _open_trace(request, trace_ctx)
        self._next_index += 1
        self._requests.append(request)
        self._enqueue(request)

    def _enqueue(self, request: ServedRequest) -> None:
        raise NotImplementedError

    # -- results ---------------------------------------------------------------

    def requests(self) -> list[ServedRequest]:
        """All retained requests, in submission order."""
        with self._submit_lock:
            return list(self._requests)

    def purge_completed(self) -> int:
        """Drop resolved requests from the retained history; returns count.

        A truly long-lived service must not keep every served request
        alive forever — each one pins its result and row.  Callers who
        consume results through the futures they already hold (or who
        call this after each :meth:`rows` sweep) can purge periodically;
        subsequent :meth:`requests`/:meth:`rows` cover only the
        still-retained tail.  The telemetry counters are cumulative and
        unaffected.
        """
        with self._submit_lock:
            kept = [request for request in self._requests if not request.done()]
            dropped = len(self._requests) - len(kept)
            self._requests = kept
        return dropped

    def iter_results(self) -> Iterator[tuple[ServedRequest, SamplingResult]]:
        """Yield ``(request, result)`` in submission order, blocking."""
        for request in self.requests():
            yield request, request.result()

    def rows(self) -> list[dict[str, object]]:
        """All result rows in submission order (blocks until complete)."""
        return [request.row() for request in self.requests()]

    # -- lifecycle --------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop accepting requests and shut down (idempotent).

        ``drain=True`` (graceful): every accepted request is packed,
        executed and resolved before the call returns.  ``drain=False``:
        requests not yet executing fail with :class:`ServiceClosedError`
        (and count as failed); in-process, batches already executing
        still finish, while the sharded tier fails those too.

        Safe to call from multiple threads: ``_close_lock`` serializes
        the whole teardown, so a second caller blocks until the first
        has finished draining.
        """
        with self._close_lock:
            if self._closed:
                return
            with self._submit_lock:
                self._closed = True
            self._shutdown(drain)

    def _shutdown(self, drain: bool) -> None:
        raise NotImplementedError

    def __enter__(self: _Tier) -> _Tier:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is closed; no further submissions")


# -- the in-process tier -------------------------------------------------------------


class SamplerService(_ServingTier):
    """Long-lived batching sampler over the stacked ``classes`` engine.

    .. deprecated:: direct construction
        The front door's stream call — ``repro.serve(requests, ...)`` —
        drives this service for you (lazy request stream in, unified
        :class:`~repro.api.results.ResultSet` + telemetry out).  Direct
        construction remains supported for callers that need the raw
        future surface (``submit``/``submit_live``/``iter_results``).

    Parameters
    ----------
    model:
        ``"sequential"`` or ``"parallel"`` — the query model every served
        request runs under.
    batch_size:
        Target instances per stacked tensor (the packer's full-flush
        trigger).
    workers:
        Batch-execution threads (at least 1; :class:`ValidationError`
        otherwise), and the dispatch threshold: partial groups wait in
        the packer only while ``workers`` batches are in flight.  NumPy
        kernels dominate batch runtime and release the GIL, so a
        couple of workers overlap execution with packing;
        process-level fan-out is the sharded tier's job
        (:class:`~repro.serve.shard.ShardedSamplerService`).
    rng:
        Seed source for deterministic per-spec child seeds (submission
        order), exactly like ``run_batched(rng=...)``.
    include_probabilities:
        Whether results carry the ``O(N)`` output distribution; off by
        default — the serving fast path only needs fidelity + ledger.
    row_fn:
        Row builder for :meth:`ServedRequest.row` on spec requests.
    capacity:
        Capacity policy (``"all"``/``"skip_empty"``) applied to every
        executed batch — ``"skip_empty"`` is the capacity-aware
        flagged-round restriction of
        :func:`~repro.batch.engine.execute_class_batch`.  Resolved
        through the :mod:`repro.api` planner, the same policy surface
        every front-door strategy uses.
    backend:
        The stacked substrate batches execute on: ``"classes"``
        (default — the CSR-packed ``O(ν)`` compression, any scale),
        ``"auto"`` (``classes``), or the explicit ``(B, N, 2)`` dense
        references ``"subspace"`` / ``"synced"``.  Live snapshots run
        on the class substrate — an explicit
        ``"subspace"``/``"synced"`` service therefore rejects
        :meth:`submit_live` (the front-door planner raises the matching
        :class:`PlanningError`).

    Use as a context manager: leaving the ``with`` block drains and
    closes the service.
    """

    def __init__(
        self,
        model: str = "sequential",
        batch_size: int = DEFAULT_BATCH_SIZE,
        workers: int = 2,
        rng: object = None,
        include_probabilities: bool = False,
        row_fn: RowFn = default_row,
        clock: Callable[[], float] = time.monotonic,
        capacity: str = "all",
        backend: str = "classes",
    ) -> None:
        super().__init__(
            model, batch_size, rng, include_probabilities, row_fn, clock,
            capacity, backend,
        )
        self._stats = ServiceStats(clock=clock)
        self._packer: ShapePacker[ServedRequest] = ShapePacker(batch_size)
        self._input: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self._abandon = False
        self._workers = require_pos_int(workers, "workers")
        self._in_flight = 0  # dispatcher-owned; executors report via _DONE
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-serve"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()

    def _enqueue(self, request: ServedRequest) -> None:
        self._stats.record_submit()
        self._input.put(request)

    # -- telemetry --------------------------------------------------------------

    @property
    def stats(self) -> ServiceStats:
        """The live telemetry surface."""
        return self._stats

    def telemetry(self) -> dict[str, object]:
        """A plain-scalar snapshot of the serving counters."""
        return self._stats.snapshot()

    # -- the dispatcher ------------------------------------------------------------

    def _shutdown(self, drain: bool) -> None:
        self._abandon = not drain
        self._input.put(_STOP)
        self._dispatcher.join()
        self._executor.shutdown(wait=True)

    def _dispatch_loop(self) -> None:
        while True:
            if self._packer.pending and self._in_flight < self._workers:
                try:
                    item = self._input.get_nowait()
                except queue.Empty:
                    # Idle lane: no arrival to build and a worker free, so
                    # holding a partial group could only add latency.
                    for batch in self._packer.drain():
                        self._launch(batch)
                    continue
            else:
                item = self._input.get()
            if item is _STOP:
                break
            if item is _DONE:
                self._in_flight -= 1
                continue
            key = self._lane.build(item, self._fail_request)
            if key is not None:
                self._packer.add(key, item)
                for batch in self._packer.pop_full():
                    self._launch(batch)
        # Shutdown: the input queue is FIFO and nothing is accepted after
        # _STOP, so every accepted request now sits in the packer.
        for batch in self._packer.drain():
            if not self._abandon:
                self._launch(batch)
                continue
            for request in batch:
                self._fail_request(
                    request, ServiceClosedError("service closed without draining")
                )

    def _launch(self, batch: list[ServedRequest]) -> None:
        _trace_pack(batch, self._clock())
        self._stats.record_batch(len(batch), self._batch_size)
        self._in_flight += 1
        self._executor.submit(self._execute_batch, batch)

    def _execute_batch(self, batch: list[ServedRequest]) -> None:
        try:
            done = self._lane.execute(batch, self._fail_request)
            completed_at = self._clock()
            for request, result, row in done:
                _complete(request, result, row, self._stats, completed_at)
        finally:
            self._input.put(_DONE)  # wake the dispatcher: a worker is free

    def _fail_request(self, request: ServedRequest, error: BaseException) -> None:
        _reject(request, error, self._stats)
