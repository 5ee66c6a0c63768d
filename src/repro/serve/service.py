"""The long-lived batching sampler service.

:class:`SamplerService` turns the one-shot Theorem 4.3/4.5 samplers into
a continuously-fed serving loop on top of the stacked ``classes`` engine:

* **submit** — callers hand in
  :class:`~repro.analysis.sweep.InstanceSpec` recipes
  (:meth:`~SamplerService.submit`) or live dynamic databases
  (:meth:`~SamplerService.submit_live`) and get a
  :class:`ServedRequest` future back immediately;
* **pack** — a dispatcher thread materializes each request, solves its
  (memoized) amplification plan, resolves its stacked substrate
  (``backend="auto"`` runs ``classes``) and re-packs
  in-flight requests into backend × schedule-shape groups
  (:class:`~repro.serve.packer.ShapePacker`), flushing groups when full
  *or* when their oldest request hits the flush deadline — so the
  stacked tensor stays saturated under load and latency stays bounded
  at a trickle;
* **execute** — flushed batches run on a thread pool via
  :func:`~repro.batch.engine.execute_class_batch` on the group's
  stacked backend, each request keeping its own honest
  :class:`~repro.database.ledger.QueryLedger`;
* **observe** — every event feeds a
  :class:`~repro.serve.stats.ServiceStats` telemetry surface
  (instances/sec, batch-fill ratio, p50/p99 latency, queue depth,
  ledger totals).

Determinism mirrors :func:`~repro.batch.driver.run_batched`: child seeds
are drawn one per spec request **in submission order** from the service's
``rng``, so a served spec stream reproduces ``run_batched`` rows for the
same seeds (regression-tested to the same 1e-12 fidelity tolerance the
batch driver's own packing-invariance tests use).

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
from typing import Callable, Iterator

from ..analysis.sweep import InstanceSpec
from ..batch.backends import AUTO_STACKED_BACKEND, resolve_stacked_name
from ..batch.driver import DEFAULT_BATCH_SIZE, RowFn, audit_row, default_row
from ..batch.engine import ClassInstance, cached_plan, execute_class_batch
from ..config import CONFIG
from ..core.result import SamplingResult
from ..database.dynamic import UpdateStream
from ..database.fault import apply_fault_mask
from ..errors import ValidationError
from ..obs.trace import SpanContext, get_tracer, span
from ..utils.rng import as_generator, spawn_seed
from .packer import ShapePacker
from .stats import ServiceStats, padding_cells

#: Default seconds a request may wait in the packer before a partial flush.
DEFAULT_FLUSH_DEADLINE = 0.05

_STOP = object()


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
        row_fn: RowFn,
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
        # Set by the dispatcher for spec requests; released (with the
        # class-map snapshot) once the row is built at completion, so a
        # retained or caller-held future costs row+result-sized memory,
        # not database-sized.
        self.db = None
        self._instance = instance
        # Resolved stacked substrate, set by the dispatcher at packing
        # time (the packer's group key carries it too; stashing it here
        # keeps it with the batch through the worker pool).
        self._backend: str | None = None
        self._row_fn = row_fn
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
        and seed; the row is built once at completion (so the built
        database can be released) and copied out here.  Live requests
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

    # -- resolution (service-internal) ---------------------------------------------

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


class SamplerService:
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
    flush_deadline:
        Seconds a request may wait for co-batchable arrivals before its
        partial group is flushed — the service's latency bound knob.
    workers:
        Batch-execution threads.  NumPy kernels dominate batch runtime
        and release the GIL, so a couple of workers overlap execution
        with packing; process-level fan-out remains ``run_batched``'s
        job (offline sweeps).
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
        (default — the ``O(ν)`` compression, any scale), ``"ragged"``
        (the CSR class packing: mixed-``ν``, mixed-schedule traffic
        pools into **one** group per flush instead of one group per
        shape), ``"auto"`` (``classes``; when
        :attr:`repro.config.NumericsConfig.ragged_fill_threshold` is
        positive, auto traffic pools into the ragged group instead), or
        the explicit ``(B, N, 2)`` dense references ``"subspace"`` /
        ``"synced"``.  Live snapshots run on the class substrates — an
        explicit ``"subspace"``/``"synced"`` service therefore rejects
        :meth:`submit_live` (the front-door planner raises the matching
        :class:`PlanningError`).

    Use as a context manager: leaving the ``with`` block drains and
    closes the service.
    """

    def __init__(
        self,
        model: str = "sequential",
        batch_size: int = DEFAULT_BATCH_SIZE,
        flush_deadline: float = DEFAULT_FLUSH_DEADLINE,
        workers: int = 2,
        rng: object = None,
        include_probabilities: bool = False,
        row_fn: RowFn = default_row,
        clock: Callable[[], float] = time.monotonic,
        capacity: str = "all",
        backend: str = "classes",
    ) -> None:
        # Model and capacity policy are the front-door planner's rules;
        # imported at call time so this lower layer carries no load-time
        # dependency on the api package above it.
        from ..api.planner import require_model, skip_zero_capacity_for

        self._model = require_model(model)
        self._skip_zero_capacity = skip_zero_capacity_for(capacity)
        # Fail fast at construction, not on the dispatcher thread.
        self._substrate = resolve_stacked_name(backend, self._model)
        self._backend = backend
        self._include_probabilities = include_probabilities
        self._row_fn = row_fn
        self._clock = clock
        self._gen = as_generator(rng)
        self._stats = ServiceStats(clock=clock)
        self._packer: ShapePacker[ServedRequest] = ShapePacker(
            batch_size, flush_deadline, clock=clock
        )
        self._input: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self._next_index = 0
        self._requests: list[ServedRequest] = []
        self._submit_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self._abandon = False
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="repro-serve"
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
        )
        self._dispatcher.start()

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
        contract, continuously.  The :mod:`repro.api` front door passes
        pre-drawn seeds (same sequence, drawn in request order) instead.

        ``fault_mask`` marks machines lost for this request only: the
        dispatcher applies it after the build
        (:func:`~repro.database.fault.apply_fault_mask` — shard dropped,
        capacity republished as zero), so scenario traces interleave
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
                row_fn=self._row_fn,
                fault_mask=tuple(fault_mask) if fault_mask else None,
            )
            _open_trace(request, trace_ctx)
            self._next_index += 1
            self._requests.append(request)
            self._stats.record_submit()
            self._input.put(request)
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
        if self._backend not in (AUTO_STACKED_BACKEND, "classes", "ragged"):
            # Mirror the front-door planner: a stream snapshot cannot run
            # on an explicitly pinned dense substrate — reject loudly
            # instead of silently substituting classes.
            raise ValidationError(
                f"backend {self._backend!r} cannot execute a live snapshot; "
                "live requests run on a class substrate — construct the "
                "service with backend='auto', 'classes' or 'ragged'"
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
            self._stats.record_submit()
            self._input.put(request)
        return request

    # -- results & telemetry --------------------------------------------------------

    @property
    def stats(self) -> ServiceStats:
        """The live telemetry surface."""
        return self._stats

    def telemetry(self) -> dict[str, object]:
        """A plain-scalar snapshot of the serving counters."""
        return self._stats.snapshot()

    def requests(self) -> list[ServedRequest]:
        """All retained requests, in submission order."""
        with self._submit_lock:
            return list(self._requests)

    def purge_completed(self) -> int:
        """Drop resolved requests from the retained history; returns count.

        A truly long-lived service must not keep every served request
        alive forever — each one pins its database, result and state.
        Callers who consume results through the futures they already
        hold (or who call this after each :meth:`rows` sweep) can purge
        periodically; subsequent :meth:`requests`/:meth:`rows` cover only
        the still-retained tail.  The telemetry counters are cumulative
        and unaffected.
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
        requests not yet handed to a worker fail with
        :class:`ServiceClosedError`; in-flight batches still finish.

        Safe to call from multiple threads: ``_close_lock`` serializes
        the whole teardown, so a second caller blocks until the first
        has finished draining rather than shutting the executor down
        under the still-dispatching drain.
        """
        with self._close_lock:
            if not self._closed:
                with self._submit_lock:
                    self._closed = True
                    self._abandon = not drain
                    self._input.put(_STOP)
                self._dispatcher.join()
                self._executor.shutdown(wait=True)

    def __enter__(self) -> "SamplerService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close(drain=True)

    # -- the dispatcher ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            timeout = self._packer.seconds_until_flush()
            try:
                item = (
                    self._input.get()
                    if timeout is None
                    else self._input.get(timeout=max(timeout, 1e-4))
                )
            except queue.Empty:
                item = None
            if item is _STOP:
                break
            if item is not None:
                self._prepare_and_pack(item)
            self._flush_ready()
        # Shutdown: whatever was accepted before close() must still be
        # in the input queue or the packer; drain (or abandon) it all.
        while True:
            try:
                item = self._input.get_nowait()
            except queue.Empty:
                break
            if item is _STOP:
                continue
            if self._abandon:
                error = ServiceClosedError("service closed without draining")
                item._fail(error)
                _finish_trace(item, error)
                self._stats.record_failure()
            else:
                self._prepare_and_pack(item)
        if self._abandon:
            for batch in self._packer.drain():
                for request in batch:
                    error = ServiceClosedError("service closed without draining")
                    request._fail(error)
                    _finish_trace(request, error)
                    self._stats.record_failure()
        else:
            self._flush_ready()
            for batch in self._packer.drain():
                self._launch(batch)

    def _prepare_and_pack(self, request: ServedRequest) -> None:
        """Materialize the request; queue it under (backend, schedule shape).

        Every request of a service runs its one class or dense
        substrate (``"auto"`` is ``classes``).  Class-substrate traffic
        pools into the single shape-free ragged group when the service
        is pinned to ``"ragged"`` or, on ``"auto"``, the live
        :attr:`~repro.config.NumericsConfig.ragged_fill_threshold` is
        positive — mixed shapes then fill one tensor instead of
        fragmenting across per-shape groups.
        """
        try:
            with span("build", parent=request.trace_ctx, label=request.label):
                if request._instance is None:
                    assert request.spec is not None
                    request.db = request.spec.build(rng=request.seed)
                    if request.fault_mask is not None:
                        request.db = apply_fault_mask(request.db, request.fault_mask)
                    request._instance = ClassInstance.from_db(request.db)
                plan = cached_plan(request._instance.overlap())
        except BaseException as error:  # bad spec/plan: fail just this request
            request._fail(error)
            _finish_trace(request, error)
            self._stats.record_failure()
            return
        backend = self._substrate
        if self._backend == AUTO_STACKED_BACKEND and CONFIG.ragged_fill_threshold > 0:
            # Mirrors the engine's auto-only reroute: an explicit
            # "classes" pin keeps its label and per-shape groups.
            backend = "ragged"
        request._backend = backend
        if backend == "ragged":
            # Mixed schedule shapes execute together under the masked
            # loop — one pooled group, no per-shape fragmentation.
            self._packer.add(("ragged", None, None), request)
        else:
            self._packer.add((backend, plan.grover_reps, plan.needs_final), request)

    def _flush_ready(self) -> None:
        for batch in self._packer.pop_ready():
            self._launch(batch)

    def _launch(self, batch: list[ServedRequest]) -> None:
        tracer = get_tracer()
        if tracer is not None:
            # The pack phase ended the instant this batch flushed; its
            # duration is the oldest member's queue wait.
            now = self._clock()
            tracer.emit(
                "pack",
                duration_s=now - min(r.submitted_at for r in batch),
                parent=batch[0].trace_ctx,
                batch=len(batch),
                trace_ids=[r.trace_ctx.trace_id for r in batch if r.trace_ctx],
            )
        backend = batch[0]._backend or "classes"
        widths = [
            request._instance.universe
            if backend in ("subspace", "synced")
            else request._instance.nu + 1
            for request in batch
        ]
        self._stats.record_batch(
            len(batch),
            self._packer.batch_size,
            padding_cells=padding_cells(backend, widths),
        )
        self._executor.submit(self._execute_batch, batch)

    def _execute_batch(self, batch: list[ServedRequest]) -> None:
        trace_ids = [r.trace_ctx.trace_id for r in batch if r.trace_ctx] or None
        try:
            with span(
                "execute",
                parent=batch[0].trace_ctx,
                backend=batch[0]._backend or "classes",
                batch=len(batch),
                trace_ids=trace_ids,
            ):
                results = execute_class_batch(
                    [request._instance for request in batch],
                    model=self._model,
                    include_probabilities=self._include_probabilities,
                    skip_zero_capacity=self._skip_zero_capacity,
                    # The packer groups by backend, so one name covers the batch.
                    backend=batch[0]._backend or "classes",
                )
        except BaseException as error:
            for request in batch:
                request._fail(error)
                _finish_trace(request, error)
                self._stats.record_failure()
            return
        completed_at = self._clock()
        for request, result in zip(batch, results):
            try:
                if request.spec is not None:
                    request._row = dict(
                        request._row_fn(request.spec, request.db, result)
                    )
            except BaseException as error:  # a broken row_fn fails its request
                request._fail(error)
                _finish_trace(request, error)
                self._stats.record_failure()
                continue
            # Row and result are all a resolved request keeps: the built
            # database and the O(N) class-map snapshot are released here.
            request.db = None
            request._instance = None
            request.completed_at = completed_at
            request._fulfill(result)
            _finish_trace(request)
            self._stats.record_complete(completed_at - request.submitted_at, result)

    # -- internals --------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ServiceClosedError("service is closed; no further submissions")
