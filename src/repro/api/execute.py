"""Executors for the four strategies, and the three front-door calls.

:func:`sample`, :func:`sample_many` and :func:`serve` are the public
entry points (re-exported as ``repro.sample``/``repro.sample_many``/
``repro.serve``).  Each call runs request → plan → execute:

1. the :class:`~repro.api.planner.Planner` resolves backends and routes
   every request onto a strategy (:class:`ExecutionPlan`);
2. child seeds are drawn **in request order** for spec requests without
   an explicit seed — the same ``spawn_seed`` sequence the legacy
   ``run_batched``/``SamplerService`` drivers draw, so rows reproduce
   theirs for the same ``rng``;
3. one executor per strategy runs its groups and the results reassemble
   in request order as a :class:`~repro.api.results.ResultSet`.

Strategy executors
------------------
``instance``:
    One sampler run per request (``SequentialSampler``/
    ``ParallelSampler`` on the resolved backend): the per-instance-only
    backends, and the reference a forced ``strategy="instance"`` runs.
``stacked``:
    The stacked batch engine
    (:func:`~repro.batch.engine.execute_class_batch`) on the group's
    resolved substrate — the CSR-packed count-class plane under
    ``auto``, or an explicitly named one — chunked by ``batch_size`` in
    request order, at any group size (a lone request is a batch of
    one); rows are bit-identical to the per-instance rows on the same
    backend whatever the chunking.
``fanout``:
    The same stacked chunks shipped to a
    :class:`~concurrent.futures.ProcessPoolExecutor` for build-dominated
    spec loads, in chunks of at most ``batch_size`` requests and small
    enough that a group spreads over all ``jobs`` workers; workers
    return audit rows (states stay worker-side).
``served``:
    The long-lived serving tier — shape-keyed re-packing with
    work-conserving dispatch (requests batch only while every worker is
    busy; a request on an idle tier runs at once), live telemetry on the
    returned :class:`ResultSet`.  :func:`serve` (a lazy stream) and the
    planned ``served`` group open it the same way: in-process
    (:class:`~repro.serve.SamplerService`), or its forked case
    (:class:`~repro.serve.ShardedSamplerService`) when ``shards`` is set.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Sequence

from ..batch.engine import ClassInstance, execute_class_batch
from ..core.parallel import ParallelSampler
from ..core.result import SamplingResult
from ..core.sequential import SequentialSampler
from ..errors import PlanningError
from ..obs.trace import Span, SpanContext, Tracer, get_tracer, span, stitch
from ..utils.pool import process_map_iter
from ..utils.rng import as_generator, spawn_seed
from .planner import ExecutionGroup, ExecutionPlan, Planner, ResolvedRequest
from .request import SamplingRequest
from .results import Result, ResultSet, unified_row

#: The planner the front-door calls route through (it is stateless).
DEFAULT_PLANNER = Planner()


# -- the front door ---------------------------------------------------------------


def sample(
    request: SamplingRequest,
    rng: object = None,
    strategy: str | None = None,
) -> Result:
    """Run one request through the planner; returns its :class:`Result`.

    The request routes by the same per-request rule as a bulk call: the
    stacked engine (a batch of one) whenever its backend has a stacked
    implementation, per instance otherwise, unless ``strategy`` forces
    a path.  ``rng`` seeds spec materialization when the request
    carries no explicit ``seed``.
    """
    return sample_many([request], rng=rng, strategy=strategy)[0]


def sample_many(
    requests: Iterable[SamplingRequest],
    rng: object = None,
    batch_size: int | None = None,
    jobs: int | None = None,
    strategy: str | None = None,
    workers: int = 2,
    shards: int | None = None,
) -> ResultSet:
    """Plan and execute a request list; results come back in request order.

    Parameters
    ----------
    requests:
        The workloads.  Models, sources, backends and capacity policies
        may mix freely — each request routes on its own (stacked when
        its backend stacks, per instance otherwise) and the planner
        groups the stacked ones by homogeneity key, whatever the group
        size.
    rng:
        Seed source for deterministic per-spec child seeds, drawn in
        request order (``run_batched``'s determinism contract).
    batch_size:
        Instances per stacked tensor, and the most per fan-out work unit
        (default: :data:`~repro.batch.driver.DEFAULT_BATCH_SIZE`).
    jobs:
        ``jobs > 1`` fans spec-built groups across worker processes
        (the build-dominated regime); otherwise everything runs
        in-process.
    strategy:
        Force every request onto one strategy (``"instance"``,
        ``"stacked"``, ``"fanout"``, ``"served"``); ``None`` lets the
        planner route.
    workers:
        Serving threads, used only when requests route to the
        in-process dispatcher.
    shards:
        Served-strategy scale-out: run served groups on the sharded
        multi-process tier with this many workers (``None`` serves
        in-process; requests carrying their own ``shards=`` are honored
        when this is unset).
    """
    plan = DEFAULT_PLANNER.plan_many(
        requests,
        strategy=strategy,
        batch_size=batch_size,
        jobs=jobs,
        workers=workers,
        shards=shards,
    )
    return execute_plan(plan, rng=rng)


def serve(
    requests: Iterable[SamplingRequest],
    batch_size: int | None = None,
    workers: int = 2,
    shards: int | None = None,
    rng: object = None,
) -> ResultSet:
    """Stream requests through the serving dispatcher; block until drained.

    The iterable is consumed **lazily in the calling thread** — a
    generator that sleeps between yields replays a real arrival trace,
    and the dispatcher re-packs whatever queues behind busy workers into
    schedule-shape groups (full-batch flush, or every group once a
    worker is free) exactly as :class:`~repro.serve.SamplerService`
    does, because it *is* that service underneath.  All requests must
    share one model, capacity policy, ``include_probabilities`` setting,
    resolved backend (``"auto"`` and ``"classes"`` are one) and
    ``shards`` knob (the service is homogeneous in those); spec and
    stream sources may interleave.

    ``shards`` (or the requests' own ``shards=``) routes the stream
    through the sharded multi-process tier
    (:class:`~repro.serve.shard.ShardedSamplerService`) instead of the
    in-process dispatcher — same future surface and request lane, same
    rows, with build and execution fanned across worker processes and
    results returned zero-copy through shared memory.

    Returns a :class:`ResultSet` in submission order whose ``telemetry``
    carries the service's counters snapshot.
    """
    gen = as_generator(rng)
    tracer = get_tracer()
    roots: dict[int, Span] = {}
    accepted: list[tuple[ResolvedRequest, int | None]] = []

    def resolved() -> Iterator[tuple[ResolvedRequest, int | None, SpanContext | None]]:
        first: dict[str, object] | None = None
        for request in requests:
            res = DEFAULT_PLANNER.resolve_for_serving(request)
            fields = _tier_fields(res)
            if first is None:
                first = fields
            for attr, value in fields.items():
                if value != first[attr]:
                    raise PlanningError(
                        f"served streams are homogeneous in {attr}: got "
                        f"{value!r} after {first[attr]!r}"
                    )
            seed = None
            if request.source == "spec":
                seed = request.seed if request.seed is not None else spawn_seed(gen)
            ctx = None
            if tracer is not None:
                roots[len(accepted)] = root = tracer.start(
                    "request",
                    label=res.label,
                    strategy="served",
                    backend=res.backend,
                    model=request.model,
                    index=len(accepted),
                )
                ctx = root.context
            accepted.append((res, seed))
            yield res, seed, ctx

    futures, telemetry = _serve_on_one_tier(
        resolved(), shards, batch_size, workers
    )
    if not futures:
        return ResultSet(results=[])
    results = [
        _served_result(res, seed, future)
        for (res, seed), future in zip(accepted, futures)
    ]
    if tracer is not None:
        _attach_traces(tracer, roots, results)
    return ResultSet(results=results, telemetry=telemetry)


# -- plan execution ---------------------------------------------------------------


def execute_plan(plan: ExecutionPlan, rng: object = None) -> ResultSet:
    """Execute a planned routing; the low-level half of the front door.

    With tracing enabled (:func:`repro.obs.enable_tracing`), every
    request gets a root ``request`` span; the executors hang their phase
    spans (``build``/``execute``/``pack``/``dispatch``/``marshal``,
    wherever they ran) off it and the stitched trace is attached to each
    :class:`Result` before the set returns.
    """
    gen = as_generator(rng)
    seeds: list[int | None] = []
    for res in plan.resolved:
        if res.request.source == "spec" and res.request.seed is None:
            seeds.append(spawn_seed(gen))
        else:
            seeds.append(res.request.seed)
    tracer = get_tracer()
    roots = _trace_roots(tracer, plan.resolved) if tracer is not None else {}
    results: list[Result | None] = [None] * len(plan.resolved)
    snapshots: list[dict[str, object]] = []
    for group in plan.groups:
        executor = _EXECUTORS[group.strategy]
        context: dict[str, object] = {"trace_roots": roots}
        for index, result in executor(plan, group, seeds, context):
            results[index] = result
        if "telemetry" in context:
            snapshots.append(context["telemetry"])  # type: ignore[arg-type]
    assert all(result is not None for result in results)
    if tracer is not None:
        _attach_traces(tracer, roots, results)
    if len(snapshots) == 1:
        telemetry: dict[str, object] | None = snapshots[0]
    elif snapshots:
        # Several served groups (e.g. forced strategy over mixed models):
        # each ran its own service; keep every snapshot.
        telemetry = {"served_groups": snapshots}
    else:
        telemetry = None
    return ResultSet(results=list(results), plan=plan, telemetry=telemetry)  # type: ignore[arg-type]


def _chunked(indices: Sequence[int], size: int) -> Iterator[list[int]]:
    for start in range(0, len(indices), size):
        yield list(indices[start : start + size])


# -- tracing glue ------------------------------------------------------------------


def _trace_roots(tracer: Tracer, resolved) -> dict[int, Span]:
    """One root ``request`` span per resolved request (tracing-enabled runs)."""
    roots: dict[int, Span] = {}
    for res in resolved:
        attrs: dict[str, object] = {
            "label": res.label,
            "strategy": res.strategy,
            "backend": res.backend,
            "model": res.request.model,
            "index": res.index,
        }
        if res.fault_mask:
            attrs["fault_mask"] = list(res.fault_mask)
        roots[res.index] = tracer.start("request", **attrs)
    return roots


def _attach_traces(tracer: Tracer, roots: dict[int, Span], results) -> None:
    """Finish the roots, stitch the buffered spans, attach per-request traces."""
    for root in roots.values():
        tracer.finish(root)
    by_trace = stitch(tracer.drain())
    for index, root in roots.items():
        result = results[index]
        if result is not None:
            result.attach_trace(root.trace_id, by_trace.get(root.trace_id, []))


def _chunk_trace_ids(roots: dict[int, Span], chunk: Sequence[int]) -> list[str] | None:
    """The trace ids a batch-level span stitches into (``None`` untraced)."""
    if not roots:
        return None
    return [roots[i].trace_id for i in chunk if i in roots]


def _materialize(res: ResolvedRequest, seed: int | None) -> ClassInstance:
    """Build one request's count-class instance."""
    request = res.request
    if request.source == "stream":
        stream = request.stream
        assert stream is not None
        db = stream.database
        return ClassInstance.from_class_state(
            stream.class_state(), db.n_machines, capacities=db.capacities
        )
    if request.database is None:
        assert request.spec is not None
        return ClassInstance.from_spec(request.spec, seed, request.fault_mask)
    return ClassInstance.from_db(request.masked(request.database))


def _class_result(
    res: ResolvedRequest,
    seed: int | None,
    inst: ClassInstance,
    sampling: SamplingResult,
    wall: float,
) -> Result:
    row = unified_row(
        res.label,
        inst.n_machines,
        inst.universe,
        inst.total,
        inst.nu,
        sampling,
        "stacked",
        wall,
    )
    return Result(
        request=res.request,
        strategy="stacked",
        backend=sampling.backend,
        seed=seed,
        wall_time=wall,
        sampling=sampling,
        _row=row,
    )


# -- per-instance -----------------------------------------------------------------


def _execute_instance(
    plan: ExecutionPlan,
    group: ExecutionGroup,
    seeds: list[int | None],
    context: dict[str, object],
) -> Iterator[tuple[int, Result]]:
    roots = context.get("trace_roots") or {}
    for index in group.indices:
        res = plan.resolved[index]
        request = res.request
        root = roots.get(index)
        start = time.perf_counter()
        with span("build", parent=root, label=res.label):
            db = request.database
            if db is None:
                assert request.spec is not None
                db = request.spec.build(rng=seeds[index])
            db = request.masked(db)
        sampler_cls = (
            SequentialSampler if request.model == "sequential" else ParallelSampler
        )
        sampler = sampler_cls(
            db, backend=res.backend, skip_zero_capacity=res.skip_zero_capacity
        )
        with span("execute", parent=root, backend=res.backend, batch=1):
            sampling = sampler.run()
        wall = time.perf_counter() - start
        row = unified_row(
            res.label,
            db.n_machines,
            db.universe,
            db.total_count,
            db.nu,
            sampling,
            "instance",
            wall,
        )
        yield index, Result(
            request=request,
            strategy="instance",
            backend=res.backend,
            seed=seeds[index],
            wall_time=wall,
            sampling=sampling,
            _row=row,
        )


# -- stacked batch ----------------------------------------------------------------


def _execute_stacked(
    plan: ExecutionPlan,
    group: ExecutionGroup,
    seeds: list[int | None],
    context: dict[str, object],
) -> Iterator[tuple[int, Result]]:
    first = plan.resolved[group.indices[0]].request
    roots = context.get("trace_roots") or {}
    for chunk in _chunked(group.indices, plan.batch_size):
        built = []
        for index in chunk:
            with span("build", parent=roots.get(index), label=plan.resolved[index].label):
                built.append((index, _materialize(plan.resolved[index], seeds[index])))
        start = time.perf_counter()
        with span(
            "execute",
            parent=roots.get(chunk[0]),
            backend=plan.resolved[chunk[0]].backend,
            batch=len(chunk),
            trace_ids=_chunk_trace_ids(roots, chunk),
        ):
            samplings = execute_class_batch(
                [inst for _, inst in built],
                model=first.model,
                include_probabilities=first.include_probabilities,
                skip_zero_capacity=plan.resolved[chunk[0]].skip_zero_capacity,
                backend=plan.resolved[chunk[0]].backend,
            )
        wall = time.perf_counter() - start
        for (index, inst), sampling in zip(built, samplings):
            yield index, _class_result(
                plan.resolved[index], seeds[index], inst, sampling, wall
            )


# -- process fan-out --------------------------------------------------------------


def _fanout_worker(
    payload: tuple[
        str,
        list[tuple[object, int | None, str, tuple[int, ...] | None]],
        bool,
        bool,
        str,
        list | None,
    ],
) -> tuple[list[dict[str, object]], list[dict]]:
    """Build one chunk's instances, execute them stacked, return audit rows.

    Module-level (single-argument) so the process pool can pickle it; the
    heavyweight objects — instances, states, results — never cross the
    process boundary, only the plain-scalar rows and fault masks do.
    Specs build straight into class coordinates with their masks
    (:meth:`ClassInstance.from_spec`), exactly as in-process.

    ``traces`` (the payload's last element) carries one parent
    :class:`~repro.obs.trace.SpanContext` per item when the dispatcher
    is tracing: the worker then runs a local tracer and ships its
    finished ``build``/``execute`` span dicts back alongside the rows,
    so child-process phases stitch into the per-request traces.
    """
    model, items, include_probabilities, skip_zero_capacity, backend, traces = payload
    from contextlib import nullcontext

    local = Tracer() if traces is not None else None
    parents = traces if traces is not None else [None] * len(items)
    instances = []
    for (spec, seed, label, mask), parent in zip(items, parents):
        cm = (
            local.span("build", parent=parent, label=label)
            if local is not None
            else nullcontext()
        )
        with cm:
            instances.append(ClassInstance.from_spec(spec, seed, mask))
    execute_cm = (
        local.span(
            "execute",
            parent=next((ctx for ctx in parents if ctx is not None), None),
            backend=backend,
            batch=len(items),
            trace_ids=[ctx.trace_id for ctx in parents if ctx is not None],
        )
        if local is not None
        else nullcontext()
    )
    with execute_cm:
        samplings = execute_class_batch(
            instances,
            model=model,
            include_probabilities=include_probabilities,
            skip_zero_capacity=skip_zero_capacity,
            backend=backend,
        )
    rows = [
        unified_row(
            label, inst.n_machines, inst.universe, inst.total, inst.nu,
            sampling, "fanout", 0.0,
        )
        for (_, _, label, _), inst, sampling in zip(items, instances, samplings)
    ]
    return rows, (local.drain() if local is not None else [])


def _execute_fanout(
    plan: ExecutionPlan,
    group: ExecutionGroup,
    seeds: list[int | None],
    context: dict[str, object],
) -> Iterator[tuple[int, Result]]:
    first = plan.resolved[group.indices[0]].request
    roots = context.get("trace_roots") or {}
    tracer = get_tracer()
    # Split the group across its jobs: chunking by batch_size alone would
    # hand a group of ≤ batch_size requests to one worker.
    size = min(plan.batch_size, -(-len(group.indices) // plan.jobs))
    chunks = list(_chunked(group.indices, size))
    payloads = (
        (
            first.model,
            [
                (
                    plan.resolved[i].request.spec,
                    seeds[i],
                    plan.resolved[i].label,
                    plan.resolved[i].fault_mask,
                )
                for i in chunk
            ],
            first.include_probabilities,
            plan.resolved[chunk[0]].skip_zero_capacity,
            plan.resolved[chunk[0]].backend,
            (
                [roots[i].context if i in roots else None for i in chunk]
                if roots
                else None
            ),
        )
        for chunk in chunks
    )
    previous = time.perf_counter()
    for chunk, (rows, spans) in zip(
        chunks, process_map_iter(_fanout_worker, payloads, jobs=plan.jobs)
    ):
        if tracer is not None:
            for record in spans:
                tracer.record(record)
        now = time.perf_counter()
        wall = now - previous  # observed pipeline time for this chunk
        previous = now
        for index, row in zip(chunk, rows):
            row["wall_time_s"] = wall
            yield index, Result(
                request=plan.resolved[index].request,
                strategy="fanout",
                backend=str(row["backend"]),
                seed=seeds[index],
                wall_time=wall,
                sampling=None,
                _row=row,
            )


# -- served stream ----------------------------------------------------------------


def _tier_fields(res: ResolvedRequest) -> dict[str, object]:
    """What one serving tier is homogeneous in, with the backend resolved."""
    request = res.request
    return {
        "model": request.model,
        "capacity": request.capacity,
        "include_probabilities": request.include_probabilities,
        "backend": res.backend,
        "shards": request.shards,
    }


def _serve_on_one_tier(
    resolved: Iterable[tuple[ResolvedRequest, int | None, SpanContext | None]],
    shards: int | None,
    batch_size: int | None,
    workers: int,
) -> tuple[list, dict[str, object] | None]:
    """Open one serving tier, submit every request to it, drain it.

    The first ``(request, seed, trace context)`` triple configures the
    tier — its model, capacity policy, probabilities setting and
    resolved backend; ``shards`` (else the first request's own
    ``shards=``) selects the sharded tier.  Returns the futures in
    submission order and the drained tier's telemetry (``None`` when
    the stream was empty).
    """
    from ..batch.driver import DEFAULT_BATCH_SIZE
    from ..serve import SamplerService, ShardedSamplerService

    service = None
    futures = []
    try:
        for res, seed, ctx in resolved:
            request = res.request
            if service is None:
                common = dict(
                    model=request.model,
                    batch_size=DEFAULT_BATCH_SIZE if batch_size is None else batch_size,
                    include_probabilities=request.include_probabilities,
                    capacity=request.capacity,
                    backend=res.backend,
                )
                tier_shards = shards if shards is not None else request.shards
                service = (
                    ShardedSamplerService(shards=tier_shards, **common)
                    if tier_shards is not None
                    else SamplerService(workers=workers, **common)
                )
            if request.source == "spec":
                future = service.submit(
                    request.spec, seed=seed, fault_mask=res.fault_mask, trace_ctx=ctx
                )
            else:
                future = service.submit_live(
                    request.stream, label=res.label, trace_ctx=ctx
                )
            futures.append(future)
    finally:
        if service is not None:
            service.close(drain=True)
    return futures, (service.telemetry() if service is not None else None)


def _served_result(res: ResolvedRequest, seed: int | None, future) -> Result:
    sampling = future.result()
    wall = (
        future.completed_at - future.submitted_at
        if future.completed_at is not None
        else 0.0
    )
    row = future.row()
    row["label"] = res.label
    row["strategy"] = "served"
    row["wall_time_s"] = float(wall)
    return Result(
        request=res.request,
        strategy="served",
        backend=sampling.backend,
        seed=seed,
        wall_time=wall,
        sampling=sampling,
        _row=row,
    )


def _execute_served(
    plan: ExecutionPlan,
    group: ExecutionGroup,
    seeds: list[int | None],
    context: dict[str, object],
) -> Iterator[tuple[int, Result]]:
    roots = context.get("trace_roots") or {}
    futures, context["telemetry"] = _serve_on_one_tier(
        (
            (plan.resolved[i], seeds[i], roots[i].context if i in roots else None)
            for i in group.indices
        ),
        plan.shards,
        plan.batch_size,
        plan.workers,
    )
    for index, future in zip(group.indices, futures):
        yield index, _served_result(plan.resolved[index], seeds[index], future)


_EXECUTORS = {
    "instance": _execute_instance,
    "stacked": _execute_stacked,
    "fanout": _execute_fanout,
    "served": _execute_served,
}
