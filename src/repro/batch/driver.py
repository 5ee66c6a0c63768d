"""High-throughput sweep/serving driver over the batched engine.

:func:`run_batched` is the traffic-facing entry point of the batch
subsystem: it takes an iterable of
:class:`~repro.analysis.sweep.InstanceSpec` (the same spec objects the
sweep harness uses), materializes each with a deterministic child seed,
packs instances into fixed-size batches for
:func:`~repro.batch.engine.execute_sampling_batch`, optionally fans the
batches across a :class:`~concurrent.futures.ProcessPoolExecutor`, and
streams one row per instance into a
:class:`~repro.analysis.sweep.SweepResult` — ready for
:mod:`repro.analysis.report` exactly like ``run_sweep`` output.

Determinism and ordering are contracts, not best effort:

* child seeds are drawn from the caller's ``rng`` *in spec order* (one
  :func:`~repro.utils.rng.spawn_seed` per spec, chunk by chunk), so the
  materialized instances — and therefore every row — are identical for
  any ``jobs`` or ``batch_size`` value;
* rows come back in spec order regardless of which worker finished
  first (:func:`~repro.utils.pool.process_map_iter` yields in
  submission order);
* ``specs`` may be any iterable, including an unbounded generator — it
  is consumed lazily one batch at a time (bounded in-flight window under
  ``jobs > 1``), never materialized, which is what lets the serving
  packer (:mod:`repro.serve`) and huge sweeps stream through this
  driver.

For a *long-lived* request stream — arrivals over time, per-request
futures, deadline-bounded latency — see
:class:`repro.serve.SamplerService`, which re-packs in-flight requests
into schedule-shape groups on top of the same stacked engine.

Worker-side config isolation is inherited from :mod:`repro.config`:
``strict_checks`` lives in a ContextVar and workers are separate
processes, so per-worker toggles cannot leak (regression-tested in
``tests/analysis/test_sweep.py``).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..analysis.sweep import InstanceSpec, SweepResult
from ..core.result import SamplingResult
from ..database.distributed import DistributedDatabase
from ..utils.pool import process_map_iter
from ..utils.rng import as_generator, spawn_seed
from ..utils.validation import require_pos_int
from .engine import execute_sampling_batch

#: Default instances per stacked tensor.  Large enough to amortize the
#: per-batch Python overhead, small enough that mixed-shape groups still
#: fill (see bench_e23 for the measured plateau).
DEFAULT_BATCH_SIZE = 256

#: A row builder: ``(spec, db, result) → column mapping``.
RowFn = Callable[[InstanceSpec, DistributedDatabase, SamplingResult], Mapping[str, object]]


def audit_row(
    label: str, n: int, N: int, M: int, nu: int, result: SamplingResult
) -> dict[str, object]:
    """The shared audit-column core of every batched/served result row.

    One definition keeps :func:`default_row` (spec requests) and the
    serving layer's live-request rows column-for-column identical, so
    both drop into the same :class:`~repro.analysis.sweep.SweepResult`
    report tables.  Every value is a plain Python scalar so rows cross
    process boundaries cheaply.
    """
    return {
        "label": label,
        "n": int(n),
        "N": int(N),
        "M": int(M),
        "nu": int(nu),
        "backend": result.backend,
        "model": result.model,
        "batched": True,
        "fidelity": float(result.fidelity),
        "exact": bool(result.exact),
        "grover_reps": int(result.plan.grover_reps),
        "d_applications": int(result.plan.d_applications),
        "sequential_queries": int(result.sequential_queries),
        "parallel_rounds": int(result.parallel_rounds),
    }


def default_row(
    spec: InstanceSpec, db: DistributedDatabase, result: SamplingResult
) -> dict[str, object]:
    """The standard per-instance row: sweep columns + run audit fields.

    Matches ``run_sweep``'s injected columns (``label``/``n``/``N``/
    ``M``/``nu``/``backend``) so batched rows drop into the same report
    tables.
    """
    return audit_row(
        spec.label(), db.n_machines, db.universe, db.total_count, db.nu, result
    )


def pack_batches(
    items: Sequence[tuple[InstanceSpec, int]], batch_size: int
) -> list[list[tuple[InstanceSpec, int]]]:
    """Chunk ``(spec, seed)`` pairs into order-preserving batches."""
    batch_size = require_pos_int(batch_size, "batch_size")
    return [list(items[i : i + batch_size]) for i in range(0, len(items), batch_size)]


def iter_seeded_batches(
    specs: Iterable[InstanceSpec], rng: object, batch_size: int
) -> Iterator[list[tuple[InstanceSpec, int]]]:
    """Lazily chunk a spec stream into seeded, order-preserving batches.

    Child seeds are drawn one per spec **as the stream is consumed**, in
    spec order — the exact :func:`~repro.utils.rng.spawn_seed` sequence
    the materialize-everything driver used to draw up front, so the
    determinism contract survives streaming: same ``rng``, same seeds,
    regardless of when (or whether) downstream execution interleaves
    with consumption.
    """
    batch_size = require_pos_int(batch_size, "batch_size")
    gen = as_generator(rng)
    batch: list[tuple[InstanceSpec, int]] = []
    for spec in specs:
        batch.append((spec, spawn_seed(gen)))
        if len(batch) == batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


def _run_batch(
    payload: tuple[str, list[tuple[InstanceSpec, int]], RowFn, bool, bool, str],
) -> list[dict[str, object]]:
    """Worker: materialize one batch, execute it stacked, build its rows.

    Module-level (and single-argument) so :func:`process_map` can ship it
    to worker processes.
    """
    model, batch, row_fn, include_probabilities, skip_zero_capacity, backend = payload
    dbs = [spec.build(rng=seed) for spec, seed in batch]
    results = execute_sampling_batch(
        dbs,
        model=model,
        include_probabilities=include_probabilities,
        skip_zero_capacity=skip_zero_capacity,
        backend=backend,
    )
    return [
        dict(row_fn(spec, db, result))
        for (spec, _), db, result in zip(batch, dbs, results)
    ]


def run_batched(
    specs: Iterable[InstanceSpec],
    model: str = "sequential",
    batch_size: int = DEFAULT_BATCH_SIZE,
    jobs: int | None = None,
    rng: object = None,
    row_fn: RowFn = default_row,
    include_probabilities: bool = True,
    capacity: str = "all",
    backend: str = "classes",
) -> SweepResult:
    """Materialize, batch and execute many instances; collect result rows.

    .. deprecated::
        ``run_batched`` remains supported as the *streaming* bulk driver
        (unbounded spec iterables, custom row builders), but new code
        should prefer the front door —
        ``repro.sample_many([SamplingRequest(spec=...), ...])`` — which
        routes through the same planner and engines and returns the
        unified :class:`~repro.api.results.ResultSet`.  Routing (fan-out
        width, capacity policy) is resolved by the shared
        :class:`~repro.api.planner.Planner`, so both paths stay
        row-identical for the same seeds.

    Parameters
    ----------
    specs:
        Instance recipes, one result row each.  Specs may mix workloads,
        universe sizes, machine counts and capacities freely — the
        engine groups compatible schedules internally.  Any iterable
        works, including generators: the stream is consumed lazily one
        batch at a time, so arbitrarily long sweeps never hold the whole
        job list in memory.
    model:
        Query model for the whole run (``"sequential"``/``"parallel"``).
    batch_size:
        Instances per stacked tensor (also the unit of work one process
        executes when ``jobs > 1``).
    jobs:
        ``None``/``0``/``1`` execute in-process; larger values fan
        batches across that many worker processes.  ``row_fn`` must then
        be a module-level function and rows must pickle.
    rng:
        Seed for the deterministic per-spec child seeds; rows are
        identical for any ``jobs`` value given the same ``rng``.
    row_fn:
        Per-instance row builder (default: :func:`default_row`).
    include_probabilities:
        Forwarded to the engine; switch off to skip the ``O(N)`` output
        distribution per instance when only audit columns are needed.
    capacity:
        ``"all"`` or ``"skip_empty"`` — the front door's capacity
        policy; ``"skip_empty"`` carries the capacity-aware
        flagged-round restriction into every batch.
    backend:
        The stacked substrate (``"classes"`` default, ``"ragged"``,
        ``"auto"`` — ``classes``, the planner's rule — or an explicit
        dense reference ``"subspace"``/``"synced"``).

    Returns
    -------
    SweepResult
        One row per spec, in spec order.
    """
    # Routing — fan-out width and capacity policy — is the planner's
    # call, the same rules the repro.api front door applies.
    from ..api.planner import Planner, skip_zero_capacity_for

    planner = Planner()
    skip_zero_capacity = skip_zero_capacity_for(capacity)
    payloads = (
        (model, batch, row_fn, include_probabilities, skip_zero_capacity, backend)
        for batch in iter_seeded_batches(specs, rng, batch_size)
    )
    result = SweepResult()
    for rows in process_map_iter(_run_batch, payloads, jobs=planner.fanout_jobs(jobs)):
        result.rows.extend(rows)
    return result
