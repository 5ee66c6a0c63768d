"""repro.api — the one front door: request → plan → execute.

The stack grew four parallel entry points — the per-instance samplers,
``run_batched``, ``run_sweep`` and ``SamplerService.submit`` — each with
its own signature, backend/capacity knobs and result shape.  This
package routes every workload through a single pipeline instead:

:class:`SamplingRequest`
    *What* to sample: a database, an
    :class:`~repro.analysis.sweep.InstanceSpec` recipe, or a live
    :class:`~repro.database.dynamic.UpdateStream` snapshot — plus model,
    backend (``"auto"`` by default), capacity policy, seed and fault
    mask.
:class:`Planner` → :class:`ExecutionPlan`
    *How* it executes: ``auto`` resolves to the ``O(ν)``-memory
    ``classes`` substrate at every ``N`` (the dense layouts are
    explicit-only references), and one strategy rule per request —
    the stacked count-class batch engine whenever the backend stacks,
    at any batch size (a lone request included), process fan-out for
    build-dominated spec loads (``jobs > 1``), per-instance execution
    for the per-instance-only backends or when forced, the serving
    dispatcher when asked for.
:func:`sample` / :func:`sample_many` / :func:`serve`
    The three calls (also exposed as ``repro.sample`` /
    ``repro.sample_many`` / ``repro.serve``), returning a unified
    :class:`Result` / :class:`ResultSet` whose rows share one column
    schema (queries, rounds, ledger, backend, strategy, wall time) and
    reproduce the legacy entry points' rows for the same seeds.

Quickstart
----------
>>> import repro
>>> from repro.database import uniform_dataset, round_robin
>>> db = round_robin(uniform_dataset(16, 32, rng=0), n_machines=2)
>>> result = repro.sample(repro.SamplingRequest(database=db))
>>> result.exact, result.strategy
(True, 'stacked')
"""

from .execute import DEFAULT_PLANNER, execute_plan, sample, sample_many, serve
from .planner import (
    STRATEGIES,
    ExecutionGroup,
    ExecutionPlan,
    Planner,
    ResolvedRequest,
)
from .request import CAPACITY_POLICIES, SamplingRequest
from .results import Result, ResultSet, unified_row

__all__ = [
    "CAPACITY_POLICIES",
    "DEFAULT_PLANNER",
    "ExecutionGroup",
    "ExecutionPlan",
    "Planner",
    "ResolvedRequest",
    "Result",
    "ResultSet",
    "STRATEGIES",
    "SamplingRequest",
    "execute_plan",
    "sample",
    "sample_many",
    "serve",
    "unified_row",
]
