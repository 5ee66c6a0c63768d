"""repro — reproduction of *Optimal quantum sampling on distributed databases*.

Chen, Liu, Yao (SPAA 2025; arXiv:2506.07724).

A dataset is sharded across ``n`` machines, each exposing only the
counting oracle ``O_j|i⟩|s⟩ = |i⟩|(s + c_ij) mod (ν+1)⟩``.  This library
implements the paper's sequential (``Θ(n√(νN/M))`` queries) and parallel
(``Θ(√(νN/M))`` rounds) zero-error quantum sampling algorithms on an
exact register-level simulator, plus the full Section 5 lower-bound
machinery, baselines and an experiment harness.

Quickstart
----------
>>> import repro
>>> from repro.database import uniform_dataset, round_robin
>>> db = round_robin(uniform_dataset(16, 32, rng=0), n_machines=2)
>>> result = repro.sample(repro.SamplingRequest(database=db))
>>> result.exact                      # the zero-error guarantee
True
>>> result.strategy, result.sequential_queries == result.ledger.sequential_queries
('stacked', True)

The front door (:mod:`repro.api`) routes every workload — single runs,
batched sweeps, process fan-out, served streams — through one
request → plan → execute pipeline: :func:`repro.sample`,
:func:`repro.sample_many`, :func:`repro.serve`.

Subpackages
-----------
:mod:`repro.api`
    The unified entry point: ``SamplingRequest`` → ``Planner`` →
    ``ExecutionPlan`` → ``Result``/``ResultSet``.
:mod:`repro.qsim`
    Exact qudit-register statevector simulator.
:mod:`repro.circuits`
    Gate-level qubit backend (cross-validation substrate).
:mod:`repro.database`
    Multisets, machines, oracles, ledgers, partitions, workloads.
:mod:`repro.core`
    The samplers, the distributing operator, zero-error amplitude
    amplification, cost formulas, oblivious schedules.
:mod:`repro.lowerbound`
    Hard inputs, the adversary potential, optimality checks (Section 5).
:mod:`repro.baselines`
    Classical coordinator, centralized sampler, the no-go combiner,
    Grover as a special case.
:mod:`repro.analysis`
    Scaling fits, statistics, sweeps and report tables.
:mod:`repro.batch`
    Stacked count-class batched execution and the throughput driver.
:mod:`repro.serve`
    The long-lived batching sampler service (queue → shape-keyed
    re-packing → futures, with live telemetry).
"""

from .config import CONFIG, NumericsConfig, strict_mode
from .core import (
    AmplificationPlan,
    ParallelSampler,
    SamplingResult,
    SequentialSampler,
    sample_parallel,
    sample_sequential,
    solve_plan,
    target_state,
)
from .database import (
    DistributedDatabase,
    Machine,
    Multiset,
    QueryLedger,
    partition,
)
from .errors import (
    CapacityError,
    EmptyDatabaseError,
    NotUnitaryError,
    ObliviousnessError,
    PlanInfeasibleError,
    PlanningError,
    ReproError,
    RequestError,
    SimulationLimitError,
    ValidationError,
)

__version__ = "1.1.0"

#: Front-door names resolved lazily from :mod:`repro.api` (PEP 562), so
#: ``import repro`` stays light — the batch/serve layers load on first
#: use.  ``serve`` resolves to the :mod:`repro.serve` subpackage, which
#: is itself callable as the stream entry point.
_API_EXPORTS = (
    "ExecutionPlan",
    "Planner",
    "Result",
    "ResultSet",
    "SamplingRequest",
    "sample",
    "sample_many",
)


def __getattr__(name: str):
    if name in _API_EXPORTS:
        from . import api

        return getattr(api, name)
    if name == "serve":
        import importlib

        return importlib.import_module(".serve", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(_API_EXPORTS) | {"serve"})


__all__ = [
    "CONFIG",
    "AmplificationPlan",
    "CapacityError",
    "DistributedDatabase",
    "EmptyDatabaseError",
    "ExecutionPlan",
    "Machine",
    "Multiset",
    "NotUnitaryError",
    "NumericsConfig",
    "ObliviousnessError",
    "ParallelSampler",
    "PlanInfeasibleError",
    "Planner",
    "PlanningError",
    "QueryLedger",
    "ReproError",
    "RequestError",
    "Result",
    "ResultSet",
    "SamplingRequest",
    "SamplingResult",
    "SequentialSampler",
    "SimulationLimitError",
    "ValidationError",
    "__version__",
    "partition",
    "sample",
    "sample_many",
    "sample_parallel",
    "sample_sequential",
    "serve",
    "solve_plan",
    "strict_mode",
    "target_state",
]
