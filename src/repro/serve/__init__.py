"""Serving: a long-lived, continuously-fed front end for the batch engine.

Where :mod:`repro.batch` executes a *known* job list at maximum
throughput, :mod:`repro.serve` accepts sampling requests **over time**
and keeps the stacked count-class engine saturated anyway:

:mod:`repro.serve.service`
    The serving tier, written once: the future surface (submit
    :class:`InstanceSpec` recipes or live dynamic databases, get
    :class:`ServedRequest` futures back, in submission order, with
    honest per-instance ledgers), the request lane (build → pack →
    execute) and the completion/failure path.  :class:`SamplerService`
    runs the lane in-process on a dispatcher thread and a thread pool.
    Dispatch is work-conserving: requests batch only while every
    worker is busy, and a request on an idle tier runs at once.
:mod:`repro.serve.packer`
    :class:`ShapePacker` — re-packs in-flight requests into
    schedule-shape groups; flushes full groups immediately and every
    partial group whenever its owner is idle.
:mod:`repro.serve.stats`
    :class:`ServiceStats` — live telemetry: instances/sec, batch-fill
    ratio, p50/p99 latency, queue depth, ledger totals (experiment E24).
:mod:`repro.serve.shard`
    :class:`ShardedSamplerService` — the forked case of the same tier:
    its request lane runs in worker *processes*, one shard per
    affinity-hashed request slice, results returned zero-copy through
    per-worker shared-memory arenas (:mod:`repro.serve.shm`;
    experiment E26).

Quickstart::

    from repro.analysis import InstanceSpec
    from repro.database import WorkloadSpec
    from repro.serve import SamplerService

    spec = InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=4096, total=1000),
        n_machines=4,
    )
    with SamplerService(rng=0) as service:
        futures = [service.submit(spec) for _ in range(1000)]
        print(futures[0].result().exact, service.telemetry())
"""

import sys
from types import ModuleType

from .packer import ShapePacker
from .service import SamplerService, ServedRequest, ServiceClosedError
from .shard import ShardedSamplerService
from .stats import ServiceStats

__all__ = [
    "SamplerService",
    "ServedRequest",
    "ServiceClosedError",
    "ServiceStats",
    "ShapePacker",
    "ShardedSamplerService",
]


class _CallableServeModule(ModuleType):
    """Make ``repro.serve(...)`` the front door's stream call.

    ``repro.serve`` is both this subpackage *and* the unified API's
    third entry point (``repro.sample`` / ``repro.sample_many`` /
    ``repro.serve``).  Rebinding the module's class (the documented
    PEP 562-era idiom) lets the same attribute serve both roles — the
    import system keeps rebinding ``repro.serve`` to this module, and
    calling it forwards to :func:`repro.api.serve`.
    """

    def __call__(self, requests, **kwargs):
        from ..api.execute import serve as _serve

        return _serve(requests, **kwargs)


sys.modules[__name__].__class__ = _CallableServeModule
