"""``"auto"`` runs the ``classes`` substrate on every path, at every N.

Every operator of the paper's samplers touches the element register only
through the joint count, so the ``O(ν)`` count-class state is exact at
any universe size.  Two families of checks pin that rule:

* a timing-free property grid over model × N: every site that resolves
  ``"auto"`` — the planner per instance and for the stacked, fanout and
  served strategies, the batch engine, the in-process serving dispatcher
  and the sharded tier's workers — yields ``classes``, mixed-ν batches
  included;
* memory budgets in the style of falkon's ``memory_checker``: a default
  request batch runs under a declared ``tracemalloc`` peak, where the
  dense layouts ``auto`` used to pick needed gigabytes.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro.analysis import InstanceSpec
from repro.api import STACK_THRESHOLD, Planner, SamplingRequest
from repro.batch import ClassInstance, execute_class_batch, resolve_stacked_name
from repro.database import WorkloadSpec
from repro.errors import PlanningError, ValidationError
from repro.serve import SamplerService, ShardedSamplerService
from repro.serve.service import ServedRequest

MODELS = ("sequential", "parallel")
UNIVERSES = (8, 64, 512, 4096, 32768, 10**5, 10**6)
GRID = [(model, universe) for model in MODELS for universe in UNIVERSES]
WAIT = 30.0
MB = 2**20


def spec_of(universe: int) -> InstanceSpec:
    return InstanceSpec(
        workload=WorkloadSpec.of("uniform", universe=universe, total=6),
        n_machines=2,
    )


def instance_of(universe: int, nu: int = 1) -> ClassInstance:
    joints = np.zeros(universe, dtype=np.int64)
    joints[: min(universe, 3)] = nu
    return ClassInstance(
        joints=joints, nu=nu, n_machines=2, total=int(joints.sum())
    )


@pytest.fixture(scope="module", params=MODELS)
def sharded_auto(request):
    service = ShardedSamplerService(shards=1, model=request.param, backend="auto")
    yield service
    service.close()


class TestEveryResolutionSite:
    @pytest.mark.parametrize("model,universe", GRID)
    def test_planner_resolves_classes(self, model, universe):
        planner = Planner()
        request = SamplingRequest(spec=spec_of(universe), model=model)
        assert planner.auto_backend(model) == "classes"
        assert planner.plan(request).backends() == ("classes",)
        for strategy, jobs in (("stacked", None), ("fanout", 2), ("served", None)):
            plan = planner.plan(request, strategy=strategy, jobs=jobs)
            assert plan.backends() == ("classes",), strategy
        group = planner.plan_many([request] * STACK_THRESHOLD)
        assert set(group.strategies()) == {"stacked"}
        assert set(group.backends()) == {"classes"}

    @pytest.mark.parametrize("model,universe", GRID)
    def test_engine_resolves_classes(self, model, universe):
        assert resolve_stacked_name("auto", model) == "classes"
        [result] = execute_class_batch(
            [instance_of(universe)],
            model=model,
            include_probabilities=False,
            backend="auto",
        )
        assert result.backend == "classes"
        assert result.exact

    @pytest.mark.parametrize("model,universe", GRID)
    def test_serving_dispatcher_resolves_classes(self, model, universe):
        with SamplerService(
            model=model, backend="auto", batch_size=1, flush_deadline=0.001
        ) as service:
            result = service.submit(spec_of(universe), seed=1).result(timeout=WAIT)
        assert result.backend == "classes"
        assert result.exact

    @pytest.mark.parametrize("universe", UNIVERSES)
    def test_sharded_worker_resolves_classes(self, sharded_auto, universe):
        # The worker runs the lane it was forked with: the tier's own.
        lane = sharded_auto._config["lane"]
        request = ServedRequest(0, "w", spec_of(universe), 1, None, 0.0)
        failures = []
        key = lane.build(request, lambda request, error: failures.append(error))
        assert failures == []
        assert key[0] == lane.substrate == "classes"


class TestHeterogeneousBatches:
    @pytest.mark.parametrize("model", MODELS)
    def test_mixed_nu_auto_batch_runs_classes(self, model):
        results = execute_class_batch(
            [instance_of(64, nu=1), instance_of(64, nu=9)],
            model=model,
            include_probabilities=False,
            backend="auto",
        )
        assert {r.backend for r in results} == {"classes"}


class TestRaggedNameIsGone:
    """``classes`` is the one CSR class stack; the old opt-in name fails
    loudly at the planner and the serving dispatcher."""

    @pytest.mark.parametrize("model", MODELS)
    def test_planner_rejects_ragged(self, model):
        request = SamplingRequest(spec=spec_of(64), model=model, backend="ragged")
        with pytest.raises(PlanningError, match="'ragged'"):
            Planner().plan(request)
        with pytest.raises(PlanningError, match="not stackable"):
            Planner().plan(request, strategy="stacked")

    @pytest.mark.parametrize("model", MODELS)
    def test_serving_dispatcher_rejects_ragged(self, model):
        with pytest.raises(ValidationError, match="unknown stacked backend 'ragged'"):
            SamplerService(model=model, backend="ragged")


@contextmanager
def memory_checker(max_bytes: int):
    """Fail unless the block's traced allocations peak within ``max_bytes``.

    The peak is measured by :mod:`tracemalloc` (NumPy reports its array
    buffers to it) above the traced memory live on entry.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    baseline, _ = tracemalloc.get_traced_memory()
    try:
        yield
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    used = peak - baseline
    assert used <= max_bytes, (
        f"peak {used / MB:.1f} MB exceeds the {max_bytes / MB:.0f} MB budget"
    )


def parallel_requests(count: int) -> list[SamplingRequest]:
    spec = InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=32768, total=1000), n_machines=4
    )
    return [
        SamplingRequest(spec=spec, model="parallel", batchable=True)
        for _ in range(count)
    ]


class TestMemoryBudget:
    """Stacked parallel N=32768: the dense synced layout ``auto`` used to
    pick retained ``N·(ν+1)·2`` cells per result (1.4 GB at B=8)."""

    @pytest.mark.parametrize("batch,budget_mb", [(8, 64), (256, 512)])
    def test_default_parallel_batch_fits_budget(self, batch, budget_mb):
        with memory_checker(budget_mb * MB):
            results = repro.sample_many(parallel_requests(batch), rng=0)
        assert set(results.strategies()) == {"stacked"}
        assert set(results.column("backend")) == {"classes"}
        assert all(results.column("exact"))
