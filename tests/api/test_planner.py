"""Planner unit tests: every routing branch, auto backend selection."""

import pytest

from repro.analysis import InstanceSpec
from repro.api import Planner, SamplingRequest
from repro.database import WorkloadSpec
from repro.database.dynamic import UpdateStream
from repro.errors import PlanningError, ReproError


def spec_of(universe=64, total=24, n=2):
    return InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=universe, total=total),
        n_machines=n,
    )


def spec_request(universe=64, **kwargs):
    return SamplingRequest(spec=spec_of(universe=universe), **kwargs)


@pytest.fixture
def planner():
    return Planner()


class TestAutoBackend:
    """The acceptance bar: auto resolves to classes at every N
    (the full model × N grid lives in test_auto_routing.py)."""

    def test_classes_at_scale(self, planner):
        assert planner.auto_backend("sequential") == "classes"
        assert planner.auto_backend("parallel") == "classes"
        assert planner.plan(spec_request(universe=10**6)).backends() == ("classes",)

    def test_plan_resolves_auto_by_universe(self, planner):
        """The universe no longer moves the choice: small and large N
        resolve to the same O(ν) substrate."""
        small = planner.plan(spec_request(universe=64))
        large = planner.plan(spec_request(universe=10**5))
        assert small.backends() == ("classes",)
        assert large.backends() == ("classes",)

    def test_explicit_backend_respected(self, planner):
        plan = planner.plan(spec_request(backend="oracles"))
        assert plan.backends() == ("oracles",)

    def test_incompatible_backend_rejected(self, planner):
        with pytest.raises(PlanningError, match="does not support"):
            planner.plan(spec_request(backend="dense"))  # parallel-only
        with pytest.raises(PlanningError, match="does not support"):
            planner.plan(spec_request(backend="nonsense"))

    def test_stream_always_classes(self, planner, small_db):
        request = SamplingRequest(stream=UpdateStream(small_db, []))
        assert planner.plan(request).backends() == ("classes",)

    def test_stream_rejects_dense_backend(self, planner, small_db):
        request = SamplingRequest(
            stream=UpdateStream(small_db, []), backend="subspace"
        )
        with pytest.raises(PlanningError, match="stream"):
            planner.plan(request)


class TestAutoStrategy:
    """The acceptance bar: the stacked engine at any group size, on the
    classes substrate (the full size × source grid lives in
    test_routing_rule.py)."""

    def test_single_request_runs_stacked(self, planner):
        assert planner.plan(spec_request()).strategies() == ("stacked",)

    def test_homogeneous_large_n_group_stacks_classes(self, planner):
        plan = planner.plan_many([spec_request(universe=10**5) for _ in range(3)])
        assert set(plan.strategies()) == {"stacked"}
        assert set(plan.backends()) == {"classes"}

    def test_mixed_universes_share_one_stacked_group(self, planner):
        """One substrate at every N: a mixed-universe batch is one group."""
        small = [spec_request() for _ in range(2)]
        large = [spec_request(universe=10**5) for _ in range(2)]
        plan = planner.plan_many(small + large)
        assert plan.backends() == ("classes",) * 4
        assert len(plan.groups) == 1

    def test_explicit_subspace_backend_stacks(self, planner):
        """subspace is a stacked substrate now — an explicit choice keeps
        the dense representation and still batches."""
        plan = planner.plan_many([spec_request(backend="subspace") for _ in range(2)])
        assert set(plan.strategies()) == {"stacked"}
        assert set(plan.backends()) == {"subspace"}

    def test_unstackable_backend_never_stacks(self, planner):
        plan = planner.plan_many([spec_request(backend="oracles") for _ in range(2)])
        assert set(plan.strategies()) == {"instance"}

    def test_explicit_synced_backend_stacks(self, planner):
        """synced is a stacked substrate now — an explicit choice keeps
        the (B, N, 2) parallel layout and still batches."""
        synced = planner.plan_many(
            [spec_request(model="parallel", backend="synced") for _ in range(2)]
        )
        assert set(synced.strategies()) == {"stacked"}
        assert set(synced.backends()) == {"synced"}

    def test_heterogeneous_models_bucket_separately(self, planner):
        requests = [spec_request() for _ in range(3)] + [
            spec_request(model="parallel") for _ in range(3)
        ]
        plan = planner.plan_many(requests)
        assert set(plan.strategies()) == {"stacked"}
        assert len(plan.groups) == 2
        assert {g.indices[0] for g in plan.groups} == {0, 3}

    def test_capacity_policy_splits_buckets(self, planner):
        requests = [spec_request()] * 3 + [spec_request(capacity="skip_empty")] * 3
        plan = planner.plan_many(requests)
        # Two stacked groups, one per capacity policy.
        assert set(plan.strategies()) == {"stacked"}
        assert len(plan.groups) == 2

    def test_jobs_route_spec_loads_to_fanout(self, planner):
        plan = planner.plan_many([spec_request()] * 4, jobs=2)
        assert set(plan.strategies()) == {"fanout"}
        assert plan.jobs == 2

    def test_jobs_leave_database_requests_local(self, planner, small_db):
        """Databases live in this process: they stack in-process."""
        plan = planner.plan_many(
            [SamplingRequest(database=small_db)] * 4, jobs=2
        )
        assert set(plan.strategies()) == {"stacked"}


class TestForcedStrategy:
    def test_forced_stacked(self, planner):
        plan = planner.plan(spec_request(), strategy="stacked")
        assert plan.strategies() == ("stacked",)
        # auto resolution still applies: classes at every N.
        assert plan.backends() == ("classes",)
        large = planner.plan(spec_request(universe=10**5), strategy="stacked")
        assert large.backends() == ("classes",)

    def test_forced_fanout_and_served(self, planner):
        fanout = planner.plan(spec_request(), strategy="fanout", jobs=2)
        assert fanout.strategies() == ("fanout",)
        assert planner.plan(spec_request(), strategy="served").strategies() == ("served",)

    def test_forced_fanout_needs_jobs(self, planner):
        """A serial 'fan-out' would strip ledgers for nothing: rejected."""
        with pytest.raises(PlanningError, match="jobs"):
            planner.plan(spec_request(), strategy="fanout")
        with pytest.raises(PlanningError, match="jobs"):
            planner.plan(spec_request(), strategy="fanout", jobs=1)

    def test_forced_stacked_rejects_unstackable_backend(self, planner):
        with pytest.raises(PlanningError, match="not stackable"):
            planner.plan(spec_request(backend="oracles"), strategy="stacked")
        with pytest.raises(PlanningError, match="not stackable"):
            # subspace has no parallel stack registered.
            planner.plan(
                spec_request(model="parallel", backend="subspace"),
                strategy="stacked",
            )

    def test_explicit_subspace_backend_is_batchable(self, planner):
        request = spec_request(backend="subspace")
        plan = planner.plan(request)
        assert plan.strategies() == ("stacked",)
        assert plan.backends() == ("subspace",)

    def test_explicit_classes_backend_is_batchable_everywhere(self, planner):
        """backend='classes' IS the batch substrate, and the per-instance
        reference when forced."""
        request = spec_request(backend="classes")
        assert planner.plan(request, strategy="instance").strategies() == ("instance",)
        assert planner.plan(request).strategies() == ("stacked",)

    def test_forced_fanout_rejects_database_source(self, planner, small_db):
        with pytest.raises(PlanningError, match="spec-built"):
            planner.plan(SamplingRequest(database=small_db), strategy="fanout", jobs=2)

    def test_forced_served_rejects_database_source(self, planner, small_db):
        with pytest.raises(PlanningError, match="serving"):
            planner.plan(SamplingRequest(database=small_db), strategy="served")

    def test_unknown_strategy(self, planner):
        with pytest.raises(PlanningError, match="strategy"):
            planner.plan(spec_request(), strategy="teleport")

    def test_planning_errors_are_repro_errors(self, planner):
        with pytest.raises(ReproError):
            planner.plan(spec_request(), strategy="teleport")


class TestPlanShape:
    def test_groups_partition_indices_in_order(self, planner):
        requests = (
            [spec_request()] * 2
            + [spec_request(backend="oracles")]
            + [spec_request()] * 2
        )
        plan = planner.plan_many(requests)
        covered = sorted(i for g in plan.groups for i in g.indices)
        assert covered == list(range(len(requests)))
        stacked = next(g for g in plan.groups if g.strategy == "stacked")
        assert stacked.indices == (0, 1, 3, 4)
        instance = next(g for g in plan.groups if g.strategy == "instance")
        assert instance.indices == (2,)

    def test_bad_batch_size_rejected(self, planner):
        with pytest.raises(PlanningError, match="batch_size"):
            planner.plan_many([spec_request()], batch_size=0)
