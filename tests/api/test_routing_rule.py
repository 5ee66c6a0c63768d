"""One routing rule: every stackable request runs stacked, at any size.

A request's query schedule is a pure function of its public parameters,
and a stacked row is ``==`` its per-instance row, so the planner routes
by one per-request rule with no group-size threshold:

* a backend with a stacked implementation (``auto``/``classes`` on both
  models, ``subspace`` sequential, ``synced`` parallel) runs
  ``stacked`` — spec requests run ``fanout`` instead when ``jobs > 1``;
* the per-instance-only backends (``oracles``, ``dense``) run
  ``instance``;
* stream snapshots take only ``auto``/``classes`` and never run
  ``instance``.

The row grid checks the claim the rule rests on: default-routed rows
equal forced-``instance`` rows on every column but the three that name
the route.
"""

import pytest

import repro
from repro.analysis import InstanceSpec
from repro.api import DEFAULT_PLANNER, SamplingRequest
from repro.database import WorkloadSpec
from repro.database.dynamic import UpdateStream
from repro.errors import PlanningError

SIZES = (1, 2, 63, 64, 65)
SOURCES = ("spec", "database", "stream")
#: The names a stream snapshot accepts: its class substrate.
CLASS_NAMES = ("auto", "classes")
STACKED = {
    "sequential": ("auto", "classes", "subspace"),
    "parallel": ("auto", "classes", "synced"),
}
PER_INSTANCE = {"sequential": ("oracles",), "parallel": ("dense",)}
#: The columns that say which route ran; every other column must agree.
ROUTE_COLUMNS = ("strategy", "batched", "wall_time_s")


def spec_of(universe=64, total=24, n=2):
    return InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=universe, total=total),
        n_machines=n,
    )


def request_of(source, db, **kwargs):
    if source == "spec":
        return SamplingRequest(spec=spec_of(), **kwargs)
    if source == "database":
        return SamplingRequest(database=db, **kwargs)
    return SamplingRequest(stream=UpdateStream(db, []), **kwargs)


def route_columns_dropped(rows):
    return [{k: v for k, v in row.items() if k not in ROUTE_COLUMNS} for row in rows]


class TestRoutingGrid:
    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_stackable_backends_run_stacked(self, small_db, model, source, size):
        backends = STACKED[model] if source != "stream" else CLASS_NAMES
        for backend in backends:
            request = request_of(source, small_db, model=model, backend=backend)
            plan = DEFAULT_PLANNER.plan_many([request] * size)
            assert set(plan.strategies()) == {"stacked"}, backend
            assert len(plan.groups) == 1, backend

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("source", ["spec", "database"])
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_per_instance_backends_run_per_instance(
        self, small_db, model, source, size
    ):
        for backend in PER_INSTANCE[model]:
            request = request_of(source, small_db, model=model, backend=backend)
            plan = DEFAULT_PLANNER.plan_many([request] * size)
            assert set(plan.strategies()) == {"instance"}, backend
            assert set(plan.backends()) == {backend}

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_streams_take_only_the_class_substrate(self, small_db, model):
        others = [b for b in STACKED[model] + PER_INSTANCE[model] if b not in CLASS_NAMES]
        for backend in others:
            request = request_of("stream", small_db, model=model, backend=backend)
            with pytest.raises(PlanningError, match="stream"):
                DEFAULT_PLANNER.plan(request)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_jobs_fan_out_spec_requests_only(self, small_db, model, source, size):
        request = request_of(source, small_db, model=model)
        plan = DEFAULT_PLANNER.plan_many([request] * size, jobs=2)
        expected = "fanout" if source == "spec" else "stacked"
        assert set(plan.strategies()) == {expected}

    def test_siblings_do_not_change_a_route(self, small_db):
        """The rule is per request: a lone request routes as it would in
        any group, whatever else shares the call."""
        requests = [
            request_of("spec", small_db),
            request_of("spec", small_db, backend="oracles"),
            request_of("database", small_db, model="parallel"),
            request_of("stream", small_db, capacity="skip_empty"),
        ]
        together = DEFAULT_PLANNER.plan_many(requests).strategies()
        alone = tuple(DEFAULT_PLANNER.plan(r).strategies()[0] for r in requests)
        assert together == alone == ("stacked", "instance", "stacked", "stacked")


class TestForcedInstanceOnAStream:
    def test_planner_rejects_it(self, small_db):
        request = request_of("stream", small_db)
        with pytest.raises(PlanningError, match="instance strategy"):
            DEFAULT_PLANNER.plan(request, strategy="instance")

    def test_front_door_rejects_it(self, small_db):
        with pytest.raises(PlanningError, match="instance strategy"):
            repro.sample(request_of("stream", small_db), strategy="instance")

    def test_default_route_samples_the_snapshot(self, small_db):
        result = repro.sample(request_of("stream", small_db))
        assert result.strategy == "stacked" and result.exact
        assert result.row()["batched"] is True


def grid_requests(model, capacity, db):
    """One call's worth of requests: mixed N, a fault mask, a database."""
    return [
        SamplingRequest(spec=spec_of(64, 24, 2), model=model, capacity=capacity),
        SamplingRequest(spec=spec_of(512, 200, 3), model=model, capacity=capacity),
        SamplingRequest(spec=spec_of(4096, 300, 4), model=model, capacity=capacity),
        SamplingRequest(
            spec=spec_of(512, 120, 4), model=model, capacity=capacity,
            fault_mask=(1, 3),
        ),
        SamplingRequest(database=db, model=model, capacity=capacity),
    ]


class TestRowGrid:
    @pytest.mark.parametrize("capacity", ["all", "skip_empty"])
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_default_rows_equal_forced_instance_rows(
        self, mostly_empty_db, model, capacity
    ):
        requests = grid_requests(model, capacity, mostly_empty_db)
        routed = repro.sample_many(requests, rng=11)
        reference = repro.sample_many(requests, rng=11, strategy="instance")
        assert set(routed.strategies()) == {"stacked"}
        assert set(reference.strategies()) == {"instance"}
        assert all(routed.column("batched"))
        assert not any(reference.column("batched"))
        assert route_columns_dropped(routed.rows()) == route_columns_dropped(
            reference.rows()
        )

    @pytest.mark.parametrize("capacity", ["all", "skip_empty"])
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_lone_request_row_equals_forced_instance_row(
        self, mostly_empty_db, model, capacity
    ):
        for request in grid_requests(model, capacity, mostly_empty_db):
            routed = repro.sample(request, rng=5)
            reference = repro.sample(request, rng=5, strategy="instance")
            assert routed.strategy == "stacked"
            assert route_columns_dropped([routed.row()]) == route_columns_dropped(
                [reference.row()]
            )
            assert routed.sampling.ledger.summary() == (
                reference.sampling.ledger.summary()
            )
            assert routed.sampling.schedule.fingerprint() == (
                reference.sampling.schedule.fingerprint()
            )

    @pytest.mark.parametrize(
        "model,backend", [("sequential", "subspace"), ("parallel", "synced")]
    )
    def test_explicit_dense_stack_rows_equal_forced_instance_rows(
        self, mostly_empty_db, model, backend
    ):
        requests = [
            SamplingRequest(spec=spec_of(64, 24, 2), model=model, backend=backend),
            SamplingRequest(
                spec=spec_of(32, 12, 3), model=model, backend=backend,
                capacity="skip_empty", fault_mask=(0,),
            ),
            SamplingRequest(database=mostly_empty_db, model=model, backend=backend),
        ]
        routed = repro.sample_many(requests, rng=2)
        reference = repro.sample_many(requests, rng=2, strategy="instance")
        assert set(routed.strategies()) == {"stacked"}
        assert set(routed.column("backend")) == {backend}
        assert route_columns_dropped(routed.rows()) == route_columns_dropped(
            reference.rows()
        )
