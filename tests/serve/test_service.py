"""SamplerService: equivalence, re-packing, deadlines, shutdown, dynamics.

The lifecycle suite (shutdown, failure isolation, housekeeping, telemetry
ordering) runs on both tiers: the sharded tier shares the in-process
future surface, request lane and resolution path, so it must behave the
same.
"""

import time

import numpy as np
import pytest

from repro.analysis import InstanceSpec
from repro.batch import run_batched
from repro.batch.driver import default_row
from repro.core import SequentialSampler, solve_plan
from repro.database import WorkloadSpec, round_robin, zipf_dataset
from repro.database.dynamic import random_update_stream
from repro.obs.trace import Tracer, disable_tracing, enable_tracing
from repro.serve import SamplerService, ServiceClosedError, ShardedSamplerService
from repro.utils.rng import as_generator, spawn_seed

#: Generous wall-clock allowance for future resolution — CI runners stall.
WAIT = 60.0


def two_shards(**kwargs) -> ShardedSamplerService:
    return ShardedSamplerService(shards=2, **kwargs)


@pytest.fixture(
    params=[
        pytest.param(SamplerService, id="in-process"),
        pytest.param(two_shards, id="sharded"),
    ]
)
def make_tier(request):
    """Construct either serving tier from the same keyword arguments."""
    return request.param


def bad_spec() -> InstanceSpec:
    """A recipe whose build raises (no machines to shard onto)."""
    return InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=64, total=24), n_machines=0
    )


def row_fn_failing_on_tag(spec, db, result):
    """``default_row``, except that a spec tagged ``bad-row`` raises."""
    if spec.tag == "bad-row":
        raise RuntimeError("row builder broke")
    return default_row(spec, db, result)


def spec_of(total: int, n_machines: int = 2, tag: str = "") -> InstanceSpec:
    return InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=64, total=total),
        n_machines=n_machines,
        tag=tag,
    )


def mixed_specs():
    """Six specs over two overlap regimes → at least two schedule shapes."""
    return [spec_of(48, 2, f"hi{k}") if k % 2 else spec_of(6, 3, f"lo{k}")
            for k in range(6)]


def assert_rows_equivalent(served_rows, reference_rows):
    """Every column equal, fidelity included: a ``classes`` row does not
    depend on the batch it ran in."""
    assert len(served_rows) == len(reference_rows)
    for mine, ref in zip(served_rows, reference_rows):
        assert mine == ref


class TestBatchedEquivalence:
    def test_served_rows_match_run_batched(self):
        specs = mixed_specs()
        with SamplerService(rng=7, batch_size=4, flush_deadline=0.01) as service:
            for spec in specs:
                service.submit(spec)
            rows = service.rows()
        assert_rows_equivalent(rows, run_batched(specs, rng=7, batch_size=4).rows)

    def test_parallel_model(self):
        specs = mixed_specs()
        with SamplerService(
            model="parallel", rng=3, batch_size=4, flush_deadline=0.01
        ) as service:
            for spec in specs:
                service.submit(spec)
            rows = service.rows()
        reference = run_batched(specs, model="parallel", rng=3, batch_size=4)
        assert_rows_equivalent(rows, reference.rows)
        assert all(row["parallel_rounds"] > 0 for row in rows)

    def test_futures_resolve_in_submission_order(self):
        specs = mixed_specs()
        with SamplerService(rng=0, batch_size=3, flush_deadline=0.01) as service:
            futures = [service.submit(spec) for spec in specs]
            assert service.requests() == futures
            labels = [req.label for req, _ in service.iter_results()]
        assert labels == [spec.label() for spec in specs]


class TestShapeRepacking:
    def test_mixed_shapes_split_into_shape_groups(self):
        """With no full or deadline flush possible, the drain executes one
        batch per distinct schedule shape — shape-keyed re-packing."""
        specs = mixed_specs()
        # Reproduce the service's seed draws to find the expected shapes.
        gen = as_generator(11)
        shapes = set()
        for spec in specs:
            db = spec.build(rng=spawn_seed(gen))
            plan = solve_plan(db.initial_overlap())
            shapes.add((plan.grover_reps, plan.needs_final))
        assert len(shapes) >= 2  # the fixture must actually mix shapes

        service = SamplerService(rng=11, batch_size=64, flush_deadline=30.0)
        for spec in specs:
            service.submit(spec)
        service.close(drain=True)
        telemetry = service.telemetry()
        assert telemetry["batches_executed"] == len(shapes)
        assert telemetry["completed"] == len(specs)
        assert telemetry["exact"] == len(specs)

    def test_full_group_flushes_before_deadline(self):
        """A shape group hitting batch_size flushes immediately even though
        the deadline is far away.  ``nu`` is pinned so every instance has
        the same overlap M/(νN) — hence provably the same shape — no
        matter what its child seed drew."""
        specs = [
            InstanceSpec(
                workload=WorkloadSpec.of("zipf", universe=64, total=48),
                n_machines=2,
                nu=48,
                tag=f"r{k}",
            )
            for k in range(4)
        ]
        with SamplerService(rng=5, batch_size=4, flush_deadline=30.0) as service:
            start = service._clock()
            futures = [service.submit(spec) for spec in specs]
            results = [f.result(timeout=WAIT) for f in futures]
            elapsed = service._clock() - start
        assert all(r.exact for r in results)
        assert elapsed < 10.0  # full flush, not the 30 s deadline


class TestDeadlineFlush:
    def test_partial_batch_served_without_close(self):
        """Fewer requests than batch_size still complete, bounded by the
        flush deadline — no drain needed."""
        service = SamplerService(rng=1, batch_size=256, flush_deadline=0.05)
        try:
            futures = [service.submit(spec_of(24)) for _ in range(3)]
            results = [f.result(timeout=WAIT) for f in futures]
            assert all(r.exact for r in results)
            telemetry = service.telemetry()
            assert telemetry["batches_executed"] >= 1
            assert telemetry["batch_fill_ratio"] < 1.0  # partial by design
        finally:
            service.close()

    def test_latency_tracked_per_request(self):
        service = SamplerService(rng=1, batch_size=256, flush_deadline=0.02)
        try:
            service.submit(spec_of(24)).result(timeout=WAIT)
            telemetry = service.telemetry()
            assert telemetry["p50_latency"] > 0.0
            assert telemetry["p99_latency"] >= telemetry["p50_latency"]
        finally:
            service.close()


class TestShutdown:
    def test_graceful_close_drains_everything(self, make_tier):
        """Requests parked behind a huge deadline + oversize batch are all
        executed by close(drain=True)."""
        specs = [spec_of(24, tag=f"d{k}") for k in range(5)]
        service = make_tier(rng=2, batch_size=64, flush_deadline=60.0)
        futures = [service.submit(spec) for spec in specs]
        assert not any(f.done() for f in futures)  # nothing can flush yet
        service.close(drain=True)
        assert all(f.done() for f in futures)
        assert all(f.result().exact for f in futures)
        assert service.telemetry()["queue_depth"] == 0

    def test_submit_after_close_rejected(self, make_tier):
        service = make_tier(rng=0)
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(spec_of(24))

    def test_close_is_idempotent(self, make_tier):
        service = make_tier(rng=0)
        service.close()
        service.close()

    def test_abandoning_close_fails_pending_requests(self, make_tier):
        service = make_tier(rng=2, batch_size=64, flush_deadline=60.0)
        futures = [service.submit(spec_of(24)) for _ in range(3)]
        service.close(drain=False)
        for future in futures:
            with pytest.raises(ServiceClosedError):
                future.result(timeout=WAIT)
        telemetry = service.telemetry()
        assert telemetry["failed"] == 3
        assert telemetry["queue_depth"] == 0


class TestFailureIsolation:
    def test_bad_spec_fails_only_its_future(self, make_tier):
        with make_tier(rng=4, batch_size=4, flush_deadline=0.01) as service:
            good_before = service.submit(spec_of(24))
            failed = service.submit(bad_spec())
            good_after = service.submit(spec_of(24))
            assert good_before.result(timeout=WAIT).exact
            assert good_after.result(timeout=WAIT).exact
            assert failed.exception(timeout=WAIT) is not None
        assert service.telemetry()["failed"] == 1
        assert service.telemetry()["completed"] == 2

    def test_raising_row_fn_fails_only_its_request(self, make_tier):
        with make_tier(
            rng=4, batch_size=4, flush_deadline=0.01, row_fn=row_fn_failing_on_tag
        ) as service:
            good_before = service.submit(spec_of(24, tag="ok"))
            failed = service.submit(spec_of(24, tag="bad-row"))
            good_after = service.submit(spec_of(24, tag="ok"))
            error = failed.exception(timeout=WAIT)
            assert good_before.row()["exact"] is True
            assert good_after.row()["exact"] is True
        assert isinstance(error, RuntimeError)
        assert "row builder broke" in str(error)
        telemetry = service.telemetry()
        assert (telemetry["completed"], telemetry["failed"]) == (2, 1)
        assert telemetry["queue_depth"] == 0


class TestTelemetryOrdering:
    """A resolved future is already counted: stats are recorded before the
    service-minted root span closes, and both before the future resolves.
    A slow ``Tracer.finish`` widens the window a wrong order leaves open."""

    @pytest.fixture
    def slow_tracing(self, monkeypatch):
        finish = Tracer.finish

        def slow_finish(tracer, span):
            time.sleep(0.05)
            return finish(tracer, span)

        monkeypatch.setattr(Tracer, "finish", slow_finish)
        enable_tracing()
        yield
        disable_tracing()

    def test_completion_counted_before_result_returns(self, make_tier, slow_tracing):
        with make_tier(rng=0, batch_size=1, flush_deadline=0.01) as service:
            service.submit(spec_of(24)).result(timeout=WAIT)
            assert service.telemetry()["completed"] == 1

    def test_failure_counted_before_exception_returns(self, make_tier, slow_tracing):
        with make_tier(rng=0, batch_size=1, flush_deadline=0.01) as service:
            assert service.submit(bad_spec()).exception(timeout=WAIT) is not None
            assert service.telemetry()["failed"] == 1


class TestStackedDenseServing:
    """The dispatcher's backend-keyed packing over the (B, N, 2) stack."""

    def test_subspace_rows_match_run_batched_subspace(self):
        specs = mixed_specs()
        with SamplerService(
            rng=7, batch_size=4, flush_deadline=0.01, backend="subspace"
        ) as service:
            for spec in specs:
                service.submit(spec)
            rows = service.rows()
        reference = run_batched(specs, rng=7, batch_size=4, backend="subspace")
        assert_rows_equivalent(rows, reference.rows)
        assert all(row["backend"] == "subspace" for row in rows)

    def test_auto_backend_resolves_per_request_universe(self):
        """A mixed-N auto stream runs every universe on classes — the
        universe no longer moves the packer's backend key."""
        small = spec_of(24, tag="small")  # universe 64
        large = InstanceSpec(
            workload=WorkloadSpec.of("zipf", universe=10**5, total=64),
            n_machines=2,
            tag="large",
        )
        with SamplerService(
            rng=3, batch_size=8, flush_deadline=0.01, backend="auto"
        ) as service:
            futures = {
                "small": service.submit(small),
                "large": service.submit(large),
            }
            results = {k: f.result(timeout=WAIT) for k, f in futures.items()}
        assert results["small"].backend == "classes"
        assert results["large"].backend == "classes"
        assert all(r.exact for r in results.values())

    def test_live_requests_stay_on_classes_under_auto(self):
        db = round_robin(zipf_dataset(128, 48, exponent=1.2, rng=0), n_machines=2)
        stream = random_update_stream(db, 5, rng=1)
        stream.class_state()
        with SamplerService(
            rng=0, batch_size=2, flush_deadline=0.01, backend="auto"
        ) as service:
            live = service.submit_live(stream).result(timeout=WAIT)
            spec = service.submit(spec_of(24)).result(timeout=WAIT)
        assert live.backend == "classes"  # snapshots are count-class views
        assert spec.backend == "classes"
        assert live.exact and spec.exact

    def test_unknown_backend_rejected_at_construction(self):
        with pytest.raises(Exception, match="unknown stacked backend"):
            SamplerService(backend="oracles")
        with pytest.raises(Exception, match="unknown stacked backend"):
            SamplerService(model="parallel", backend="subspace")

    def test_explicit_dense_service_rejects_live_requests(self):
        """Mirror of the front-door planner: a stream snapshot cannot run
        on an explicitly pinned dense substrate — no silent substitution."""
        from repro.errors import ValidationError

        db = round_robin(zipf_dataset(64, 24, exponent=1.2, rng=0), n_machines=2)
        stream = random_update_stream(db, 3, rng=1)
        service = SamplerService(backend="subspace")
        try:
            with pytest.raises(ValidationError, match="live snapshot"):
                service.submit_live(stream)
        finally:
            service.close()


def mixed_nu_specs():
    """Eight specs over five capacities sharing one overlap ``M/(νN) =
    1/32``: one schedule shape, so batches mix class widths 9 to 141 —
    both sides of NumPy's 8-wide and 128-wide summation blocks."""
    nus = (8, 12, 17, 33, 140, 8, 33, 140)
    return [
        InstanceSpec(
            workload=WorkloadSpec.of("uniform", universe=256, total=8 * nu),
            n_machines=2 + k % 2,
            nu=nu,
            tag=f"m{k}",
        )
        for k, nu in enumerate(nus)
    ]


class TestMixedNuServing:
    def test_mixed_nu_rows_match_run_batched(self):
        specs = mixed_nu_specs()
        with SamplerService(rng=7, batch_size=4, flush_deadline=0.01) as service:
            for spec in specs:
                service.submit(spec)
            rows = service.rows()
        reference = run_batched(specs, rng=7, batch_size=4)
        assert len({row["nu"] for row in rows}) > 1
        assert_rows_equivalent(rows, reference.rows)

    def test_one_shape_of_mixed_widths_drains_as_one_batch(self):
        # One schedule shape, five class widths: one packer group, so the
        # drain executes a single CSR batch.
        specs = mixed_nu_specs()
        service = SamplerService(rng=11, batch_size=64, flush_deadline=30.0)
        for spec in specs:
            service.submit(spec)
        service.close(drain=True)
        telemetry = service.telemetry()
        assert telemetry["batches_executed"] == 1
        assert telemetry["completed"] == telemetry["exact"] == len(specs)


class TestDynamicServing:
    def _stream(self, rng=0):
        db = round_robin(zipf_dataset(128, 48, exponent=1.2, rng=rng), n_machines=3)
        return db, random_update_stream(db, 30, insert_probability=0.8, rng=rng + 1)

    def test_mid_stream_requests_pin_submission_state(self):
        db, stream = self._stream()
        stream.class_state()  # prime the live view
        with SamplerService(rng=0, batch_size=4, flush_deadline=0.01) as service:
            before = service.submit_live(stream, label="before")
            m_before = db.total_count
            stream.apply_all()
            after = service.submit_live(stream, label="after")
            result_before = before.result(timeout=WAIT)
            result_after = after.result(timeout=WAIT)
        assert result_before.public_parameters["M"] == m_before
        assert result_after.public_parameters["M"] == db.total_count
        assert result_before.exact and result_after.exact

    def test_live_result_matches_fresh_per_instance_run(self):
        db, stream = self._stream(rng=3)
        stream.class_state()
        stream.apply_all()
        with SamplerService(
            rng=0, batch_size=4, flush_deadline=0.01, include_probabilities=True
        ) as service:
            served = service.submit_live(stream).result(timeout=WAIT)
        reference = SequentialSampler(db, backend="classes").run()
        assert served.ledger.summary() == reference.ledger.summary()
        assert served.plan == reference.plan
        np.testing.assert_allclose(
            served.output_probabilities, reference.output_probabilities, atol=1e-10
        )

    def test_no_class_map_rebuild_mid_stream(self, monkeypatch):
        """The no-rebuild contract: after the live view is primed, serving
        any number of mid-update requests never reconstructs a ClassVector
        from scratch — and still charges the honest full-run ledger."""
        from repro.qsim.classvector import ClassVector

        db, stream = self._stream(rng=5)
        stream.class_state()  # the one and only O(nN)-derived build
        rebuilds = []
        original = ClassVector.uniform.__func__

        def counting_uniform(cls, *args, **kwargs):
            rebuilds.append(1)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(ClassVector, "uniform", classmethod(counting_uniform))
        with SamplerService(rng=0, batch_size=2, flush_deadline=0.01) as service:
            futures = []
            for _ in range(3):
                futures.append(service.submit_live(stream))
                stream.apply_next(10)
            futures.append(service.submit_live(stream))
            results = [f.result(timeout=WAIT) for f in futures]
        assert rebuilds == []  # snapshots only — no rebuild, ever
        # Honest ledgers still: every served run charges the Lemma 4.2
        # sandwich for its own plan, same as an unbatched run would.
        for result in results:
            expected = 2 * db.n_machines * result.plan.d_applications
            assert result.sequential_queries == expected

    def test_row_for_live_request_carries_audit_columns(self):
        db, stream = self._stream(rng=7)
        stream.class_state()
        with SamplerService(rng=0, batch_size=2, flush_deadline=0.01) as service:
            row = service.submit_live(stream, label="live-7").row()
        assert row["label"] == "live-7"
        assert row["backend"] == "classes"
        assert row["M"] == db.total_count
        assert row["n"] == db.n_machines
        assert row["exact"] is True


class TestLongLivedHousekeeping:
    def test_purge_completed_drops_resolved_requests(self, make_tier):
        service = make_tier(rng=0, batch_size=2, flush_deadline=0.01)
        try:
            futures = [service.submit(spec_of(24)) for _ in range(4)]
            for future in futures:
                future.result(timeout=WAIT)
            assert service.purge_completed() == 4
            assert service.requests() == []
            # the service keeps serving, indices stay monotone
            late = service.submit(spec_of(24))
            assert late.index == 4
            assert late.result(timeout=WAIT).exact
            # futures handed out earlier still hold their results
            assert all(f.result().exact for f in futures)
            # cumulative telemetry is unaffected by purging
            assert service.telemetry()["completed"] == 5
        finally:
            service.close()

    def test_snapshot_released_after_execution(self, make_tier):
        with make_tier(rng=0, batch_size=2, flush_deadline=0.01) as service:
            future = service.submit(spec_of(24))
            future.result(timeout=WAIT)
        assert future._instance is None  # the O(N) snapshot is freed

    def test_concurrent_close_calls_both_drain(self, make_tier):
        import threading

        service = make_tier(rng=0, batch_size=64, flush_deadline=60.0)
        futures = [service.submit(spec_of(24)) for _ in range(6)]
        threads = [threading.Thread(target=service.close) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=WAIT)
            assert not t.is_alive()
        assert all(f.result(timeout=WAIT).exact for f in futures)
