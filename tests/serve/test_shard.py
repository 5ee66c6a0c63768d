"""ShardedSamplerService: routing, equivalence, recovery, telemetry."""

import os
import signal
import time

import numpy as np
import pytest

from repro.analysis.sweep import InstanceSpec
from repro.database import WorkloadSpec, round_robin, zipf_dataset
from repro.database.dynamic import random_update_stream
from repro.errors import ValidationError
from repro.serve import SamplerService, ServiceClosedError, ShardedSamplerService
from repro.serve.shard import _affinity, shard_for


def spec_of(universe=256, total=40, n_machines=4, tag=""):
    return InstanceSpec(
        workload=WorkloadSpec.of("uniform", universe=universe, total=total),
        n_machines=n_machines,
        tag=tag,
    )


class TestSharding:
    def test_shard_for_is_stable_and_in_range(self):
        key = _affinity(spec_of(), "x", "classes")
        assert shard_for(key, 4) == shard_for(key, 4)
        assert 0 <= shard_for(key, 4) < 4

    def test_same_recipe_lands_on_one_shard(self):
        key_a = _affinity(spec_of(tag="a"), "a", "classes")
        key_b = _affinity(spec_of(tag="a"), "a", "classes")
        assert shard_for(key_a, 4) == shard_for(key_b, 4)

    def test_recipes_of_different_shape_key_apart(self):
        # Every substrate keys by recipe: no backend pools mixed shapes
        # onto one shard queue.
        for backend in ("classes", "subspace"):
            keys = {
                _affinity(spec_of(total=40), "a", backend),
                _affinity(spec_of(total=80), "a", backend),
                _affinity(spec_of(universe=512), "a", backend),
                _affinity(None, "a", backend),
            }
            assert len(keys) == 4

    def test_construction_validates_knobs(self):
        with pytest.raises(ValidationError):
            ShardedSamplerService(shards=0)
        with pytest.raises(Exception):
            ShardedSamplerService(shards=2, backend="no-such-backend")


class TestEquivalence:
    def test_rows_match_unsharded_service(self):
        # Same request stream + rng → identical rows, independent of the
        # shard count: the tier's core determinism contract.
        specs = [spec_of(tag=f"t{i % 3}") for i in range(24)]
        with SamplerService(rng=42) as plain:
            plain_futures = [plain.submit(s) for s in specs]
        plain_rows = [f.row() for f in plain_futures]

        with ShardedSamplerService(shards=2, rng=42) as tier:
            futures = [tier.submit(s) for s in specs]
            rows = [f.row() for f in futures]
            telemetry = tier.telemetry()

        assert rows == plain_rows
        assert telemetry["completed"] == 24
        assert telemetry["shards"] == 2
        assert telemetry["shm_batches"] >= 1
        assert telemetry["worker_restarts"] == 0

    def test_results_carry_full_sampling_surface(self):
        with ShardedSamplerService(shards=2, rng=7, include_probabilities=True) as tier:
            future = tier.submit(spec_of(universe=128, total=20))
            result = future.result(timeout=30)
        assert result.exact
        assert result.output_probabilities is not None
        assert result.ledger.sequential_queries > 0
        assert result.schedule.fingerprint()
        assert result.public_parameters["N"] == 128

    def test_live_snapshots_round_trip(self):
        db = round_robin(zipf_dataset(64, 12, exponent=1.2, rng=3), n_machines=3)
        stream = random_update_stream(db, 5, rng=5)
        stream.class_state()  # prime the O(1)-maintained view
        with ShardedSamplerService(shards=2, rng=1) as tier:
            future = tier.submit_live(stream)
            result = future.result(timeout=30)
        assert result.exact
        row = future.row()
        assert row["label"] == "live"

    def test_subspace_backend_round_trips_dense_states(self):
        with ShardedSamplerService(
            shards=2, rng=9, backend="subspace", include_probabilities=True,
        ) as tier:
            futures = [tier.submit(spec_of(universe=64, total=10)) for _ in range(6)]
            results = [f.result(timeout=30) for f in futures]
        assert all(r.backend == "subspace" for r in results)
        assert all(r.exact for r in results)


class TestMixedNuSharding:
    def mixed_nu_specs(self):
        """Twelve specs over one overlap ``M/(νN) = 1/32`` and class
        widths 9 to 141, so each shard's batches mix widths."""
        nus = (8, 12, 17, 33, 140, 8, 33, 140, 12, 17, 8, 140)
        return [
            InstanceSpec(
                workload=WorkloadSpec.of("uniform", universe=256, total=8 * nu),
                n_machines=2 + k % 2,
                nu=nu,
                tag=f"m{k}",
            )
            for k, nu in enumerate(nus)
        ]

    def test_mixed_nu_rows_match_unsharded(self):
        specs = self.mixed_nu_specs()
        with SamplerService(rng=42) as plain:
            plain_rows = [plain.submit(s).row() for s in specs]

        with ShardedSamplerService(shards=2, rng=42) as tier:
            futures = [tier.submit(s) for s in specs]
            rows = [f.row() for f in futures]
            telemetry = tier.telemetry()

        assert len({row["nu"] for row in rows}) > 1
        assert rows == plain_rows
        assert telemetry["completed"] == len(specs)
        assert telemetry["shm_batches"] >= 1


class TestLifecycle:
    def test_submit_after_close_raises(self):
        tier = ShardedSamplerService(shards=1, rng=0)
        tier.close()
        with pytest.raises(ServiceClosedError):
            tier.submit(spec_of())

    def test_close_without_drain_fails_pending(self):
        tier = ShardedSamplerService(shards=1, rng=0, batch_size=10_000)
        future = tier.submit(spec_of())
        tier.close(drain=False)
        # Either the worker already resolved it, or it failed closed;
        # it must not hang.
        try:
            future.result(timeout=10)
        except ServiceClosedError:
            pass

    def test_close_is_idempotent(self):
        tier = ShardedSamplerService(shards=1, rng=0)
        tier.close()
        tier.close()

    def test_live_rejected_on_dense_backend(self):
        with ShardedSamplerService(shards=1, rng=0, backend="subspace") as tier:
            db = round_robin(zipf_dataset(32, 6, exponent=1.2, rng=1), n_machines=2)
            stream = random_update_stream(db, 3, rng=2)
            with pytest.raises(ValidationError, match="live"):
                tier.submit_live(stream)


class TestWorkerDeathRecovery:
    def test_killed_shard_requeues_and_completes(self, hold):
        # Kill one worker mid-stream: its in-flight requests must be
        # re-queued to a live shard, every row still comes back in
        # submission order, and the restart is surfaced in telemetry.
        specs = [spec_of(tag=f"t{i % 4}") for i in range(32)]
        with ShardedSamplerService(
            shards=2, rng=11, batch_size=64, row_fn=hold.row_fn
        ) as tier:
            futures = [tier.submit(s) for s in specs]
            # Held workers resolve nothing, so every request routed to
            # shard 0 is still in flight — kill it now.
            victim = tier._shards[0].process
            os.kill(victim.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while tier.worker_restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            hold.release()
            rows = [f.row() for f in futures]  # blocks until all complete
            telemetry = tier.telemetry()
        assert telemetry["worker_restarts"] >= 1
        assert telemetry["requeued_batches"] >= 1
        assert [row["label"] for row in rows] == [s.label() for s in specs]
        assert telemetry["completed"] == 32
        assert telemetry["failed"] == 0
        # The flight recorder dumped its ring at the moment of death: the
        # dump ends in the death event, preceded by the routed traffic.
        assert telemetry["flight_dumps"] == len(tier.death_dumps) >= 1
        dump = tier.death_dumps[0]
        events = [entry["event"] for entry in dump]
        assert events[-1] == "death"
        assert "route" in events
        assert dump[-1]["shard"] == 0

    def test_requeued_live_snapshots_get_their_maps_back(self, hold):
        # One worker, held in a spec request's row_fn, with live
        # snapshots queued behind it: killed, its replacement re-runs
        # them, and each result carries the map the dispatcher kept.
        def churn():
            db = round_robin(zipf_dataset(256, 60, exponent=1.2, rng=8), n_machines=3)
            stream = random_update_stream(db, 40, rng=9)
            stream.class_state()
            return stream

        stream = churn()
        with ShardedSamplerService(shards=1, rng=3, row_fn=hold.row_fn) as tier:
            blocker = tier.submit(spec_of(tag="blocker"))
            hold.wait_entered()
            live = []
            for _ in range(4):
                stream.apply_next(10)
                live.append(tier.submit_live(stream))
            os.kill(tier._shards[0].process.pid, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while tier.worker_restarts == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            hold.release()
            results = [f.result(timeout=60) for f in live]
            assert blocker.result(timeout=60).exact
            telemetry = tier.telemetry()
        assert telemetry["requeued_batches"] >= 1
        assert telemetry["failed"] == 0
        replay = churn()
        with SamplerService(rng=3) as plain:
            reference = []
            for _ in range(4):
                replay.apply_next(10)
                reference.append(plain.submit_live(replay).result(timeout=60))
        for ours, ref in zip(results, reference):
            assert ours.final_state.element_classes.dtype == np.uint8
            assert (
                ours.final_state.element_classes == ref.final_state.element_classes
            ).all()
            assert (
                ours.final_state.class_amplitudes() == ref.final_state.class_amplitudes()
            ).all()
            assert ours.fidelity == ref.fidelity
            assert ours.plan == ref.plan
            assert ours.ledger.summary() == ref.ledger.summary()
            assert ours.public_parameters == ref.public_parameters

    def test_rows_match_unsharded_even_across_a_restart(self, hold):
        specs = [spec_of(tag=f"t{i % 2}") for i in range(16)]
        with SamplerService(rng=5) as plain:
            reference = [plain.submit(s).row() for s in specs]
        with ShardedSamplerService(
            shards=2, rng=5, batch_size=64, row_fn=hold.row_fn
        ) as tier:
            futures = [tier.submit(s) for s in specs]
            os.kill(tier._shards[1].process.pid, signal.SIGKILL)
            hold.release()
            rows = [f.row() for f in futures]
        assert rows == reference


class TestTelemetry:
    def test_fallback_counter_on_tiny_arena(self):
        # An arena too small for any result batch forces every batch onto
        # the pickle fallback — degraded, counted, but still correct.
        with ShardedSamplerService(shards=1, rng=3, arena_bytes=256) as tier:
            futures = [tier.submit(spec_of(universe=64, total=10)) for _ in range(4)]
            results = [f.result(timeout=30) for f in futures]
            telemetry = tier.telemetry()
        assert all(r.exact for r in results)
        assert telemetry["shm_fallback_batches"] >= 1
        assert telemetry["shm_batches"] == 0

    def test_per_shard_views_present(self):
        with ShardedSamplerService(shards=2, rng=0) as tier:
            tier.submit(spec_of()).result(timeout=30)
            telemetry = tier.telemetry()
        assert len(telemetry["per_shard"]) == 2
        assert telemetry["submitted"] == 1
