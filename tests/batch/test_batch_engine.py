"""Batched-vs-sequential equivalence: the stacked engine must be invisible.

The satellite contract: over a randomized ``(N, M, ν, n, B)`` grid, a
batched run and ``B`` independent ``classes``-backend runs produce
identical output probabilities, fidelities and query-ledger totals.
"""

import numpy as np
import pytest

from repro.batch import execute_sampling_batch
from repro.batch.engine import cached_plan
from repro.config import strict_mode
from repro.core import ParallelSampler, SequentialSampler
from repro.database import DistributedDatabase
from repro.errors import ValidationError
from repro.utils.rng import as_generator


def random_database(rng: np.random.Generator) -> DistributedDatabase:
    """A random valid instance: N ∈ [16, 192], n ∈ [1, 4], ν ∈ [2, 9]."""
    universe = int(rng.integers(16, 193))
    n_machines = int(rng.integers(1, 5))
    nu_data = int(rng.integers(1, 7))
    support = int(rng.integers(1, max(2, universe // 2)))
    joint = np.zeros(universe, dtype=np.int64)
    keys = rng.choice(universe, size=support, replace=False)
    joint[keys] = rng.integers(1, nu_data + 1, size=support)
    # Split the joint counts across machines arbitrarily.
    counts = np.zeros((n_machines, universe), dtype=np.int64)
    for i in np.flatnonzero(joint):
        split = rng.multinomial(joint[i], np.full(n_machines, 1.0 / n_machines))
        counts[:, i] = split
    nu = int(joint.max()) + int(rng.integers(0, 3))
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def reference_run(db: DistributedDatabase, model: str):
    sampler = (
        SequentialSampler(db, backend="classes")
        if model == "sequential"
        else ParallelSampler(db, backend="classes")
    )
    return sampler.run()


@pytest.mark.parametrize("model", ["sequential", "parallel"])
@pytest.mark.parametrize("batch_size,seed", [(3, 1), (7, 2), (17, 3)])
def test_randomized_grid_equivalence(model, batch_size, seed):
    rng = as_generator(1000 * seed)
    dbs = [random_database(rng) for _ in range(batch_size)]
    batched = execute_sampling_batch(dbs, model=model)
    assert len(batched) == batch_size
    for db, result in zip(dbs, batched):
        reference = reference_run(db, model)
        np.testing.assert_allclose(
            result.output_probabilities, reference.output_probabilities, atol=1e-12
        )
        assert result.fidelity == pytest.approx(reference.fidelity, abs=1e-12)
        assert result.exact and reference.exact
        assert result.ledger.sequential_queries == reference.ledger.sequential_queries
        assert result.ledger.parallel_rounds == reference.ledger.parallel_rounds
        assert result.ledger.per_machine() == reference.ledger.per_machine()
        assert result.schedule.fingerprint() == reference.schedule.fingerprint()
        assert result.plan == reference.plan
        np.testing.assert_allclose(
            result.final_state.class_amplitudes(),
            reference.final_state.class_amplitudes(),
            atol=1e-12,
        )


@pytest.mark.parametrize("model", ["sequential", "parallel"])
@pytest.mark.parametrize("capacity", ["all", "skip_empty"])
def test_per_instance_classes_bit_identical_to_stacked_kernels(model, capacity):
    """Per-instance ``classes`` runs and the stacked class kernels do the
    same arithmetic in the same order, so their rows agree with ``==`` —
    against a B=1 stack on either class substrate and against a mixed-ν
    ragged batch."""
    rng = as_generator(4242 if model == "sequential" else 4343)
    skip = capacity == "skip_empty"
    dbs = []
    for _ in range(12):
        db = random_database(rng)
        counts = db.count_matrix.copy()
        if db.n_machines > 1 and counts[:-1].sum() > 0:
            counts[-1] = 0  # a provably empty machine for skip_empty to drop
        dbs.append(DistributedDatabase.from_count_matrix(counts, nu=db.nu))
    sampler = SequentialSampler if model == "sequential" else ParallelSampler
    ragged = execute_sampling_batch(
        dbs, model=model, backend="ragged", skip_zero_capacity=skip
    )
    for db, mixed in zip(dbs, ragged):
        reference = sampler(db, backend="classes", skip_zero_capacity=skip).run()
        [single] = execute_sampling_batch(
            [db], model=model, backend="classes", skip_zero_capacity=skip
        )
        [single_ragged] = execute_sampling_batch(
            [db], model=model, backend="ragged", skip_zero_capacity=skip
        )
        for result in (single, single_ragged, mixed):
            assert result.fidelity == reference.fidelity
            assert np.array_equal(
                result.final_state.class_amplitudes(),
                reference.final_state.class_amplitudes(),
            )
            assert np.array_equal(
                result.output_probabilities, reference.output_probabilities
            )
            assert result.ledger.per_machine() == reference.ledger.per_machine()


class TestGrouping:
    def test_mixed_schedule_shapes_preserve_input_order(self):
        # Overlaps far apart → different grover_reps → multiple groups.
        rng = as_generator(42)
        dbs = []
        for _ in range(4):
            dbs.append(random_database(rng))
        plans = {cached_plan(db.initial_overlap()).grover_reps for db in dbs}
        # The seed is chosen so the batch genuinely spans several groups.
        assert len(plans) > 1
        batched = execute_sampling_batch(dbs, model="sequential")
        for db, result in zip(dbs, batched):
            assert result.public_parameters["N"] == db.universe
            assert result.public_parameters["M"] == db.total_count

    def test_plan_cache_shares_frozen_plans(self):
        rng = as_generator(0)
        db = random_database(rng)
        copies = [db, db, db]
        batched = execute_sampling_batch(copies, model="sequential")
        assert batched[0].plan is batched[1].plan is batched[2].plan


class TestEdges:
    def test_empty_batch(self):
        assert execute_sampling_batch([], model="sequential") == []

    def test_single_instance_batch(self, small_db):
        [result] = execute_sampling_batch([small_db], model="sequential")
        reference = reference_run(small_db, "sequential")
        assert result.fidelity == pytest.approx(reference.fidelity, abs=1e-12)
        assert result.summary()["per_machine_queries"] == (
            reference.summary()["per_machine_queries"]
        )

    def test_unknown_model_rejected(self, small_db):
        with pytest.raises(ValidationError):
            execute_sampling_batch([small_db], model="tensor")

    def test_include_probabilities_false_skips_gather(self, small_db):
        [result] = execute_sampling_batch(
            [small_db], model="sequential", include_probabilities=False
        )
        assert result.output_probabilities is None
        assert result.exact

    def test_strict_mode_run_stays_exact(self, small_db, sparse_db):
        with strict_mode():
            results = execute_sampling_batch([small_db, sparse_db], model="parallel")
        assert all(r.exact for r in results)

    def test_million_element_instances_stack(self):
        # The classes substrate's O(ν) state carries over: stacked runs
        # never allocate anything proportional to N except the class maps.
        universe = 10**6
        counts = np.zeros((2, universe), dtype=np.int64)
        counts[0, :125] = 4
        counts[1, :125] = 4
        db = DistributedDatabase.from_count_matrix(counts, nu=8)
        results = execute_sampling_batch(
            [db, db], model="sequential", include_probabilities=False
        )
        assert all(r.exact for r in results)
        assert results[0].final_state.class_amplitudes().shape == (9, 2)


class TestClassInstance:
    """The serving-facing entry: batches from raw class-state snapshots."""

    def test_from_db_reproduces_batch_path(self, small_db, sparse_db):
        from repro.batch import ClassInstance, execute_class_batch

        via_dbs = execute_sampling_batch([small_db, sparse_db], model="sequential")
        via_instances = execute_class_batch(
            [ClassInstance.from_db(small_db), ClassInstance.from_db(sparse_db)],
            model="sequential",
        )
        for a, b in zip(via_dbs, via_instances):
            assert a.fidelity == b.fidelity
            assert a.ledger.summary() == b.ledger.summary()
            np.testing.assert_array_equal(a.output_probabilities, b.output_probabilities)

    def test_from_class_state_snapshot_is_pinned(self, small_db):
        from repro.batch import ClassInstance
        from repro.database.dynamic import random_update_stream

        stream = random_update_stream(small_db, 10, rng=0)
        snapshot = ClassInstance.from_class_state(
            stream.class_state(), small_db.n_machines, capacities=small_db.capacities
        )
        m_before = small_db.total_count
        joints_before = snapshot.joints.copy()
        stream.apply_all()
        # The snapshot must not follow the live view.
        assert snapshot.total == m_before
        np.testing.assert_array_equal(snapshot.joints, joints_before)
        fresh = ClassInstance.from_db(small_db)
        assert fresh.total == small_db.total_count

    def test_from_class_state_matches_from_db(self, small_db):
        from repro.batch import ClassInstance, execute_class_batch
        from repro.database.dynamic import random_update_stream

        stream = random_update_stream(small_db, 8, rng=1)
        stream.class_state()
        stream.apply_all()
        live = ClassInstance.from_class_state(
            stream.class_state(), small_db.n_machines, capacities=small_db.capacities
        )
        scanned = ClassInstance.from_db(small_db)
        np.testing.assert_array_equal(live.joints, scanned.joints)
        assert live.total == scanned.total
        assert live.nu == scanned.nu
        assert live.overlap() == scanned.overlap()
        [a], [b] = execute_class_batch([live]), execute_class_batch([scanned])
        assert a.fidelity == b.fidelity
        assert a.public_parameters == b.public_parameters

    def test_empty_batch(self):
        from repro.batch import execute_class_batch

        assert execute_class_batch([]) == []
