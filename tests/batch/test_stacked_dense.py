"""Stacked subspace backend: bit-identical to per-instance SubspaceBackend.

The acceptance bar: a stacked ``(B, N, 2)`` run reproduces per-instance
``subspace`` sampling **bit for bit** for the same databases — fidelity,
output distribution, final state, ledger and schedule — including
mixed-``N`` batches (inert padding) and the capacity-aware restriction.
"""

import numpy as np
import pytest

from repro.batch import (
    StackedSubspaceVector,
    execute_sampling_batch,
    stacked_backend_names,
)
from repro.config import CONFIG, strict_mode
from repro.core import ParallelSampler, SequentialSampler
from repro.database import DistributedDatabase
from repro.errors import SimulationLimitError, ValidationError
from repro.utils.rng import as_generator


def random_database(rng: np.random.Generator, universe: int | None = None) -> DistributedDatabase:
    universe = int(rng.integers(16, 193)) if universe is None else universe
    n_machines = int(rng.integers(1, 5))
    nu_data = int(rng.integers(1, 7))
    support = int(rng.integers(1, max(2, universe // 2)))
    joint = np.zeros(universe, dtype=np.int64)
    keys = rng.choice(universe, size=support, replace=False)
    joint[keys] = rng.integers(1, nu_data + 1, size=support)
    counts = np.zeros((n_machines, universe), dtype=np.int64)
    for i in np.flatnonzero(joint):
        counts[:, i] = rng.multinomial(joint[i], np.full(n_machines, 1.0 / n_machines))
    nu = int(joint.max()) + int(rng.integers(0, 3))
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def assert_bit_identical(result, reference, backend="subspace"):
    """Every float the row carries — and the full state — matches with ==."""
    assert result.fidelity == reference.fidelity
    assert (result.output_probabilities == reference.output_probabilities).all()
    assert (result.final_state.as_array() == reference.final_state.as_array()).all()
    assert result.ledger.summary() == reference.ledger.summary()
    assert result.ledger.per_machine() == reference.ledger.per_machine()
    assert result.schedule.fingerprint() == reference.schedule.fingerprint()
    assert result.plan == reference.plan
    assert result.backend == backend


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_grid_matches_per_instance_subspace(self, seed):
        rng = as_generator(2000 * seed)
        dbs = [random_database(rng) for _ in range(9)]
        batched = execute_sampling_batch(dbs, model="sequential", backend="subspace")
        for db, result in zip(dbs, batched):
            reference = SequentialSampler(db, backend="subspace").run()
            assert_bit_identical(result, reference)

    def test_mixed_universes_pad_inertly(self):
        """Different N in one batch: padding must not perturb any instance."""
        rng = as_generator(99)
        dbs = [random_database(rng, universe=u) for u in (17, 64, 40, 64, 128)]
        batched = execute_sampling_batch(dbs, model="sequential", backend="subspace")
        for db, result in zip(dbs, batched):
            reference = SequentialSampler(db, backend="subspace").run()
            assert_bit_identical(result, reference)

    def test_capacity_restriction_matches_per_instance(self):
        counts = np.zeros((4, 48), dtype=np.int64)
        counts[0, :6] = 2
        counts[2, :6] = 1
        db = DistributedDatabase.from_count_matrix(counts, nu=4)
        [restricted] = execute_sampling_batch(
            [db], model="sequential", backend="subspace", skip_zero_capacity=True
        )
        reference = SequentialSampler(
            db, backend="subspace", skip_zero_capacity=True
        ).run()
        assert_bit_identical(restricted, reference)
        assert restricted.sequential_queries == reference.sequential_queries

    def test_strict_mode_run_stays_exact(self):
        rng = as_generator(5)
        dbs = [random_database(rng) for _ in range(3)]
        with strict_mode():
            results = execute_sampling_batch(
                dbs, model="sequential", backend="subspace"
            )
        assert all(r.exact for r in results)

    def test_include_probabilities_false_skips_gather(self):
        rng = as_generator(6)
        [result] = execute_sampling_batch(
            [random_database(rng)],
            model="sequential",
            backend="subspace",
            include_probabilities=False,
        )
        assert result.output_probabilities is None
        assert result.exact


class TestSyncedBitIdentity:
    """The (B, N, 2) synced-layout stack vs per-instance ParallelSampler."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_grid_matches_per_instance_synced(self, seed):
        rng = as_generator(4000 * seed)
        dbs = [random_database(rng) for _ in range(7)]
        batched = execute_sampling_batch(dbs, model="parallel", backend="synced")
        for db, result in zip(dbs, batched):
            reference = ParallelSampler(db, backend="synced").run()
            assert_bit_identical(result, reference, backend="synced")

    def test_mixed_universes_pad_inertly(self):
        rng = as_generator(101)
        dbs = [random_database(rng, universe=u) for u in (17, 64, 40, 64, 128)]
        batched = execute_sampling_batch(dbs, model="parallel", backend="synced")
        for db, result in zip(dbs, batched):
            reference = ParallelSampler(db, backend="synced").run()
            assert_bit_identical(result, reference, backend="synced")

    def test_final_state_layout_is_synced(self):
        rng = as_generator(103)
        [result] = execute_sampling_batch(
            [random_database(rng, universe=32)], model="parallel", backend="synced"
        )
        assert tuple(result.final_state.layout.names) == ("i", "s", "w")

    def test_strict_mode_run_stays_exact(self):
        rng = as_generator(105)
        dbs = [random_database(rng) for _ in range(3)]
        with strict_mode():
            results = execute_sampling_batch(dbs, model="parallel", backend="synced")
        assert all(r.exact for r in results)

    def test_sequential_model_rejects_synced(self):
        with pytest.raises(ValidationError, match="unknown stacked backend"):
            execute_sampling_batch(
                [random_database(as_generator(0))],
                model="sequential",
                backend="synced",
            )


class TestAutoResolution:
    def test_registry_names(self):
        assert "subspace" in stacked_backend_names("sequential")
        assert stacked_backend_names("parallel") == ("classes", "ragged", "synced")
        with pytest.raises(ValidationError, match="unknown stacked backend"):
            execute_sampling_batch(
                [random_database(as_generator(0))],
                model="sequential",
                backend="oracles",
            )

    def test_parallel_model_rejects_subspace(self):
        with pytest.raises(ValidationError, match="unknown stacked backend"):
            execute_sampling_batch(
                [random_database(as_generator(0))],
                model="parallel",
                backend="subspace",
            )


class TestMemoryGuard:
    def test_oversized_dense_stack_raises_simulation_limit(self):
        counts = np.zeros((1, 64), dtype=np.int64)
        counts[0, :4] = 2
        db = DistributedDatabase.from_count_matrix(counts, nu=4)
        before = CONFIG.max_dense_dimension
        CONFIG.max_dense_dimension = 100  # 2N = 128 > 100
        try:
            with pytest.raises(SimulationLimitError):
                execute_sampling_batch([db], model="sequential", backend="subspace")
            # auto runs classes, which the dense cap never touches.
            [result] = execute_sampling_batch([db], model="sequential", backend="auto")
            assert result.backend == "classes"
        finally:
            CONFIG.max_dense_dimension = before


class TestStackedSubspaceVector:
    def test_uniform_is_normalized_per_instance(self):
        state = StackedSubspaceVector.uniform([6, 4, 9])
        np.testing.assert_allclose(state.norms(), np.ones(3), atol=1e-12)
        assert state.width == 9 and state.batch_size == 3

    def test_stack_roundtrips_per_instance_states(self):
        from repro.qsim import StateVector
        from repro.qsim.register import RegisterLayout

        rng = as_generator(3)
        singles = []
        for n in (5, 8, 3):
            amps = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
            amps /= np.linalg.norm(amps)
            singles.append(
                StateVector.from_array(RegisterLayout.of(i=n, w=2), amps)
            )
        stacked = StackedSubspaceVector.stack(singles)
        for b, single in enumerate(singles):
            assert (stacked.extract(b).as_array() == single.as_array()).all()
            assert (
                stacked.output_probabilities(b)
                == single.marginal_probabilities("i")
            ).all()

    def test_padding_rows_stay_inert(self):
        state = StackedSubspaceVector.uniform([4, 2])
        cos = np.ones((2, 4))
        sin = np.zeros((2, 4))
        state.apply_element_flag_rotation(cos, sin)
        state.apply_phase_slice("w", 0, np.exp(0.3j))
        state.apply_pi_projector_phase(np.exp(0.7j))
        assert (state.amplitudes()[1, 2:] == 0).all()

    def test_bad_shapes_rejected(self):
        state = StackedSubspaceVector.uniform([4, 4])
        with pytest.raises(ValidationError):
            state.apply_element_flag_rotation(np.ones((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            state.apply_phase_slice("i", 0, 1.0)
        with pytest.raises(ValidationError):
            state.apply_phase_slice("w", 2, 1.0)
        with pytest.raises(ValidationError):
            StackedSubspaceVector.uniform([])
