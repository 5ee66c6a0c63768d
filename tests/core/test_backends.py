"""The sampler-backend registry and cross-backend equivalence.

The registry is the single dispatch point for simulation substrates; the
equivalence suite is the contract that lets any of them stand in for the
paper's circuit: over a randomized grid of ``(N, M, ν, n)`` instances,
every backend must report the same fidelity, the same output
distribution, and the same query ledger.
"""

import numpy as np
import pytest

from repro.core import (
    DEFAULT_BACKENDS,
    ClassDistributingOperator,
    ParallelSampler,
    SamplerBackend,
    SequentialSampler,
    backend_names,
    create_backend,
    execute_sampling,
    register_backend,
    resolve_backend,
    sample_parallel,
    sample_sequential,
)
from repro.core.backends import _REGISTRY
from repro.core.distributing import cached_u_blocks
from repro.database import DistributedDatabase, partition, zipf_dataset
from repro.errors import SimulationLimitError, ValidationError
from repro.qsim import ClassVector
from repro.qsim.classvector import StackedClassVector
from repro.utils.rng import as_generator


def random_instance(rng, universe, total, n_machines, nu_headroom=0):
    dataset = zipf_dataset(universe, total, exponent=1.1, rng=rng)
    db = partition(dataset, n_machines, strategy="round_robin", rng=rng)
    if nu_headroom:
        db = db.with_nu(db.nu + nu_headroom)
    return db


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert backend_names("sequential") == ("classes", "oracles", "subspace")
        assert backend_names("parallel") == ("classes", "dense", "synced")
        assert set(backend_names()) == {"classes", "dense", "oracles", "subspace", "synced"}

    def test_defaults_are_registered(self):
        for model, name in DEFAULT_BACKENDS.items():
            assert name in backend_names(model)

    def test_resolve_unknown_name(self):
        with pytest.raises(ValidationError, match="choose from"):
            resolve_backend("gpu", "sequential")

    def test_resolve_wrong_model(self):
        # "dense" exists, but only for the parallel model.
        with pytest.raises(ValidationError):
            resolve_backend("dense", "sequential")
        with pytest.raises(ValidationError):
            resolve_backend("oracles", "parallel")

    def test_resolve_unknown_model(self):
        with pytest.raises(ValidationError, match="unknown model"):
            resolve_backend("oracles", "streaming")

    def test_create_backend_rejects_model_mismatch_at_init(self, small_db):
        cls = resolve_backend("oracles", "sequential")
        with pytest.raises(ValidationError):
            cls(small_db, "parallel")

    def test_third_party_registration(self, small_db):
        @register_backend
        class EchoBackend(SamplerBackend):
            name = "echo-test"
            models = ("sequential",)

            def initial_state(self):  # pragma: no cover - never run
                raise NotImplementedError

            def d_applier(self, ledger):  # pragma: no cover - never run
                raise NotImplementedError

        try:
            assert "echo-test" in backend_names("sequential")
            assert isinstance(
                create_backend("echo-test", small_db, "sequential"), EchoBackend
            )
            # The samplers resolve purely by name, so construction works too.
            SequentialSampler(small_db, backend="echo-test")
        finally:
            _REGISTRY.pop("echo-test")

    def test_registration_validates_models(self):
        with pytest.raises(ValidationError):

            @register_backend
            class BadBackend(SamplerBackend):
                name = "bad-test"
                models = ("quantum-postal",)

                def initial_state(self):  # pragma: no cover
                    raise NotImplementedError

                def d_applier(self, ledger):  # pragma: no cover
                    raise NotImplementedError


class TestSequentialEquivalence:
    """classes vs subspace vs oracles on a randomized (N, M, ν, n) grid."""

    GRID = [
        # (universe, total, n_machines, nu_headroom)
        (8, 12, 1, 0),
        (12, 10, 2, 1),
        (16, 24, 3, 0),
        (24, 9, 2, 2),
        (32, 40, 4, 0),
    ]

    @pytest.mark.parametrize("universe,total,n_machines,headroom", GRID)
    def test_fidelity_distribution_and_ledger_agree(
        self, universe, total, n_machines, headroom
    ):
        rng = as_generator(1000 + universe + total)
        db = random_instance(rng, universe, total, n_machines, headroom)
        results = {
            b: sample_sequential(db, backend=b)
            for b in ("oracles", "subspace", "classes")
        }
        reference = results["oracles"]
        assert reference.exact
        for name, result in results.items():
            assert result.fidelity == pytest.approx(1.0, abs=1e-9), name
            np.testing.assert_allclose(
                result.output_probabilities,
                reference.output_probabilities,
                atol=1e-9,
                err_msg=name,
            )
            assert result.ledger.per_machine() == reference.ledger.per_machine(), name
            assert result.sequential_queries == reference.sequential_queries, name
            assert result.parallel_rounds == 0, name

    def test_classes_final_amplitudes_match_subspace(self, small_db):
        r_subspace = sample_sequential(small_db, backend="subspace")
        r_classes = sample_sequential(small_db, backend="classes")
        np.testing.assert_allclose(
            r_classes.final_state.to_statevector().as_array(),
            r_subspace.final_state.as_array(),
            atol=1e-10,
        )

    def test_classes_capacity_aware_schedule(self):
        # One empty machine (κ = 0): the capacity-aware path skips it.
        db = DistributedDatabase.from_count_matrix(
            np.array([[2, 1, 0, 0], [0, 0, 0, 0]]), nu=3
        )
        full = SequentialSampler(db, backend="classes").run()
        skipping = SequentialSampler(
            db, backend="classes", skip_zero_capacity=True
        ).run()
        assert skipping.exact
        assert skipping.ledger.machine_queries(1) == 0
        assert skipping.sequential_queries < full.sequential_queries


class TestParallelEquivalence:
    """classes vs synced (and dense on tiny instances)."""

    GRID = [
        (8, 12, 2, 0),
        (12, 10, 3, 1),
        (16, 24, 2, 0),
        (24, 16, 4, 0),
    ]

    @pytest.mark.parametrize("universe,total,n_machines,headroom", GRID)
    def test_classes_matches_synced(self, universe, total, n_machines, headroom):
        rng = as_generator(2000 + universe + total)
        db = random_instance(rng, universe, total, n_machines, headroom)
        r_synced = sample_parallel(db, backend="synced")
        r_classes = sample_parallel(db, backend="classes")
        assert r_classes.fidelity == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(
            r_classes.output_probabilities, r_synced.output_probabilities, atol=1e-9
        )
        assert r_classes.parallel_rounds == r_synced.parallel_rounds
        assert r_classes.ledger.per_machine() == r_synced.ledger.per_machine()

    def test_classes_matches_dense_on_tiny(self, tiny_db):
        r_dense = sample_parallel(tiny_db, backend="dense")
        r_classes = sample_parallel(tiny_db, backend="classes")
        np.testing.assert_allclose(
            r_classes.output_probabilities, r_dense.output_probabilities, atol=1e-10
        )
        assert r_classes.parallel_rounds == r_dense.parallel_rounds


class TestMillionElementScale:
    """The ISSUE acceptance instance: N = 10⁶, M = 10³, ν = 8.

    Dense layouts need dimension N·(ν+1)·2 = 1.8·10⁷ > 2²⁴ and refuse;
    the classes backend completes with fidelity 1 and honest ledgers.
    """

    @pytest.fixture(scope="class")
    def big_db(self):
        n_machines, universe = 2, 10**6
        counts = np.zeros((n_machines, universe), dtype=np.int64)
        counts[0, :125] = 4
        counts[1, :125] = 4  # joint count 8 on 125 keys → M = 1000
        return DistributedDatabase.from_count_matrix(counts, nu=8)

    def test_dense_paths_refuse(self, big_db):
        with pytest.raises(SimulationLimitError):
            SequentialSampler(big_db, backend="oracles").run()
        with pytest.raises(SimulationLimitError):
            ParallelSampler(big_db, backend="synced").run()

    def test_sequential_classes_completes_exactly(self, big_db):
        sampler = SequentialSampler(big_db, backend="classes")
        result = sampler.run()
        assert result.exact
        # Honest Theorem 4.3 bill: 2n per D application.
        assert result.sequential_queries == sampler.predicted_queries()
        assert (
            result.sequential_queries
            == 2 * big_db.n_machines * result.plan.d_applications
        )
        probs = result.output_probabilities
        assert probs.shape == (10**6,)
        assert probs[:125].sum() == pytest.approx(1.0, abs=1e-9)

    def test_parallel_classes_completes_exactly(self, big_db):
        sampler = ParallelSampler(big_db, backend="classes")
        result = sampler.run()
        assert result.exact
        # Honest Theorem 4.5 bill: 4 rounds per D application.
        assert result.parallel_rounds == sampler.predicted_rounds()
        assert result.parallel_rounds == 4 * result.plan.d_applications

    def test_state_memory_is_nu_not_n(self, big_db):
        state = SequentialSampler(big_db, backend="classes").initial_state()
        assert state.batch_size == 1
        assert state.values().size == (big_db.nu + 1) * 2


class TestOneClassKernel:
    """Per-instance ``classes`` runs on the stacked engine's kernel."""

    def _run(self, db, backend, model="sequential"):
        sampler = (SequentialSampler if model == "sequential" else ParallelSampler)(
            db, backend=backend
        )
        states = []
        result = execute_sampling(
            db, model, backend, sampler.plan(), sampler.schedule(),
            on_step=lambda _label, state: states.append(state),
        )
        return result, states

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_steps_see_a_one_instance_stack_and_the_result_its_extract(
        self, small_db, model
    ):
        result, states = self._run(small_db, "classes", model)
        assert all(
            isinstance(s, StackedClassVector) and s.batch_size == 1 for s in states
        )
        assert isinstance(result.final_state, ClassVector)
        assert (result.final_state.class_amplitudes() == states[-1].values()).all()
        assert (
            result.output_probabilities == states[-1].output_probabilities(0)
        ).all()

    def test_dense_backends_store_the_run_state(self, small_db):
        result, states = self._run(small_db, "subspace")
        assert result.final_state is states[-1]

    def test_per_instance_d_applies_the_cached_blocks(self, small_db):
        forward, adjoint = cached_u_blocks(small_db.nu)
        state = StackedClassVector.uniform([small_db.joint_counts], [small_db.nu + 1])
        expected = StackedClassVector.uniform(
            [small_db.joint_counts], [small_db.nu + 1]
        )
        ClassDistributingOperator(small_db).apply(state, adjoint=True)
        expected.apply_class_flag_unitary(adjoint)
        assert (state.values() == expected.values()).all()
        assert cached_u_blocks(small_db.nu)[0] is forward


class TestCertification:
    def test_classes_run_passes_full_certificate(self, small_db):
        from repro.analysis import certify_run

        result = sample_sequential(small_db, backend="classes")
        certificate = certify_run(result, small_db, rng=0)
        assert certificate.valid, certificate.render()

    def test_classes_parallel_run_passes_full_certificate(self, small_db):
        from repro.analysis import certify_run

        result = sample_parallel(small_db, backend="classes")
        certificate = certify_run(result, small_db, rng=0)
        assert certificate.valid, certificate.render()
