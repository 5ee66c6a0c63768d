"""StackedClassVector: every batched kernel must equal its one-instance stacks.

The CSR plane gives each instance a segment of exactly its own width, so
every kernel matches a ``B = 1`` stack of the same instance — the state
the per-instance ``classes`` backend runs on — with ``==``: rows do not
depend on the batch an instance ran in.
"""

import numpy as np
import pytest

from repro.batch import StackedClassVector
from repro.batch.backends import StackedClassBackend
from repro.config import strict_mode
from repro.core import create_backend, u_rotation_blocks
from repro.errors import NotUnitaryError, ValidationError
from repro.qsim import ClassVector


@pytest.fixture
def maps():
    """Three heterogeneous instances: mixed N and mixed class counts."""
    return [
        np.array([0, 0, 1, 2, 2, 2], dtype=np.int64),        # N=6, 3 classes
        np.array([1, 1, 0, 3], dtype=np.int64),               # N=4, 4 classes
        np.array([0, 2, 2, 1, 0, 1, 2, 0], dtype=np.int64),   # N=8, 3 classes
    ]


@pytest.fixture
def n_classes():
    return [3, 4, 3]


@pytest.fixture
def stacked(maps, n_classes):
    return StackedClassVector.uniform(maps, n_classes)


@pytest.fixture
def singles(maps, n_classes):
    """Each instance as its own ``B = 1`` stack."""
    return [StackedClassVector.uniform([ec], [c]) for ec, c in zip(maps, n_classes)]


def concatenated_blocks(mats_per_instance):
    return np.concatenate(mats_per_instance, axis=0)


def assert_matches_singles(stacked, singles):
    for b, single in enumerate(singles):
        extracted, alone = stacked.extract(b), single.extract(0)
        np.testing.assert_array_equal(
            extracted.class_amplitudes(), alone.class_amplitudes()
        )
        np.testing.assert_array_equal(extracted.class_sizes, alone.class_sizes)
        np.testing.assert_array_equal(
            stacked.output_probabilities(b), single.output_probabilities(0)
        )


class TestConstruction:
    def test_uniform_is_normalized_per_instance(self, stacked):
        np.testing.assert_allclose(stacked.norms(), np.ones(3), atol=1e-12)

    def test_segments_have_each_instance_width(self, stacked):
        assert stacked.batch_size == 3
        assert stacked.offsets.tolist() == [0, 3, 7, 10]
        assert stacked.values().shape == (10, 2)

    def test_uniform_matches_per_instance(self, stacked, singles):
        assert_matches_singles(stacked, singles)

    def test_stack_roundtrips_existing_states(self, singles):
        restacked = StackedClassVector.stack([single.extract(0) for single in singles])
        assert_matches_singles(restacked, singles)

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValidationError):
            StackedClassVector.uniform([np.array([0, 5])], [4])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            StackedClassVector.uniform([], [])

    def test_mismatched_lengths_rejected(self, maps):
        with pytest.raises(ValidationError):
            StackedClassVector.uniform(maps, [3, 4])

    def test_memory_independent_of_universe(self):
        big = StackedClassVector.uniform(
            [np.zeros(10**5, dtype=np.int64), np.zeros(10**4, dtype=np.int64)], [4, 4]
        )
        assert big.values().size == 2 * 4 * 2  # Σ(ν_b+1) × 2 cells only


class TestKernelsAgainstSingles:
    def test_class_flag_unitary(self, stacked, singles, n_classes):
        mats = [u_rotation_blocks(c - 1) for c in n_classes]
        stacked.apply_class_flag_unitary(concatenated_blocks(mats))
        for single, m in zip(singles, mats):
            single.apply_class_flag_unitary(m)
        assert_matches_singles(stacked, singles)

    def test_phase_slice_scalar(self, stacked, singles):
        phase = np.exp(0.7j)
        stacked.apply_phase_slice("w", 0, phase)
        for single in singles:
            single.apply_phase_slice("w", 0, phase)
        assert_matches_singles(stacked, singles)

    def test_phase_slice_per_instance(self, stacked, singles):
        phases = np.exp(1j * np.array([0.3, -1.2, 2.5]))
        stacked.apply_phase_slice("w", 1, phases)
        for single, p in zip(singles, phases):
            single.apply_phase_slice("w", 1, complex(p))
        assert_matches_singles(stacked, singles)

    def test_pi_projector_phase(self, stacked, singles, n_classes):
        # A non-uniform state first, so the projector has real work to do.
        mats = [u_rotation_blocks(c - 1) for c in n_classes]
        stacked.apply_class_flag_unitary(concatenated_blocks(mats))
        for single, m in zip(singles, mats):
            single.apply_class_flag_unitary(m)
        phases = np.exp(1j * np.array([np.pi, 0.4, -0.9]))
        stacked.apply_pi_projector_phase(phases)
        for single, p in zip(singles, phases):
            single.apply_pi_projector_phase(complex(p))
        assert_matches_singles(stacked, singles)

    def test_global_phase(self, stacked, singles):
        stacked.apply_global_phase(-1.0)
        for single in singles:
            single.apply_global_phase(-1.0)
        assert_matches_singles(stacked, singles)

    def test_fidelities_match_single_form(self, stacked, singles, maps, n_classes):
        from repro.database import DistributedDatabase

        mats = [u_rotation_blocks(c - 1) for c in n_classes]
        stacked.apply_class_flag_unitary(concatenated_blocks(mats))
        totals = [int(ec.sum()) for ec in maps]  # class == joint count here
        fids = stacked.fidelities_with_targets(totals)
        for b, single in enumerate(singles):
            single.apply_class_flag_unitary(mats[b])
            db = DistributedDatabase.from_count_matrix(
                maps[b][None, :], nu=n_classes[b] - 1
            )
            backend = create_backend("classes", db, "sequential")
            assert fids[b] == backend.fidelity(single)

    def test_output_probabilities_all_matches_each_row(
        self, stacked, singles, n_classes
    ):
        mats = [u_rotation_blocks(c - 1) for c in n_classes]
        stacked.apply_class_flag_unitary(concatenated_blocks(mats))
        rows = stacked.output_probabilities_all()
        assert len(rows) == stacked.batch_size
        for b, single in enumerate(singles):
            single.apply_class_flag_unitary(mats[b])
            assert (rows[b] == stacked.output_probabilities(b)).all()
            assert (rows[b] == single.output_probabilities(0)).all()

    def test_kernels_after_transfer_element(self, maps, n_classes):
        # The live-serving path: a ClassVector view takes O(1) transfers,
        # then each snapshot is stacked, alone or beside its siblings.
        views = [ClassVector.uniform(ec, c) for ec, c in zip(maps, n_classes)]
        for b, element, new_class in ((0, 1, 2), (2, 4, 0), (1, 3, 1)):
            views[b].transfer_element(element, new_class)
        stacked = StackedClassVector.stack(views)
        singles = [StackedClassVector.stack([view]) for view in views]
        mats = [u_rotation_blocks(c - 1) for c in n_classes]
        phases = np.exp(1j * np.array([0.9, -0.2, 1.7]))
        stacked.apply_class_flag_unitary(concatenated_blocks(mats))
        stacked.apply_pi_projector_phase(phases)
        stacked.apply_phase_slice("w", 1, phases)
        for single, m, p in zip(singles, mats, phases):
            single.apply_class_flag_unitary(m)
            single.apply_pi_projector_phase(complex(p))
            single.apply_phase_slice("w", 1, complex(p))
        assert_matches_singles(stacked, singles)

    def test_equal_widths_match_singles(self):
        # Every segment the same width: the reductions reshape the plane
        # to (B, w) instead of gathering per width.
        maps = [
            np.array([0, 1, 2, 2], dtype=np.int64),
            np.array([2, 2, 0], dtype=np.int64),
            np.array([1, 0, 1, 1, 2], dtype=np.int64),
        ]
        stacked = StackedClassVector.uniform(maps, [3, 3, 3])
        singles = [StackedClassVector.uniform([ec], [3]) for ec in maps]
        mats = u_rotation_blocks(2)
        phases = np.exp(1j * np.array([np.pi, 0.4, -0.9]))
        stacked.apply_class_flag_unitary(concatenated_blocks([mats] * 3))
        stacked.apply_pi_projector_phase(phases)
        for single, p in zip(singles, phases):
            single.apply_class_flag_unitary(mats)
            single.apply_pi_projector_phase(complex(p))
        assert_matches_singles(stacked, singles)
        np.testing.assert_array_equal(
            stacked.norms(), [single.norms()[0] for single in singles]
        )


class TestValidation:
    def test_bad_mats_shape_rejected(self, stacked):
        with pytest.raises(ValidationError):
            stacked.apply_class_flag_unitary(np.zeros((3, 2, 2, 2)))

    def test_non_unit_phase_rejected(self, stacked):
        with pytest.raises(NotUnitaryError):
            stacked.apply_global_phase(0.5)

    def test_non_unit_phase_array_rejected(self, stacked):
        with pytest.raises(NotUnitaryError):
            stacked.apply_phase_slice("w", 0, np.array([1.0, 1.0, 0.5]))

    def test_wrong_phase_array_shape_rejected(self, stacked):
        with pytest.raises(ValidationError):
            stacked.apply_phase_slice("w", 0, np.exp(1j * np.ones(5)))

    def test_element_register_phase_rejected(self, stacked):
        with pytest.raises(ValidationError, match="'i'"):
            stacked.apply_phase_slice("i", 0, 1.0)

    def test_bad_flag_value_rejected(self, stacked):
        with pytest.raises(ValidationError):
            stacked.apply_phase_slice("w", 2, 1.0)

    def test_fidelity_needs_one_total_per_instance(self, stacked):
        with pytest.raises(ValidationError):
            stacked.fidelities_with_targets([5, 5])

    def test_strict_checks_catch_norm_drift(self, stacked):
        cells = stacked.values().shape[0]
        bad = np.tile(0.5 * np.eye(2, dtype=np.complex128), (cells, 1, 1))
        with strict_mode():
            with pytest.raises(NotUnitaryError):
                stacked.apply_class_flag_unitary(bad)

    def test_out_of_range_class_names_the_instance(self):
        with pytest.raises(ValidationError, match="instance 1"):
            StackedClassVector(
                [np.zeros(3, dtype=np.int64), np.array([0, 2], dtype=np.int64)],
                [1, 2],
            )

    def test_negative_class_rejected(self):
        with pytest.raises(ValidationError, match="instance 0"):
            StackedClassVector.uniform([np.array([0, -1], dtype=np.int64)], [2])

    def test_empty_instance_rejected(self):
        with pytest.raises(ValidationError, match="instance 1: need at least one"):
            StackedClassVector.uniform(
                [np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64)], [1, 1]
            )

    def test_zero_class_count_rejected(self):
        with pytest.raises(ValidationError, match="at least one class"):
            StackedClassVector.uniform([np.zeros(2, dtype=np.int64)], [0])

    def test_class_map_must_be_one_dimensional(self):
        with pytest.raises(ValidationError, match="1-D"):
            StackedClassVector.uniform([np.zeros((2, 2), dtype=np.int64)], [1])

    def test_wrong_values_shape_rejected(self):
        with pytest.raises(ValidationError, match="values"):
            StackedClassVector(
                [np.zeros(3, dtype=np.int64)], [2],
                values=np.zeros((3, 2), dtype=np.complex128),
            )

    def test_rotation_blocks_are_unpadded_and_read_only(self):
        from repro.core.distributing import cached_u_blocks

        forward, adjoint = cached_u_blocks(5)
        assert forward.shape == adjoint.shape == (6, 2, 2)
        np.testing.assert_array_equal(forward, u_rotation_blocks(5))
        np.testing.assert_array_equal(adjoint, forward.conj().transpose(0, 2, 1))
        assert not forward.flags.writeable and not adjoint.flags.writeable

    def test_registered_for_both_models_without_mixed_schedules(self):
        assert StackedClassBackend.name == "classes"
        assert not StackedClassBackend.supports_mixed_schedules
        assert set(StackedClassBackend.models) == {"sequential", "parallel"}
