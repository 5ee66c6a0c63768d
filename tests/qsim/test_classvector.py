"""The O(ν)-memory count-class states (``classes`` substrate).

The kernels run on a ``B = 1`` :class:`StackedClassVector` — the state
the per-instance ``classes`` backend runs on — and are checked against
the dense kernels; :class:`ClassVector` is the container and live view
a stack extracts to.
"""

import numpy as np
import pytest

from repro.config import strict_mode
from repro.core import u_rotation_blocks
from repro.errors import NotUnitaryError, ValidationError
from repro.qsim import ClassVector, StateVector
from repro.qsim.classvector import StackedClassVector


@pytest.fixture
def classes():
    """8 elements in classes (counts) 0..3: sizes N_c = (3, 2, 2, 1)."""
    return np.array([0, 0, 0, 1, 1, 2, 2, 3], dtype=np.int64)


@pytest.fixture
def state(classes):
    return ClassVector.uniform(classes, 4)


@pytest.fixture
def stacked(classes):
    """The same instance as a one-instance stack (the kernel's state)."""
    return StackedClassVector.uniform([classes], [4])


class TestConstruction:
    def test_uniform_is_normalized(self, state):
        assert state.norm() == pytest.approx(1.0)

    def test_uniform_matches_dense_pi(self, state):
        dense = state.to_statevector()
        expected = np.zeros((8, 2), dtype=np.complex128)
        expected[:, 0] = 1.0 / np.sqrt(8)
        np.testing.assert_allclose(dense.as_array(), expected)

    def test_class_sizes(self, state):
        np.testing.assert_array_equal(state.class_sizes, [3, 2, 2, 1])

    def test_logical_layout(self, state):
        assert state.layout.shape == (8, 2)
        assert state.dimension == 16

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValidationError):
            ClassVector(np.array([0, 5]), n_classes=4)

    def test_negative_class_rejected(self):
        with pytest.raises(ValidationError, match="must lie in"):
            ClassVector(np.array([0, -1]), n_classes=4)

    def test_bad_amp_shape_rejected(self, classes):
        with pytest.raises(ValidationError):
            ClassVector(classes, 4, amps=np.zeros((4, 3)))

    def test_memory_independent_of_universe(self):
        big = ClassVector.uniform(np.zeros(10**5, dtype=np.int64), 4)
        assert big.class_amplitudes().size == 8  # (ν+1) × 2 cells only


class TestKernelsAgainstDense:
    """Every class-space kernel must equal the dense kernel elementwise."""

    def _dense_twin(self, stacked):
        return stacked.extract(0).to_statevector()

    def _expanded(self, stacked):
        return stacked.extract(0).to_statevector().as_array()

    def test_class_flag_unitary_is_dense_controlled_rotation(self, stacked, classes):
        blocks = u_rotation_blocks(3)
        dense = self._dense_twin(stacked)
        # Dense equivalent: per-element blocks selected by the class map.
        dense.apply_controlled_qubit_unitary("i", "w", blocks[classes])
        stacked.apply_class_flag_unitary(blocks)
        np.testing.assert_allclose(self._expanded(stacked), dense.as_array(), atol=1e-12)

    def test_phase_slice_matches_dense(self, stacked):
        dense = self._dense_twin(stacked)
        phase = np.exp(0.7j)
        dense.apply_phase_slice("w", 0, phase)
        stacked.apply_phase_slice("w", 0, phase)
        np.testing.assert_allclose(self._expanded(stacked), dense.as_array(), atol=1e-12)

    def test_pi_projector_phase_matches_dense(self, stacked):
        blocks = u_rotation_blocks(3)
        stacked.apply_class_flag_unitary(blocks)  # leave the uniform state first
        dense = self._dense_twin(stacked)
        phase = np.exp(1.1j)
        dense.apply_pi_projector_phase(phase)
        stacked.apply_pi_projector_phase(phase)
        np.testing.assert_allclose(self._expanded(stacked), dense.as_array(), atol=1e-12)

    def test_global_phase(self, stacked):
        stacked.apply_global_phase(-1.0)
        assert stacked.values()[0, 0] == pytest.approx(-1.0 / np.sqrt(8))

    def test_marginals_match_dense(self, stacked):
        stacked.apply_class_flag_unitary(u_rotation_blocks(3))
        state = stacked.extract(0)
        dense = state.to_statevector()
        for reg in ("i", "w"):
            np.testing.assert_allclose(
                state.marginal_probabilities(reg),
                dense.marginal_probabilities(reg),
                atol=1e-12,
            )

    def test_probability_of_matches_dense(self, stacked):
        stacked.apply_class_flag_unitary(u_rotation_blocks(3))
        state = stacked.extract(0)
        dense = state.to_statevector()
        for assignment in ({"w": 0}, {"w": 1}, {"i": 5}, {"i": 7, "w": 1}):
            assert state.probability_of(assignment) == pytest.approx(
                dense.probability_of(assignment), abs=1e-12
            )


class TestUnitarityAndGuards:
    def test_rotation_preserves_norm(self, stacked):
        stacked.apply_class_flag_unitary(u_rotation_blocks(3))
        assert stacked.norms()[0] == pytest.approx(1.0)
        assert stacked.extract(0).norm() == pytest.approx(1.0)

    def test_strict_mode_traps_norm_drift(self, stacked):
        bad = np.tile(np.eye(2, dtype=np.complex128) * 2.0, (4, 1, 1))
        with strict_mode():
            with pytest.raises(NotUnitaryError):
                stacked.apply_class_flag_unitary(bad)

    def test_nonunit_phase_rejected(self, stacked):
        with pytest.raises(NotUnitaryError):
            stacked.apply_global_phase(0.5)
        with pytest.raises(NotUnitaryError):
            stacked.apply_phase_slice("w", 0, 2.0)

    def test_element_phase_slice_rejected(self, stacked):
        with pytest.raises(ValidationError):
            stacked.apply_phase_slice("i", 3, -1.0)

    def test_extract_is_independent(self, stacked):
        extracted = stacked.extract(0)
        stacked.apply_global_phase(-1.0)
        assert stacked.values()[0, 0] != extracted.class_amplitudes()[0, 0]


class TestDenseExpansion:
    def test_to_statevector_roundtrip_norm(self, state):
        assert isinstance(state.to_statevector(), StateVector)
        assert state.to_statevector().norm() == pytest.approx(state.norm())


class TestTransferElement:
    """O(1) dynamic updates: one multiplicity move, no class-map rebuild."""

    def test_moves_multiplicity_between_classes(self, state):
        state.transfer_element(3, 2)  # element 3 was in class 1
        np.testing.assert_array_equal(state.class_sizes, [3, 1, 3, 1])
        assert state.element_classes[3] == 2

    def test_matches_full_rebuild(self, classes):
        state = ClassVector.uniform(classes, 4)
        state.transfer_element(0, 1).transfer_element(7, 2)
        rebuilt = ClassVector.uniform(state.element_classes, 4)
        np.testing.assert_array_equal(state.class_sizes, rebuilt.class_sizes)
        np.testing.assert_allclose(
            state.marginal_probabilities("i"), rebuilt.marginal_probabilities("i")
        )

    def test_noop_when_class_unchanged(self, state):
        before = state.class_sizes.copy()
        state.transfer_element(3, 1)
        np.testing.assert_array_equal(state.class_sizes, before)

    def test_stack_after_transfer_passes_strict_checks(self, stacked):
        stacked.apply_class_flag_unitary(u_rotation_blocks(3))  # class-dependent amps
        state = stacked.extract(0)
        state.transfer_element(0, 3)  # norm genuinely changes here
        restacked = StackedClassVector.stack([state])
        with strict_mode():
            restacked.apply_global_phase(-1.0)  # must not trip the drift check

    def test_out_of_range_element_rejected(self, state):
        with pytest.raises(ValidationError):
            state.transfer_element(8, 0)

    def test_out_of_range_class_rejected(self, state):
        with pytest.raises(ValidationError):
            state.transfer_element(0, 4)


class TestFromParts:
    def test_roundtrips_construction(self, state):
        rebuilt = ClassVector.from_parts(
            state.element_classes, state.class_sizes, state.class_amplitudes()
        )
        assert rebuilt.norm() == pytest.approx(state.norm())
        np.testing.assert_allclose(
            rebuilt.marginal_probabilities("i"), state.marginal_probabilities("i")
        )

    def test_shared_structure_copies_on_transfer(self, state):
        derived = ClassVector.from_parts(
            state.element_classes, state.class_sizes, state.class_amplitudes()
        )
        derived.transfer_element(0, 3)
        np.testing.assert_array_equal(state.class_sizes, [3, 2, 2, 1])

    def test_transfer_never_mutates_caller_array(self, classes):
        # Regression: __init__ stores the caller's int64 array without a
        # copy, so ownership must start False — a transfer on one state
        # must leave the caller's array and sibling states untouched.
        a = ClassVector.uniform(classes, 4)
        b = ClassVector.uniform(classes, 4)
        a.transfer_element(0, 2)
        assert classes[0] == 0
        assert b.element_classes[0] == 0
        np.testing.assert_array_equal(b.class_sizes, [3, 2, 2, 1])


class TestOneKernel:
    """The kernels live on the stack; ClassVector is container and view."""

    def test_class_vector_applies_no_operators(self):
        assert not [name for name in vars(ClassVector) if name.startswith("apply_")]
        assert "_expected_norm" not in ClassVector.__slots__

    def test_stack_has_one_home(self):
        import importlib

        import repro.batch
        import repro.core

        assert repro.batch.StackedClassVector is StackedClassVector
        assert not hasattr(repro.core, "fidelity_with_target_classes")
        with pytest.raises(ImportError):
            importlib.import_module("repro.batch.stacked")
