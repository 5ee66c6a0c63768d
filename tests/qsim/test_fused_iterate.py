"""The fused iterate against the five kernels it replaces.

``StackedClassVector.apply_q`` applies ``S_χ``, ``D†``, ``S_π``, ``D``
and ``−1`` in one call on real planes of the Eq. (6) blocks.  Every
product and sum is the IEEE operation the five-kernel sequence performs,
so the values plane must come out ``==`` (the sign of zero aside, which
``==`` ignores) on any stack: B = 1…8, mixed ν, scalar and per-instance
final phases, with and without ``strict_checks``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import strict_mode
from repro.core.distributing import cached_u_blocks, cached_u_rotation
from repro.errors import NotUnitaryError, ValidationError
from repro.qsim.classvector import FlagRotation, StackedClassVector
from repro.utils.rng import as_generator


def stack_of(nus, seed):
    """A random stack after ``F`` and the initial ``D``."""
    rng = as_generator(seed)
    maps = [rng.integers(0, nu + 1, size=int(rng.integers(1, 40))) for nu in nus]
    state = StackedClassVector.uniform(maps, [nu + 1 for nu in nus])
    state.apply_class_flag_unitary(np.concatenate([cached_u_blocks(nu)[0] for nu in nus]))
    return state


def five_kernels(state, nus, varphi, phi):
    """``Q(φ, ϕ) = −D S_π(ϕ) D† S_χ(φ)`` as the five primitive kernels."""
    forward = np.concatenate([cached_u_blocks(nu)[0] for nu in nus])
    adjoint = np.concatenate([cached_u_blocks(nu)[1] for nu in nus])
    state.apply_phase_slice("w", 0, varphi)
    state.apply_class_flag_unitary(adjoint)
    state.apply_pi_projector_phase(phi)
    state.apply_class_flag_unitary(forward)
    state.apply_global_phase(-1.0)
    return state


def rotation_for(nus):
    return FlagRotation.concatenate([cached_u_rotation(nu) for nu in nus])


def copy_of(state):
    return StackedClassVector.from_parts(
        [state.extract(b).element_classes for b in range(state.batch_size)],
        state.offsets,
        state.class_sizes,
        state.values(),
    )


@st.composite
def stacks(draw):
    nus = draw(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    per_instance = draw(st.booleans())
    strict = draw(st.booleans())
    return nus, seed, per_instance, strict


class TestFusedEqualsFiveKernels:
    @given(stacks())
    @settings(max_examples=60, deadline=None)
    def test_values_plane_is_equal(self, case):
        nus, seed, per_instance, strict = case
        rng = as_generator(seed + 1)
        if per_instance:
            varphi = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(nus)))
            phi = np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(nus)))
        else:
            varphi = phi = np.exp(1j * np.pi)
        fused = stack_of(nus, seed)
        reference = copy_of(fused)
        with strict_mode(strict):
            for _ in range(3):
                fused.apply_q(rotation_for(nus), varphi, phi)
                five_kernels(reference, nus, varphi, phi)
        assert (fused.values() == reference.values()).all()

    def test_single_nu_rotation_is_the_cached_planes(self):
        state = stack_of([12], 3)
        reference = copy_of(state)
        state.apply_q(cached_u_rotation(12), -1.0, np.exp(0.3j))
        five_kernels(reference, [12], -1.0, np.exp(0.3j))
        assert (state.values() == reference.values()).all()

    def test_planes_are_the_block_entries(self):
        forward, adjoint = cached_u_blocks(9)
        rotation = cached_u_rotation(9)
        assert (rotation.cos[::2] == forward[:, 0, 0].real).all()
        assert (rotation.sin[0, ::2] == forward[:, 1, 0].real).all()
        assert (rotation.sin[1, ::2] == adjoint[:, 1, 0].real).all()
        assert not rotation.cos.flags.writeable


class TestGuards:
    def test_strict_mode_catches_a_corrupted_plane(self):
        state = stack_of([7, 3], 5)
        good = rotation_for([7, 3])
        corrupted = FlagRotation(good.cos * 1.01, good.neg_cos, good.sin)
        with strict_mode(True), pytest.raises(NotUnitaryError):
            state.apply_q(corrupted, -1.0, -1.0)

    def test_bad_phase_raises_before_any_write(self):
        state = stack_of([5], 2)
        before = state.values().copy()
        with pytest.raises(NotUnitaryError):
            state.apply_q(cached_u_rotation(5), 2.0, -1.0)
        with pytest.raises(NotUnitaryError):
            state.apply_q(cached_u_rotation(5), -1.0, 2.0)
        assert (state.values() == before).all()

    def test_rotation_must_cover_every_cell(self):
        state = stack_of([5, 6], 2)
        with pytest.raises(ValidationError):
            state.apply_q(cached_u_rotation(5), -1.0, -1.0)
