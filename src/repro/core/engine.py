"""Shared amplitude-amplification execution engine.

Both samplers run the identical Theorem 4.3/4.5 skeleton —

    ``F`` → ``D`` → [``Q(π,π)``]×m → optionally ``Q(φ,ϕ)``

— differing only in how ``D`` touches the machines.  The engine takes the
``D`` applier as a callable and drives the state through the substrate-
agnostic operation surface (``apply_phase_slice``,
``apply_pi_projector_phase``, ``apply_global_phase``), so the
sequential-oracle, subspace, synced-parallel, dense-parallel and
count-class backends all execute literally the same control flow (which
is also what makes the cross-backend equivalence tests meaningful).
"""

from __future__ import annotations

from typing import Callable, Protocol

import numpy as np

from .exact_aa import AmplificationPlan


class AmplifiableState(Protocol):
    """The operation surface the engine needs from a state substrate.

    Satisfied by the dense :class:`~repro.qsim.state.StateVector` and the
    count-class :class:`~repro.qsim.classvector.StackedClassVector` alike
    (the per-instance ``classes`` backend runs a ``B = 1`` stack, whose
    scalar phases apply to its one instance).
    """

    def apply_phase_slice(self, reg: str, value: int, phase: complex):  # pragma: no cover
        ...

    def apply_pi_projector_phase(
        self, phase: complex, element_reg: str = "i", flag_reg: str = "w"
    ):  # pragma: no cover
        ...

    def apply_global_phase(self, phase: complex):  # pragma: no cover
        ...


DApplier = Callable[[AmplifiableState, bool], AmplifiableState]


class SupportsApply(Protocol):
    """Anything with the distributing-operator ``apply`` shape."""

    def apply(self, state: AmplifiableState, adjoint: bool = False) -> AmplifiableState:  # pragma: no cover
        ...


def apply_s_chi(state: AmplifiableState, varphi: float, flag_reg: str = "w") -> AmplifiableState:
    """``S_χ(φ)``: phase ``e^{iφ}`` on the ``flag = 0`` slice."""
    return state.apply_phase_slice(flag_reg, 0, np.exp(1j * varphi))


def apply_s_pi(
    state: AmplifiableState, phi: float, element_reg: str = "i", flag_reg: str = "w"
) -> AmplifiableState:
    """``S_π(ϕ)``: phase ``e^{iϕ}`` on the ``F|0⟩ ⊗ |0⟩`` component.

    Implemented as the rank-one projector phase
    ``I + (e^{iϕ} − 1)|π⟩⟨π| ⊗ |0⟩⟨0|_w`` — exactly the operator defined
    below Eq. (7) (the ``F`` basis only enters through ``F|0⟩ = |π⟩``) —
    via each substrate's ``apply_pi_projector_phase`` kernel (rank-one
    dense update for :class:`StateVector`, ``O(ν)`` closed form for
    :class:`StackedClassVector`).
    """
    return state.apply_pi_projector_phase(np.exp(1j * phi), element_reg, flag_reg)


def apply_q(
    state: AmplifiableState,
    d_apply: DApplier,
    varphi: float,
    phi: float,
    element_reg: str = "i",
    flag_reg: str = "w",
) -> AmplifiableState:
    """One generalized iterate ``Q(φ, ϕ) = −D S_π(ϕ) D† S_χ(φ)``.

    The global ``−1`` is applied explicitly so the simulated amplitudes
    match the 2×2 subspace algebra exactly (tests compare them).
    """
    apply_s_chi(state, varphi, flag_reg)
    d_apply(state, True)
    apply_s_pi(state, phi, element_reg, flag_reg)
    d_apply(state, False)
    state.apply_global_phase(-1.0)
    return state


def run_amplification(
    state: AmplifiableState,
    plan: AmplificationPlan,
    d_apply: DApplier,
    element_reg: str = "i",
    flag_reg: str = "w",
    on_step: Callable[[str, AmplifiableState], None] | None = None,
) -> AmplifiableState:
    """Execute the full zero-error schedule on ``state``.

    ``state`` must already hold ``|π⟩`` on the element register and
    ``|0⟩`` elsewhere.  ``on_step`` (if given) is called with a label
    after every macro-step — the lower-bound instrumentation hooks in
    here to snapshot intermediate states.
    """
    d_apply(state, False)
    if on_step is not None:
        on_step("D", state)
    for rep in range(plan.grover_reps):
        apply_q(state, d_apply, np.pi, np.pi, element_reg, flag_reg)
        if on_step is not None:
            on_step(f"Q[{rep}]", state)
    if plan.needs_final:
        assert plan.final_varphi is not None and plan.final_phi is not None
        apply_q(state, d_apply, plan.final_varphi, plan.final_phi, element_reg, flag_reg)
        if on_step is not None:
            on_step("Q[final]", state)
    return state
