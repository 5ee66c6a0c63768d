"""The quantum sampling target state |ψ⟩ of Eq. (4)."""

from __future__ import annotations

import numpy as np

from ..database.distributed import DistributedDatabase
from ..errors import EmptyDatabaseError
from ..qsim.register import RegisterLayout
from ..qsim.state import StateVector


def target_amplitudes(db: DistributedDatabase) -> np.ndarray:
    """``(√(c_i/M))_i`` — the amplitudes of Eq. (4) over the universe."""
    counts = db.joint_counts.astype(np.float64)
    total = counts.sum()
    if total <= 0:
        raise EmptyDatabaseError("the joint database is empty; |ψ⟩ is undefined")
    return np.sqrt(counts / total).astype(np.complex128)


def target_state(db: DistributedDatabase) -> StateVector:
    """``|ψ⟩`` as a single-register state on layout ``(i: N)``."""
    layout = RegisterLayout.of(i=db.universe)
    return StateVector.from_array(layout, target_amplitudes(db))


def target_on_layout(
    db: DistributedDatabase, layout: RegisterLayout, element_reg: str = "i"
) -> StateVector:
    """``|ψ⟩ ⊗ |0…0⟩`` embedded in a larger register layout.

    The sampler's final state is the target on the element register with
    every workspace register returned to ``|0⟩``; this helper builds that
    reference state for fidelity checks.
    """
    amps = np.zeros(layout.shape, dtype=np.complex128)
    axis = layout.axis(element_reg)
    slicer: list[object] = [0] * len(layout)
    slicer[axis] = slice(None)
    amps[tuple(slicer)] = target_amplitudes(db)
    return StateVector.from_array(layout, amps)


def fidelity_with_target(
    db: DistributedDatabase, state: StateVector, element_reg: str = "i"
) -> float:
    """``|⟨ψ, 0…0 | state⟩|²`` — global-phase-invariant success measure."""
    reference = target_on_layout(db, state.layout, element_reg)
    return float(abs(reference.overlap(state)) ** 2)

