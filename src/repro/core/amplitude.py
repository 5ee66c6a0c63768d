"""Two-dimensional invariant-subspace algebra of amplitude amplification.

Amplitude amplification lives in the plane spanned by the "good" state
``|ψ, 0⟩`` and the "bad" state ``|ψ⊥, 1⟩`` (Eq. 7).  Everything the exact
algorithm needs — the generalized Grover iterate ``Q(φ, ϕ)``, its action
as a rotation, the Eq. (7) decomposition of ``D|π, 0⟩`` — reduces to 2×2
complex matrices here, which is also how the plan solver in
:mod:`repro.core.exact_aa` stays free of sign-convention bugs: it derives
its final angles on these matrices and checks the landing with them
instead of trusting a published closed form.

Basis convention: component 0 = good, component 1 = bad.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..database.distributed import DistributedDatabase
from ..errors import ValidationError
from ..utils.validation import require_in_range


def initial_vector(theta: float) -> np.ndarray:
    """``D|π,0⟩`` in the 2-D basis: ``(sin θ, cos θ)`` (Eq. 7)."""
    return np.array([np.sin(theta), np.cos(theta)], dtype=np.complex128)


def s_chi_matrix(varphi: float) -> np.ndarray:
    """``S_χ(φ)`` restricted to the plane: phase on the good (``b=0``) axis."""
    return np.diag([np.exp(1j * varphi), 1.0]).astype(np.complex128)


def reflection_about_initial(theta: float, phi: float) -> np.ndarray:
    """``D S_π(ϕ) D† = I + (e^{iϕ} − 1)|u⟩⟨u|`` with ``u = D|π,0⟩``."""
    u = initial_vector(theta)
    return np.eye(2, dtype=np.complex128) + (np.exp(1j * phi) - 1.0) * np.outer(
        u, u.conj()
    )


def q_matrix(theta: float, varphi: float, phi: float) -> np.ndarray:
    """The generalized iterate ``Q(φ, ϕ) = −D S_π(ϕ) D† S_χ(φ)``.

    With ``φ = ϕ = π`` this is the plain Grover iterate: a rotation by
    ``2θ`` toward the good axis (verified in tests against the explicit
    rotation matrix).
    """
    return -(reflection_about_initial(theta, phi) @ s_chi_matrix(varphi))


def grover_rotation_matrix(theta: float) -> np.ndarray:
    """The textbook form of ``Q(π, π)``: rotation by ``2θ`` in the plane.

    In the (good, bad) basis: ``[[cos2θ, sin2θ], [−sin2θ, cos2θ]]``.
    """
    c, s = np.cos(2 * theta), np.sin(2 * theta)
    return np.array([[c, s], [-s, c]], dtype=np.complex128)


def state_after_iterations(theta: float, reps: int) -> np.ndarray:
    """``Q(π,π)^reps · D|π,0⟩`` — analytically ``(sin((2r+1)θ), cos((2r+1)θ))``."""
    if reps < 0:
        raise ValidationError(f"reps must be nonnegative, got {reps}")
    angle = (2 * reps + 1) * theta
    return np.array([np.sin(angle), np.cos(angle)], dtype=np.complex128)


@dataclass(frozen=True)
class InitialDecomposition:
    """The Eq. (7) decomposition of ``D|π, 0⟩`` for a concrete database.

    Attributes
    ----------
    overlap:
        ``a = M/(νN)`` — squared amplitude on the good state.
    theta:
        ``arcsin √a``.
    good:
        Amplitudes of ``|ψ⟩`` over the element register (the Eq. 4 target).
    bad:
        Amplitudes of ``|ψ⊥⟩`` over the element register (normalized, or
        zeros when ``a = 1``).
    """

    overlap: float
    theta: float
    good: np.ndarray
    bad: np.ndarray


def initial_decomposition(db: DistributedDatabase) -> InitialDecomposition:
    """Compute the Eq. (7) decomposition for ``db``.

    ``D|π,0⟩ = Σ_i √(c_i/(νN)) |i,0⟩ + Σ_i √((ν−c_i)/(νN)) |i,1⟩``; the
    first sum is ``√(M/νN)·|ψ,0⟩`` and the second ``√(1−M/νN)·|ψ⊥,1⟩``.
    """
    counts = db.joint_counts.astype(np.float64)
    nu = float(db.nu)
    n_universe = db.universe
    m_total = counts.sum()
    if m_total <= 0:
        raise ValidationError("empty database has no Eq. (7) decomposition")
    overlap = require_in_range(m_total / (nu * n_universe), 0.0, 1.0, "overlap a = M/(νN)")
    theta = float(np.arcsin(np.sqrt(overlap)))
    good = np.sqrt(counts / m_total)
    residual = nu - counts
    bad_mass = residual.sum()
    if bad_mass > 0:
        bad = np.sqrt(residual / bad_mass)
    else:
        bad = np.zeros_like(good)
    return InitialDecomposition(
        overlap=overlap, theta=theta, good=good.astype(np.complex128), bad=bad.astype(np.complex128)
    )
