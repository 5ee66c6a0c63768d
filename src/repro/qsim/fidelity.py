"""Fidelity and distance measures (Section 2 of the paper).

The paper's success criterion is quantum fidelity
``F(ρ, σ) = (Tr √(√ρ σ √ρ))²`` — for pure ``σ = |φ⟩⟨φ|`` this reduces to
``⟨φ|ρ|φ⟩``, and for two pure states to ``|⟨ψ|φ⟩|²``.  All three forms are
provided, plus trace distance and the classical total-variation distance
used when comparing measured spectra.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .state import StateVector


def fidelity_pure_pure(psi: np.ndarray | StateVector, phi: np.ndarray | StateVector) -> float:
    """``|⟨ψ|φ⟩|²`` for two pure states (vectors or StateVectors)."""
    a = _as_vector(psi)
    b = _as_vector(phi)
    if a.shape != b.shape:
        raise ValidationError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return float(abs(np.vdot(a, b)) ** 2)


def fidelity_mixed_pure(rho: np.ndarray, phi: np.ndarray | StateVector) -> float:
    """``⟨φ|ρ|φ⟩`` for a density matrix against a pure target."""
    vec = _as_vector(phi)
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != (vec.shape[0], vec.shape[0]):
        raise ValidationError(f"dimension mismatch: rho {rho.shape} vs |φ⟩ {vec.shape}")
    return float(np.real(np.vdot(vec, rho @ vec)))


def fidelity_mixed_mixed(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``(Tr √(√ρ σ √ρ))²`` for two density matrices."""
    import scipy.linalg

    rho = np.asarray(rho, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if rho.shape != sigma.shape:
        raise ValidationError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    sqrt_rho = scipy.linalg.sqrtm((rho + rho.conj().T) / 2)
    inner = sqrt_rho @ sigma @ sqrt_rho
    eigvals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    eigvals = np.clip(eigvals.real, 0.0, None)
    return float(np.sum(np.sqrt(eigvals)) ** 2)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """``½‖ρ − σ‖₁``."""
    rho = np.asarray(rho, dtype=np.complex128)
    sigma = np.asarray(sigma, dtype=np.complex128)
    if rho.shape != sigma.shape:
        raise ValidationError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    diff = (rho - sigma + (rho - sigma).conj().T) / 2
    eigvals = np.linalg.eigvalsh(diff)
    return float(0.5 * np.abs(eigvals).sum())


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Classical total-variation distance between two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValidationError(f"dimension mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())


def distance_to_fidelity_bound(distance: float) -> float:
    """Lower bound on fidelity from a Euclidean distance between pure states.

    For unit vectors, ``‖ψ − φ‖² = 2 − 2 Re⟨ψ|φ⟩``, so
    ``|⟨ψ|φ⟩| ≥ Re⟨ψ|φ⟩ = 1 − d²/2`` and ``F ≥ (1 − d²/2)²`` when the
    right side is nonnegative.  This is the conversion the lower-bound
    argument uses between the potential ``D_t`` and fidelity.
    """
    inner = 1.0 - distance**2 / 2.0
    return float(max(inner, 0.0) ** 2)


def _as_vector(state: np.ndarray | StateVector) -> np.ndarray:
    if isinstance(state, StateVector):
        return state.as_array().reshape(-1)
    vec = np.asarray(state, dtype=np.complex128).reshape(-1)
    return vec
