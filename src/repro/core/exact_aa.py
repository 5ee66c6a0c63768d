"""Zero-error amplitude amplification — the BHMT Theorem 4 schedule.

The paper's Theorem 4.3 runs ``⌊m̃⌋`` plain Grover iterates ``Q(π, π)``
(``m̃ = π/(4θ) − 1/2``) and one final *partial* iterate ``Q(φ, ϕ)`` whose
angles are chosen so the rotation lands **exactly** on the good state —
this is what makes the sampler's output ``|ψ⟩`` with fidelity 1 rather
than ``1 − O(a)``.

BHMT's Eq. (12) characterizes feasible ``(φ, ϕ)``, but in its own sign
conventions.  We derive the angles on the 2×2 subspace matrices of
:mod:`repro.core.amplitude` instead:

* write the state after ``m`` iterates as ``v = (sin x, cos x)``,
  ``x = (2m+1)θ ∈ [π/2 − 2θ, π/2]``;
* the bad component after ``Q(φ, ϕ)`` is
  ``−[v_b (1 + z cos²θ) + z sinθ cosθ e^{iφ} v_g]`` with ``z = e^{iϕ}−1``;
* zeroing it needs ``|v_b|·|1 + z cos²θ| = |z| sinθ cosθ |v_g|``.  With
  ``|z| = 2 sin(ϕ/2)`` and ``|1 + z cos²θ|² = 1 − sin²2θ·sin²(ϕ/2)``,
  squaring and using ``|v_g|² + |v_b|² = 1`` leaves
  ``sin(ϕ/2) = |v_b| / sin 2θ`` — a closed form for ``ϕ``, after which
  ``φ`` is a phase alignment.

A solution exists exactly when ``|v_b| ≤ sin 2θ``, i.e. BHMT's condition
``cot((2m+1)θ) ≤ tan 2θ``, which ``m = ⌊m̃⌋`` guarantees; the solver
asserts the landing numerically to 1e-10 as defense in depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PlanInfeasibleError
from .amplitude import q_matrix, state_after_iterations

#: Below this magnitude the residual bad amplitude is treated as exactly zero.
_EXACT_TOL = 1e-13


@dataclass(frozen=True)
class AmplificationPlan:
    """A complete zero-error amplification schedule for one overlap value.

    Attributes
    ----------
    overlap:
        ``a = M/(νN)`` — the squared initial good amplitude (Eq. 7).
    theta:
        ``arcsin √a``.
    grover_reps:
        ``m = ⌊π/(4θ) − 1/2⌋`` — plain ``Q(π, π)`` repetitions.
    needs_final:
        Whether a final partial iterate is required (False when the plain
        iterates already land exactly, e.g. ``a = 1`` or resonant ``θ``).
    final_varphi / final_phi:
        The angles ``(φ, ϕ)`` of the last ``Q(φ, ϕ)``; ``None`` when
        ``needs_final`` is False.
    """

    overlap: float
    theta: float
    grover_reps: int
    needs_final: bool
    final_varphi: float | None
    final_phi: float | None

    @property
    def d_applications(self) -> int:
        """Total uses of ``D`` or ``D†``.

        One initial ``D`` plus two (``D`` and ``D†``) per iterate —
        ``Q(φ,ϕ) = −D S_π(ϕ) D† S_χ(φ)`` — counting the final partial
        iterate when present.
        """
        iterates = self.grover_reps + (1 if self.needs_final else 0)
        return 1 + 2 * iterates

    @property
    def iterations(self) -> int:
        """All ``Q`` applications, full and partial."""
        return self.grover_reps + (1 if self.needs_final else 0)

    def final_state_2d(self) -> np.ndarray:
        """The exact 2-D state after executing the plan (for verification)."""
        v = state_after_iterations(self.theta, self.grover_reps)
        if self.needs_final:
            assert self.final_varphi is not None and self.final_phi is not None
            v = q_matrix(self.theta, self.final_varphi, self.final_phi) @ v
        return v

    def residual_bad_amplitude(self) -> float:
        """|bad amplitude| after the plan — the zero-error check."""
        return float(abs(self.final_state_2d()[1]))


def grover_reps_for(theta: float) -> int:
    """``m = ⌊π/(4θ) − 1/2⌋`` clamped at zero (θ near π/2 needs none)."""
    if theta <= 0:
        raise PlanInfeasibleError("θ must be positive")
    m_tilde = np.pi / (4.0 * theta) - 0.5
    return max(int(np.floor(m_tilde + 1e-12)), 0)


def solve_plan(overlap: float) -> AmplificationPlan:
    """Build the zero-error schedule for initial overlap ``a = overlap``.

    Raises
    ------
    PlanInfeasibleError
        If ``overlap`` is outside ``(0, 1]`` (an empty database has no
        target state; overlap above 1 violates the capacity invariant).
    """
    if not 0.0 < overlap <= 1.0 + 1e-12:
        raise PlanInfeasibleError(
            f"overlap a = {overlap} outside (0, 1]; check M ≤ νN and M > 0"
        )
    overlap = min(float(overlap), 1.0)
    theta = float(np.arcsin(np.sqrt(overlap)))
    m = grover_reps_for(theta)
    x = (2 * m + 1) * theta
    v_good = np.sin(x)
    v_bad = np.cos(x)

    if abs(v_bad) < _EXACT_TOL:
        # Plain Grover already lands exactly (includes a = 1, where m = 0
        # and the initial D|π,0⟩ *is* the target).
        return AmplificationPlan(
            overlap=overlap,
            theta=theta,
            grover_reps=m,
            needs_final=False,
            final_varphi=None,
            final_phi=None,
        )

    varphi, phi = _solve_final_angles(theta, v_good, v_bad)
    plan = AmplificationPlan(
        overlap=overlap,
        theta=theta,
        grover_reps=m,
        needs_final=True,
        final_varphi=varphi,
        final_phi=phi,
    )
    residual = plan.residual_bad_amplitude()
    if residual > 1e-10:
        raise PlanInfeasibleError(
            f"final-angle solve left residual bad amplitude {residual:.3e} "
            f"(θ={theta}, m={m}); this indicates a numerical degeneracy"
        )
    return plan


def _solve_final_angles(theta: float, v_good: float, v_bad: float) -> tuple[float, float]:
    """Solve ``(φ, ϕ)`` zeroing the bad component of ``Q(φ,ϕ)·(v_good, v_bad)``.

    The bad component is ``−[v_b(1 + z cos²θ) + z sinθ cosθ e^{iφ} v_g]``
    with ``z = e^{iϕ} − 1``; see the module docstring for the closed form
    ``sin(ϕ/2) = |v_b| / sin 2θ``.
    """
    sin_t = np.sin(theta)
    cos_t = np.cos(theta)
    sin_2t = np.sin(2.0 * theta)
    if abs(v_bad) > sin_2t + _EXACT_TOL:
        raise PlanInfeasibleError(
            f"no feasible final rotation: |v_b| = {abs(v_bad):.3e} > sin 2θ = "
            f"{sin_2t:.3e} (θ={theta}); BHMT feasibility cot((2m+1)θ) ≤ tan2θ violated"
        )
    phi = float(2.0 * np.arcsin(min(1.0, abs(v_bad) / sin_2t)))

    z = np.exp(1j * phi) - 1.0
    numerator = -v_bad * (1.0 + z * cos_t**2)
    denominator = z * sin_t * cos_t * v_good
    if abs(denominator) < 1e-300:
        raise PlanInfeasibleError(
            f"degenerate phase alignment at θ={theta}: denominator vanished"
        )
    ratio = numerator / denominator
    varphi = float(np.angle(ratio))
    return varphi, phi


def plain_grover_plan(overlap: float) -> AmplificationPlan:
    """The *non*-exact baseline: ⌊m̃⌋ (rounded) plain iterates, no final step.

    Used by experiment E6 to show what the paper's exact schedule buys:
    plain Grover leaves a ``cos²((2m+1)θ)`` failure probability, the exact
    plan leaves zero.
    """
    if not 0.0 < overlap <= 1.0 + 1e-12:
        raise PlanInfeasibleError(f"overlap a = {overlap} outside (0, 1]")
    overlap = min(float(overlap), 1.0)
    theta = float(np.arcsin(np.sqrt(overlap)))
    # Round to the nearest integer of m̃ — the best a fixed-iterate Grover
    # schedule can do.
    m_tilde = np.pi / (4.0 * theta) - 0.5
    m = max(int(round(m_tilde)), 0)
    return AmplificationPlan(
        overlap=overlap,
        theta=theta,
        grover_reps=m,
        needs_final=False,
        final_varphi=None,
        final_phi=None,
    )


def success_probability(plan: AmplificationPlan) -> float:
    """Squared good amplitude after executing ``plan``."""
    return float(abs(plan.final_state_2d()[0]) ** 2)
