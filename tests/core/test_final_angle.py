"""The closed-form final angle ``sin(ϕ/2) = |v_b| / sin 2θ``.

The reference is the root-find it replaced: Brent's method on the
magnitude gap ``|v_b|·|1 + z cos²θ| − |z| sinθ cosθ |v_g|`` over
``ϕ ∈ [1e-12, π]``, with the same boundary handling.  scipy is imported
here only; the library's request path does not load it.
"""

import numpy as np
import pytest

from repro.core.amplitude import state_after_iterations
from repro.core.exact_aa import _EXACT_TOL, _solve_final_angles, solve_plan
from repro.errors import PlanInfeasibleError
from repro.utils.rng import as_generator


def brent_final_phi(theta: float, v_good: float, v_bad: float) -> float:
    from scipy.optimize import brentq

    sin_t, cos_t = np.sin(theta), np.cos(theta)

    def magnitude_gap(phi: float) -> float:
        z = np.exp(1j * phi) - 1.0
        return abs(v_bad) * abs(1.0 + z * cos_t**2) - abs(z) * sin_t * cos_t * abs(v_good)

    lo, hi = 1e-12, np.pi
    if magnitude_gap(lo) < 0:
        return lo
    gap_hi = magnitude_gap(hi)
    assert gap_hi <= _EXACT_TOL, "reference bracket holds no root"
    if abs(gap_hi) <= _EXACT_TOL:
        return float(np.pi)
    return float(brentq(magnitude_gap, lo, hi, xtol=1e-15, rtol=8.9e-16))


def overlap_grid() -> np.ndarray:
    rng = as_generator(20250611)
    return np.concatenate(
        [
            np.logspace(-9, 0, 1500),
            rng.uniform(0.0, 1.0, 500),
            10.0 ** rng.uniform(-9.0, 0.0, 500),
        ]
    )


def test_closed_form_matches_brent_root_find():
    compared = 0
    for overlap in overlap_grid():
        plan = solve_plan(float(overlap))
        assert plan.residual_bad_amplitude() <= 1e-15, overlap
        if not plan.needs_final:
            continue
        compared += 1
        v = state_after_iterations(plan.theta, plan.grover_reps).real
        reference = brent_final_phi(plan.theta, v[0], v[1])
        assert abs(plan.final_phi - reference) <= 1e-12, overlap
    assert compared > 2000


def test_feasibility_boundary_gives_half_turn():
    # x = π/2 − 2θ puts |v_b| = sin 2θ: the largest feasible rotation.
    theta = 0.1
    x = np.pi / 2 - 2 * theta
    varphi, phi = _solve_final_angles(theta, np.sin(x), np.cos(x))
    assert phi == pytest.approx(np.pi, abs=1e-7)
    assert np.isfinite(varphi)


def test_infeasible_final_rotation_raises():
    # m = 0 at θ = 0.1 leaves |v_b| = cos θ ≈ 0.995 > sin 2θ ≈ 0.199.
    theta = 0.1
    with pytest.raises(PlanInfeasibleError, match="feasib"):
        _solve_final_angles(theta, np.sin(theta), np.cos(theta))
