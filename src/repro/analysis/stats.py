"""Statistics for validating measured sampling spectra.

Measuring the sampler's output in the computational basis must reproduce
the database frequencies ``c_i/M`` — these helpers run the goodness-of-fit
tests (chi-square via :mod:`scipy.stats`, total-variation with a
finite-shot tolerance) that the sampling-correctness experiments use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ValidationError
from ..utils.validation import require, require_pos_int


@dataclass(frozen=True)
class GoodnessOfFit:
    """Chi-square test result for observed counts vs expected distribution."""

    statistic: float
    p_value: float
    dof: int

    def consistent(self, significance: float = 1e-3) -> bool:
        """Whether the sample is consistent at the given significance.

        Low significance (1e-3) keeps seeded tests deterministic-ish
        while still catching real distribution bugs by orders of
        magnitude.
        """
        return bool(self.p_value >= significance)


def chi_square_test(observed_counts: np.ndarray, expected_probs: np.ndarray) -> GoodnessOfFit:
    """Pearson chi-square against ``expected_probs``.

    Zero-probability cells must have zero observations (checked), and are
    excluded from the statistic; cells with tiny expectation are pooled
    into their neighbour to keep the χ² approximation sane.
    """
    observed = np.asarray(observed_counts, dtype=np.float64)
    expected_probs = np.asarray(expected_probs, dtype=np.float64)
    require(observed.shape == expected_probs.shape, "shape mismatch")
    total = observed.sum()
    require(total > 0, "no observations")
    if np.any(observed[expected_probs == 0] > 0):
        raise ValidationError("observed an outcome the model gives probability 0")

    mask = expected_probs > 0
    obs = observed[mask]
    exp = expected_probs[mask] * total

    # Pool cells with expectation < 5 into the largest cell to keep the
    # χ² approximation valid for skewed spectra.
    small = exp < 5.0
    if small.any() and (~small).any():
        big = int(np.argmax(exp))
        obs_pooled = obs[~small].copy()
        exp_pooled = exp[~small].copy()
        big_idx = int(np.argmax(exp_pooled))
        obs_pooled[big_idx] += obs[small].sum()
        exp_pooled[big_idx] += exp[small].sum()
        obs, exp = obs_pooled, exp_pooled
    if obs.size < 2:
        # Degenerate after pooling — a single cell always fits.
        return GoodnessOfFit(statistic=0.0, p_value=1.0, dof=0)
    from scipy import stats as sps

    statistic, p_value = sps.chisquare(obs, exp)
    return GoodnessOfFit(
        statistic=float(statistic), p_value=float(p_value), dof=int(obs.size - 1)
    )


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance ``½Σ|p−q|``."""
    p_arr = np.asarray(p, dtype=np.float64)
    q_arr = np.asarray(q, dtype=np.float64)
    require(p_arr.shape == q_arr.shape, "shape mismatch")
    return float(0.5 * np.abs(p_arr - q_arr).sum())


def expected_tv_fluctuation(dim: int, shots: int) -> float:
    """A safe ceiling for the TV distance of an honest ``shots``-sample.

    The expected empirical TV of a multinomial sample is at most
    ``√(dim/shots)/2``; we return four times that so seeded tests have
    essentially zero flake probability while still failing loudly on a
    wrong distribution.
    """
    dim = require_pos_int(dim, "dim")
    shots = require_pos_int(shots, "shots")
    return float(2.0 * np.sqrt(dim / shots))


def sampling_consistent(
    outcomes: np.ndarray, expected_probs: np.ndarray, significance: float = 1e-3
) -> bool:
    """One-call verdict: do drawn outcomes match the expected spectrum?"""
    expected_probs = np.asarray(expected_probs, dtype=np.float64)
    counts = np.bincount(
        np.asarray(outcomes, dtype=np.int64), minlength=expected_probs.shape[0]
    ).astype(np.float64)
    return chi_square_test(counts, expected_probs).consistent(significance)
