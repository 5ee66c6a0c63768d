"""Sampling run results."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..database.ledger import QueryLedger
from .engine import AmplifiableState
from .exact_aa import AmplificationPlan
from .schedule import QuerySchedule


@dataclass(frozen=True)
class SamplingResult:
    """Everything a sampler run produces.

    Attributes
    ----------
    model:
        ``"sequential"`` or ``"parallel"``.
    backend:
        Which simulation backend executed the circuit.
    plan:
        The zero-error amplification schedule that was executed.
    schedule:
        The oblivious communication schedule (published before the run).
    ledger:
        Query accounting recorded during execution (frozen).
    fidelity:
        ``|⟨ψ, 0…0|final⟩|²`` against the Eq. (4) target.
    output_probabilities:
        Born distribution of the element register in the final state —
        should equal ``c_i/M`` exactly.
    final_state:
        The full final state — a dense :class:`~repro.qsim.state.StateVector`
        or a compressed :class:`~repro.qsim.classvector.ClassVector`
        (what the backend's ``final_state`` hook stores), depending on
        the backend (kept for analysis; drop it via :meth:`summary` for
        lightweight records).
    public_parameters:
        The database's public side ``(N, n, ν, M, κ_j)`` at run time.
    """

    model: str
    backend: str
    plan: AmplificationPlan
    schedule: QuerySchedule
    ledger: QueryLedger
    fidelity: float
    output_probabilities: np.ndarray
    final_state: AmplifiableState
    public_parameters: Mapping[str, object] = field(default_factory=dict)

    @property
    def sequential_queries(self) -> int:
        """Total per-machine oracle calls recorded."""
        return self.ledger.sequential_queries

    @property
    def parallel_rounds(self) -> int:
        """Joint-oracle rounds recorded."""
        return self.ledger.parallel_rounds

    @property
    def exact(self) -> bool:
        """Whether the zero-error guarantee held to tolerance."""
        from ..config import CONFIG

        return bool(abs(self.fidelity - 1.0) <= CONFIG.fidelity_atol)

    def summary(self) -> dict[str, object]:
        """A JSON-friendly snapshot without the state vector."""
        return {
            "model": self.model,
            "backend": self.backend,
            "fidelity": self.fidelity,
            "exact": self.exact,
            "grover_reps": self.plan.grover_reps,
            "needs_final": self.plan.needs_final,
            "d_applications": self.plan.d_applications,
            "sequential_queries": self.sequential_queries,
            "parallel_rounds": self.parallel_rounds,
            "per_machine_queries": self.ledger.per_machine(),
            "schedule_fingerprint": self.schedule.fingerprint(),
            "public_parameters": dict(self.public_parameters),
        }
