"""The parallel-query sampling algorithm (Theorem 4.5).

Identical amplitude-amplification skeleton to the sequential algorithm;
only the distributing operator changes: Lemma 4.4 implements ``D`` with
**4 rounds** of the joint parallel oracle (Eq. 3), independent of ``n``.
Total cost: exactly ``4·(2·iterations + 1)`` rounds — ``Θ(√(νN/M))``.

Backends (resolved through :mod:`repro.core.backends`)
------------------------------------------------------
``"synced"``:
    Fast path on ``(i, s, w)``.  The Lemma 4.4 circuit keeps every
    ancilla register classically correlated with ``i`` and returns it to
    ``|0⟩``, so ancillas need no storage; the ledger still charges the
    honest 4 rounds per ``D``.
``"dense"``:
    Honest simulation with explicit per-machine ``(pi_j, ps_j, pb_j)``
    ancilla triples — dimension grows like ``(2N(ν+1))^n``, so this is
    for validation on small instances (the cross-backend test).
``"classes"``:
    ``O(ν)``-memory count-class compression — same substrate the
    sequential sampler uses (a ``B = 1``
    :class:`~repro.qsim.classvector.StackedClassVector`, stored on the
    result as a :class:`~repro.qsim.classvector.ClassVector`), with
    Lemma 4.4's 4-rounds-per-``D`` ledger accounting.  Reaches
    ``N ≥ 10⁶``.
"""

from __future__ import annotations

from ..database.distributed import DistributedDatabase
from .backends import create_backend, execute_sampling, resolve_backend
from .engine import AmplifiableState
from .exact_aa import AmplificationPlan, solve_plan
from .result import SamplingResult
from .schedule import QuerySchedule


class ParallelSampler:
    """Quantum sampling with parallel queries (Theorem 4.5).

    Examples
    --------
    >>> from repro.database import uniform_dataset, round_robin
    >>> from repro.core import ParallelSampler
    >>> db = round_robin(uniform_dataset(16, 32, rng=0), n_machines=4)
    >>> result = ParallelSampler(db).run()
    >>> result.exact, result.parallel_rounds == 4 * result.plan.d_applications
    (True, True)
    """

    MODEL = "parallel"

    def __init__(
        self,
        db: DistributedDatabase,
        backend: str = "synced",
        skip_zero_capacity: bool = False,
    ) -> None:
        """``skip_zero_capacity`` enables the capacity-aware *flagged*
        rounds (the Theorem 5.2-side analogue of the sequential
        optimization): each ``Ô_j`` is already flag-controlled (Eq. 2),
        so the coordinator obliviously leaves ``b_j = 0`` on machines
        whose public capacity ``κ_j = 0`` — their oracle is provably the
        identity.  The round count stays ``4·(2·iterations+1)``
        (``Θ(√(νN/M))`` is ``n``-free), but the per-machine load and the
        total work ``Σ_j t_j`` drop to the nonempty machines — matching
        Theorem 5.2's ``Σ_k √(κ_k N/M)`` terms, which vanish at
        ``κ_k = 0``."""
        resolve_backend(backend, self.MODEL)  # fail fast on unknown names
        self._db = db
        self._backend = backend
        self._skip_zero_capacity = skip_zero_capacity

    def active_machines(self) -> list[int]:
        """The machines the flagged rounds query (all, unless skipping κ = 0)."""
        if not self._skip_zero_capacity:
            return list(range(self._db.n_machines))
        return [j for j, kappa in enumerate(self._db.capacities) if kappa > 0]

    # -- oblivious planning --------------------------------------------------------

    def plan(self) -> AmplificationPlan:
        """The zero-error amplification schedule for this database."""
        return solve_plan(self._db.initial_overlap())

    def schedule(self) -> QuerySchedule:
        """The oblivious round schedule, fixed before any query."""
        return QuerySchedule.parallel_from_plan(
            self._db.n_machines,
            self.plan().d_applications,
            active_machines=self._restriction(),
        )

    def predicted_rounds(self) -> int:
        """Exact parallel round count the run will incur."""
        return 4 * self.plan().d_applications

    def predicted_total_queries(self) -> int:
        """``Σ_j t_j`` the run will incur: rounds × flagged machines."""
        return self.predicted_rounds() * len(self.active_machines())

    # -- execution --------------------------------------------------------------

    def initial_state(self) -> AmplifiableState:
        """``|π⟩`` on the element register, all ancillas zeroed."""
        return create_backend(
            self._backend, self._db, self.MODEL, active_machines=self._restriction()
        ).initial_state()

    def run(self) -> SamplingResult:
        """Execute the algorithm and return the audited result."""
        return execute_sampling(
            self._db,
            self.MODEL,
            self._backend,
            self.plan(),
            self.schedule(),
            active_machines=self._restriction(),
        )

    # -- internals --------------------------------------------------------------

    def _restriction(self) -> list[int] | None:
        if not self._skip_zero_capacity:
            return None
        active = self.active_machines()
        # A full active set is no restriction: publish the unrestricted
        # schedule so enabling the flag on an all-nonempty database is a
        # no-op (fingerprint included).
        return active if len(active) < self._db.n_machines else None


def sample_parallel(db: DistributedDatabase, backend: str = "synced") -> SamplingResult:
    """One-call convenience wrapper around :class:`ParallelSampler`.

    .. deprecated::
        Prefer the front door —
        ``repro.sample(repro.SamplingRequest(database=db,
        model="parallel"))`` — which resolves the backend automatically
        and returns the unified :class:`~repro.api.results.Result`.
        This wrapper remains as a thin shim over the same engine.
    """
    return ParallelSampler(db, backend=backend).run()
