"""The sequential-query sampling algorithm (Theorem 4.3).

The coordinator holds registers ``(i, s, w)`` — element, counting and
flag — prepares ``|π⟩`` with ``F``, applies the distributing operator
``D`` (Lemma 4.2: ``2n`` sequential oracle calls) and runs zero-error
amplitude amplification.  Query cost: exactly
``2n·(2·iterations + 1)`` sequential calls — ``Θ(n√(νN/M))``.

Backends (resolved through :mod:`repro.core.backends`)
------------------------------------------------------
``"oracles"``:
    Executes Lemma 4.2's circuit literally: every oracle call is a real
    permutation of the counting register, recorded on the ledger by the
    machine that served it.
``"subspace"``:
    Tracks only ``(i, w)`` and applies ``D`` as the defining Eq. (5)
    rotation.  The counting register of the oracle backend provably
    returns to ``|0⟩`` after each ``D`` (Lemma 4.2's uncompute step), so
    the two backends agree amplitude-for-amplitude — a tested invariant.
    ~``ν+1``× less memory, same ledger.
``"classes"``:
    ``O(ν)``-memory count-class compression — the amplification
    dynamics only see ``i`` through ``c_i``, so one amplitude per
    ``(count-class, flag)`` cell suffices.  It runs on a ``B = 1``
    :class:`~repro.qsim.classvector.StackedClassVector`, the stacked
    engine's kernel (so :meth:`SequentialSampler.initial_state` and
    ``on_step`` callbacks see that stack), and the result stores a
    :class:`~repro.qsim.classvector.ClassVector`.  Reaches
    ``N ≥ 10⁶``; same ledger as the dense backends.
"""

from __future__ import annotations

from ..database.distributed import DistributedDatabase
from .backends import create_backend, execute_sampling, resolve_backend
from .engine import AmplifiableState
from .exact_aa import AmplificationPlan, solve_plan
from .result import SamplingResult
from .schedule import QuerySchedule


class SequentialSampler:
    """Quantum sampling with sequential queries (Theorem 4.3).

    Parameters
    ----------
    db:
        The distributed database to sample.
    backend:
        Any registered backend supporting the sequential model —
        ``"oracles"`` (default), ``"subspace"`` or ``"classes"``; see the
        module docstring and :func:`repro.core.backends.backend_names`.

    Examples
    --------
    >>> from repro.database import uniform_dataset, round_robin
    >>> from repro.core import SequentialSampler
    >>> db = round_robin(uniform_dataset(16, 32, rng=0), n_machines=2)
    >>> result = SequentialSampler(db).run()
    >>> result.exact
    True
    """

    MODEL = "sequential"

    def __init__(
        self,
        db: DistributedDatabase,
        backend: str = "oracles",
        skip_zero_capacity: bool = False,
    ) -> None:
        """``skip_zero_capacity`` enables the capacity-aware schedule: the
        per-machine capacities ``κ_j`` are public, and a machine with
        ``κ_j = 0`` is provably empty (its oracle is the identity), so the
        Lemma 4.2 sandwich may skip it without losing obliviousness.  The
        cost drops to ``2n'·(2·iterations+1)`` with ``n'`` the number of
        nonempty-capacity machines — matching the Theorem 5.1 bound, whose
        ``Σ_j √(κ_j N/M)`` terms vanish at ``κ_j = 0`` (experiment E18)."""
        resolve_backend(backend, self.MODEL)  # fail fast on unknown names
        self._db = db
        self._backend = backend
        self._skip_zero_capacity = skip_zero_capacity

    def active_machines(self) -> list[int]:
        """The machines the schedule queries (all, unless skipping κ = 0)."""
        if not self._skip_zero_capacity:
            return list(range(self._db.n_machines))
        return [j for j, kappa in enumerate(self._db.capacities) if kappa > 0]

    # -- oblivious planning (public parameters only) --------------------------------

    def plan(self) -> AmplificationPlan:
        """The zero-error amplification schedule for this database."""
        return solve_plan(self._db.initial_overlap())

    def schedule(self) -> QuerySchedule:
        """The full oblivious communication schedule, before any query."""
        return QuerySchedule.sequential_from_plan(
            self._db.n_machines,
            self.plan().d_applications,
            active_machines=self.active_machines(),
        )

    def predicted_queries(self) -> int:
        """Exact sequential query count the run will incur."""
        return 2 * len(self.active_machines()) * self.plan().d_applications

    # -- execution --------------------------------------------------------------

    def initial_state(self) -> AmplifiableState:
        """``|π⟩`` on the element register, workspace zeroed."""
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
        return self.active_machines() if self._skip_zero_capacity else None


def sample_sequential(
    db: DistributedDatabase, backend: str = "oracles"
) -> SamplingResult:
    """One-call convenience wrapper around :class:`SequentialSampler`.

    .. deprecated::
        Prefer the front door —
        ``repro.sample(repro.SamplingRequest(database=db))`` — which
        resolves the backend automatically and returns the unified
        :class:`~repro.api.results.Result`.  This wrapper remains as a
        thin shim over the same engine.
    """
    return SequentialSampler(db, backend=backend).run()
