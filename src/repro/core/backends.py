"""The sampler-backend protocol and registry.

Historically each sampler hard-coded its backends behind string dispatch:
``SequentialSampler`` knew about ``"oracles"``/``"subspace"``,
``ParallelSampler`` about ``"synced"``/``"dense"``, and every new
representation meant touching layout construction, ``D``-applier wiring,
ledger plumbing and result extraction in several modules at once.  This
module lifts that recurring shape into one first-class abstraction:

* :class:`SamplerBackend` — the interface a simulation substrate must
  provide: build the initial state (``F`` applied to the element
  register), hand the engine a ``D`` applier wired to a query ledger, and
  extract fidelity, output distribution and the stored final state at
  the end.
* a **registry** (:func:`register_backend`, :func:`create_backend`,
  :func:`backend_names`) keyed by backend name and filtered by which
  query model (``"sequential"``/``"parallel"``) the backend supports.
* :func:`execute_sampling` — the single shared run loop both samplers
  delegate to, so the Theorem 4.3/4.5 control flow exists exactly once.

Backends
--------
``"oracles"`` (sequential):
    Lemma 4.2's circuit literally, on the dense ``(i, s, w)`` layout.
``"subspace"`` (sequential):
    Eq. (5) rotation on the dense ``(i, w)`` layout.
``"synced"`` (parallel):
    Lemma 4.4 fast path on the dense ``(i, s, w)`` layout.
``"dense"`` (parallel):
    Honest per-machine ancilla triples — exponential in ``n``.
``"classes"`` (both models):
    The ``O(ν)``-memory count-class compression: one amplitude per
    ``(count-class, flag)`` cell with multiplicity weights.  It runs on a
    ``B = 1`` :class:`~repro.qsim.classvector.StackedClassVector` — the
    stacked engine's kernel — and stores the instance as a
    :class:`~repro.qsim.classvector.ClassVector`.  Reaches ``N ≥ 10⁶``
    where every dense layout trips ``max_dense_dimension``, while the
    ledger still charges the honest per-paper query cost, call by call.
"""

from __future__ import annotations

import abc
from typing import Callable, ClassVar, Mapping

import numpy as np

from ..config import CONFIG
from ..database.distributed import DistributedDatabase
from ..database.ledger import QueryLedger
from ..errors import ValidationError
from ..qsim.classvector import ClassVector, StackedClassVector
from ..qsim.register import RegisterLayout
from ..qsim.state import StateVector
from .distributing import (
    ClassDistributingOperator,
    DirectDistributingOperator,
    OracleDistributingOperator,
    ParallelDistributingOperator,
)
from .engine import AmplifiableState, DApplier, run_amplification
from .exact_aa import AmplificationPlan
from .result import SamplingResult
from .schedule import QuerySchedule
from .target import fidelity_with_target

#: The query models of Theorems 4.3 and 4.5.
MODELS = ("sequential", "parallel")

#: Default backend per model (the fast dense path of the original code).
DEFAULT_BACKENDS: Mapping[str, str] = {"sequential": "oracles", "parallel": "synced"}


class SamplerBackend(abc.ABC):
    """One simulation substrate, bound to a database and a query model.

    Subclasses declare a unique :attr:`name` and the :attr:`models` they
    support, and implement state construction, ``D``-applier wiring and
    (if the dense defaults don't apply) result extraction.  Instances are
    cheap, single-run objects created by :func:`create_backend`.
    """

    #: Registry key (the sampler's ``backend=`` string).
    name: ClassVar[str]
    #: Query models this backend can execute.
    models: ClassVar[tuple[str, ...]]

    def __init__(
        self,
        db: DistributedDatabase,
        model: str,
        active_machines: list[int] | None = None,
    ) -> None:
        if model not in self.models:
            raise ValidationError(
                f"backend {self.name!r} does not support the {model!r} model "
                f"(supports {self.models})"
            )
        self._db = db
        self._model = model
        self._active = active_machines

    # -- the abstract surface ----------------------------------------------------

    @abc.abstractmethod
    def initial_state(self) -> AmplifiableState:
        """``|π⟩`` on the element register, workspace zeroed."""

    @abc.abstractmethod
    def d_applier(self, ledger: QueryLedger | None) -> DApplier:
        """A ``(state, adjoint) → state`` applier of ``D`` charging ``ledger``."""

    # -- result extraction (dense defaults; compressed backends override) -----------

    def fidelity(self, state: AmplifiableState) -> float:
        """``|⟨ψ, 0…0|state⟩|²`` against the Eq. (4) target."""
        return fidelity_with_target(self._db, state)

    def output_probabilities(self, state: AmplifiableState) -> np.ndarray:
        """Born distribution of the element register."""
        return state.marginal_probabilities("i")

    def final_state(self, state: AmplifiableState):
        """What the result stores as its final state (the run state itself)."""
        return state

    # -- shared helpers ----------------------------------------------------------

    def _prepared_dense_state(self, layout: RegisterLayout) -> StateVector:
        # Guard before touching memory: the allocation below commits the
        # full dense array, so the friendly SimulationLimitError must win
        # over an OOM kill.
        CONFIG.require_dense_dimension(layout.dimension)
        # F|0⟩ = |π⟩ written directly: materializing the N×N preparation
        # matrix (uniform_preparation_matrix) costs Θ(N²) time and memory,
        # which already at N ≈ 10⁴ dwarfs the entire sampling run.
        amps = np.zeros(layout.shape, dtype=np.complex128)
        slicer: list[object] = [0] * len(layout)
        slicer[layout.axis("i")] = slice(None)
        amps[tuple(slicer)] = 1.0 / np.sqrt(self._db.universe)
        return StateVector.from_array(layout, amps)


# -- registry -------------------------------------------------------------------

_REGISTRY: dict[str, type[SamplerBackend]] = {}


def register_backend(cls: type[SamplerBackend]) -> type[SamplerBackend]:
    """Class decorator adding a backend to the global registry.

    Third-party substrates can use this too — the samplers resolve purely
    by name, so a registered class is immediately reachable via
    ``SequentialSampler(db, backend="<name>")``.
    """
    if not getattr(cls, "name", None):
        raise ValidationError("backend classes must declare a non-empty `name`")
    for model in cls.models:
        if model not in MODELS:
            raise ValidationError(f"backend {cls.name!r} declares unknown model {model!r}")
    _REGISTRY[cls.name] = cls  # repro: allow(REP003) -- registry fills at import time; forked workers should inherit it
    return cls


def backend_names(model: str | None = None) -> tuple[str, ...]:
    """All registered backend names, optionally filtered by query model."""
    if model is None:
        return tuple(sorted(_REGISTRY))
    return tuple(sorted(n for n, c in _REGISTRY.items() if model in c.models))


def resolve_backend(name: str, model: str) -> type[SamplerBackend]:
    """The backend class for ``name`` under ``model``; raises with choices."""
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}; choose from {MODELS}")
    cls = _REGISTRY.get(name)
    if cls is None or model not in cls.models:
        raise ValidationError(
            f"unknown backend {name!r}; choose from {backend_names(model)}"
        )
    return cls


def create_backend(
    name: str,
    db: DistributedDatabase,
    model: str,
    active_machines: list[int] | None = None,
) -> SamplerBackend:
    """Instantiate the registered backend ``name`` for one run."""
    return resolve_backend(name, model)(db, model, active_machines=active_machines)


# -- the shared run loop -----------------------------------------------------------


def execute_sampling(
    db: DistributedDatabase,
    model: str,
    backend_name: str,
    plan: AmplificationPlan,
    schedule: QuerySchedule,
    active_machines: list[int] | None = None,
    on_step: Callable[[str, AmplifiableState], None] | None = None,
) -> SamplingResult:
    """Run the Theorem 4.3/4.5 skeleton on the named backend.

    This is the one place layout construction, ledger wiring, engine
    execution and result extraction meet; both samplers delegate here.
    """
    backend = create_backend(backend_name, db, model, active_machines=active_machines)
    ledger = QueryLedger(db.n_machines)
    state = backend.initial_state()
    run_amplification(state, plan, backend.d_applier(ledger), on_step=on_step)
    ledger.freeze()
    return SamplingResult(
        model=model,
        backend=backend_name,
        plan=plan,
        schedule=schedule,
        ledger=ledger,
        fidelity=backend.fidelity(state),
        output_probabilities=backend.output_probabilities(state),
        final_state=backend.final_state(state),
        public_parameters=db.public_parameters(),
    )


# -- concrete backends -------------------------------------------------------------


@register_backend
class OraclesBackend(SamplerBackend):
    """Lemma 4.2's literal circuit on the dense ``(i, s, w)`` layout."""

    name = "oracles"
    models = ("sequential",)

    def initial_state(self) -> StateVector:
        return self._prepared_dense_state(
            RegisterLayout.of(i=self._db.universe, s=self._db.nu + 1, w=2)
        )

    def d_applier(self, ledger: QueryLedger | None) -> DApplier:
        op = OracleDistributingOperator(
            self._db, ledger=ledger, active_machines=self._active
        )

        def d_apply(state, adjoint: bool = False):
            return op.apply(
                state, element_reg="i", count_reg="s", flag_reg="w", adjoint=adjoint
            )

        return d_apply


@register_backend
class SubspaceBackend(SamplerBackend):
    """Eq. (5)'s defining rotation on the dense ``(i, w)`` layout."""

    name = "subspace"
    models = ("sequential",)

    def initial_state(self) -> StateVector:
        return self._prepared_dense_state(RegisterLayout.of(i=self._db.universe, w=2))

    def d_applier(self, ledger: QueryLedger | None) -> DApplier:
        op = DirectDistributingOperator(
            self._db, ledger=ledger, active_machines=self._active
        )

        def d_apply(state, adjoint: bool = False):
            return op.apply(state, element_reg="i", flag_reg="w", adjoint=adjoint)

        return d_apply


class _ParallelDenseBase(SamplerBackend):
    """Shared wiring for the two Lemma 4.4 statevector modes."""

    mode: ClassVar[str]

    def initial_state(self) -> StateVector:
        if self.mode == "dense":
            layout = ParallelDistributingOperator.dense_layout(self._db)
        else:
            layout = ParallelDistributingOperator.synced_layout(self._db)
        return self._prepared_dense_state(layout)

    def d_applier(self, ledger: QueryLedger | None) -> DApplier:
        op = ParallelDistributingOperator(
            self._db, ledger=ledger, mode=self.mode, active_machines=self._active
        )

        def d_apply(state, adjoint: bool = False):
            return op.apply(
                state, element_reg="i", count_reg="s", flag_reg="w", adjoint=adjoint
            )

        return d_apply


@register_backend
class SyncedBackend(_ParallelDenseBase):
    """Lemma 4.4 fast path: ancillas stay classically correlated with ``i``."""

    name = "synced"
    models = ("parallel",)
    mode = "synced"


@register_backend
class DenseBackend(_ParallelDenseBase):
    """Lemma 4.4 with honest per-machine ancilla triples (validation only)."""

    name = "dense"
    models = ("parallel",)
    mode = "dense"


@register_backend
class ClassesBackend(SamplerBackend):
    """``O(ν)``-memory count-class compression, for both query models.

    The run state is a ``B = 1``
    :class:`~repro.qsim.classvector.StackedClassVector`: one amplitude
    per ``(count-class, flag)`` cell, weighted by the class multiplicities
    ``N_c``, on the same kernel the stacked engine runs whole batches
    on.  The result stores it as a
    :class:`~repro.qsim.classvector.ClassVector` (``extract(0)``).
    Amplification work per iterate is ``O(ν)`` instead of ``O(N·ν)``,
    and no dense array of dimension ``N`` is ever allocated for the
    quantum state, so ``max_dense_dimension`` does not apply — this is
    the backend that reaches million-element universes.
    """

    name = "classes"
    models = ("sequential", "parallel")

    def initial_state(self) -> StackedClassVector:
        return StackedClassVector.uniform([self._db.joint_counts], [self._db.nu + 1])

    def d_applier(self, ledger: QueryLedger | None) -> DApplier:
        op = ClassDistributingOperator(
            self._db, ledger=ledger, model=self._model, active_machines=self._active
        )

        def d_apply(state, adjoint: bool = False):
            return op.apply(state, adjoint=adjoint)

        return d_apply

    def fidelity(self, state: StackedClassVector) -> float:
        return float(state.fidelities_with_targets([self._db.total_count])[0])

    def output_probabilities(self, state: StackedClassVector) -> np.ndarray:
        return state.output_probabilities(0)

    def final_state(self, state: StackedClassVector) -> ClassVector:
        return state.extract(0)
