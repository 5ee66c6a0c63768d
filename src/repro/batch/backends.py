"""The stacked-backend protocol and registry (the batch layer's plugboard).

:mod:`repro.core.backends` made *single-instance* state representations
pluggable: one :class:`~repro.core.backends.SamplerBackend` interface,
one registry, one shared amplification loop.  This module lifts the same
shape one level up, to **batches**: a :class:`StackedBackend` owns the
stacked representation of ``B`` sampling instances — how the uniform
initial tensor is built, how one ``D`` application acts on every
instance at once, and how per-instance fidelities, output distributions
and final states are read back out — while the batch engine
(:func:`repro.batch.engine.execute_class_batch`) keeps the Theorem
4.3/4.5 control flow, the honest bulk query ledgers and the oblivious
schedules exactly once, backend-agnostically.

Stacked backends
----------------
``"classes"`` (both models):
    ``B`` count-class compressed states CSR-packed into one
    ``(Σ(ν_b+1), 2)`` values plane
    (:class:`~repro.qsim.classvector.StackedClassVector`).  ``O(Σν_b)``
    memory regardless of ``N`` and no padding for mixed ``ν`` — the
    substrate that stacks million-element universes.  Per-instance
    ``classes`` runs execute the same kernel on a ``B = 1`` stack, so
    rows are bit-identical to them by construction.
``"subspace"`` (sequential):
    ``B`` dense Eq. (5) states as one ``(B, N, 2)`` tensor
    (:mod:`repro.batch.stacked_dense`), padded with inert rows for
    mixed-``N`` batches.  Reproduces per-instance
    :class:`~repro.core.backends.SubspaceBackend` rows **bit-identically**;
    explicit-only, the reference the equivalence suites check against.
``"synced"`` (parallel):
    the same ``(B, N, 2)`` stacked-dense machinery driving the Lemma
    4.4 synced layout (:class:`~repro.batch.stacked_dense.StackedSyncedBackend`),
    bit-identical to per-instance
    :class:`~repro.core.backends.SyncedBackend` rows; explicit-only.

The state objects returned by :meth:`StackedBackend.uniform_state`
share the batched phase surface of
:class:`~repro.qsim.classvector.StackedClassVector`
(``apply_phase_slice`` / ``apply_pi_projector_phase`` /
``apply_global_phase``, with scalar or per-instance ``(B,)`` phases), so
the engine's iterate loop never branches on the representation.

``"auto"`` resolves to :data:`CLASS_SUBSTRATE` — defined once, here, and
applied by the planner, the batch engine and both serving tiers at every
``N``.  Every operator of the paper's samplers touches the element
register only through the joint count ``c_i``, so the ``O(ν)``
count-class state runs Theorems 4.3/4.5 exactly at any scale; the dense
``subspace``/``synced`` stacks stay reachable by explicit name as the
equivalence suites' references.
"""

from __future__ import annotations

import abc
from typing import ClassVar, Protocol, Sequence, TYPE_CHECKING

import numpy as np

from ..core.distributing import cached_u_blocks
from ..errors import ValidationError
from ..qsim.classvector import ClassVector, StackedClassVector

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ClassInstance

#: The query models of Theorems 4.3 and 4.5 (mirrors core.backends.MODELS).
MODELS = ("sequential", "parallel")

#: The backend sentinel that delegates the choice to :data:`CLASS_SUBSTRATE`.
AUTO_STACKED_BACKEND = "auto"

#: The substrate ``"auto"`` resolves to on every path (per instance,
#: stacked, fanned out, served), at every universe size — and the one
#: stream snapshots run on.
CLASS_SUBSTRATE = "classes"


class StackedState(Protocol):
    """The batched phase surface every stacked representation exposes.

    The engine drives iterates exclusively through these three methods
    (``D`` goes through the owning backend's :meth:`StackedBackend.apply_d`);
    phases are scalars or per-instance ``(B,)`` arrays.
    """

    def apply_phase_slice(
        self, reg: str, value: int, phase: complex | np.ndarray
    ) -> "StackedState":  # pragma: no cover
        ...

    def apply_pi_projector_phase(
        self,
        phase: complex | np.ndarray,
        element_reg: str = "i",
        flag_reg: str = "w",
    ) -> "StackedState":  # pragma: no cover
        ...

    def apply_global_phase(self, phase: complex | np.ndarray) -> "StackedState":  # pragma: no cover
        ...


class StackedBackend(abc.ABC):
    """One stacked simulation substrate, bound to a group of instances.

    Subclasses declare a unique :attr:`name` and the :attr:`models` they
    support, and implement tensor construction, the batched ``D`` kernel
    and per-instance result extraction.  Instances are cheap, single-run
    objects created by :func:`create_stacked_backend` — one per
    schedule-shape group.  Query accounting is *not* a backend concern:
    the engine charges every instance's honest Lemma 4.2/4.4 ledger in
    bulk, identically for every substrate.
    """

    #: Registry key (matches the per-instance backend the rows reproduce).
    name: ClassVar[str]
    #: Query models this backend can execute.
    models: ClassVar[tuple[str, ...]]
    #: Whether one group may mix schedule shapes (``grover_reps`` /
    #: ``needs_final``).  False for every backend: the engine groups by
    #: schedule shape and runs each group's lockstep loop.
    supports_mixed_schedules: ClassVar[bool] = False

    def __init__(self, instances: Sequence["ClassInstance"], model: str) -> None:
        if model not in self.models:
            raise ValidationError(
                f"stacked backend {self.name!r} does not support the {model!r} "
                f"model (supports {self.models})"
            )
        self._instances = list(instances)
        self._model = model

    @classmethod
    def group_size_limit(cls, instances: Sequence["ClassInstance"]) -> int | None:
        """Largest batch one tensor should hold, or ``None`` for unbounded.

        The engine splits bigger groups into blocks and runs each
        block's full amplification loop before the next — results are
        unaffected (instances never interact), only memory locality is.
        Dense representations override this to stay cache-resident;
        the ``O(ν)`` compression never needs to.
        """
        return None

    # -- the abstract surface ----------------------------------------------------

    @abc.abstractmethod
    def uniform_state(self) -> StackedState:
        """Every instance in ``|π⟩ ⊗ |0⟩_w`` — the state after ``F``."""

    @abc.abstractmethod
    def apply_d(self, state: StackedState, adjoint: bool = False) -> StackedState:
        """Apply ``D`` (or ``D†``) to all ``B`` instances at once."""

    @abc.abstractmethod
    def fidelities(self, state: StackedState) -> np.ndarray:
        """Per-instance ``|⟨ψ_b, 0|state_b⟩|²`` against the Eq. (4) targets."""

    @abc.abstractmethod
    def output_probabilities_all(self, state: StackedState) -> list[np.ndarray]:
        """All ``B`` element-register Born distributions (the ``O(N_b)`` endpoint)."""

    @abc.abstractmethod
    def final_state(self, state: StackedState, b: int):
        """Instance ``b``'s final state as the matching standalone object."""


# -- registry -------------------------------------------------------------------

_REGISTRY: dict[str, type[StackedBackend]] = {}


def register_stacked_backend(cls: type[StackedBackend]) -> type[StackedBackend]:
    """Class decorator adding a stacked backend to the global registry.

    Mirrors :func:`repro.core.backends.register_backend`: the batch
    engine, the planner, ``run_batched`` and the serving dispatcher all
    resolve purely by name, so a registered class is immediately
    reachable everywhere a ``backend=`` knob exists.
    """
    if not getattr(cls, "name", None):
        raise ValidationError("stacked backend classes must declare a non-empty `name`")
    for model in cls.models:
        if model not in MODELS:
            raise ValidationError(
                f"stacked backend {cls.name!r} declares unknown model {model!r}"
            )
    _REGISTRY[cls.name] = cls  # repro: allow(REP003) -- registry fills at import time; forked workers should inherit it
    return cls


def stacked_backend_names(model: str | None = None) -> tuple[str, ...]:
    """All registered stacked-backend names, optionally filtered by model."""
    if model is None:
        return tuple(sorted(_REGISTRY))
    return tuple(sorted(n for n, c in _REGISTRY.items() if model in c.models))


def resolve_stacked_backend(name: str, model: str) -> type[StackedBackend]:
    """The stacked-backend class for ``name`` under ``model``; raises with choices."""
    if model not in MODELS:
        raise ValidationError(f"unknown model {model!r}; choose from {MODELS}")
    cls = _REGISTRY.get(name)
    if cls is None or model not in cls.models:
        raise ValidationError(
            f"unknown stacked backend {name!r}; choose from "
            f"{stacked_backend_names(model)}"
        )
    return cls


def create_stacked_backend(
    name: str, instances: Sequence["ClassInstance"], model: str
) -> StackedBackend:
    """Instantiate the registered stacked backend ``name`` for one group."""
    return resolve_stacked_backend(name, model)(instances, model)


# -- "auto" resolution -----------------------------------------------------------


def resolve_stacked_name(name: str, model: str) -> str:
    """Resolve a caller-supplied backend knob to a registered name.

    ``"auto"`` resolves to :data:`CLASS_SUBSTRATE`; explicit names are
    validated against the registry (memory fitness for an explicit dense
    choice is enforced at tensor construction, where the honest
    :class:`~repro.errors.SimulationLimitError` lives).
    """
    if name == AUTO_STACKED_BACKEND:
        name = CLASS_SUBSTRATE
    resolve_stacked_backend(name, model)
    return name


# -- the count-class stacked backend ----------------------------------------------


@register_stacked_backend
class StackedClassBackend(StackedBackend):
    """``B`` count-class states CSR-packed into one plane (both models).

    ``O(Σν_b)`` memory independent of ``N``, every iterate a constant
    number of kernels.  Each segment reduces over exactly its own cells,
    so a row does not depend on the batch it ran in; the per-instance
    ``classes`` backend runs the same kernel on a ``B = 1`` stack, so
    stacked and per-instance rows are bit-identical (regression-tested
    in ``tests/batch/``).  The rotation blocks come from
    :func:`~repro.core.distributing.cached_u_blocks`, the cache the
    per-instance ``D`` reads too.
    """

    name = "classes"
    models = ("sequential", "parallel")

    def uniform_state(self) -> StackedClassVector:
        return StackedClassVector.uniform(
            [inst.joints for inst in self._instances],
            [inst.nu + 1 for inst in self._instances],
        )

    def apply_d(self, state: StackedClassVector, adjoint: bool = False) -> StackedClassVector:
        if not hasattr(self, "_d_blocks"):
            pairs = [cached_u_blocks(inst.nu) for inst in self._instances]
            self._d_blocks = (
                np.concatenate([fwd for fwd, _ in pairs], axis=0),
                np.concatenate([adj for _, adj in pairs], axis=0),
            )
        forward, adj = self._d_blocks
        return state.apply_class_flag_unitary(adj if adjoint else forward)

    def fidelities(self, state: StackedClassVector) -> np.ndarray:
        return state.fidelities_with_targets([inst.total for inst in self._instances])

    def output_probabilities_all(self, state: StackedClassVector) -> list[np.ndarray]:
        return state.output_probabilities_all()

    def final_state(self, state: StackedClassVector, b: int) -> ClassVector:
        return state.extract(b)
