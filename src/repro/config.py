"""Global numerics configuration.

The simulator substrate is exact up to floating point, and the paper's
claims are *exact* (zero-error sampling), so tolerances here are tight by
default.  ``strict_checks`` turns on norm-preservation verification after
every primitive state operation — invaluable in tests, measurable overhead
in benchmarks — and can be toggled globally or via the context manager
:func:`strict_mode`.

Concurrency
-----------
``strict_checks`` is backed by a :class:`contextvars.ContextVar`, not a
plain attribute.  Parameter sweeps run sampler instances on thread pools,
and a mutable global flag would race: one worker entering
:func:`strict_mode` would silently switch norm checking on (or off) for
every other in-flight run.  With a context variable each thread (and each
asyncio task) sees its own value; writing ``CONFIG.strict_checks = True``
affects only the current context, and :func:`strict_mode` restores the
precise prior state via the var's token even under exceptions.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

#: Context-local storage for :attr:`NumericsConfig.strict_checks`.  The
#: default applies to any context that never toggled the flag.
_strict_checks: ContextVar[bool] = ContextVar("repro_strict_checks", default=False)


@dataclass
class NumericsConfig:
    """Tunable numerical behaviour of the simulator substrate.

    Attributes
    ----------
    atol:
        Absolute tolerance for "is exactly zero" style comparisons
        (amplitudes, norm drift, unitarity residuals).
    fidelity_atol:
        Tolerance when asserting the zero-error guarantee ``F = 1``.
        Amplitude amplification composes ``O(√(νN/M))`` rotations, so the
        accumulated drift budget is a little looser than :attr:`atol`.
    strict_checks:
        When True every :class:`~repro.qsim.state.StateVector` mutation,
        and every kernel of the count-class
        :class:`~repro.qsim.classvector.StackedClassVector` (stacked and
        per-instance ``classes`` runs alike), verifies norm preservation
        and raises :class:`~repro.errors.NotUnitaryError` on violation.  Stored in a
        :class:`~contextvars.ContextVar`, so the setting is scoped to the
        current thread/task and safe under concurrent sweeps.
    max_dense_dimension:
        Construction guard for dense register simulations (per instance
        and per stacked-dense row); exceeding it raises
        :class:`~repro.errors.SimulationLimitError` rather than attempting
        a massive allocation.  Routing never consults it: ``"auto"``
        resolves to the ``classes`` backend
        (:class:`~repro.qsim.classvector.StackedClassVector`), whose
        state is ``O(ν)`` regardless of ``N``, so the dense layouts run
        only when named explicitly.
    shard_arena_bytes:
        Per-worker shared-memory arena capacity of the sharded serving
        tier (:class:`repro.serve.shard.ShardedSamplerService`).  Sized
        to hold several in-flight result batches; undersizing is safe —
        a full arena degrades that batch to pickling, surfaced as
        ``shm_fallback_batches`` in the tier telemetry.
    """

    atol: float = 1e-10
    fidelity_atol: float = 1e-9
    max_dense_dimension: int = 2**24
    shard_arena_bytes: int = 1 << 24

    @property
    def strict_checks(self) -> bool:
        """Context-local norm-checking flag (see the module docstring)."""
        return _strict_checks.get()

    @strict_checks.setter
    def strict_checks(self, enabled: bool) -> None:
        _strict_checks.set(bool(enabled))

    def require_dense_dimension(self, dim: int) -> None:
        """Raise :class:`SimulationLimitError` if ``dim`` is too large."""
        from .errors import SimulationLimitError

        if dim > self.max_dense_dimension:
            raise SimulationLimitError(
                f"dense simulation of dimension {dim} exceeds the configured "
                f"limit {self.max_dense_dimension}; use a structured backend",
                dimension=dim,
            )


#: The process-wide configuration instance.  Mutate fields directly or use
#: :func:`strict_mode` for scoped changes.
CONFIG = NumericsConfig()


@contextlib.contextmanager
def strict_mode(enabled: bool = True) -> Iterator[NumericsConfig]:
    """Temporarily toggle :attr:`NumericsConfig.strict_checks`.

    The toggle is context-local (thread/task scoped) and restored exactly
    — including under exceptions — via the context variable's token.

    Examples
    --------
    >>> from repro.config import strict_mode
    >>> with strict_mode():
    ...     pass  # every state mutation is norm-checked here
    """
    token = _strict_checks.set(bool(enabled))
    try:
        yield CONFIG
    finally:
        _strict_checks.reset(token)
