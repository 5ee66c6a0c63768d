"""Batched execution: pluggable stacked backends + throughput driver.

The scaling layer above :mod:`repro.core`: many sampling instances run
as one tensor, on an interchangeable stacked representation.

:mod:`repro.batch.backends`
    :class:`StackedBackend` — the stacked-backend protocol and registry
    (the batch-level mirror of :mod:`repro.core.backends`), with
    ``"auto"`` resolving to the ``classes`` substrate at every scale.
:class:`StackedClassVector`
    ``B`` count-class states CSR-packed into one ``(Σ(νᵢ+1), 2)`` values
    plane with per-instance class maps (the ``"classes"`` substrate: any
    scale, any mix of ν).  It lives in :mod:`repro.qsim.classvector`
    beside :class:`~repro.qsim.classvector.ClassVector`, because the
    per-instance ``classes`` backend of :mod:`repro.core` runs the same
    kernel on a ``B = 1`` stack; re-exported here.
:mod:`repro.batch.stacked_dense`
    :class:`StackedSubspaceVector` — ``B`` dense Eq. (5) states as one
    ``(B, N, 2)`` tensor (the ``"subspace"`` substrate, bit-identical to
    per-instance subspace rows), and :class:`StackedSyncedVector` — the
    same planes carrying the parallel Lemma 4.4 layout (the ``"synced"``
    substrate); both explicit-only equivalence references.
:mod:`repro.batch.engine`
    :func:`execute_sampling_batch` — the Theorem 4.3/4.5 amplification
    loop over a whole batch at once, grouped by backend and schedule
    shape, with honest per-instance query ledgers.
:mod:`repro.batch.driver`
    :func:`run_batched` — spec-in/rows-out throughput driver with
    deterministic seeding, batch packing and optional process fan-out.
"""

from ..qsim.classvector import StackedClassVector
from .backends import (
    AUTO_STACKED_BACKEND,
    CLASS_SUBSTRATE,
    StackedBackend,
    create_stacked_backend,
    register_stacked_backend,
    resolve_stacked_backend,
    resolve_stacked_name,
    stacked_backend_names,
)
from .driver import (
    DEFAULT_BATCH_SIZE,
    audit_row,
    default_row,
    iter_seeded_batches,
    pack_batches,
    run_batched,
)
from .engine import ClassInstance, cached_plan, execute_class_batch, execute_sampling_batch
from .stacked_dense import StackedSubspaceVector, StackedSyncedVector

__all__ = [
    "AUTO_STACKED_BACKEND",
    "CLASS_SUBSTRATE",
    "ClassInstance",
    "DEFAULT_BATCH_SIZE",
    "StackedBackend",
    "StackedClassVector",
    "StackedSubspaceVector",
    "StackedSyncedVector",
    "audit_row",
    "cached_plan",
    "create_stacked_backend",
    "default_row",
    "execute_class_batch",
    "execute_sampling_batch",
    "iter_seeded_batches",
    "pack_batches",
    "register_stacked_backend",
    "resolve_stacked_backend",
    "resolve_stacked_name",
    "run_batched",
    "stacked_backend_names",
]
