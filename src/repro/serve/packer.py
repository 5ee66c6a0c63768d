"""Shape-keyed request re-packing for work-conserving dispatch.

The stacked engine (:func:`repro.batch.engine.execute_class_batch`) is at
its best when one tensor holds many instances *of the same
amplification-schedule shape* ``(grover_reps, needs_final)`` — those run
as a single lockstep group, whatever their ``ν``.  :class:`ShapePacker`
keeps one group per shape: a group that reaches ``batch_size`` flushes
at once (:meth:`~ShapePacker.pop_full`), and every partial group flushes
when its owner is idle (:meth:`~ShapePacker.drain`) — the in-process
dispatcher when its input queue is empty and a worker is free, a shard
worker when its pipe is empty.  So requests wait here only while every
worker is busy, and the packer needs no clock.

The packer is deliberately single-threaded — the dispatcher (or shard
worker) owns it — so it carries no locks; thread safety lives one level
up.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, TypeVar

from ..utils.validation import require_pos_int

T = TypeVar("T")


class ShapePacker(Generic[T]):
    """Group pending items by shape key; flush full groups, or drain all.

    Parameters
    ----------
    batch_size:
        Target instances per flushed batch (the stacked tensor's ``B``).
    """

    def __init__(self, batch_size: int) -> None:
        self._batch_size = require_pos_int(batch_size, "batch_size")
        # Insertion order is preserved both across groups (OrderedDict)
        # and within one (append), so flushed batches keep arrival order.
        self._groups: "OrderedDict[Hashable, list[T]]" = OrderedDict()
        self._pending = 0

    # -- feeding --------------------------------------------------------------

    def add(self, key: Hashable, item: T) -> None:
        """Queue one item under its schedule-shape key."""
        self._groups.setdefault(key, []).append(item)
        self._pending += 1

    # -- inspection --------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Items currently waiting in the packer."""
        return self._pending

    # -- flushing --------------------------------------------------------------

    def pop_full(self) -> Iterator[list[T]]:
        """Yield every full group in ``batch_size`` chunks; partial ones stay."""
        for key in list(self._groups):
            entries = self._groups[key]
            while len(entries) >= self._batch_size:
                chunk, entries = entries[: self._batch_size], entries[self._batch_size :]
                self._groups[key] = entries
                self._pending -= len(chunk)
                yield chunk
            if not entries:
                del self._groups[key]

    def drain(self) -> Iterator[list[T]]:
        """Flush everything, partial groups included, in ``batch_size`` chunks."""
        for key in list(self._groups):
            entries = self._groups.pop(key)
            self._pending -= len(entries)
            for i in range(0, len(entries), self._batch_size):
                yield entries[i : i + self._batch_size]
