"""Shape-keyed request re-packing with deadline-bounded partial flushes.

The stacked engine (:func:`repro.batch.engine.execute_class_batch`) is at
its best when one tensor holds many instances *of the same
amplification-schedule shape* ``(grover_reps, needs_final)`` — those run
as a single lockstep group, whatever their ``ν``.  A live service cannot wait
for ``batch_size`` same-shape arrivals forever, though: latency must stay
bounded even at a trickle.  :class:`ShapePacker` resolves that tension
with two flush triggers per shape group:

* **full** — a group that reached ``batch_size`` flushes immediately
  (throughput path: the tensor is saturated);
* **deadline** — a group whose *oldest* entry has waited
  ``flush_deadline`` seconds flushes partially (latency path: no request
  ever sits in the packer longer than the deadline).

The packer is deliberately single-threaded — the service's dispatcher
owns it — so it carries no locks; thread safety lives one level up.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Generic, Hashable, Iterator, TypeVar

from ..utils.validation import require, require_pos_int

T = TypeVar("T")


class ShapePacker(Generic[T]):
    """Group pending items by shape key; flush full or overdue groups.

    Parameters
    ----------
    batch_size:
        Target instances per flushed batch (the stacked tensor's ``B``).
    flush_deadline:
        Seconds a request may wait in the packer before its group is
        flushed partially.  ``0`` degenerates to flush-on-every-add
        (pure latency mode); larger values trade waiting for fill.
    clock:
        Injectable monotonic clock (tests drive it manually).
    """

    def __init__(
        self,
        batch_size: int,
        flush_deadline: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self._batch_size = require_pos_int(batch_size, "batch_size")
        require(flush_deadline >= 0.0, "flush_deadline must be >= 0")
        self._deadline = float(flush_deadline)
        self._clock = clock
        # key → list of (item, enqueued_at); insertion order preserved both
        # across groups (OrderedDict) and within one (append), so flushed
        # batches keep arrival order.
        self._groups: "OrderedDict[Hashable, list[tuple[T, float]]]" = OrderedDict()
        self._pending = 0

    # -- feeding --------------------------------------------------------------

    def add(self, key: Hashable, item: T) -> None:
        """Queue one item under its schedule-shape key."""
        self._groups.setdefault(key, []).append((item, self._clock()))
        self._pending += 1

    # -- inspection --------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Items currently waiting in the packer."""
        return self._pending

    @property
    def batch_size(self) -> int:
        """The target flush size."""
        return self._batch_size

    def seconds_until_flush(self) -> float | None:
        """Time until the earliest deadline flush; ``None`` when empty.

        The dispatcher uses this as its queue-poll timeout so a partial
        batch is flushed promptly without busy-waiting.
        """
        if not self._groups:
            return None
        now = self._clock()
        oldest = min(entries[0][1] for entries in self._groups.values())
        return max(0.0, self._deadline - (now - oldest))

    # -- flushing --------------------------------------------------------------

    def pop_ready(self) -> Iterator[list[T]]:
        """Yield every batch that must flush *now*.

        Full groups flush in ``batch_size`` chunks regardless of age;
        a group whose oldest entry is past the deadline flushes whatever
        it holds.  Groups that are neither stay queued.
        """
        now = self._clock()
        for key in list(self._groups):
            entries = self._groups[key]
            while len(entries) >= self._batch_size:
                chunk, entries = entries[: self._batch_size], entries[self._batch_size :]
                self._groups[key] = entries
                self._pending -= len(chunk)
                yield [item for item, _ in chunk]
            if entries and now - entries[0][1] >= self._deadline:
                del self._groups[key]
                self._pending -= len(entries)
                yield [item for item, _ in entries]
            elif not entries:
                del self._groups[key]

    def drain(self) -> Iterator[list[T]]:
        """Flush everything left, deadline or not (graceful shutdown)."""
        for key in list(self._groups):
            entries = self._groups.pop(key)
            self._pending -= len(entries)
            for i in range(0, len(entries), self._batch_size):
                yield [item for item, _ in entries[i : i + self._batch_size]]
