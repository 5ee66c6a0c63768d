"""Dynamic databases: the Section 3 update remark, made executable.

    "It is low-cost to update oracle operation O_j if the datasets are
    changed. For instance, if the multiplicity of element i in the j-th
    database increases or decreases by 1, we can simply update O_j by left
    multiplying operator U or U†."

:class:`UpdateStream` replays a sequence of inserts/deletes against a
database, charging exactly one elementary update per unit change, and lets
experiments re-sample after any prefix to confirm the refreshed oracle
produces the refreshed target state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

import numpy as np

from ..errors import CapacityError, ValidationError
from ..utils.rng import as_generator
from ..utils.validation import require, require_index, require_pos_int
from .distributed import DistributedDatabase


@dataclass(frozen=True)
class Update:
    """One elementary change: ±1 multiplicity of ``element`` on ``machine``."""

    machine: int
    element: int
    kind: Literal["insert", "delete"]

    def __post_init__(self) -> None:
        if self.kind not in ("insert", "delete"):
            raise ValidationError(f"kind must be 'insert' or 'delete', got {self.kind!r}")


class UpdateStream:
    """A replayable stream of elementary updates against a database.

    The database is mutated in place machine-by-machine (each unit change
    increments that machine's :attr:`~repro.database.machine.Machine.update_operations`
    counter, standing in for one ``U``/``U†`` multiplication of its oracle).
    """

    def __init__(self, db: DistributedDatabase, updates: Iterable[Update]) -> None:
        self._db = db
        self._updates = list(updates)
        for u in self._updates:
            require_index(u.machine, db.n_machines, "update.machine")
            require_index(u.element, db.universe, "update.element")
        self._applied = 0
        self._class_state = None

    @property
    def database(self) -> DistributedDatabase:
        """The live database being updated."""
        return self._db

    @property
    def pending(self) -> int:
        """Updates not yet applied."""
        return len(self._updates) - self._applied

    @property
    def applied(self) -> int:
        """Updates applied so far."""
        return self._applied

    def class_state(self):
        """A live count-class view of the joint database, updated in O(1).

        Builds a :class:`~repro.qsim.classvector.ClassVector` in ``|π⟩``
        (one ``O(N)`` scan, on first call only) and thereafter keeps it
        synchronized with the update stream via
        :meth:`~repro.qsim.classvector.ClassVector.transfer_element` —
        a ±1 joint-count change moves one element between adjacent count
        classes, so the class map never needs rebuilding.  The view is
        the one mutable count-class state in the library: the ``classes``
        kernel itself runs on
        :class:`~repro.qsim.classvector.StackedClassVector` stacks built
        from snapshots, which never write their class maps.  The view
        tracks exactly the ``classes`` backend's initial state, kept
        current at ``O(#updates)`` bookkeeping.  This is what the serving
        layer consumes: :meth:`repro.serve.SamplerService.submit_live`
        snapshots this view (via
        :meth:`repro.batch.engine.ClassInstance.from_class_state`) to
        re-sample a mutating database with an ``O(N)`` copy and no
        ``O(nN)`` machine scan.
        """
        if self._class_state is None:
            from ..qsim.classvector import ClassVector

            self._class_state = ClassVector.uniform(
                self._db.joint_counts, self._db.nu + 1
            )
        return self._class_state

    def apply_next(self, count: int = 1) -> int:
        """Apply the next ``count`` updates; returns how many actually ran.

        Every bound is checked before an update mutates anything: the
        joint count's ν (read from the live class map when
        :meth:`class_state` is tracking, else summed over the ``n``
        machines), then ``κ_j`` and presence in ``Machine.insert``/
        ``remove``.  A failing update raises with the stream position,
        database and class map unchanged, so a retry cannot double-apply
        it.
        """
        count = require_pos_int(count, "count")
        nu = self._db.nu
        ran = 0
        while ran < count and self._applied < len(self._updates):
            update = self._updates[self._applied]
            delta = 1 if update.kind == "insert" else -1
            if self._class_state is not None:
                joint = int(self._class_state.element_classes[update.element])
            else:
                joint = sum(m.multiplicity(update.element) for m in self._db)
            if joint + delta > nu:
                raise CapacityError(
                    f"update #{self._applied} ({update.kind} of element "
                    f"{update.element}) would move its joint count to "
                    f"{joint + delta}, above ν = {nu}"
                )
            machine = self._db.machine(update.machine)
            if update.kind == "insert":
                machine.insert(update.element)
            else:
                machine.remove(update.element)
            if self._class_state is not None:
                self._class_state.transfer_element(update.element, joint + delta)
            self._applied += 1
            ran += 1
        return ran

    def apply_all(self) -> int:
        """Apply everything left; returns the number applied."""
        remaining = self.pending
        if remaining:
            self.apply_next(remaining)
        return remaining

    def total_update_cost(self) -> int:
        """Sum of elementary oracle updates charged across machines."""
        return sum(m.update_operations for m in self._db.machines)

    def __iter__(self) -> Iterator[Update]:
        return iter(self._updates)

    def __len__(self) -> int:
        return len(self._updates)


def random_update_stream(
    db: DistributedDatabase,
    length: int,
    insert_probability: float = 0.5,
    rng: object = None,
) -> UpdateStream:
    """A random but always-valid stream of ``length`` updates.

    Deletes only target elements currently present on the chosen machine;
    inserts respect both the local capacity ``κ_j`` and the global ``ν``
    (so :meth:`DistributedDatabase.validate` holds after every prefix).
    """
    length = require_pos_int(length, "length")
    require(0.0 <= insert_probability <= 1.0, "insert_probability must be in [0,1]")
    gen = as_generator(rng)
    # Work on a scratch copy of the count matrix to pre-validate the stream.
    counts = db.count_matrix.copy()
    joint = counts.sum(axis=0)
    capacities = np.array(db.capacities, dtype=np.int64)
    nu = db.nu
    n, universe = counts.shape
    updates: list[Update] = []
    for _ in range(length):
        want_insert = gen.random() < insert_probability
        made = False
        for _attempt in range(64):
            j = int(gen.integers(0, n))
            i = int(gen.integers(0, universe))
            if want_insert:
                if counts[j, i] < capacities[j] and joint[i] < nu:
                    counts[j, i] += 1
                    joint[i] += 1
                    updates.append(Update(j, i, "insert"))
                    made = True
                    break
            else:
                if counts[j, i] > 0:
                    counts[j, i] -= 1
                    joint[i] -= 1
                    updates.append(Update(j, i, "delete"))
                    made = True
                    break
        if not made:
            # Fall back to the other kind rather than spinning forever on a
            # full/empty database.
            want_insert = not want_insert
            for j in range(n):
                hit = False
                for i in range(universe):
                    if want_insert and counts[j, i] < capacities[j] and joint[i] < nu:
                        counts[j, i] += 1
                        joint[i] += 1
                        updates.append(Update(j, i, "insert"))
                        hit = True
                        break
                    if not want_insert and counts[j, i] > 0:
                        counts[j, i] -= 1
                        joint[i] -= 1
                        updates.append(Update(j, i, "delete"))
                        hit = True
                        break
                if hit:
                    break
    return UpdateStream(db, updates)
