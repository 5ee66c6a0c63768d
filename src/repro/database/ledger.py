"""Query accounting — the measurable side of the complexity theorems.

Every oracle invocation in this library flows through a
:class:`QueryLedger`.  The sequential model counts *per-machine oracle
calls* (Eq. 1); the parallel model counts *rounds* of the joint oracle
(Eq. 3), each of which touches every machine once.  Keeping both measures
on the same ledger lets experiments report a parallel algorithm's round
count alongside its sequential-equivalent work, exactly the comparison
Theorems 4.3 / 4.5 make.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from ..errors import ValidationError
from ..utils.validation import require_index, require_pos_int


@dataclass
class MachineTally:
    """Per-machine call counters."""

    forward: int = 0
    adjoint: int = 0

    @property
    def total(self) -> int:
        """All calls regardless of direction (the paper's ``t_k``)."""
        return self.forward + self.adjoint


class QueryLedger:
    """Counts oracle usage for a database of ``n`` machines.

    Notes
    -----
    The paper treats ``O_j`` and ``O_j†`` identically for counting
    purposes ("``t_k`` is the number of times ``Ô_k`` and ``Ô_k†`` are
    applied", Section 5.2); :attr:`sequential_queries` follows that
    convention.  The forward/adjoint split is retained for diagnostics.
    """

    def __init__(self, n_machines: int) -> None:
        self._n = require_pos_int(n_machines, "n_machines")
        self._machines = [MachineTally() for _ in range(self._n)]
        self._parallel_rounds = 0
        self._frozen = False

    # -- recording --------------------------------------------------------------

    def record_machine_call(self, machine: int, adjoint: bool = False, count: int = 1) -> None:
        """``count`` invocations of ``O_j`` (or its adjoint) on machine ``machine``.

        ``count > 1`` records a block of identical calls in one step —
        the tallies are pure counters, so this is observationally equal
        to ``count`` single calls.  The batched engine uses it to charge
        a whole amplification run's worth of Lemma 4.2 sandwiches without
        a Python loop per oracle invocation.
        """
        self._check_mutable()
        machine = require_index(machine, self._n, "machine")
        count = require_pos_int(count, "count")
        if adjoint:
            self._machines[machine].adjoint += count
        else:
            self._machines[machine].forward += count

    def record_parallel_round(
        self,
        adjoint: bool = False,
        count: int = 1,
        machines: "Sequence[int] | None" = None,
    ) -> None:
        """``count`` applications of the joint parallel oracle ``O`` (Eq. 3).

        A round counts once toward :attr:`parallel_rounds` and once toward
        each machine's tally (the joint oracle is the tensor of all ``n``
        per-machine oracles).  With ``machines`` given, the round is a
        *flagged* one — the coordinator leaves the control flag ``b_j = 0``
        for every machine not listed (sound when those machines are
        provably empty, ``κ_j = 0``), so the round still counts but only
        the listed machines' tallies grow.
        """
        self._check_mutable()
        count = require_pos_int(count, "count")
        self._parallel_rounds += count
        queried = (
            self._machines
            if machines is None
            else [self._machines[require_index(j, self._n, "machine")] for j in machines]
        )
        for tally in queried:
            if adjoint:
                tally.adjoint += count
            else:
                tally.forward += count

    def freeze(self) -> "QueryLedger":
        """Disallow further recording (called when an algorithm finishes)."""
        self._frozen = True
        return self

    # -- reading --------------------------------------------------------------

    @property
    def n_machines(self) -> int:
        """Number of machines this ledger tracks."""
        return self._n

    @property
    def parallel_rounds(self) -> int:
        """Rounds of the joint parallel oracle."""
        return self._parallel_rounds

    @property
    def sequential_queries(self) -> int:
        """Total per-machine oracle calls (the sequential-model cost)."""
        return sum(t.total for t in self._machines)

    def machine_queries(self, machine: int) -> int:
        """``t_j`` — total calls to machine ``machine``."""
        machine = require_index(machine, self._n, "machine")
        return self._machines[machine].total

    def per_machine(self) -> list[int]:
        """``[t_0, …, t_{n−1}]``."""
        return [t.total for t in self._machines]

    def max_machine_queries(self) -> int:
        """``max_j t_j`` — the parallel-model per-machine load."""
        return max(t.total for t in self._machines)

    def tallies(self) -> Iterator[tuple[int, MachineTally]]:
        """Iterate ``(machine, tally)`` pairs.

        The tallies are copies: a frozen ledger may be shared by many
        results, so no reader can change it through them.
        """
        return ((j, replace(tally)) for j, tally in enumerate(self._machines))

    def summary(self) -> dict[str, object]:
        """A plain-dict snapshot for reports and JSON dumps."""
        return {
            "n_machines": self._n,
            "sequential_queries": self.sequential_queries,
            "parallel_rounds": self._parallel_rounds,
            "per_machine": self.per_machine(),
        }

    def __repr__(self) -> str:
        return (
            f"QueryLedger(n={self._n}, sequential={self.sequential_queries}, "
            f"rounds={self._parallel_rounds})"
        )

    # -- internals --------------------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise ValidationError("ledger is frozen; the algorithm already finished")
