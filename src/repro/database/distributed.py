"""The distributed database: ``n`` machines + public parameters.

This is the object the coordinator interacts with.  Its *public* side —
``(N, n, ν, κ_1…κ_n)`` and, for the sampling algorithms, the total count
``M`` — determines oblivious schedules and amplification plans.  Its
*private* side (the shards) is only reachable through the oracles, which
is what makes the query ledger a faithful complexity measure.

The paper's global capacity invariant is ``ν ≥ max_i Σ_j c_ij`` (Eq. 1
context): the counting register has dimension ``ν + 1`` and must hold the
*joint* multiplicity accumulated by querying all machines in sequence.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import CapacityError, EmptyDatabaseError, ValidationError
from ..utils.validation import require, require_nonneg_int, require_pos_int
from .machine import Machine
from .multiset import Multiset


def resolve_nu(nu: int | None, joint_max: int) -> int:
    """The public capacity for a declared ``nu`` and the joints' maximum.

    ``None`` gives the tightest valid value ``max(joint_max, 1)``; a
    declared ``ν`` below ``joint_max`` violates Eq. (1).
    """
    if nu is None:
        nu = max(joint_max, 1)
    nu = require_nonneg_int(nu, "nu")
    if nu < joint_max:
        raise CapacityError(
            f"ν = {nu} is below the maximum joint multiplicity {joint_max}; "
            "Eq. (1) requires ν ≥ max_i Σ_j c_ij"
        )
    return require_pos_int(nu, "nu")


class DistributedDatabase:
    """``n`` machines over a common universe, with capacity bound ``ν``.

    Parameters
    ----------
    machines:
        The machines (all with the same universe size ``N``).
    nu:
        The public capacity ``ν``; defaults to the tightest valid value
        ``max_i Σ_j c_ij``.  Must satisfy the Eq. (1) invariant.

    Examples
    --------
    >>> from repro.database import DistributedDatabase, Machine, Multiset
    >>> shards = [Multiset(4, {0: 2, 1: 1}), Multiset(4, {1: 1, 3: 1})]
    >>> db = DistributedDatabase([Machine(s) for s in shards])
    >>> db.total_count, db.universe, db.n_machines
    (5, 4, 2)
    >>> db.joint_counts.tolist()
    [2, 2, 0, 1]
    """

    __slots__ = ("_machines", "_nu")

    def __init__(self, machines: Sequence[Machine], nu: int | None = None) -> None:
        machines = list(machines)
        require(len(machines) > 0, "a distributed database needs at least one machine")
        for m in machines:
            if not isinstance(m, Machine):
                raise ValidationError("machines must be Machine instances")
        universe = machines[0].universe
        for m in machines:
            require(
                m.universe == universe,
                "all machines must share the same universe size N",
            )
        self._machines = machines
        self._nu = resolve_nu(nu, int(self.joint_counts.max()) if universe else 0)

    # -- construction helpers ---------------------------------------------------------

    @classmethod
    def from_shards(
        cls,
        shards: Iterable[Multiset],
        nu: int | None = None,
        capacities: Sequence[int] | None = None,
    ) -> "DistributedDatabase":
        """Build from raw multisets, optionally with declared ``κ_j``."""
        shards = list(shards)
        if capacities is None:
            machines = [Machine(s, name=f"machine-{j}") for j, s in enumerate(shards)]
        else:
            require(
                len(capacities) == len(shards),
                "capacities must match the number of shards",
            )
            machines = [
                Machine(s, capacity=k, name=f"machine-{j}")
                for j, (s, k) in enumerate(zip(shards, capacities))
            ]
        return cls(machines, nu=nu)

    @classmethod
    def from_count_matrix(cls, counts: np.ndarray, nu: int | None = None) -> "DistributedDatabase":
        """Build from a ``(n, N)`` multiplicity matrix ``c_ij`` (row = machine)."""
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise ValidationError(f"count matrix must be 2-D, got shape {counts.shape}")
        shards = [Multiset.from_counts(row) for row in counts]
        return cls.from_shards(shards, nu=nu)

    def replaced_machine(self, index: int, machine: Machine) -> "DistributedDatabase":
        """A copy with machine ``index`` swapped out (same ``ν``)."""
        machines = list(self._machines)
        machines[index] = machine
        return DistributedDatabase(machines, nu=self._nu)

    def with_nu(self, nu: int) -> "DistributedDatabase":
        """A copy with a different public capacity ``ν``."""
        return DistributedDatabase(list(self._machines), nu=nu)

    def without_machine_data(self, index: int) -> "DistributedDatabase":
        """The ``T̃`` database of §5.3: machine ``index`` emptied, rest intact."""
        return self.replaced_machine(index, self._machines[index].emptied())

    # -- public parameters --------------------------------------------------------------

    @property
    def n_machines(self) -> int:
        """``n``."""
        return len(self._machines)

    @property
    def universe(self) -> int:
        """``N``."""
        return self._machines[0].universe

    @property
    def nu(self) -> int:
        """The public capacity bound ``ν``."""
        return self._nu

    @property
    def capacities(self) -> tuple[int, ...]:
        """Declared per-machine capacities ``(κ_1, …, κ_n)``."""
        return tuple(m.capacity for m in self._machines)

    # -- private data (reachable only through oracles in algorithms) -----------------------

    @property
    def machines(self) -> tuple[Machine, ...]:
        """The machines (treat as read-only)."""
        return tuple(self._machines)

    def machine(self, index: int) -> Machine:
        """Machine ``j``."""
        return self._machines[index]

    def __iter__(self) -> Iterator[Machine]:
        return iter(self._machines)

    def __len__(self) -> int:
        return len(self._machines)

    @property
    def count_matrix(self) -> np.ndarray:
        """The full ``(n, N)`` matrix ``c_ij`` (row = machine)."""
        return np.stack([m.counts for m in self._machines], axis=0)

    @property
    def joint_counts(self) -> np.ndarray:
        """``c_i = Σ_j c_ij`` over the universe."""
        total = np.zeros(self.universe, dtype=np.int64)
        for m in self._machines:
            total += m.counts
        return total

    @property
    def total_count(self) -> int:
        """``M = Σ_i c_i``."""
        return int(sum(m.size for m in self._machines))

    @property
    def machine_sizes(self) -> tuple[int, ...]:
        """``(M_1, …, M_n)``."""
        return tuple(m.size for m in self._machines)

    def joint_multiset(self) -> Multiset:
        """The union dataset ``⊎_j T_j``."""
        return Multiset.from_counts(self.joint_counts)

    def sampling_distribution(self) -> np.ndarray:
        """``p_i = c_i / M`` — the target distribution of Eq. (4)."""
        counts = self.joint_counts
        total = counts.sum()
        if total == 0:
            raise EmptyDatabaseError("the joint database is empty; Eq. (4) is undefined")
        return counts / total

    def initial_overlap(self) -> float:
        """``a = M / (νN)`` — the squared good-state amplitude of Eq. (7)."""
        return self.total_count / (self._nu * self.universe)

    def validate(self) -> None:
        """Re-check every invariant (useful after dynamic updates)."""
        joint_max = int(self.joint_counts.max())
        if self._nu < joint_max:
            raise CapacityError(
                f"capacity invariant violated: ν = {self._nu} < max_i c_i = {joint_max}"
            )
        for j, m in enumerate(self._machines):
            if m.capacity < m.natural_capacity:
                raise CapacityError(
                    f"machine {j}: κ_j = {m.capacity} < max_i c_ij = {m.natural_capacity}"
                )

    def public_parameters(self) -> dict[str, object]:
        """Everything an oblivious coordinator may use to plan queries.

        Note ``M`` is included: the paper's algorithms need the amplitude
        ``√(M/νN)`` to schedule amplitude amplification, and its lower
        bounds fix ``(N, M, κ_j, n)`` across each hard-input family, so
        ``M`` is public knowledge in the model.
        """
        return {
            "N": self.universe,
            "n": self.n_machines,
            "nu": self._nu,
            "M": self.total_count,
            "capacities": self.capacities,
        }

    def __repr__(self) -> str:
        return (
            f"DistributedDatabase(n={self.n_machines}, N={self.universe}, "
            f"M={self.total_count}, ν={self._nu})"
        )
