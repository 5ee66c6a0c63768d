"""Sharding strategies: how a dataset gets distributed across machines.

The paper deliberately allows *overlapping* shards ("our algorithms allow
different machines to hold the same key") and proves the lower bound even
for disjoint ones.  The strategies here generate both regimes plus the
skewed layouts the motivation section gestures at (hot keys, unbalanced
machines), so experiments can sweep the full space.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from ..errors import ValidationError
from ..utils.rng import as_generator
from ..utils.validation import require, require_pos_int
from .distributed import DistributedDatabase
from .multiset import Multiset

PartitionFn = Callable[..., DistributedDatabase]
#: A strategy's count definition: ``(counts, n_machines, rng)`` → one
#: ``(N,)`` count row per machine, in machine order.  Rows may be shared
#: or read-only views, so consumers copy before writing.
CountRowsFn = Callable[..., Iterator[np.ndarray]]


def _database(rows: Iterable[np.ndarray], nu: int | None) -> DistributedDatabase:
    shards = (Multiset.from_counts(row) for row in rows)
    return DistributedDatabase.from_shards(shards, nu=nu)


def _copies(counts: np.ndarray) -> np.ndarray:
    """Each copy's element, sorted with repetition (as :class:`Multiset` iterates)."""
    support = np.flatnonzero(counts)
    return np.repeat(support, counts[support])


def _scatter(
    counts: np.ndarray, n_machines: int, picks: list[np.ndarray]
) -> Iterator[np.ndarray]:
    """Rows from one machine pick per copy, the copies in :func:`_copies` order."""
    universe = counts.shape[0]
    machine = np.concatenate([np.zeros(0, dtype=np.int64), *picks])
    cells = machine * universe + _copies(counts)
    return iter(np.bincount(cells, minlength=n_machines * universe).reshape(n_machines, -1))


def round_robin_rows(
    counts: np.ndarray, n_machines: int, rng: object = None
) -> Iterator[np.ndarray]:
    """Deal copies to machines in rotation, one machine's row at a time.

    The copies in sorted order (:func:`_copies`) are split by position
    modulo ``n``, and each machine's stride is counted in one
    ``bincount``.
    """
    n_machines = require_pos_int(n_machines, "n_machines")
    universe = counts.shape[0]
    elements = _copies(counts)
    return (
        np.bincount(elements[j::n_machines], minlength=universe) for j in range(n_machines)
    )


def random_assignment_rows(
    counts: np.ndarray, n_machines: int, rng: object = None
) -> Iterator[np.ndarray]:
    """Each copy of each element to a uniformly random machine."""
    n_machines = require_pos_int(n_machines, "n_machines")
    gen = as_generator(rng)
    support = np.flatnonzero(counts)
    picks = [gen.integers(0, n_machines, size=int(counts[e])) for e in support]
    return _scatter(counts, n_machines, picks)


def disjoint_support_rows(
    counts: np.ndarray, n_machines: int, rng: object = None
) -> Iterator[np.ndarray]:
    """Each key of the support, with all its copies, to one random machine."""
    n_machines = require_pos_int(n_machines, "n_machines")
    gen = as_generator(rng)
    support = np.flatnonzero(counts)
    owner = np.zeros(counts.shape[0], dtype=np.int64)
    owner[support] = gen.integers(0, n_machines, size=support.shape[0])
    return (np.where(owner == j, counts, 0) for j in range(n_machines))


def replicated_rows(
    counts: np.ndarray, n_machines: int, rng: object = None
) -> Iterator[np.ndarray]:
    """Every machine holds the full dataset (the same row ``n`` times)."""
    n_machines = require_pos_int(n_machines, "n_machines")
    return (counts for _ in range(n_machines))


def skewed_sizes_rows(
    counts: np.ndarray, n_machines: int, rng: object = None, skew: float = 2.0
) -> Iterator[np.ndarray]:
    """Each copy to machine ``j`` with probability ∝ ``(j+1)^{-skew}``."""
    n_machines = require_pos_int(n_machines, "n_machines")
    if skew < 0:
        raise ValidationError(f"skew must be nonnegative, got {skew}")
    gen = as_generator(rng)
    weights = (np.arange(1, n_machines + 1, dtype=np.float64)) ** (-skew)
    weights /= weights.sum()
    support = np.flatnonzero(counts)
    picks = [gen.choice(n_machines, size=int(counts[e]), p=weights) for e in support]
    return _scatter(counts, n_machines, picks)


def round_robin(
    dataset: Multiset, n_machines: int, nu: int | None = None
) -> DistributedDatabase:
    """Deal elements one at a time to machines in rotation.

    Deterministic and balanced: ``|M_j − M/n| ≤ 1`` (:func:`round_robin_rows`).
    """
    return _database(round_robin_rows(dataset.counts, n_machines), nu)


def random_assignment(
    dataset: Multiset, n_machines: int, nu: int | None = None, rng: object = None
) -> DistributedDatabase:
    """Assign each copy of each element to a uniformly random machine."""
    return _database(random_assignment_rows(dataset.counts, n_machines, rng), nu)


def disjoint_support(
    dataset: Multiset, n_machines: int, nu: int | None = None, rng: object = None
) -> DistributedDatabase:
    """Split the *support* across machines: no key lives on two machines.

    This is the synchronized regime the lower bound also covers ("our
    lower bound holds even if all databases are disjoint").
    """
    return _database(disjoint_support_rows(dataset.counts, n_machines, rng), nu)


def replicated(
    dataset: Multiset, n_machines: int, nu: int | None = None
) -> DistributedDatabase:
    """Every machine holds a full copy (maximum overlap / fault tolerance).

    The joint multiplicity of element ``i`` becomes ``n·c_i``, which the
    default ``ν`` accommodates.
    """
    return _database(replicated_rows(dataset.counts, n_machines), nu)


def single_machine(dataset: Multiset, nu: int | None = None) -> DistributedDatabase:
    """The centralized ``n = 1`` special case (the paper's baseline regime)."""
    return DistributedDatabase.from_shards([dataset.copy()], nu=nu)


def skewed_sizes(
    dataset: Multiset,
    n_machines: int,
    skew: float = 2.0,
    nu: int | None = None,
    rng: object = None,
) -> DistributedDatabase:
    """Assign copies with machine probabilities ∝ ``(j+1)^{-skew}``.

    Produces heavily unbalanced ``M_j`` — the regime where the per-machine
    lower-bound terms ``√(κ_j N/M)`` differ most, i.e. where the
    sequential/parallel gap is most visible.
    """
    return _database(skewed_sizes_rows(dataset.counts, n_machines, rng, skew=skew), nu)


def concentrate_on_machine(
    dataset: Multiset, n_machines: int, target: int, nu: int | None = None
) -> DistributedDatabase:
    """All data on machine ``target``, the others empty.

    This is the construction used in the proof of Theorem 5.1 ("we can put
    all of the elements to the k-th machine") to realize hard inputs.
    """
    n_machines = require_pos_int(n_machines, "n_machines")
    require(0 <= target < n_machines, "target machine out of range")
    shards = [Multiset.empty(dataset.universe) for _ in range(n_machines)]
    shards[target] = dataset.copy()
    return DistributedDatabase.from_shards(shards, nu=nu)


STRATEGIES: dict[str, PartitionFn] = {
    "round_robin": round_robin,
    "random": random_assignment,
    "disjoint": disjoint_support,
    "replicated": replicated,
    "skewed": skewed_sizes,
}

#: Each strategy's one count definition: :data:`STRATEGIES` and
#: :func:`partition` build databases from these rows.
COUNT_ROWS: dict[str, CountRowsFn] = {
    "round_robin": round_robin_rows,
    "random": random_assignment_rows,
    "disjoint": disjoint_support_rows,
    "replicated": replicated_rows,
    "skewed": skewed_sizes_rows,
}


def partition(
    dataset: Multiset,
    n_machines: int,
    strategy: str = "round_robin",
    nu: int | None = None,
    rng: object = None,
    **kwargs: object,
) -> DistributedDatabase:
    """Dispatch to a named strategy from :data:`STRATEGIES`."""
    rows = partition_rows(dataset.counts, n_machines, strategy, rng, **kwargs)
    return _database(rows, nu)


def partition_rows(
    counts: np.ndarray,
    n_machines: int,
    strategy: str = "round_robin",
    rng: object = None,
    **kwargs: object,
) -> Iterator[np.ndarray]:
    """A named strategy's per-machine count rows, one at a time.

    :func:`partition`'s split without the database: the same draws from
    ``rng``, the same rows, no :class:`Multiset` or :class:`Machine`.
    """
    try:
        rows = COUNT_ROWS[strategy]
    except KeyError:
        raise ValidationError(
            f"unknown partition strategy {strategy!r}; choose from {sorted(COUNT_ROWS)}"
        ) from None
    return rows(counts, n_machines, rng, **kwargs)
