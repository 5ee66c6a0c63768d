"""Sharding strategies: how a dataset gets distributed across machines.

The paper deliberately allows *overlapping* shards ("our algorithms allow
different machines to hold the same key") and proves the lower bound even
for disjoint ones.  The strategies here generate both regimes plus the
skewed layouts the motivation section gestures at (hot keys, unbalanced
machines), so experiments can sweep the full space.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import ValidationError
from ..utils.rng import as_generator
from ..utils.validation import require, require_pos_int
from .distributed import DistributedDatabase
from .multiset import Multiset

PartitionFn = Callable[..., DistributedDatabase]


def round_robin(dataset: Multiset, n_machines: int, nu: int | None = None) -> DistributedDatabase:
    """Deal elements one at a time to machines in rotation.

    Deterministic and balanced: ``|M_j − M/n| ≤ 1``.  The deal is
    vectorized: the dataset's elements in sorted order with repetition
    (the order :class:`Multiset` iterates in) are split by position
    modulo ``n``, and each machine's stride is counted in one
    ``bincount``.
    """
    n_machines = require_pos_int(n_machines, "n_machines")
    universe = dataset.universe
    elements = np.repeat(np.arange(universe, dtype=np.int64), dataset.counts)
    counts = np.stack(
        [
            np.bincount(elements[j::n_machines], minlength=universe)
            for j in range(n_machines)
        ]
    )
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def random_assignment(
    dataset: Multiset, n_machines: int, nu: int | None = None, rng: object = None
) -> DistributedDatabase:
    """Assign each copy of each element to a uniformly random machine."""
    n_machines = require_pos_int(n_machines, "n_machines")
    gen = as_generator(rng)
    counts = np.zeros((n_machines, dataset.universe), dtype=np.int64)
    base = dataset.counts
    for element in dataset.support():
        c = int(base[element])
        picks = gen.integers(0, n_machines, size=c)
        np.add.at(counts, (picks, np.full(c, element)), 1)
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def disjoint_support(
    dataset: Multiset, n_machines: int, nu: int | None = None, rng: object = None
) -> DistributedDatabase:
    """Split the *support* across machines: no key lives on two machines.

    This is the synchronized regime the lower bound also covers ("our
    lower bound holds even if all databases are disjoint").
    """
    n_machines = require_pos_int(n_machines, "n_machines")
    gen = as_generator(rng)
    support = dataset.support()
    owners = gen.integers(0, n_machines, size=support.shape[0])
    counts = np.zeros((n_machines, dataset.universe), dtype=np.int64)
    base = dataset.counts
    for owner, element in zip(owners, support):
        counts[owner, element] = base[element]
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def replicated(
    dataset: Multiset, n_machines: int, nu: int | None = None
) -> DistributedDatabase:
    """Every machine holds a full copy (maximum overlap / fault tolerance).

    The joint multiplicity of element ``i`` becomes ``n·c_i``; ``ν`` must
    accommodate that, which this helper computes automatically.
    """
    n_machines = require_pos_int(n_machines, "n_machines")
    shards = [dataset.copy() for _ in range(n_machines)]
    if nu is None:
        nu = max(n_machines * dataset.max_multiplicity(), 1)
    return DistributedDatabase.from_shards(shards, nu=nu)


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
    n_machines = require_pos_int(n_machines, "n_machines")
    if skew < 0:
        raise ValidationError(f"skew must be nonnegative, got {skew}")
    gen = as_generator(rng)
    weights = (np.arange(1, n_machines + 1, dtype=np.float64)) ** (-skew)
    weights /= weights.sum()
    counts = np.zeros((n_machines, dataset.universe), dtype=np.int64)
    base = dataset.counts
    for element in dataset.support():
        c = int(base[element])
        picks = gen.choice(n_machines, size=c, p=weights)
        np.add.at(counts, (picks, np.full(c, element)), 1)
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


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


def partition(
    dataset: Multiset,
    n_machines: int,
    strategy: str = "round_robin",
    nu: int | None = None,
    rng: object = None,
    **kwargs: object,
) -> DistributedDatabase:
    """Dispatch to a named strategy from :data:`STRATEGIES`."""
    try:
        fn = STRATEGIES[strategy]
    except KeyError:
        raise ValidationError(
            f"unknown partition strategy {strategy!r}; choose from {sorted(STRATEGIES)}"
        ) from None
    if strategy in ("round_robin", "replicated"):
        return fn(dataset, n_machines, nu=nu, **kwargs)
    return fn(dataset, n_machines, nu=nu, rng=rng, **kwargs)
