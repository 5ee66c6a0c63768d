"""Workload generators for experiments and benchmarks.

Each generator produces a joint dataset (a :class:`Multiset`) with a
controlled shape — uniform, Zipf-skewed, sparse-support, adversarial — and
the sweep driver pairs them with partition strategies to produce the
distributed instances that the benchmark harness runs.  All generators are
seeded for exact reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ..errors import ValidationError
from ..utils.rng import as_generator
from ..utils.validation import require, require_pos_int
from .multiset import Multiset


def uniform_counts(universe: int, total: int, rng: object = None) -> np.ndarray:
    """``total`` draws uniform over the universe (multinomial counts)."""
    universe = require_pos_int(universe, "universe")
    total = require_pos_int(total, "total")
    gen = as_generator(rng)
    return gen.multinomial(total, np.full(universe, 1.0 / universe))


@lru_cache(maxsize=32)
def _zipf_weights(universe: int, exponent: float) -> np.ndarray:
    """The normalized Zipf law over ``universe`` keys; read-only, cached."""
    weights = (np.arange(1, universe + 1, dtype=np.float64)) ** (-exponent)
    weights /= weights.sum()
    weights.setflags(write=False)
    return weights


def zipf_counts(
    universe: int, total: int, exponent: float = 1.1, rng: object = None
) -> np.ndarray:
    """``total`` draws from a Zipf law ``p_i ∝ (i+1)^{-exponent}``.

    The classic skewed-key workload: a few elements dominate — the regime
    where quantum sampling's amplitude encoding carries the most
    structure.  The weights are computed once per ``(universe,
    exponent)``.
    """
    universe = require_pos_int(universe, "universe")
    total = require_pos_int(total, "total")
    if exponent < 0:
        raise ValidationError(f"exponent must be nonnegative, got {exponent}")
    gen = as_generator(rng)
    return gen.multinomial(total, _zipf_weights(universe, exponent))


def sparse_support_counts(
    universe: int,
    support_size: int,
    multiplicity: int = 1,
    rng: object = None,
) -> np.ndarray:
    """Exactly ``support_size`` random keys, each with fixed multiplicity.

    With ``multiplicity = 1`` this is the index-erasure / Grover-style
    regime (uniform superposition over an unknown subset).
    """
    universe = require_pos_int(universe, "universe")
    support_size = require_pos_int(support_size, "support_size")
    multiplicity = require_pos_int(multiplicity, "multiplicity")
    require(support_size <= universe, "support cannot exceed the universe")
    gen = as_generator(rng)
    support = gen.choice(universe, size=support_size, replace=False)
    counts = np.zeros(universe, dtype=np.int64)
    counts[support] = multiplicity
    return counts


def single_key_counts(universe: int, key: int, multiplicity: int = 1) -> np.ndarray:
    """One key only — the Grover marked-element special case."""
    universe = require_pos_int(universe, "universe")
    require(0 <= key < universe, "key outside universe")
    multiplicity = require_pos_int(multiplicity, "multiplicity")
    counts = np.zeros(universe, dtype=np.int64)
    counts[key] = multiplicity
    return counts


def block_counts(universe: int, block_size: int, multiplicity: int = 1) -> np.ndarray:
    """The first ``block_size`` keys with fixed multiplicity (deterministic).

    The canonical base input for hard-input families: its support is an
    initial segment, so order-preserving relabelings act transparently.
    """
    universe = require_pos_int(universe, "universe")
    block_size = require_pos_int(block_size, "block_size")
    require(block_size <= universe, "block cannot exceed the universe")
    multiplicity = require_pos_int(multiplicity, "multiplicity")
    counts = np.zeros(universe, dtype=np.int64)
    counts[:block_size] = multiplicity
    return counts


def uniform_dataset(universe: int, total: int, rng: object = None) -> Multiset:
    """:func:`uniform_counts` as a :class:`Multiset`."""
    return Multiset.from_counts(uniform_counts(universe, total, rng))


def zipf_dataset(
    universe: int, total: int, exponent: float = 1.1, rng: object = None
) -> Multiset:
    """:func:`zipf_counts` as a :class:`Multiset`."""
    return Multiset.from_counts(zipf_counts(universe, total, exponent, rng))


def sparse_support_dataset(
    universe: int,
    support_size: int,
    multiplicity: int = 1,
    rng: object = None,
) -> Multiset:
    """:func:`sparse_support_counts` as a :class:`Multiset`."""
    return Multiset.from_counts(
        sparse_support_counts(universe, support_size, multiplicity, rng)
    )


def single_key_dataset(universe: int, key: int, multiplicity: int = 1) -> Multiset:
    """:func:`single_key_counts` as a :class:`Multiset`."""
    return Multiset.from_counts(single_key_counts(universe, key, multiplicity))


def block_dataset(universe: int, block_size: int, multiplicity: int = 1) -> Multiset:
    """:func:`block_counts` as a :class:`Multiset`."""
    return Multiset.from_counts(block_counts(universe, block_size, multiplicity))


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, seeded workload recipe used by the sweep driver.

    Attributes
    ----------
    name:
        Generator key in :data:`GENERATORS`.
    params:
        Keyword arguments for the generator (excluding ``rng``).
    """

    name: str
    params: tuple[tuple[str, object], ...]

    @classmethod
    def of(cls, name: str, **params: object) -> "WorkloadSpec":
        """Convenience constructor with keyword params."""
        return cls(name, tuple(sorted(params.items())))

    def build(self, rng: object = None) -> Multiset:
        """Materialize the dataset."""
        return Multiset.from_counts(self.counts(rng))

    def counts(self, rng: object = None) -> np.ndarray:
        """The dataset's multiplicity vector: :meth:`build`'s draw, unwrapped."""
        return workload_counts(self.name, rng=rng, **dict(self.params))

    def label(self) -> str:
        """Compact human-readable label for experiment tables."""
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})"


GENERATORS: dict[str, Callable[..., np.ndarray]] = {
    "uniform": uniform_counts,
    "zipf": zipf_counts,
    "sparse": sparse_support_counts,
    "single": single_key_counts,
    "block": block_counts,
}

#: Generators that consume a seed; the rest are fully deterministic.
SEEDED_GENERATORS = ("uniform", "zipf", "sparse")


def workload_names() -> tuple[str, ...]:
    """Registered generator names, sorted — the ``--workload`` choices."""
    return tuple(sorted(GENERATORS))


def make_workload(name: str, rng: object = None, **params: object) -> Multiset:
    """Build a dataset through the named-generator registry.

    The dataset behind :meth:`WorkloadSpec.build`, the CLI's
    ``--workload`` flag and the scenario engine — replacing ad-hoc
    generator imports: :func:`workload_counts` as a :class:`Multiset`.
    """
    return Multiset.from_counts(workload_counts(name, rng=rng, **params))


def workload_counts(name: str, rng: object = None, **params: object) -> np.ndarray:
    """The named generator's multiplicity vector (the one dispatch point).

    ``rng`` reaches only the seeded generators
    (:data:`SEEDED_GENERATORS`); the deterministic ones ignore it.
    """
    try:
        fn = GENERATORS[name]
    except KeyError:
        raise ValidationError(
            f"unknown workload {name!r}; choose from {sorted(GENERATORS)}"
        ) from None
    if name in SEEDED_GENERATORS:
        params = dict(params, rng=rng)
    return fn(**params)


def workload_spec_for(
    name: str, universe: int, total: int, **overrides: object
) -> WorkloadSpec:
    """A :class:`WorkloadSpec` for any registered generator from the two
    parameters every caller has — ``universe`` and a target ``total``
    mass — mapped onto each generator's own signature.

    ``sparse``/``block`` cap their support at the universe; ``single``
    puts all mass on key 0.  ``overrides`` win over the mapping (e.g.
    ``exponent=`` for Zipf, ``multiplicity=`` for sparse).
    """
    universe = require_pos_int(universe, "universe")
    total = require_pos_int(total, "total")
    if name in ("uniform", "zipf"):
        params: dict[str, object] = {"universe": universe, "total": total}
    elif name == "sparse":
        params = {"universe": universe, "support_size": min(total, universe)}
    elif name == "single":
        params = {"universe": universe, "key": 0, "multiplicity": total}
    elif name == "block":
        params = {"universe": universe, "block_size": min(total, universe)}
    else:
        raise ValidationError(
            f"unknown workload {name!r}; choose from {sorted(GENERATORS)}"
        )
    params.update(overrides)
    return WorkloadSpec.of(name, **params)
