"""Multisets over the data universe ``[N]`` (Table 1 semantics).

A dataset shard ``T_j`` is a multiset: element ``i`` occurs with
multiplicity ``c_ij ≥ 0``.  We index the universe as ``0 … N−1`` (the
paper uses ``1 … N``; the shift is cosmetic).  Internally the counts are a
dense ``int64`` vector, which keeps every oracle kernel a single gather
(the HPC guides' "vectorize the hot loop" rule) and makes set algebra
trivial; the universe sizes this library targets (≤ ~10⁶) fit comfortably.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

import numpy as np

from ..errors import ValidationError
from ..utils.validation import require, require_nonneg_int, require_pos_int


class Multiset:
    """A multiset over ``{0, …, universe−1}`` with vectorized count storage.

    Parameters
    ----------
    universe:
        Size ``N`` of the data universe.
    counts:
        Optional initial multiplicities: a mapping ``{element: count}``,
        an iterable of elements (counted with repetition), or a dense
        integer vector of length ``universe``.
    """

    __slots__ = ("_universe", "_counts")

    def __init__(self, universe: int, counts: object = None) -> None:
        self._universe = require_pos_int(universe, "universe")
        # Vector inputs make exactly one validated copy; the rest start empty.
        if isinstance(counts, Multiset):
            require(
                counts.universe == self._universe,
                "universe mismatch when copying a Multiset",
            )
            self._counts = counts._counts.copy()
            return
        if isinstance(counts, np.ndarray):
            if counts.shape != (self._universe,):
                raise ValidationError(
                    f"count vector must have shape ({self._universe},), got {counts.shape}"
                )
            if counts.min() < 0:
                raise ValidationError("multiplicities must be nonnegative")
            self._counts = np.array(counts, dtype=np.int64)
            return
        self._counts = np.zeros(self._universe, dtype=np.int64)
        if counts is None:
            return
        if isinstance(counts, Mapping):
            for element, count in counts.items():
                self.add(element, count)
        elif isinstance(counts, Iterable):
            for element in counts:
                self.add(element)
        else:
            raise ValidationError(f"cannot build a Multiset from {type(counts).__name__}")

    # -- construction ------------------------------------------------------------

    @classmethod
    def empty(cls, universe: int) -> "Multiset":
        """The empty multiset over ``[universe]``."""
        return cls(universe)

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "Multiset":
        """Wrap a dense multiplicity vector."""
        counts = np.asarray(counts)
        return cls(counts.shape[0], counts)

    def copy(self) -> "Multiset":
        """An independent copy."""
        return Multiset(self._universe, self)

    # -- Table 1 quantities --------------------------------------------------------

    @property
    def universe(self) -> int:
        """Universe size ``N``."""
        return self._universe

    @property
    def counts(self) -> np.ndarray:
        """Dense multiplicity vector ``c`` (read-only view)."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    def multiplicity(self, element: int) -> int:
        """``c_i`` — occurrences of ``element``."""
        self._check_element(element)
        return int(self._counts[element])

    def cardinality(self) -> int:
        """``|S|`` — the sum of multiplicities (``M_j`` for a shard)."""
        return int(self._counts.sum())

    def support(self) -> np.ndarray:
        """Sorted array of elements with positive multiplicity (Supp)."""
        return np.flatnonzero(self._counts)

    def support_size(self) -> int:
        """``m_j = |Supp(T_j)|``."""
        return int(np.count_nonzero(self._counts))

    def max_multiplicity(self) -> int:
        """``max_i c_i`` — the natural per-shard capacity ``κ_j``."""
        return int(self._counts.max()) if self._universe else 0

    def is_empty(self) -> bool:
        """Whether the multiset holds no elements."""
        return bool(self._counts.sum() == 0)

    def frequencies(self) -> np.ndarray:
        """``c_i / |S|`` — the sampling distribution of this shard alone."""
        total = self.cardinality()
        if total == 0:
            raise ValidationError("empty multiset has no frequency distribution")
        return self._counts / total

    # -- mutation --------------------------------------------------------------

    def add(self, element: int, count: int = 1) -> "Multiset":
        """Insert ``count`` copies of ``element``."""
        self._check_element(element)
        count = require_nonneg_int(count, "count")
        self._counts[element] += count
        return self

    def remove(self, element: int, count: int = 1) -> "Multiset":
        """Remove ``count`` copies; raises if fewer are present."""
        self._check_element(element)
        count = require_nonneg_int(count, "count")
        if self._counts[element] < count:
            raise ValidationError(
                f"cannot remove {count} copies of element {element}; "
                f"only {int(self._counts[element])} present"
            )
        self._counts[element] -= count
        return self

    # -- algebra --------------------------------------------------------------

    def union_add(self, other: "Multiset") -> "Multiset":
        """Additive union (multiplicities add) — the semantics of a
        distributed database's joint view."""
        self._check_same_universe(other)
        return Multiset.from_counts(self._counts + other._counts)

    def difference(self, other: "Multiset") -> "Multiset":
        """Saturating difference (clamped at zero)."""
        self._check_same_universe(other)
        return Multiset.from_counts(np.maximum(self._counts - other._counts, 0))

    def intersects(self, other: "Multiset") -> bool:
        """Whether supports overlap."""
        self._check_same_universe(other)
        return bool(np.any((self._counts > 0) & (other._counts > 0)))

    def permuted(self, permutation: np.ndarray) -> "Multiset":
        """The multiset with elements relabeled by ``i ↦ permutation[i]``.

        Matches the σ-induced relabeling of Section 5.2:
        ``c'_{σ(i)} = c_i``, i.e. ``c'_i = c_{σ^{-1}(i)}``.
        """
        permutation = np.asarray(permutation, dtype=np.intp)
        if permutation.shape != (self._universe,):
            raise ValidationError(
                f"permutation must have shape ({self._universe},), got {permutation.shape}"
            )
        if np.any(np.sort(permutation) != np.arange(self._universe)):
            raise ValidationError("not a permutation of the universe")
        new_counts = np.zeros_like(self._counts)
        new_counts[permutation] = self._counts
        return Multiset.from_counts(new_counts)

    # -- dunder --------------------------------------------------------------

    def __len__(self) -> int:
        return self.cardinality()

    def __contains__(self, element: int) -> bool:
        return 0 <= element < self._universe and self._counts[element] > 0

    def __iter__(self) -> Iterator[int]:
        """Iterate elements with repetition (sorted)."""
        for element in self.support():
            for _ in range(int(self._counts[element])):
                yield int(element)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Multiset):
            return NotImplemented
        return self._universe == other._universe and bool(
            np.array_equal(self._counts, other._counts)
        )

    def __hash__(self) -> int:
        return hash((self._universe, self._counts.tobytes()))

    def __repr__(self) -> str:
        support = self.support()
        preview = {int(i): int(self._counts[i]) for i in support[:8]}
        more = "…" if support.shape[0] > 8 else ""
        return f"Multiset(N={self._universe}, |S|={self.cardinality()}, {preview}{more})"

    # -- internals --------------------------------------------------------------

    def _check_element(self, element: int) -> None:
        if not isinstance(element, (int, np.integer)) or isinstance(element, bool):
            raise ValidationError(f"element must be an int, got {type(element).__name__}")
        if not 0 <= element < self._universe:
            raise ValidationError(
                f"element {element} outside the universe [0, {self._universe})"
            )

    def _check_same_universe(self, other: "Multiset") -> None:
        if self._universe != other._universe:
            raise ValidationError(
                f"universe mismatch: {self._universe} vs {other._universe}"
            )
