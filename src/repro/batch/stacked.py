"""Stacked count-class states: ``B`` instances CSR-packed into one plane.

The ``classes`` backend compresses one sampling instance to a
``(ν+1, 2)`` cell grid (:class:`~repro.qsim.classvector.ClassVector`).
That makes *thousands* of instances stackable: a batch of ``B``
instances concatenates its cell grids into one contiguous
``(Σ(ν_b+1), 2)`` values plane plus a ``(B + 1,)`` offsets array.
Segment ``b`` spans rows ``offsets[b]:offsets[b+1]`` and has exactly
that instance's length, so a mixed-ν batch carries no padding.  Every
operator the amplification engine applies stays a constant number of
NumPy calls over the whole plane, which is where the batched engine's
throughput comes from (see :mod:`repro.batch.engine` and experiment E23):

* per-class flag unitaries (``D``) — one einsum over the concatenated
  rotation blocks;
* flag-slice and global phases — scalars, or per-instance phases
  gathered onto the cells through a per-cell segment index;
* the ``π``-projector phase and the target fidelities — one elementwise
  product plane plus one segment reduction.

Bit-identity with per-instance :class:`ClassVector` runs is the gate.
Each segment reduces over exactly its own cells: the segments of one
width are gathered into a ``(k, w)`` block and summed along the
contiguous axis, which runs NumPy's pairwise summation over each row of
length ``w`` — the tree ``np.sum`` builds over that instance's own
``(ν_b + 1,)`` array.  When every segment has the same width the plane
reshapes to ``(B, w)`` without a gather.  ``np.add.reduceat`` is not
used: it sums sequentially and diverges from ``np.sum`` in the last ulp
once a segment outgrows the unrolled block.  The segment index and the
width groups depend only on the segment lengths, so they are built once
per state.

Like :class:`ClassVector`, the per-element class maps are classical
database metadata touched only by ``O(N_b)`` endpoint operations
(:meth:`StackedClassVector.output_probabilities`), never inside the
amplification loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import CONFIG
from ..errors import NotUnitaryError, ValidationError
from ..qsim.classvector import ClassVector
from ..utils.validation import require


def _as_phase_column(phase: complex | np.ndarray, batch: int) -> np.ndarray:
    """Validate a scalar or per-instance phase and shape it ``(B, 1)``."""
    arr = np.asarray(phase, dtype=np.complex128)
    if arr.ndim == 0:
        arr = np.full(batch, complex(arr), dtype=np.complex128)
    elif arr.shape != (batch,):
        raise ValidationError(
            f"per-instance phases must have shape ({batch},), got {arr.shape}"
        )
    if np.any(np.abs(np.abs(arr) - 1.0) > CONFIG.atol):
        raise NotUnitaryError("phases must have unit modulus")
    return arr[:, None]


def _check_unit_scalar(phase: complex | np.ndarray) -> complex:
    """Validate a scalar phase (applied to every instance) as unit-modulus."""
    phase = complex(phase)
    if abs(abs(phase) - 1.0) > CONFIG.atol:
        raise NotUnitaryError("phases must have unit modulus")
    return phase


class StackedClassVector:
    """``B`` count-class states CSR-packed into one ``(Σ(ν_b+1), 2)`` plane.

    Parameters
    ----------
    element_classes:
        One integer class map per instance (lengths ``N_b`` may differ).
    n_classes:
        Per-instance class counts (``ν_b + 1``); segment ``b`` of the
        values plane spans rows ``offsets[b]:offsets[b+1]`` and has
        exactly that length.
    values:
        Optional initial ``(Σ(ν_b+1), 2)`` amplitudes (zeros otherwise).

    The operation surface mirrors :class:`ClassVector`, with phases
    accepted either as scalars (applied to every instance) or as
    per-instance ``(B,)`` arrays — the latter is what lets one batch mix
    instances whose final partial iterates use different angles.
    """

    __slots__ = ("_element_classes", "_n_classes", "_offsets", "_class_sizes",
                 "_values", "_inv_sqrt_n", "_expected_norms",
                 "_owns_class_structure", "_cell_segment", "_width_groups")

    def __init__(
        self,
        element_classes: Sequence[np.ndarray],
        n_classes: Sequence[int],
        values: np.ndarray | None = None,
    ) -> None:
        maps = [np.asarray(ec, dtype=np.int64) for ec in element_classes]
        require(len(maps) > 0, "a stacked state needs at least one instance")
        require(len(maps) == len(n_classes), "one class count per instance")
        counts = [int(c) for c in n_classes]
        for b, (ec, c) in enumerate(zip(maps, counts)):
            require(ec.ndim == 1, f"instance {b}: element_classes must be 1-D")
            require(ec.size > 0, f"instance {b}: need at least one element")
            require(c >= 1, f"instance {b}: need at least one class")
        self._element_classes = maps
        self._n_classes = np.asarray(counts, dtype=np.int64)
        self._offsets = np.zeros(len(maps) + 1, dtype=np.int64)
        np.cumsum(self._n_classes, out=self._offsets[1:])
        total_cells = int(self._offsets[-1])
        self._class_sizes = np.empty(total_cells, dtype=np.float64)
        for b, (ec, c) in enumerate(zip(maps, counts)):
            # Range validation rides on the one bincount pass: negatives make
            # bincount itself raise, and anything ≥ the class count lengthens
            # the result — no extra O(N) min/max scans per instance.
            try:
                sizes = np.bincount(ec, minlength=c)
            except ValueError:
                raise ValidationError(
                    f"instance {b}: element classes must lie in [0, {c})"
                ) from None
            if sizes.size > c:
                raise ValidationError(
                    f"instance {b}: element classes must lie in [0, {c}); got "
                    f"max {ec.max()}"
                )
            self._class_sizes[self._offsets[b]:self._offsets[b + 1]] = sizes
        self._inv_sqrt_n = 1.0 / np.sqrt(
            np.array([ec.size for ec in maps], dtype=np.float64)
        )
        if values is None:
            arr = np.zeros((total_cells, 2), dtype=np.complex128)
        else:
            arr = np.array(values, dtype=np.complex128, copy=True, order="C")
            if arr.shape != (total_cells, 2):
                raise ValidationError(
                    f"values must have shape ({total_cells}, 2), got {arr.shape}"
                )
        self._values = arr
        self._owns_class_structure = True
        self._index_segments()
        self._expected_norms = self.norms()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(
        cls, element_classes: Sequence[np.ndarray], n_classes: Sequence[int]
    ) -> "StackedClassVector":
        """Every instance in ``|π⟩ ⊗ |0⟩_w`` — the state after ``F``."""
        state = cls(element_classes, n_classes)
        state._values[:, 0] = state._inv_sqrt_n[state._cell_segment]
        state._expected_norms = state.norms()
        return state

    @classmethod
    def stack(cls, states: Sequence[ClassVector]) -> "StackedClassVector":
        """Stack existing per-instance :class:`ClassVector` states."""
        require(len(states) > 0, "a stacked state needs at least one instance")
        return cls(
            [s.element_classes for s in states],
            [s.n_classes for s in states],
            values=np.concatenate([s.class_amplitudes() for s in states], axis=0),
        )

    @classmethod
    def from_parts(
        cls,
        element_classes: Sequence[np.ndarray],
        offsets: np.ndarray,
        class_sizes: np.ndarray,
        values: np.ndarray,
        expected_norms: np.ndarray | None = None,
    ) -> "StackedClassVector":
        """Assemble from precomputed CSR pieces, skipping validation.

        The trusted fast path mirroring :meth:`ClassVector.from_parts`:
        the values plane is copied (it is live state), the class
        structure (maps, offsets, multiplicities) is *shared* with the
        caller — copy-on-write via :meth:`transfer_element`.
        """
        out = cls.__new__(cls)
        out._element_classes = list(element_classes)
        out._offsets = np.asarray(offsets, dtype=np.int64)
        out._n_classes = np.diff(out._offsets)
        out._class_sizes = np.asarray(class_sizes, dtype=np.float64)
        out._values = np.array(values, dtype=np.complex128, copy=True, order="C")
        out._inv_sqrt_n = 1.0 / np.sqrt(
            np.array([ec.size for ec in out._element_classes], dtype=np.float64)
        )
        out._owns_class_structure = False
        out._index_segments()
        out._expected_norms = (
            out.norms() if expected_norms is None
            else np.asarray(expected_norms, dtype=np.float64).copy()
        )
        return out

    # -- basic queries ----------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """``B`` — how many instances are packed."""
        return len(self._element_classes)

    @property
    def offsets(self) -> np.ndarray:
        """The ``(B + 1,)`` CSR row offsets (treat as read-only)."""
        return self._offsets

    @property
    def n_classes(self) -> np.ndarray:
        """Per-instance class counts ``ν_b + 1`` (treat as read-only)."""
        return self._n_classes

    @property
    def class_sizes(self) -> np.ndarray:
        """Concatenated multiplicities ``N_{b,c}`` (treat as read-only)."""
        return self._class_sizes

    def values(self) -> np.ndarray:
        """The live ``(Σ(ν_b+1), 2)`` values plane (treat as read-only)."""
        return self._values

    def n_elements(self, b: int) -> int:
        """Universe size ``N_b`` of instance ``b``."""
        return int(self._element_classes[b].size)

    def norms(self) -> np.ndarray:
        """Per-instance Euclidean norms ‖ψ_b‖ as a ``(B,)`` array."""
        weighted = self._class_sizes * np.sum(np.abs(self._values) ** 2, axis=1)
        return np.sqrt(self._segment_sums(weighted))

    # -- unitary mutations -------------------------------------------------------

    def apply_class_flag_unitary(self, mats: np.ndarray) -> "StackedClassVector":
        """Per-cell 2×2 flag unitaries over the whole plane (the ``D`` kernel)."""
        mats = np.asarray(mats, dtype=np.complex128)
        expected = (self._values.shape[0], 2, 2)
        if mats.shape != expected:
            raise ValidationError(f"mats must have shape {expected}, got {mats.shape}")
        self._values = np.einsum("cab,cb->ca", mats, self._values)
        return self._after_unitary()

    def apply_phase_slice(
        self, reg: str, value: int, phase: complex | np.ndarray
    ) -> "StackedClassVector":
        """``S_χ(φ)``-style phase on one flag value, per instance.

        Same restriction as :meth:`ClassVector.apply_phase_slice`: only
        the flag register ``"w"`` is addressable.
        """
        if reg != "w":
            raise ValidationError(
                f"StackedClassVector supports phase slices on the flag register "
                f"'w' only, not {reg!r}"
            )
        if value not in (0, 1):
            raise ValidationError(f"flag value {value} out of range")
        if np.ndim(phase) == 0:
            self._values[:, value] *= _check_unit_scalar(phase)
        else:
            self._values[:, value] *= self._per_cell(phase)
        return self._after_unitary()

    def apply_pi_projector_phase(
        self,
        phase: complex | np.ndarray,
        element_reg: str = "i",
        flag_reg: str = "w",
    ) -> "StackedClassVector":
        """``S_π(ϕ)`` on every instance: one product plane, one segment reduction.

        Mirrors :meth:`ClassVector.apply_pi_projector_phase` reduction
        for reduction: ``⟨π,0|ψ_b⟩ = (1/√N_b)·Σ_c N_{b,c} α[b,c,0]``
        over the segment's own cells, then the rank-one correction
        ``(e^{iϕ_b}−1)·⟨π,0|ψ_b⟩/√N_b`` added to every flag-0 cell of the
        segment.
        """
        require(element_reg == "i" and flag_reg == "w", "stacked registers are (i, w)")
        if np.ndim(phase) == 0:
            # The Grover loop's constant e^{iπ}: validate one scalar, not a column.
            shift = _check_unit_scalar(phase) - 1.0
        else:
            shift = _as_phase_column(phase, self.batch_size)[:, 0] - 1.0
        products = self._class_sizes * self._values[:, 0]
        pi_overlap = self._inv_sqrt_n * self._segment_sums(products)
        correction = shift * pi_overlap * self._inv_sqrt_n
        self._values[:, 0] += correction[self._cell_segment]
        return self._after_unitary()

    def apply_global_phase(self, phase: complex | np.ndarray) -> "StackedClassVector":
        """Multiply every instance by a unit-modulus scalar."""
        if np.ndim(phase) == 0:
            self._values *= _check_unit_scalar(phase)
        else:
            self._values *= self._per_cell(phase)[:, None]
        return self._after_unitary()

    # -- dynamic updates ---------------------------------------------------------

    def transfer_element(self, b: int, element: int, new_class: int) -> "StackedClassVector":
        """Move one element of instance ``b`` to another count class in ``O(1)``.

        :meth:`ClassVector.transfer_element` per segment: one decrement,
        one increment of the concatenated multiplicity plane plus a
        class-map write.  Class structure shared via :meth:`from_parts`
        is copied on first write.
        """
        if not 0 <= b < self.batch_size:
            raise ValidationError(f"instance {b} out of range [0, {self.batch_size})")
        ec = self._element_classes[b]
        if not 0 <= element < ec.size:
            raise ValidationError(f"element {element} out of range [0, {ec.size})")
        n = int(self._n_classes[b])
        if not 0 <= new_class < n:
            raise ValidationError(f"target class {new_class} out of range [0, {n})")
        old_class = int(ec[element])
        if old_class == new_class:
            return self
        if not self._owns_class_structure:
            self._element_classes = [m.copy() for m in self._element_classes]
            self._class_sizes = self._class_sizes.copy()
            self._owns_class_structure = True
            ec = self._element_classes[b]
        ec[element] = new_class
        base = int(self._offsets[b])
        self._class_sizes[base + old_class] -= 1.0
        self._class_sizes[base + new_class] += 1.0
        self._expected_norms = self.norms()
        return self

    # -- non-unitary analysis helpers ---------------------------------------------

    def fidelities_with_targets(self, total_counts: Sequence[int]) -> np.ndarray:
        """Per-instance ``|⟨ψ_b, 0|state_b⟩|²`` against the Eq. (4) targets.

        The batched form of
        :func:`~repro.core.target.fidelity_with_target_classes`: the
        target amplitude ``√(c/M_b)`` is a function of the count class,
        so the overlaps are one product plane plus one segment reduction
        — the same reduction tree as the per-instance contraction.
        """
        totals = np.asarray(total_counts, dtype=np.float64)
        if totals.shape != (self.batch_size,):
            raise ValidationError(
                f"need one total count per instance, got shape {totals.shape}"
            )
        if np.any(totals <= 0):
            raise ValidationError("every instance needs a nonempty joint database")
        segment = self._cell_segment
        class_values = (
            np.arange(segment.size) - self._offsets[segment]
        ).astype(np.float64)
        target = np.sqrt(class_values / totals[segment])
        products = self._class_sizes * target * self._values[:, 0]
        return np.abs(self._segment_sums(products)) ** 2

    def output_probabilities(self, b: int) -> np.ndarray:
        """Born distribution of instance ``b``'s element register.

        The one ``O(N_b)`` endpoint operation — a gather through the
        instance's class map, exactly as in :class:`ClassVector`.
        """
        cells = self._values[self._offsets[b]:self._offsets[b + 1]]
        per_class = np.sum(np.abs(cells) ** 2, axis=1)
        return per_class[self._element_classes[b]]

    def output_probabilities_all(self) -> list[np.ndarray]:
        """All ``B`` element-register Born distributions.

        One ``|α|²`` reduction over the plane, then one gather per
        instance through its class map — what the batch engine uses so
        the per-instance cost is the gather alone.
        """
        per_class = np.sum(np.abs(self._values) ** 2, axis=1)
        offsets = self._offsets
        return [
            per_class[offsets[b]:offsets[b + 1]][ec]
            for b, ec in enumerate(self._element_classes)
        ]

    def extract(self, b: int) -> ClassVector:
        """Instance ``b`` as a standalone :class:`ClassVector`.

        Uses the trusted :meth:`ClassVector.from_parts` path — the class
        map and the multiplicity segment are shared (copy-on-write), so
        no ``O(N_b)`` rebuild happens per extraction.
        """
        lo, hi = int(self._offsets[b]), int(self._offsets[b + 1])
        return ClassVector.from_parts(
            self._element_classes[b],
            self._class_sizes[lo:hi],
            self._values[lo:hi],
            expected_norm=float(self._expected_norms[b]),
        )

    # -- internals --------------------------------------------------------------

    def _index_segments(self) -> None:
        """Build the per-cell segment index and the per-width reduction groups.

        ``_width_groups`` is ``None`` when every segment has the same
        width (the plane reshapes to ``(B, w)``); otherwise it lists, per
        distinct width ``w``, the segments of that width and their
        ``(k, w)`` cell indices.
        """
        lengths = self._n_classes
        self._cell_segment = np.repeat(np.arange(lengths.size), lengths)
        widths = np.unique(lengths)
        if widths.size == 1:
            self._width_groups = None
            return
        self._width_groups = []
        for width in widths:
            segments = np.flatnonzero(lengths == width)
            cells = self._offsets[segments][:, None] + np.arange(width)
            self._width_groups.append((segments, cells))

    def _segment_sums(self, plane: np.ndarray) -> np.ndarray:
        """Per-segment sums of a ``(Σ(ν_b+1),)`` plane, one row sum per width."""
        if self._width_groups is None:
            return plane.reshape(self.batch_size, -1).sum(axis=1)
        out = np.empty(self.batch_size, dtype=plane.dtype)
        for segments, cells in self._width_groups:
            out[segments] = plane[cells].sum(axis=1)
        return out

    def _per_cell(self, phase: np.ndarray) -> np.ndarray:
        """Validated per-instance phases gathered onto every cell."""
        return _as_phase_column(phase, self.batch_size)[:, 0][self._cell_segment]

    def _after_unitary(self) -> "StackedClassVector":
        if CONFIG.strict_checks:
            norms = self.norms()
            drift = np.abs(norms - self._expected_norms)
            if np.any(drift > 1e-8):
                worst = int(np.argmax(drift))
                raise NotUnitaryError(
                    f"instance {worst}: norm drifted to {norms[worst]} (expected "
                    f"{self._expected_norms[worst]}) after a unitary operation"
                )
        return self

    def __repr__(self) -> str:
        return (
            f"StackedClassVector(B={self.batch_size}, cells={self._values.shape[0]})"
        )
