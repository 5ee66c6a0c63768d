"""O(ν)-memory compressed states over count classes (the ``classes`` substrate).

Every operator the samplers apply — ``F``, ``D``, ``S_χ``, ``S_π`` and the
global phases — acts on the element register only through the joint count
``c_i`` (``D`` rotates by an angle set by ``c_i``; ``S_π`` reflects about
the *uniform* state; ``S_χ`` never touches ``i``).  Starting from the
uniform ``|π⟩``, the amplitude of ``|i, w⟩`` therefore depends on ``i``
only through its **count class** ``c_i ∈ {0, …, ν}`` for the entire run:
the amplification dynamics live in an at-most-``(ν+1)×2``-dimensional
invariant subspace, and Eq. (5)'s ``D`` *is* Eq. (6)'s ``U`` applied once
per class.  One instance is one amplitude per ``(class, flag)`` cell
together with the class multiplicities ``N_c = #{i : c_i = c}``,
representing the full state

    ``|ψ⟩ = Σ_i Σ_w  α[c_i, w] |i, w⟩``,     ‖ψ‖² = Σ_c N_c Σ_w |α[c,w]|².

State memory is ``Θ(ν)`` — independent of the universe size ``N`` — which
is what takes reachable instances from ``N ≈ 10⁴`` (dense cap) to
``N ≥ 10⁶``.  The per-element class map (an ``int`` array of length ``N``)
is classical database metadata, not quantum state, and is only touched by
``O(N)`` *endpoint* operations (marginals, sampling), never inside the
amplification loop.

Two classes share this module.  :class:`StackedClassVector` is the one
class kernel: ``B`` instances CSR-packed into one ``(Σ(ν_b+1), 2)``
values plane plus ``(B + 1,)`` offsets, each segment exactly its
instance's width (no padding for mixed ν), every operator of the loop a
constant number of NumPy calls over the whole plane.  The stacked engine
(:mod:`repro.batch.engine`) runs batches on it, and the per-instance
``classes`` backend (:class:`~repro.core.backends.ClassesBackend`) a
``B = 1`` stack, so a row does not depend on its batch by construction.
:class:`ClassVector` is one instance's container and live view, with no
kernels: the final state results carry (``StackedClassVector.extract``),
the view :meth:`~repro.database.dynamic.UpdateStream.class_state` keeps
current in ``O(1)`` per update (:meth:`ClassVector.transfer_element`),
and what the analysis layer reads (marginals, ``probability_of``,
``to_statevector``).

Reduction trees.  Each segment reduces over exactly its own cells: the
segments of one width are gathered into a ``(k, w)`` block and summed
along the contiguous axis, which runs NumPy's pairwise summation over
each row of length ``w`` — the tree ``np.sum`` builds over that
instance's own ``(ν_b + 1,)`` array.  When every segment has the same
width the plane reshapes to ``(B, w)`` without a gather.
``np.add.reduceat`` is not used: it sums sequentially and diverges from
``np.sum`` in the last ulp once a segment outgrows the unrolled block.
The segment index and the width groups depend only on the segment
lengths, so they are built once per state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import CONFIG
from ..errors import NotUnitaryError, ValidationError
from ..utils.validation import require
from .register import RegisterLayout


def _class_sizes(element_classes: np.ndarray, n_classes: int, where: str = "") -> np.ndarray:
    """The multiplicities ``N_c`` of one class map, range-checked in the same pass.

    ``np.bincount`` is the only ``O(N)`` scan: a negative class makes it
    raise, and a class ``≥ n_classes`` lengthens its result past
    ``n_classes``.  ``where`` prefixes the error (``"instance b: "``).
    """
    try:
        sizes = np.bincount(element_classes, minlength=n_classes)
    except ValueError:
        sizes = None
    if sizes is None or sizes.size > n_classes:
        raise ValidationError(
            f"{where}element classes must lie in [0, {n_classes}); got range "
            f"[{element_classes.min()}, {element_classes.max()}]"
        )
    return sizes


class ClassVector:
    """One instance's count-class state: container and live view, no kernels.

    Parameters
    ----------
    element_classes:
        Integer array of length ``N`` mapping each element to its class
        (for the samplers: the joint count ``c_i``).
    n_classes:
        Number of classes (``ν + 1``); must exceed every entry of
        ``element_classes``.
    amps:
        Optional initial ``(n_classes, 2)`` complex amplitudes; defaults
        to all zeros with ``|0…0⟩`` semantics *not* imposed (use the
        :meth:`uniform` constructor for ``|π⟩ ⊗ |0⟩``).
    """

    __slots__ = ("_element_classes", "_class_sizes", "_amps", "_owns_class_structure")

    def __init__(
        self,
        element_classes: np.ndarray,
        n_classes: int,
        amps: np.ndarray | None = None,
    ) -> None:
        element_classes = np.asarray(element_classes, dtype=np.int64)
        require(element_classes.ndim == 1, "element_classes must be a 1-D array")
        require(element_classes.size > 0, "need at least one element")
        require(n_classes >= 1, "need at least one class")
        self._element_classes = element_classes
        self._class_sizes = _class_sizes(element_classes, n_classes).astype(np.float64)
        if amps is None:
            arr = np.zeros((n_classes, 2), dtype=np.complex128)
        else:
            arr = np.array(amps, dtype=np.complex128, copy=True, order="C")
            if arr.shape != (n_classes, 2):
                raise ValidationError(
                    f"amplitudes must have shape ({n_classes}, 2), got {arr.shape}"
                )
        self._amps = arr
        # The class map may be the caller's array (np.asarray skips the
        # copy), so ownership is never assumed: the first
        # transfer_element copies before writing.
        self._owns_class_structure = False

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(cls, element_classes: np.ndarray, n_classes: int) -> "ClassVector":
        """``|π⟩ ⊗ |0⟩_w`` — the state after ``F``, in class coordinates."""
        state = cls(element_classes, n_classes)
        state._amps[:, 0] = 1.0 / np.sqrt(state.n_elements)
        return state

    @classmethod
    def from_parts(
        cls,
        element_classes: np.ndarray,
        class_sizes: np.ndarray,
        amps: np.ndarray,
    ) -> "ClassVector":
        """Assemble from precomputed pieces, skipping validation.

        The trusted fast path for callers that already hold a consistent
        ``(class map, multiplicities, amplitudes)`` triple — the stacked
        batch engine extracts thousands of per-instance states per run,
        and re-deriving ``class_sizes`` via ``bincount`` there would put
        an ``O(N)`` scan back into the per-instance cost this
        representation exists to avoid.  The class map is *shared*, not
        copied (copy-on-write via :meth:`transfer_element`).
        """
        out = cls.__new__(cls)
        out._element_classes = element_classes
        out._class_sizes = class_sizes
        out._amps = np.array(amps, dtype=np.complex128, copy=True, order="C")
        out._owns_class_structure = False
        return out

    # -- basic queries ----------------------------------------------------------

    @property
    def layout(self) -> RegisterLayout:
        """The *logical* ``(i, w)`` layout this state compresses."""
        return RegisterLayout.of(i=self.n_elements, w=2)

    @property
    def n_elements(self) -> int:
        """Universe size ``N``."""
        return int(self._element_classes.size)

    @property
    def n_classes(self) -> int:
        """Number of count classes (``ν + 1`` for the samplers)."""
        return int(self._amps.shape[0])

    @property
    def element_classes(self) -> np.ndarray:
        """The element → class map (treat as read-only)."""
        return self._element_classes

    @property
    def class_sizes(self) -> np.ndarray:
        """Multiplicities ``N_c`` as floats (treat as read-only)."""
        return self._class_sizes

    @property
    def dimension(self) -> int:
        """Logical Hilbert-space dimension ``2N``."""
        return 2 * self.n_elements

    def class_amplitudes(self) -> np.ndarray:
        """The live ``(n_classes, 2)`` amplitude buffer (treat as read-only)."""
        return self._amps

    def norm(self) -> float:
        """Euclidean norm ‖ψ‖ with multiplicity weights."""
        per_class = np.sum(np.abs(self._amps) ** 2, axis=1)
        return float(np.sqrt(np.sum(self._class_sizes * per_class)))

    # -- dynamic updates ---------------------------------------------------------

    def transfer_element(self, element: int, new_class: int) -> "ClassVector":
        """Move one element to another count class in ``O(1)``.

        The Section 3 dynamic-update remark in class coordinates: a ±1
        change of element ``i``'s joint count moves it between *adjacent*
        count classes, which here is one decrement and one increment of
        the multiplicity table plus a class-map write — no ``O(N)``
        rebuild.  (Any target class is accepted; elementary updates use
        ``c_i ± 1``.)

        This is a *database metadata* update, not a unitary: the element
        now reads its amplitude from its new class's cell, so the state
        norm may change.  Class structure shared with the caller or with
        a stack (:meth:`from_parts`, :meth:`StackedClassVector.extract`)
        is copied on first write.
        """
        if not 0 <= element < self.n_elements:
            raise ValidationError(f"element {element} out of range [0, {self.n_elements})")
        if not 0 <= new_class < self.n_classes:
            raise ValidationError(
                f"target class {new_class} out of range [0, {self.n_classes})"
            )
        old_class = int(self._element_classes[element])
        if old_class == new_class:
            return self
        if not self._owns_class_structure:
            self._element_classes = self._element_classes.copy()
            self._class_sizes = self._class_sizes.copy()
            self._owns_class_structure = True
        self._element_classes[element] = new_class
        self._class_sizes[old_class] -= 1.0
        self._class_sizes[new_class] += 1.0
        return self

    # -- analysis helpers ---------------------------------------------------------

    def marginal_probabilities(self, reg: str) -> np.ndarray:
        """Born-rule marginal of ``"i"`` (length ``N``) or ``"w"`` (length 2).

        The element marginal is the one ``O(N)`` endpoint operation —
        a single gather through the class map.
        """
        probs = np.abs(self._amps) ** 2
        if reg == "i":
            per_class = probs.sum(axis=1)
            return per_class[self._element_classes]
        if reg == "w":
            return self._class_sizes @ probs
        raise ValidationError(f"unknown register {reg!r}; ClassVector has ('i', 'w')")

    def probability_of(self, assignment: dict) -> float:
        """Probability of fixed values on a subset of ``{"i", "w"}``."""
        if not assignment:
            raise ValidationError("assignment must name at least one register")
        unknown = set(assignment) - {"i", "w"}
        if unknown:
            raise ValidationError(f"unknown registers in assignment: {sorted(unknown)}")
        probs = np.abs(self._amps) ** 2  # (classes, 2)
        if "w" in assignment:
            w = int(assignment["w"])
            if w not in (0, 1):
                raise ValidationError(f"value {w} out of range for register 'w'")
            probs = probs[:, w : w + 1]
        if "i" in assignment:
            i = int(assignment["i"])
            if not 0 <= i < self.n_elements:
                raise ValidationError(f"value {i} out of range for register 'i'")
            return float(probs[self._element_classes[i]].sum())
        return float((self._class_sizes[:, None] * probs).sum())

    def to_statevector(self):
        """Expand to a dense ``(i, w)`` :class:`StateVector` (testing aid).

        Subject to the usual ``max_dense_dimension`` guard — this is for
        cross-backend validation on small instances, not production paths.
        """
        from .state import StateVector

        amps = self._amps[self._element_classes, :]  # (N, 2)
        return StateVector.from_array(self.layout, amps)

    def __repr__(self) -> str:
        return (
            f"ClassVector(N={self.n_elements}, classes={self.n_classes}, "
            f"cells={self._amps.size})"
        )


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

    Phases are accepted either as scalars (applied to every instance) or
    as per-instance ``(B,)`` arrays — the latter is what lets one batch
    mix instances whose final partial iterates use different angles.
    The class maps and multiplicities are never written, so a stack may
    share them with its caller and with the :class:`ClassVector` states
    :meth:`extract` hands out.
    """

    __slots__ = ("_element_classes", "_n_classes", "_offsets", "_class_sizes",
                 "_values", "_inv_sqrt_n", "_expected_norms",
                 "_cell_segment", "_width_groups")

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
            self._class_sizes[self._offsets[b]:self._offsets[b + 1]] = _class_sizes(
                ec, c, f"instance {b}: "
            )
        self._inv_sqrt_n = 1.0 / np.sqrt(
            np.array([ec.size for ec in maps], dtype=np.float64)
        )
        self._index_segments()
        if values is None:
            self._values = np.zeros((total_cells, 2), dtype=np.complex128)
            self._expected_norms = np.zeros(len(maps), dtype=np.float64)
            return
        arr = np.array(values, dtype=np.complex128, copy=True, order="C")
        if arr.shape != (total_cells, 2):
            raise ValidationError(
                f"values must have shape ({total_cells}, 2), got {arr.shape}"
            )
        self._values = arr
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
    ) -> "StackedClassVector":
        """Assemble from precomputed CSR pieces, skipping validation.

        The trusted fast path mirroring :meth:`ClassVector.from_parts`:
        the values plane is copied (it is live state), the class
        structure (maps, offsets, multiplicities) is *shared* with the
        caller.
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
        out._index_segments()
        out._expected_norms = out.norms()
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
        """Per-cell 2×2 flag unitaries over the whole plane: ``α[c] ← mats[c] @ α[c]``.

        The kernel realizing both ``D`` (Eq. 5 — blocks indexed by the
        count value) and ``U`` (Eq. 6) in class coordinates; cost
        ``O(Σν_b)`` independent of every ``N_b``.
        """
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

        A phase on a *single element* ``i`` would break the class symmetry
        the representation relies on, so only the flag register ``"w"``
        is addressable; the samplers never need more.
        """
        if reg != "w":
            raise ValidationError(
                f"StackedClassVector supports phase slices on the flag register "
                f"'w' only, not {reg!r} (a per-element phase would break class "
                "symmetry)"
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
        """``S_π(ϕ) = I + (e^{iϕ} − 1)|π⟩⟨π| ⊗ |0⟩⟨0|_w`` on every instance.

        ``⟨π,0|ψ_b⟩ = (1/√N_b)·Σ_c N_{b,c} α[b,c,0]`` over the segment's
        own cells (one product plane, one segment reduction), then the
        rank-one correction ``(e^{iϕ_b}−1)·⟨π,0|ψ_b⟩/√N_b`` added to
        every flag-0 cell of the segment — ``O(Σν_b)`` in all.
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

    # -- endpoint reads ----------------------------------------------------------

    def fidelities_with_targets(self, total_counts: Sequence[int]) -> np.ndarray:
        """Per-instance ``|⟨ψ_b, 0|state_b⟩|²`` against the Eq. (4) targets.

        The target amplitude ``√(c/M_b)`` is a function of the count
        class, so ``⟨ψ_b, 0|state_b⟩ = Σ_c N_{b,c} √(c/M_b) α[b,c,0]``
        contracts in ``O(ν_b)`` without expanding the state: one product
        plane plus one segment reduction.
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
        instance's class map, as :meth:`ClassVector.marginal_probabilities`.
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
        map and the multiplicity segment are shared (copy-on-write on the
        :class:`ClassVector` side), so no ``O(N_b)`` rebuild happens per
        extraction.
        """
        lo, hi = int(self._offsets[b]), int(self._offsets[b + 1])
        return ClassVector.from_parts(
            self._element_classes[b], self._class_sizes[lo:hi], self._values[lo:hi]
        )

    # -- internals --------------------------------------------------------------

    def _index_segments(self) -> None:
        """Build the per-cell segment index and the per-width reduction groups.

        ``_width_groups`` is ``None`` when every segment has the same
        width (the plane reshapes to ``(B, w)``; always so at ``B = 1``);
        otherwise it lists, per distinct width ``w``, the segments of
        that width and their ``(k, w)`` cell indices.
        """
        lengths = self._n_classes
        self._cell_segment = np.repeat(np.arange(lengths.size), lengths)
        if (lengths == lengths[0]).all():
            self._width_groups = None
            return
        self._width_groups = []
        for width in np.unique(lengths):
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
