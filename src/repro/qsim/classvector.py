"""O(ν)-memory compressed state over count classes (the ``classes`` substrate).

Every operator the samplers apply — ``F``, ``D``, ``S_χ``, ``S_π`` and the
global phases — acts on the element register only through the joint count
``c_i`` (``D`` rotates by an angle set by ``c_i``; ``S_π`` reflects about
the *uniform* state; ``S_χ`` never touches ``i``).  Starting from the
uniform ``|π⟩``, the amplitude of ``|i, w⟩`` therefore depends on ``i``
only through its **count class** ``c_i ∈ {0, …, ν}`` for the entire run:
the amplification dynamics live in an at-most-``(ν+1)×2``-dimensional
invariant subspace.

:class:`ClassVector` stores exactly one amplitude per ``(class, flag)``
cell together with the class multiplicities ``N_c = #{i : c_i = c}``,
representing the full state

    ``|ψ⟩ = Σ_i Σ_w  α[c_i, w] |i, w⟩``,     ‖ψ‖² = Σ_c N_c Σ_w |α[c,w]|².

State memory is ``Θ(ν)`` — independent of the universe size ``N`` — which
is what takes reachable instances from ``N ≈ 10⁴`` (dense cap) to
``N ≥ 10⁶``.  The per-element class map (an ``int`` array of length ``N``)
is classical database metadata, not quantum state, and is only touched by
``O(N)`` *endpoint* operations (marginals, sampling), never inside the
amplification loop.

The class implements the same operation surface the amplification engine
and the analysis/verification layers consume from
:class:`~repro.qsim.state.StateVector` (``apply_phase_slice``,
``apply_pi_projector_phase``, ``apply_global_phase``, ``layout``,
``marginal_probabilities``, ``probability_of``, ``norm``), so it drops in
as a backend substrate without special-casing the control flow.
"""

from __future__ import annotations

import numpy as np

from ..config import CONFIG
from ..errors import NotUnitaryError, ValidationError
from ..utils.validation import require
from .register import RegisterLayout


class ClassVector:
    """A pure state on ``(i, w)`` constant on count classes of ``i``.

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

    __slots__ = ("_element_classes", "_class_sizes", "_amps", "_expected_norm",
                 "_owns_class_structure")

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
        if element_classes.size and (
            element_classes.min() < 0 or element_classes.max() >= n_classes
        ):
            raise ValidationError(
                f"element classes must lie in [0, {n_classes}); got range "
                f"[{element_classes.min()}, {element_classes.max()}]"
            )
        self._element_classes = element_classes
        self._class_sizes = np.bincount(element_classes, minlength=n_classes).astype(
            np.float64
        )
        if amps is None:
            arr = np.zeros((n_classes, 2), dtype=np.complex128)
        else:
            arr = np.array(amps, dtype=np.complex128, copy=True, order="C")
            if arr.shape != (n_classes, 2):
                raise ValidationError(
                    f"amplitudes must have shape ({n_classes}, 2), got {arr.shape}"
                )
        self._amps = arr
        self._expected_norm = self.norm()
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
        state._expected_norm = state.norm()
        return state

    @classmethod
    def from_parts(
        cls,
        element_classes: np.ndarray,
        class_sizes: np.ndarray,
        amps: np.ndarray,
        expected_norm: float | None = None,
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
        out._expected_norm = out.norm() if expected_norm is None else float(expected_norm)
        return out

    def copy(self) -> "ClassVector":
        """An independent deep copy (class structure shared, copy-on-write).

        The class map and multiplicities are shared between the copies
        until either side calls :meth:`transfer_element`, which copies
        them first (both sides drop ownership here).
        """
        out = ClassVector.__new__(ClassVector)
        out._element_classes = self._element_classes
        out._class_sizes = self._class_sizes
        out._amps = self._amps.copy()
        out._expected_norm = self._expected_norm
        out._owns_class_structure = False
        self._owns_class_structure = False  # the copy now shares the arrays
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

    def overlap(self, other: "ClassVector") -> complex:
        """⟨self|other⟩ — requires an identical class map."""
        self._check_compatible(other)
        weighted = self._class_sizes[:, None] * np.conj(self._amps) * other._amps
        return complex(weighted.sum())

    def fidelity_pure(self, other: "ClassVector") -> float:
        """|⟨self|other⟩|²."""
        return float(abs(self.overlap(other)) ** 2)

    # -- unitary mutations -------------------------------------------------------

    def apply_class_flag_unitary(self, mats: np.ndarray) -> "ClassVector":
        """Per-class 2×2 unitary on the flag: ``α[c] ← mats[c] @ α[c]``.

        This is the kernel realizing both ``D`` (Eq. 5 — blocks indexed by
        the count value) and ``U`` (Eq. 6) in class coordinates; cost
        ``O(ν)`` independent of ``N``.
        """
        mats = np.asarray(mats, dtype=np.complex128)
        if mats.shape != (self.n_classes, 2, 2):
            raise ValidationError(
                f"mats must have shape ({self.n_classes}, 2, 2), got {mats.shape}"
            )
        self._amps = np.einsum("cab,cb->ca", mats, self._amps)
        return self._after_unitary()

    def apply_phase_slice(self, reg: str, value: int, phase: complex) -> "ClassVector":
        """``S_χ(φ)``-style phase on one flag value (``reg`` must be ``"w"``).

        A phase on a *single element* ``i`` would break the class symmetry
        the representation relies on, so only the flag register is
        addressable; the samplers never need more.
        """
        if reg != "w":
            raise ValidationError(
                f"ClassVector supports phase slices on the flag register 'w' only, "
                f"not {reg!r} (a per-element phase would break class symmetry)"
            )
        if abs(abs(phase) - 1.0) > CONFIG.atol:
            raise NotUnitaryError(f"phase must have unit modulus, got |{phase}| = {abs(phase)}")
        if value not in (0, 1):
            raise ValidationError(f"flag value {value} out of range")
        self._amps[:, value] *= phase
        return self._after_unitary()

    def apply_pi_projector_phase(
        self, phase: complex, element_reg: str = "i", flag_reg: str = "w"
    ) -> "ClassVector":
        """``S_π(ϕ) = I + (e^{iϕ} − 1)|π⟩⟨π| ⊗ |0⟩⟨0|_w`` in ``O(ν)``.

        ``⟨π, 0|ψ⟩ = Σ_c N_c α[c,0] / √N`` and the rank-one update adds
        the same correction ``(e^{iϕ}−1)·⟨π,0|ψ⟩/√N`` to every class's
        flag-0 amplitude.  The scalars ride in length-1 arrays: NumPy's
        array complex multiply rounds differently from its scalar one,
        and the stacked class kernels use the array form, so this keeps
        per-instance and stacked rows bit-identical.
        """
        if abs(abs(phase) - 1.0) > CONFIG.atol:
            raise NotUnitaryError(f"phase must have unit modulus, got |{phase}| = {abs(phase)}")
        require(element_reg == "i" and flag_reg == "w", "ClassVector registers are (i, w)")
        inv_sqrt_n = 1.0 / np.sqrt(np.array([self.n_elements], dtype=np.float64))
        pi_overlap = inv_sqrt_n * np.sum(
            self._class_sizes * self._amps[:, 0], keepdims=True
        )
        correction = (np.array([phase], dtype=np.complex128) - 1.0) * pi_overlap * inv_sqrt_n
        self._amps[:, 0] += correction
        return self._after_unitary()

    def apply_global_phase(self, phase: complex) -> "ClassVector":
        """Multiply the whole state by a unit-modulus scalar."""
        if abs(abs(phase) - 1.0) > CONFIG.atol:
            raise NotUnitaryError(f"phase must have unit modulus, got |{phase}| = {abs(phase)}")
        self._amps *= phase
        return self._after_unitary()

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
        norm may change.  The expected norm used by ``strict_checks`` is
        refreshed accordingly.  Class structure shared with copies is
        copied on first write (see :meth:`copy`).
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
        self._expected_norm = self.norm()
        return self

    # -- non-unitary analysis helpers ---------------------------------------------

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

    # -- internals --------------------------------------------------------------

    def _after_unitary(self) -> "ClassVector":
        if CONFIG.strict_checks:
            n = self.norm()
            if abs(n - self._expected_norm) > 1e-8:
                raise NotUnitaryError(
                    f"norm drifted to {n} (expected {self._expected_norm}) "
                    "after a unitary operation"
                )
        return self

    def _check_compatible(self, other: "ClassVector") -> None:
        if self.n_classes != other.n_classes or not np.array_equal(
            self._element_classes, other._element_classes
        ):
            raise ValidationError("ClassVector operands have different class structure")

    def __repr__(self) -> str:
        return (
            f"ClassVector(N={self.n_elements}, classes={self.n_classes}, "
            f"cells={self._amps.size})"
        )
