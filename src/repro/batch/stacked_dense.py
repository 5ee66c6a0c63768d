"""Stacked dense subspace states: ``B`` instances as one ``(B, N, 2)`` tensor.

The ``classes`` compression batches at any scale and is what ``"auto"``
resolves to; this module stacks the dense layouts as the bit-exact
*references* the equivalence suites check against, reachable only by
explicit backend name.  For small and medium ``N`` the per-instance
:class:`~repro.core.backends.SubspaceBackend` runs each Eq. (5) rotation
as a handful of ``O(N)`` NumPy kernels, and ``B`` such instances stack
into one logical ``(B, C, 2)`` complex tensor with ``C = max_b N_b``.
Every operator of the amplification loop then vectorizes across the
batch axis, turning ``B`` Python round-trips per iterate into a constant
number of kernel launches (experiment E23's stacked-dense rows).

Bit-identity is the design constraint, not an accident: every kernel
below performs the *same floating-point operations per element* as the
per-instance :class:`~repro.qsim.state.StateVector` path, so a stacked
run reproduces per-instance ``subspace`` rows — fidelity, output
distribution, final state — bit for bit (modulo the sign of zeros; the
equivalence tests in ``tests/batch/test_stacked_dense.py`` assert
``==``).  The reductions whose summation order is length-dependent (the
``⟨π, 0|ψ_b⟩`` contraction of ``S_π`` and the target-overlap ``vdot``)
run per instance through the exact NumPy calls the dense path uses —
contiguous operands included, because NumPy's strided and contiguous
inner loops sum in different orders; all elementwise work is batched.

Two deliberate layout choices keep the batched kernels out of the
memory wall the naive ``(B, C, 2)`` array hits:

* the two flag columns are stored as **separate contiguous** ``(B, C)``
  planes (``a0``/``a1``), so the ``D`` rotation reads and writes
  streams instead of stride-2 gathers (the per-instance path pays the
  same stride but in cache);
* the rotation writes into **preallocated scratch planes** that are
  buffer-swapped in, so one ``D`` is six ``out=`` ufunc passes and zero
  allocations.

The interleaved ``(N_b, 2)`` view any endpoint needs (fidelity ``vdot``,
final-state extraction) is materialized per instance, once, at the end.

Two backends share the machinery: ``subspace`` stacks the sequential
Eq. (5) states, and ``synced`` stacks the parallel Lemma 4.4 fast path —
the synced counting register stays classically correlated with the
element register, so the same two planes carry it with the ``s`` axis
kept virtual (see :class:`StackedSyncedVector`).

Instances need not be homogeneous: each carries its own universe size
``N_b``.  Shorter instances are padded with inert columns — amplitude
zero, identity rotation, zero uniform weight — so stacking never changes
any instance's dynamics.

Memory is ``B × 2C`` complex cells (plus scratch and two ``B × C``
float rotation tables); construction applies the per-instance
``max_dense_dimension`` guard to ``2C``, so an explicit dense stack
fails with :class:`~repro.errors.SimulationLimitError` instead of
attempting a massive allocation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence, TYPE_CHECKING

import numpy as np

from ..config import CONFIG
from ..errors import EmptyDatabaseError, NotUnitaryError, ValidationError
from ..qsim.classvector import _as_phase_column
from ..qsim.fourier import uniform_state
from ..qsim.register import RegisterLayout
from ..qsim.state import StateVector
from ..utils.validation import require
from .backends import StackedBackend, register_stacked_backend

if TYPE_CHECKING:  # pragma: no cover
    from .engine import ClassInstance

#: Target live cells (a0 + a1) per execution block: ``2 × this × 16``
#: bytes ≈ 2 MiB, sized so a whole amplification loop (planes + scratch
#: + rotation tables) runs cache-resident.
#: See :meth:`StackedSubspaceBackend.group_size_limit`.
DENSE_BLOCK_CELLS = 2**16


def _uniforms_for(
    sizes: tuple[int, ...],
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray]:
    """Cache-or-build dispatch for :func:`_build_uniforms`.

    Engine-produced states are block-limited (≤ :data:`DENSE_BLOCK_CELLS`
    live cells), so their signatures are small and hot — worth pinning.
    Direct public construction has no such bound; oversized signatures
    are built uncached so the memo stays bounded in *bytes*, not just
    entries.
    """
    if len(sizes) * max(sizes) <= 2 * DENSE_BLOCK_CELLS:
        return _cached_uniforms(sizes)
    return _build_uniforms(sizes)


@lru_cache(maxsize=64)
def _cached_uniforms(
    sizes: tuple[int, ...],
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray]:
    return _build_uniforms(sizes)


def _build_uniforms(
    sizes: tuple[int, ...],
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...], np.ndarray]:
    """``(|π⟩ per instance, conjugates, zero-padded (B, C) grid)``.

    Homogeneous sweeps re-stack the same size signature block after
    block, and ``S_π`` contracts the conjugated uniform vector every
    iterate — sharing all three (read-only) kills an ``O(N)``
    allocation per instance per iterate.
    """
    width = max(sizes)
    vectors = []
    conjugates = []
    grid = np.zeros((len(sizes), width), dtype=np.complex128)
    for b, n in enumerate(sizes):
        vec = uniform_state(n)
        # conj(), pre-shaped (1, n): the exact left operand of the
        # np.dot call inside the per-instance tensordot contraction
        # (values are real; the copy exists to keep NumPy's exact path).
        conj = vec.conj().reshape(1, n)
        vec.setflags(write=False)
        conj.setflags(write=False)
        vectors.append(vec)
        conjugates.append(conj)
        grid[b, :n] = vec
    grid.setflags(write=False)
    return tuple(vectors), tuple(conjugates), grid


class StackedSubspaceVector:
    """``B`` dense ``(i, w)`` subspace states sharing one amplitude tensor.

    Parameters
    ----------
    sizes:
        Per-instance universe sizes ``N_b``; the stacked width is
        ``C = max(sizes)`` and shorter instances are padded with inert
        columns.

    The operation surface mirrors :class:`~repro.qsim.state.StateVector`
    restricted to what the amplification engine drives — flag phase
    slices, the ``S_π`` projector phase, global phases — with phases
    accepted as scalars or per-instance ``(B,)`` arrays, exactly like
    :class:`~repro.qsim.classvector.StackedClassVector`.  The ``D`` kernel
    lives in :meth:`apply_element_flag_rotation` (per-element 2×2
    rotations, the batched form of Eq. 5).
    """

    __slots__ = (
        "_sizes", "_uniforms", "_uniforms_conj", "_uniform_grid", "_a0", "_a1",
        "_s0", "_s1", "_scratch", "_expected_norms", "_interleave_memo",
    )

    def __init__(self, sizes: Sequence[int], amps: np.ndarray | None = None) -> None:
        counts = [int(n) for n in sizes]
        require(len(counts) > 0, "a stacked state needs at least one instance")
        for b, n in enumerate(counts):
            require(n >= 1, f"instance {b}: need at least one element")
        batch = len(counts)
        width = max(counts)
        # The guard the per-instance dense path applies per layout: the
        # stacked tensor commits B such layouts, each capped.
        CONFIG.require_dense_dimension(2 * width)
        self._sizes = np.asarray(counts, dtype=np.int64)
        # |π⟩ per instance (real-valued complex), its conjugates, and the
        # zero-padded (B, C) grid the S_π rank-one update uses — shared
        # read-only across states with the same size signature.
        self._uniforms, self._uniforms_conj, self._uniform_grid = _uniforms_for(
            tuple(counts)
        )
        # Flag columns as separate contiguous planes (see module notes).
        self._a0 = np.zeros((batch, width), dtype=np.complex128)
        self._a1 = np.zeros((batch, width), dtype=np.complex128)
        if amps is not None:
            arr = np.asarray(amps, dtype=np.complex128)
            if arr.shape != (batch, width, 2):
                raise ValidationError(
                    f"amplitudes must have shape ({batch}, {width}, 2), got {arr.shape}"
                )
            self._a0[:] = arr[:, :, 0]
            self._a1[:] = arr[:, :, 1]
            self._expected_norms = self.norms()
        else:
            self._expected_norms = np.zeros(batch, dtype=np.float64)
        # Scratch planes for the zero-allocation D kernel (buffer-swapped).
        self._s0 = np.empty_like(self._a0)
        self._s1 = np.empty_like(self._a1)
        self._scratch = np.empty_like(self._a0)
        # Endpoint memo: fidelity and final-state extraction both need
        # the interleaved view; build it once per instance per quiescent
        # state (any unitary clears it).
        self._interleave_memo: dict[int, np.ndarray] = {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(cls, sizes: Sequence[int]) -> "StackedSubspaceVector":
        """Every instance in ``|π⟩ ⊗ |0⟩_w`` — the state after ``F``.

        Writes ``1/√N_b`` directly, the same ``O(N)`` preparation the
        per-instance backends use instead of the ``Θ(N²)`` matrix.
        """
        state = cls(sizes)
        for b, n in enumerate(state._sizes):
            state._a0[b, : int(n)] = 1.0 / np.sqrt(int(n))
        state._expected_norms = state.norms()
        return state

    @classmethod
    def stack(cls, states: Sequence[StateVector]) -> "StackedSubspaceVector":
        """Stack existing per-instance ``(i, w)`` :class:`StateVector` states."""
        sizes = []
        for b, s in enumerate(states):
            if tuple(s.layout.names) != ("i", "w"):
                raise ValidationError(
                    f"instance {b}: expected an (i, w) layout, got {s.layout!r}"
                )
            sizes.append(s.layout.dim("i"))
        out = cls(sizes)
        for b, s in enumerate(states):
            arr = s.as_array()
            out._a0[b, : sizes[b]] = arr[:, 0]
            out._a1[b, : sizes[b]] = arr[:, 1]
        out._expected_norms = out.norms()
        return out

    # -- basic queries ----------------------------------------------------------

    @property
    def batch_size(self) -> int:
        """``B`` — how many instances are stacked."""
        return int(self._sizes.size)

    @property
    def width(self) -> int:
        """``C = max_b N_b`` — the padded element-axis length."""
        return int(self._a0.shape[1])

    @property
    def sizes(self) -> np.ndarray:
        """Per-instance universe sizes ``N_b`` (treat as read-only)."""
        return self._sizes

    def amplitudes(self) -> np.ndarray:
        """The ``(B, C, 2)`` amplitude tensor, interleaved (a fresh copy).

        Analysis surface only — the live state is the pair of contiguous
        flag planes; mutate through the operation methods.
        """
        out = np.empty((self.batch_size, self.width, 2), dtype=np.complex128)
        out[:, :, 0] = self._a0
        out[:, :, 1] = self._a1
        return out

    def n_elements(self, b: int) -> int:
        """Universe size ``N_b`` of instance ``b``."""
        return int(self._sizes[b])

    def norms(self) -> np.ndarray:
        """Per-instance Euclidean norms ‖ψ_b‖ as a ``(B,)`` array."""
        per_row = np.sum(np.abs(self._a0) ** 2, axis=1)
        per_row += np.sum(np.abs(self._a1) ** 2, axis=1)
        return np.sqrt(per_row)

    def interleaved(self, b: int) -> np.ndarray:
        """Instance ``b``'s amplitudes as an ``(N_b, 2)`` array (read-only).

        The layout every endpoint contraction expects — the same memory
        order the per-instance :class:`StateVector` carries, so
        ``np.vdot`` against it sums in the identical interleaved order.
        Memoized per instance until the next unitary; treat as read-only.
        """
        cached = self._interleave_memo.get(b)
        if cached is not None:
            return cached
        n = int(self._sizes[b])
        out = np.empty((n, 2), dtype=np.complex128)
        out[:, 0] = self._a0[b, :n]
        out[:, 1] = self._a1[b, :n]
        self._interleave_memo[b] = out
        return out

    # -- unitary mutations -------------------------------------------------------

    def apply_element_flag_rotation(
        self, cos: np.ndarray, sin: np.ndarray, adjoint: bool = False
    ) -> "StackedSubspaceVector":
        """Per-instance, per-element flag rotations — the batched ``D`` of Eq. (5).

        ``cos``/``sin`` are ``(B, C)`` real tables (``√(c_i/ν)`` and
        ``√(1−c_i/ν)`` per element; padded columns carry ``cos=1, sin=0``
        so stacking stays observationally equal to per-instance
        execution).  Six ``out=`` ufunc passes into the scratch planes,
        then a buffer swap — per element, the exact multiplies and adds
        of the dense :meth:`StateVector.apply_controlled_qubit_unitary`
        kernel, so amplitudes stay bit-identical.
        """
        expected = (self.batch_size, self.width)
        cos = np.asarray(cos, dtype=np.float64)
        sin = np.asarray(sin, dtype=np.float64)
        if cos.shape != expected or sin.shape != expected:
            raise ValidationError(
                f"cos/sin tables must have shape {expected}, got "
                f"{cos.shape} and {sin.shape}"
            )
        a0, a1 = self._a0, self._a1
        s0, s1, tmp = self._s0, self._s1, self._scratch
        if adjoint:
            # [[c, s], [−s, c]] — per element: new0 = c·a0 + s·a1,
            # new1 = (−s)·a0 + c·a1 (computed as c·a1 − s·a0; IEEE
            # subtraction ≡ adding the negated product, bit for bit).
            np.multiply(cos, a0, out=s0)
            np.multiply(sin, a1, out=tmp)
            np.add(s0, tmp, out=s0)
            np.multiply(cos, a1, out=s1)
            np.multiply(sin, a0, out=tmp)
            np.subtract(s1, tmp, out=s1)
        else:
            # [[c, −s], [s, c]] — new0 = c·a0 − s·a1, new1 = s·a0 + c·a1.
            np.multiply(cos, a0, out=s0)
            np.multiply(sin, a1, out=tmp)
            np.subtract(s0, tmp, out=s0)
            np.multiply(sin, a0, out=s1)
            np.multiply(cos, a1, out=tmp)
            np.add(s1, tmp, out=s1)
        self._a0, self._s0 = s0, a0
        self._a1, self._s1 = s1, a1
        return self._after_unitary()

    def apply_phase_slice(
        self, reg: str, value: int, phase: complex | np.ndarray
    ) -> "StackedSubspaceVector":
        """``S_χ(φ)``-style phase on one flag value, per instance.

        Only the flag register is addressable — the amplification loop
        never phases a single element, and keeping the surface identical
        to :class:`~repro.qsim.classvector.StackedClassVector` is what lets
        the engine stay representation-blind.
        """
        if reg != "w":
            raise ValidationError(
                f"StackedSubspaceVector supports phase slices on the flag "
                f"register 'w' only, not {reg!r}"
            )
        if value not in (0, 1):
            raise ValidationError(f"flag value {value} out of range")
        plane = self._a0 if value == 0 else self._a1
        plane *= _as_phase_column(phase, self.batch_size)
        return self._after_unitary()

    def apply_pi_projector_phase(
        self,
        phase: complex | np.ndarray,
        element_reg: str = "i",
        flag_reg: str = "w",
    ) -> "StackedSubspaceVector":
        """``S_π(ϕ)`` on every instance: rank-one update about ``|π⟩ ⊗ |0⟩``.

        The ``⟨π, 0|ψ_b⟩`` contraction runs per instance through the
        same :func:`numpy.tensordot` call (same length, contiguous
        operands, same summation order) the dense
        :meth:`StateVector.apply_projector_phase` path uses — the one
        reduction where a batched ``np.sum`` would drift by an ulp from
        the per-instance BLAS dot; the rank-one update itself is batched
        through the zero-padded uniform grid.
        """
        require(element_reg == "i" and flag_reg == "w", "stacked registers are (i, w)")
        col = _as_phase_column(phase, self.batch_size)
        overlaps = np.empty(self.batch_size, dtype=np.complex128)
        for b, conj in enumerate(self._uniforms_conj):
            # The exact (1, n) @ (n, 1) np.dot the per-instance
            # tensordot contraction performs, minus its generic-axes
            # wrapper — same BLAS call, same summation order, bit for
            # bit, at a fraction of the Python cost per instance.
            n = int(self._sizes[b])
            overlaps[b] = np.dot(conj, self._a0[b, :n].reshape(n, 1))[0, 0]
        correction = (col[:, 0] - 1.0) * overlaps
        np.multiply(correction[:, None], self._uniform_grid, out=self._scratch)
        self._a0 += self._scratch
        return self._after_unitary()

    def apply_global_phase(self, phase: complex | np.ndarray) -> "StackedSubspaceVector":
        """Multiply every instance by a unit-modulus scalar."""
        col = _as_phase_column(phase, self.batch_size)
        self._a0 *= col
        self._a1 *= col
        return self._after_unitary()

    # -- non-unitary analysis helpers ---------------------------------------------

    def output_probabilities(self, b: int) -> np.ndarray:
        """Born distribution of instance ``b``'s element register."""
        n = int(self._sizes[b])
        return np.abs(self._a0[b, :n]) ** 2 + np.abs(self._a1[b, :n]) ** 2

    def output_probabilities_all(self) -> list[np.ndarray]:
        """All ``B`` element-register Born distributions, batched ``|α|²``."""
        per_element = np.abs(self._a0) ** 2
        per_element += np.abs(self._a1) ** 2
        return [per_element[b, : int(n)].copy() for b, n in enumerate(self._sizes)]

    def extract(self, b: int) -> StateVector:
        """Instance ``b`` as a standalone dense ``(i, w)`` :class:`StateVector`.

        The interleaved array is freshly built and exclusively owned, so
        the state wraps it directly (the ``project_basis`` construction
        idiom) — no second copy, no re-derived norm, per extraction.
        """
        n = int(self._sizes[b])
        out = StateVector.__new__(StateVector)
        out._layout = RegisterLayout.of(i=n, w=2)
        self.interleaved(b)
        # The extracted state owns the array: pop it so a later caller
        # of interleaved() cannot alias a buffer the result may mutate.
        out._amps = self._interleave_memo.pop(b)
        out._expected_norm = float(self._expected_norms[b])
        return out

    # -- internals --------------------------------------------------------------

    def _after_unitary(self) -> "StackedSubspaceVector":
        if self._interleave_memo:
            self._interleave_memo.clear()
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
            f"StackedSubspaceVector(B={self.batch_size}, width={self.width}, "
            f"cells={2 * self._a0.size})"
        )


@register_stacked_backend
class StackedSubspaceBackend(StackedBackend):
    """``B`` dense Eq. (5) states as one ``(B, N, 2)`` tensor (sequential).

    Reproduces per-instance :class:`~repro.core.backends.SubspaceBackend`
    runs bit for bit: the rotation tables are the same
    :func:`~repro.core.distributing.rotation_blocks_from_counts` blocks
    (identity-padded per instance), and the target-overlap fidelity runs
    the same ``np.vdot`` contraction per instance on the interleaved
    view.  The engine charges the same honest Lemma 4.2 ledgers it
    charges every stacked substrate.
    """

    name = "subspace"
    models = ("sequential",)

    def __init__(self, instances: Sequence["ClassInstance"], model: str) -> None:
        super().__init__(instances, model)
        sizes = [inst.universe for inst in self._instances]
        batch = len(sizes)
        width = max(sizes) if sizes else 0
        # Padded columns are the identity rotation (cos=1, sin=0): inert.
        self._cos = np.ones((batch, width), dtype=np.float64)
        self._sin = np.zeros((batch, width), dtype=np.float64)
        for b, inst in enumerate(self._instances):
            # The exact per-instance Eq. (5) values — the same formulas
            # (and range check) as rotation_blocks_from_counts, without
            # materializing B complex (N, 2, 2) block stacks only to
            # read their two real entries.
            counts = np.asarray(inst.joints, dtype=np.float64)
            if np.any(counts < 0) or np.any(counts > inst.nu):
                raise ValidationError(
                    "counts must lie in [0, ν] for the rotation to exist"
                )
            np.sqrt(counts / inst.nu, out=self._cos[b, : sizes[b]])
            np.sqrt((inst.nu - counts) / inst.nu, out=self._sin[b, : sizes[b]])

    @classmethod
    def group_size_limit(cls, instances: Sequence["ClassInstance"]) -> int | None:
        """Cache-sized execution blocks: ≈ :data:`DENSE_BLOCK_CELLS` live cells.

        A dense stack is bandwidth-bound once the planes outgrow cache —
        the whole amplification loop re-touches every cell each iterate,
        so the engine splits oversized groups and runs each block's full
        loop while it is hot.  The per-instance results are unaffected
        (instances never interact); only wall time is.
        """
        width = max(inst.universe for inst in instances)
        return max(1, DENSE_BLOCK_CELLS // (2 * width))

    def uniform_state(self) -> StackedSubspaceVector:
        return StackedSubspaceVector.uniform(
            [inst.universe for inst in self._instances]
        )

    def apply_d(
        self, state: StackedSubspaceVector, adjoint: bool = False
    ) -> StackedSubspaceVector:
        return state.apply_element_flag_rotation(self._cos, self._sin, adjoint=adjoint)

    def fidelities(self, state: StackedSubspaceVector) -> np.ndarray:
        """Per-instance ``|⟨ψ_b, 0|state_b⟩|²`` — the Eq. (4) targets.

        Runs :func:`~repro.core.target.fidelity_with_target`'s exact
        contraction per instance (zero-padded reference, full ``np.vdot``
        over the interleaved ``(N_b, 2)`` block) so batched fidelities
        equal per-instance ones bit for bit.
        """
        out = np.empty(state.batch_size, dtype=np.float64)
        for b, inst in enumerate(self._instances):
            counts = inst.joints.astype(np.float64)
            total = counts.sum()
            if total <= 0:
                raise EmptyDatabaseError(
                    "the joint database is empty; |ψ⟩ is undefined"
                )
            reference = np.zeros((inst.universe, 2), dtype=np.complex128)
            reference[:, 0] = np.sqrt(counts / total).astype(np.complex128)
            out[b] = abs(complex(np.vdot(reference, state.interleaved(b)))) ** 2
        return out

    def output_probabilities_all(self, state: StackedSubspaceVector) -> list[np.ndarray]:
        return state.output_probabilities_all()

    def final_state(self, state: StackedSubspaceVector, b: int) -> StateVector:
        return state.extract(b)


class StackedSyncedVector(StackedSubspaceVector):
    """``B`` dense Lemma 4.4 synced states as the same ``(B, N, 2)`` planes.

    The per-instance ``synced`` backend carries the full ``(i, s, w)``
    layout, but its dynamics keep the counting register *classically
    correlated* with the element register: between ``D`` applications the
    state is supported on ``s = 0``, and inside a ``D`` the value
    shift/unshift pair is an exact basis permutation.  The composite
    effect on the live ``(i, w)`` cells is therefore the per-element
    rotation by the ``U``-block at ``c_i`` — exactly the
    :class:`StackedSubspaceVector` kernel surface — so the stacked
    representation stores only the two ``(B, C)`` flag planes and keeps
    the ``s`` register *virtual*.

    The two places the wider layout is observable are replicated
    bit for bit:

    * ``S_π`` — per instance, :meth:`StateVector.apply_projector_phase`
      with factors ``{i: |π⟩, w: 0}`` contracts ``w`` first and then runs
      a *wide* ``(1, N) @ (N, ν+1)`` gemm whose column-0 summation order
      differs from the narrow ``(1, N) @ (N, 1)`` dot of the subspace
      path.  :meth:`apply_pi_projector_phase` below issues the identical
      wide gemm against a persistent zero window per instance.
    * endpoints — fidelity, final state — zero-embed the planes back
      into the ``(N, ν+1, 2)`` layout so ``np.vdot`` and extraction see
      the per-instance array shapes (padding cells contribute exact
      zeros; the sign of zeros is the usual non-observable).
    """

    __slots__ = ("_nus", "_spi_windows")

    def __init__(
        self, sizes: Sequence[int], nus: Sequence[int], amps: np.ndarray | None = None
    ) -> None:
        sizes = [int(n) for n in sizes]
        super().__init__(sizes, amps)
        counts = [int(v) for v in nus]
        require(
            len(counts) == len(sizes),
            "need exactly one ν per instance to shape the synced layout",
        )
        for b, v in enumerate(counts):
            require(v >= 1, f"instance {b}: ν must be >= 1")
        self._nus = np.asarray(counts, dtype=np.int64)
        # Persistent per-instance (N_b, ν_b+1) zero windows for the S_π
        # wide gemm; only column 0 is ever (re)written.
        self._spi_windows: dict[int, np.ndarray] = {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def uniform(
        cls, sizes: Sequence[int], nus: Sequence[int]
    ) -> "StackedSyncedVector":
        """Every instance in ``|π⟩ ⊗ |0⟩_s ⊗ |0⟩_w`` — the state after ``F``."""
        state = cls(sizes, nus)
        for b, n in enumerate(state._sizes):
            state._a0[b, : int(n)] = 1.0 / np.sqrt(int(n))
        state._expected_norms = state.norms()
        return state

    @classmethod
    def stack(cls, states: Sequence[StateVector]) -> "StackedSyncedVector":
        """Stack existing per-instance ``(i, s, w)`` synced states.

        Requires each state to be supported on ``s = 0`` (the synced
        invariant between ``D`` applications) — amplitude elsewhere has
        no home in the plane representation and raises.
        """
        sizes = []
        nus = []
        for b, s in enumerate(states):
            if tuple(s.layout.names) != ("i", "s", "w"):
                raise ValidationError(
                    f"instance {b}: expected an (i, s, w) layout, got {s.layout!r}"
                )
            sizes.append(s.layout.dim("i"))
            nus.append(s.layout.dim("s") - 1)
        out = cls(sizes, nus)
        for b, s in enumerate(states):
            arr = s.as_array()
            stray = float(np.linalg.norm(arr[:, 1:, :]))
            if stray > CONFIG.atol:
                raise ValidationError(
                    f"instance {b}: state has amplitude {stray} outside s=0; "
                    "not a synced-invariant state"
                )
            out._a0[b, : sizes[b]] = arr[:, 0, 0]
            out._a1[b, : sizes[b]] = arr[:, 0, 1]
        out._expected_norms = out.norms()
        return out

    # -- unitary mutations -------------------------------------------------------

    def apply_pi_projector_phase(
        self,
        phase: complex | np.ndarray,
        element_reg: str = "i",
        flag_reg: str = "w",
    ) -> "StackedSyncedVector":
        """``S_π(ϕ)`` replicating the per-instance wide-gemm contraction.

        On the ``(i, s, w)`` layout the projector factors leave ``s``
        free, so the per-instance overlap is column 0 of a
        ``(1, N) @ (N, ν+1)`` gemm — a different BLAS summation order
        than the subspace path's narrow dot (they disagree by an ulp).
        The persistent zero window reproduces the exact same call shape;
        the ``s ≥ 1`` columns of the per-instance operand hold only
        signed zeros, which cannot perturb column 0.
        """
        require(element_reg == "i" and flag_reg == "w", "stacked registers are (i, s, w)")
        col = _as_phase_column(phase, self.batch_size)
        overlaps = np.empty(self.batch_size, dtype=np.complex128)
        for b, conj in enumerate(self._uniforms_conj):
            n = int(self._sizes[b])
            window = self._spi_window(b)
            window[:, 0] = self._a0[b, :n]
            overlaps[b] = np.dot(conj, window)[0, 0]
        correction = (col[:, 0] - 1.0) * overlaps
        np.multiply(correction[:, None], self._uniform_grid, out=self._scratch)
        self._a0 += self._scratch
        return self._after_unitary()

    # -- non-unitary analysis helpers ---------------------------------------------

    def embedded(self, b: int) -> np.ndarray:
        """Instance ``b`` zero-embedded into its ``(N_b, ν_b+1, 2)`` layout.

        A fresh, exclusively-owned array — the per-instance memory order
        every synced endpoint contraction (``np.vdot`` fidelity, final
        state) expects.
        """
        n = int(self._sizes[b])
        out = np.zeros((n, int(self._nus[b]) + 1, 2), dtype=np.complex128)
        out[:, 0, 0] = self._a0[b, :n]
        out[:, 0, 1] = self._a1[b, :n]
        return out

    def extract(self, b: int) -> StateVector:
        """Instance ``b`` as a standalone dense ``(i, s, w)`` :class:`StateVector`."""
        out = StateVector.__new__(StateVector)
        out._layout = RegisterLayout.of(
            i=int(self._sizes[b]), s=int(self._nus[b]) + 1, w=2
        )
        out._amps = self.embedded(b)
        out._expected_norm = float(self._expected_norms[b])
        return out

    # -- internals --------------------------------------------------------------

    def _spi_window(self, b: int) -> np.ndarray:
        window = self._spi_windows.get(b)
        if window is None:
            window = np.zeros(
                (int(self._sizes[b]), int(self._nus[b]) + 1), dtype=np.complex128
            )
            self._spi_windows[b] = window
        return window

    def __repr__(self) -> str:
        return (
            f"StackedSyncedVector(B={self.batch_size}, width={self.width}, "
            f"cells={2 * self._a0.size})"
        )


@register_stacked_backend
class StackedSyncedBackend(StackedSubspaceBackend):
    """``B`` dense Lemma 4.4 synced states as one ``(B, N, 2)`` tensor (parallel).

    Reproduces per-instance :class:`~repro.core.backends.SyncedBackend`
    runs bit for bit.  The synced choreography — value shift, ``U``-block
    rotation at ``s = c_i``, unshift — reduces on the live cells to the
    per-element rotation by the Eq. (6) block at ``c_i``, so the rotation
    tables and the six-pass ``D`` kernel are inherited unchanged from the
    subspace backend (:func:`~repro.core.distributing.u_rotation_blocks`
    computes ``√(c/ν)``/``√((ν−c)/ν)`` from the same integer operands).
    Only the ``S_π`` contraction and the endpoints differ — see
    :class:`StackedSyncedVector`.

    Like the per-instance path, construction commits to the full
    ``N(ν+1)·2`` dense layout per instance: an over-cap instance raises
    the honest :class:`~repro.errors.SimulationLimitError` here exactly
    where ``_prepared_dense_state`` would, even though the stacked
    representation itself only allocates the ``(B, N, 2)`` planes.
    """

    name = "synced"
    models = ("parallel",)

    def __init__(self, instances: Sequence["ClassInstance"], model: str) -> None:
        super().__init__(instances, model)
        for inst in self._instances:
            CONFIG.require_dense_dimension(inst.universe * (inst.nu + 1) * 2)

    def uniform_state(self) -> StackedSyncedVector:
        return StackedSyncedVector.uniform(
            [inst.universe for inst in self._instances],
            [inst.nu for inst in self._instances],
        )

    def fidelities(self, state: StackedSyncedVector) -> np.ndarray:
        """Per-instance ``|⟨ψ_b, 0…0|state_b⟩|²`` on the ``(i, s, w)`` layout.

        Runs :func:`~repro.core.target.fidelity_with_target`'s exact
        contraction per instance — zero-embedded reference and state,
        full ``np.vdot`` over the ``N(ν+1)·2`` cells — so batched
        fidelities equal per-instance ``synced`` ones bit for bit.
        """
        out = np.empty(state.batch_size, dtype=np.float64)
        for b, inst in enumerate(self._instances):
            counts = inst.joints.astype(np.float64)
            total = counts.sum()
            if total <= 0:
                raise EmptyDatabaseError(
                    "the joint database is empty; |ψ⟩ is undefined"
                )
            reference = np.zeros((inst.universe, inst.nu + 1, 2), dtype=np.complex128)
            reference[:, 0, 0] = np.sqrt(counts / total).astype(np.complex128)
            out[b] = abs(complex(np.vdot(reference, state.embedded(b)))) ** 2
        return out
