"""The distributing operator ``D`` (Eq. 5) and its oracle implementations.

Three realizations, cross-validated in the tests:

* :class:`DirectDistributingOperator` — the defining rotation
  ``D|i,0⟩ = √(c_i/ν)|i,0⟩ + √((ν−c_i)/ν)|i,1⟩`` applied per element.
  Reads the joint counts directly; the reference/fast-path form.
* :class:`OracleDistributingOperator` — Lemma 4.2's three-step circuit
  ``D = (O_n⋯O_1)† · U · (O_n⋯O_1)``: *2n sequential oracle calls* plus
  the input-independent rotation ``U`` of Eq. (6).
* :class:`ParallelDistributingOperator` — Lemma 4.4's circuit: *4 parallel
  oracle rounds* per application, in an honest dense mode (full ancilla
  registers, exponential in ``n``) and a synced-ancilla fast path
  (exploits that the circuit keeps ancillas classically correlated with
  the element register, so they never need explicit storage).

All three expose the same ``apply(state, adjoint=...)`` interface the
samplers consume.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..database.distributed import DistributedDatabase
from ..database.ledger import QueryLedger
from ..database.oracle import (
    ParallelOracle,
    SequentialOracle,
    validated_active_machines,
)
from ..errors import ValidationError
from ..qsim.operators import adjoint_blocks, controlled_rotation_blocks
from ..qsim.register import Register, RegisterLayout
from ..qsim.state import StateVector
from ..utils.validation import require


def rotation_blocks_from_counts(counts: np.ndarray, nu: int) -> np.ndarray:
    """Per-value rotations ``[[√(c/ν), −√(1−c/ν)], [√(1−c/ν), √(c/ν)]]``.

    With ``counts`` indexed by element this is ``D`` itself (Eq. 5); with
    ``counts = 0…ν`` it is the paper's ``U`` (Eq. 6).
    """
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0) or np.any(counts > nu):
        raise ValidationError("counts must lie in [0, ν] for the rotation to exist")
    cos = np.sqrt(counts / nu)
    sin = np.sqrt((nu - counts) / nu)
    return controlled_rotation_blocks(cos, sin)


def u_rotation_blocks(nu: int) -> np.ndarray:
    """The input-independent ``U`` of Eq. (6) as per-count 2×2 blocks."""
    return rotation_blocks_from_counts(np.arange(nu + 1), nu)


@lru_cache(maxsize=256)
def cached_u_blocks(nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Eq. (6) rotation blocks for capacity ``nu`` as ``(forward, adjoint)``.

    One ``(ν+1, 2, 2)`` pair per distinct capacity, shared by every
    per-instance ``classes`` run and every stacked group of that ``ν``;
    treat both as read-only.
    """
    forward = np.array(u_rotation_blocks(nu), dtype=np.complex128)
    adjoint = adjoint_blocks(forward)
    forward.setflags(write=False)
    adjoint.setflags(write=False)
    return forward, adjoint


class DirectDistributingOperator:
    """``D`` as the defining per-element rotation on ``(i, w)``.

    This form is input-*dependent* (it reads ``c_i`` directly) — it is the
    mathematical object of Eq. (5), used by the subspace backend and as
    the reference in cross-validation tests.  Query accounting, when a
    ledger is supplied, charges the same ``2n`` sequential calls per
    application that the Lemma 4.2 circuit would make, so both backends
    report identical ledgers.
    """

    def __init__(
        self,
        db: DistributedDatabase,
        ledger: QueryLedger | None = None,
        active_machines: list[int] | None = None,
    ) -> None:
        self._db = db
        self._ledger = ledger
        self._blocks = rotation_blocks_from_counts(db.joint_counts, db.nu)
        self._blocks_adj = adjoint_blocks(self._blocks)
        self._active = validated_active_machines(db, active_machines)

    @property
    def oracle_calls_per_application(self) -> int:
        """Sequential oracle calls one ``D`` (or ``D†``) costs: ``2n'``
        (``n'`` = machines actually queried)."""
        return 2 * len(self._active)

    def apply(
        self,
        state: StateVector,
        element_reg: str = "i",
        flag_reg: str = "w",
        adjoint: bool = False,
    ) -> StateVector:
        """Apply ``D`` (or ``D†``) to ``(element_reg, flag_reg)``."""
        self._charge(adjoint)
        blocks = self._blocks_adj if adjoint else self._blocks
        return state.apply_controlled_qubit_unitary(element_reg, flag_reg, blocks)

    def _charge(self, adjoint: bool) -> None:
        if self._ledger is None:
            return
        # Lemma 4.2 cost model: forward pass O_1…O_n then inverse pass —
        # one forward and one adjoint call per (active) machine, for D and
        # D† alike.
        for j in self._active:
            self._ledger.record_machine_call(j, adjoint=False)
        for j in reversed(self._active):
            self._ledger.record_machine_call(j, adjoint=True)


class ClassDistributingOperator:
    """``D`` on the count-class compressed state (the ``classes`` backend).

    In class coordinates Eq. (5) *is* Eq. (6): the rotation angle depends
    on ``i`` only through ``c_i``, so one ``U``-shaped block per class
    applies ``D`` exactly, in ``O(ν)`` work and memory.  The ledger still
    charges the honest per-paper cost of whichever circuit the model would
    execute — Lemma 4.2's ``2n'`` sequential calls per application, or
    Lemma 4.4's 4 parallel rounds — call by call, so complexity
    accounting is identical to the dense backends.  The stacked engine
    charges the same totals in bulk (``repro.batch.engine._charge_run``);
    the ``==`` row gates between the two paths check that they agree.
    """

    def __init__(
        self,
        db: DistributedDatabase,
        ledger: QueryLedger | None = None,
        model: str = "sequential",
        active_machines: list[int] | None = None,
    ) -> None:
        require(model in ("sequential", "parallel"), f"unknown model {model!r}")
        self._db = db
        self._ledger = ledger
        self._model = model
        self._blocks, self._blocks_adj = cached_u_blocks(db.nu)
        self._active = validated_active_machines(db, active_machines)

    @property
    def oracle_calls_per_application(self) -> int:
        """Sequential-model cost of one ``D``: ``2n'`` (Lemma 4.2)."""
        return 2 * len(self._active)

    @property
    def rounds_per_application(self) -> int:
        """Parallel-model cost of one ``D``: 4 rounds (Lemma 4.4)."""
        return 4

    def apply(self, state, adjoint: bool = False):
        """Apply ``D`` (or ``D†``) to a one-instance count-class state.

        ``state`` is the ``B = 1``
        :class:`~repro.qsim.classvector.StackedClassVector` the
        per-instance ``classes`` backend runs on: the stacked engine's
        kernel, charged here call by call instead of in bulk.
        """
        if self._model == "sequential":
            self._charge_sequential()
        else:
            self._charge_parallel_half()
        blocks = self._blocks_adj if adjoint else self._blocks
        state.apply_class_flag_unitary(blocks)
        if self._model == "parallel":
            self._charge_parallel_half()
        return state

    def _charge_sequential(self) -> None:
        if self._ledger is None:
            return
        # Lemma 4.2 sandwich: O_1…O_n forward then O_n†…O_1†.
        for j in self._active:
            self._ledger.record_machine_call(j, adjoint=False)
        for j in reversed(self._active):
            self._ledger.record_machine_call(j, adjoint=True)

    def _charge_parallel_half(self) -> None:
        if self._ledger is None:
            return
        # Lemma 4.4 load/unload: one O round and one O† round each.  An
        # active-machine restriction means the flagged joint oracle left
        # b_j = 0 on the skipped (provably empty) machines.
        self._ledger.record_parallel_round(adjoint=False, machines=self._active)
        self._ledger.record_parallel_round(adjoint=True, machines=self._active)


class OracleDistributingOperator:
    """Lemma 4.2: ``D`` from ``2n`` genuine oracle invocations.

    The three steps, on registers ``(i, s, w)`` with ``s`` the counting
    register (dimension ``ν+1``, always ``|0⟩`` outside the operator):

    1. ``|i, 0, w⟩ → |i, c_i, w⟩`` — apply ``O_1, …, O_n`` (Eq. 1);
    2. rotate ``w`` by the count-controlled ``U`` (Eq. 6) — input-free;
    3. uncompute with ``O_1†, …, O_n†``.

    ``D†`` uses the same sandwich with ``U†`` (the oracles commute — they
    are additive shifts of the same register — so
    ``D† = (A† U A)† = A† U† A`` with ``A = O_n⋯O_1``).

    Kernel fusion
    -------------
    Each oracle call is an element-controlled cyclic shift of the
    counting register, and cyclic shifts by ``c_{i,1}, …, c_{i,n}``
    compose to one shift by ``Σ_j c_{i,j} mod (ν+1)`` — exactly, as a
    basis permutation.  With ``fuse_gathers=True`` (the default) each
    side of the sandwich therefore executes as a *single* vectorized
    gather instead of ``n`` machine-by-machine gathers: ``2`` kernel
    passes per ``D`` instead of ``2n``, with bit-identical amplitudes.
    The ledger is untouched by fusion — it still charges the honest
    ``2n'`` per-machine calls in Lemma 4.2's order, because the fused
    gather *is* those ``2n'`` oracle invocations, merely evaluated
    together (experiment E22 records the before/after wall time).
    ``fuse_gathers=False`` keeps the literal call-by-call circuit for
    validation and benchmarking.
    """

    def __init__(
        self,
        db: DistributedDatabase,
        ledger: QueryLedger | None = None,
        active_machines: list[int] | None = None,
        fuse_gathers: bool = True,
    ) -> None:
        self._db = db
        self._ledger = ledger
        self._fuse = bool(fuse_gathers)
        active = validated_active_machines(db, active_machines)
        self._active = active
        self._oracles = [
            SequentialOracle(db.machine(j), j, db.nu, ledger=ledger) for j in active
        ]
        # Σ_j c_ij over the queried machines — the fused shift table.
        # Skipped machines have κ_j = 0 (validated above), so this equals
        # the joint counts whenever it matters.  Only the fused path
        # reads it, so the unfused (validation/benchmark) construction
        # skips the O(nN) sum.
        if self._fuse:
            self._fused_counts = np.zeros(db.universe, dtype=np.int64)
            for j in active:
                self._fused_counts += db.machine(j).counts
        self._u_blocks = u_rotation_blocks(db.nu)
        self._u_blocks_adj = adjoint_blocks(self._u_blocks)

    @property
    def oracle_calls_per_application(self) -> int:
        """``2n'`` — Lemma 4.2's query cost over the queried machines."""
        return 2 * len(self._oracles)

    @property
    def fuse_gathers(self) -> bool:
        """Whether the sandwich runs as 2 fused gathers instead of ``2n``."""
        return self._fuse

    def apply(
        self,
        state: StateVector,
        element_reg: str = "i",
        count_reg: str = "s",
        flag_reg: str = "w",
        adjoint: bool = False,
    ) -> StateVector:
        """Apply ``D`` (or ``D†``) to ``(element_reg, flag_reg)`` using
        ``count_reg`` as the oracle scratch register."""
        blocks = self._u_blocks_adj if adjoint else self._u_blocks
        if not self._fuse:
            for oracle in self._oracles:
                oracle.apply(state, element_reg, count_reg, adjoint=False)
            state.apply_controlled_qubit_unitary(count_reg, flag_reg, blocks)
            for oracle in reversed(self._oracles):
                oracle.apply(state, element_reg, count_reg, adjoint=True)
            return state
        self._check_registers(state, element_reg, count_reg)
        self._charge(adjoint=False, reverse=False)
        state.apply_value_shift(element_reg, count_reg, self._fused_counts, sign=1)
        state.apply_controlled_qubit_unitary(count_reg, flag_reg, blocks)
        self._charge(adjoint=True, reverse=True)
        state.apply_value_shift(element_reg, count_reg, self._fused_counts, sign=-1)
        return state

    # -- fused-path internals ----------------------------------------------------

    def _check_registers(self, state: StateVector, element_reg: str, count_reg: str) -> None:
        # The same preconditions SequentialOracle.apply enforces call by
        # call, checked once per fused pass.
        if state.layout.dim(count_reg) != self._db.nu + 1:
            raise ValidationError(
                f"count register must have dimension ν+1 = {self._db.nu + 1}, "
                f"got {state.layout.dim(count_reg)}"
            )
        if state.layout.dim(element_reg) != self._db.universe:
            raise ValidationError(
                f"element register dimension {state.layout.dim(element_reg)} does "
                f"not match universe size {self._db.universe}"
            )

    def _charge(self, adjoint: bool, reverse: bool) -> None:
        if self._ledger is None:
            return
        for j in reversed(self._active) if reverse else self._active:
            self._ledger.record_machine_call(j, adjoint=adjoint)


class ParallelDistributingOperator:
    """Lemma 4.4: ``D`` from 4 rounds of the parallel oracle (Eq. 3).

    Modes
    -----
    ``"synced"`` (default):
        State lives on ``(i, s, w)``.  The circuit below keeps every
        ancilla register a deterministic function of ``i`` at all times
        and returns it to ``|0⟩``, so the fast path tracks only the main
        registers while the ledger still charges the honest 4 rounds.
        The count-aggregation step applies the joint shift
        ``s ← s + Σ_j c_ij`` in one gather.
    ``"dense"``:
        Honest simulation with explicit per-machine ancilla triples
        ``(pi_j, ps_j, pb_j)`` — exponential in ``n``, used to validate
        the fast path on small instances.  Requires the state layout to
        contain those registers (see :meth:`dense_layout`).

    The Lemma 4.4 register choreography (dense mode):

    1. copy: ``pi_j ← pi_j ⊕ i`` (qudit CNOT), ``pb_j ← X pb_j``;
    2. one round of ``O`` — loads ``ps_j = c_{i,j}``;
    3. aggregate: ``s ← s + Σ_j ps_j mod (ν+1)`` (input-independent);
    4. one round of ``O†`` — clears ``ps_j``;
    5. uncopy step 1;
    6. rotate ``w`` with ``U`` (Eq. 6);
    7. the inverse of steps 1–5 to uncompute ``s``.

    Steps 2+4 and their mirror in step 7 are the **4 parallel queries**.
    """

    def __init__(
        self,
        db: DistributedDatabase,
        ledger: QueryLedger | None = None,
        mode: str = "synced",
        active_machines: list[int] | None = None,
    ) -> None:
        require(mode in ("synced", "dense"), f"unknown mode {mode!r}")
        self._db = db
        self._ledger = ledger
        self._mode = mode
        self._u_blocks = u_rotation_blocks(db.nu)
        self._u_blocks_adj = adjoint_blocks(self._u_blocks)
        # The flagged joint oracle (capacity-aware rounds): ParallelOracle
        # validates that skipped machines are publicly empty (κ_j = 0).
        self._parallel_oracle = ParallelOracle(
            db, ledger=ledger, active_machines=active_machines
        )
        self._active = active_machines

    # -- layout helpers ---------------------------------------------------------

    @staticmethod
    def synced_layout(db: DistributedDatabase) -> RegisterLayout:
        """``(i, s, w)`` — the fast-path layout."""
        return RegisterLayout.of(i=db.universe, s=db.nu + 1, w=2)

    @staticmethod
    def dense_layout(db: DistributedDatabase) -> RegisterLayout:
        """``(i, s, w)`` plus per-machine ``(pi_j, ps_j, pb_j)`` triples."""
        registers = [
            Register("i", db.universe),
            Register("s", db.nu + 1),
            Register("w", 2),
        ]
        for j in range(db.n_machines):
            registers.append(Register(f"pi{j}", db.universe))
            registers.append(Register(f"ps{j}", db.nu + 1))
            registers.append(Register(f"pb{j}", 2))
        return RegisterLayout(registers)

    @property
    def rounds_per_application(self) -> int:
        """Parallel oracle rounds one ``D`` (or ``D†``) costs: 4 (Lemma 4.4)."""
        return 4

    @property
    def mode(self) -> str:
        """``"synced"`` or ``"dense"``."""
        return self._mode

    # -- application ---------------------------------------------------------

    def apply(
        self,
        state: StateVector,
        element_reg: str = "i",
        count_reg: str = "s",
        flag_reg: str = "w",
        adjoint: bool = False,
    ) -> StateVector:
        """Apply ``D`` (or ``D†``) costing exactly 4 parallel rounds."""
        self._load_counts(state, element_reg, count_reg)
        blocks = self._u_blocks_adj if adjoint else self._u_blocks
        state.apply_controlled_qubit_unitary(count_reg, flag_reg, blocks)
        self._unload_counts(state, element_reg, count_reg)
        return state

    # -- the |i,0⟩ → |i,c_i⟩ subroutine (2 rounds) --------------------------------

    def _load_counts(self, state: StateVector, element_reg: str, count_reg: str) -> None:
        if self._mode == "synced":
            if self._ledger is not None:
                self._parallel_oracle_ledger_round(adjoint=False)
                self._parallel_oracle_ledger_round(adjoint=True)
            state.apply_value_shift(element_reg, count_reg, self._db.joint_counts, sign=1)
            return
        self._dense_copy(state, element_reg, forward=True)
        self._parallel_oracle.apply(state, adjoint=False)
        self._dense_aggregate(state, count_reg, sign=1)
        self._parallel_oracle.apply(state, adjoint=True)
        self._dense_copy(state, element_reg, forward=False)

    def _unload_counts(self, state: StateVector, element_reg: str, count_reg: str) -> None:
        if self._mode == "synced":
            if self._ledger is not None:
                self._parallel_oracle_ledger_round(adjoint=False)
                self._parallel_oracle_ledger_round(adjoint=True)
            state.apply_value_shift(element_reg, count_reg, self._db.joint_counts, sign=-1)
            return
        self._dense_copy(state, element_reg, forward=True)
        self._parallel_oracle.apply(state, adjoint=False)
        self._dense_aggregate(state, count_reg, sign=-1)
        self._parallel_oracle.apply(state, adjoint=True)
        self._dense_copy(state, element_reg, forward=False)

    def _parallel_oracle_ledger_round(self, adjoint: bool) -> None:
        assert self._ledger is not None
        self._ledger.record_parallel_round(adjoint=adjoint, machines=self._active)

    def _dense_copy(self, state: StateVector, element_reg: str, forward: bool) -> None:
        """Step 1 / 5: ``pi_j ← pi_j ± i`` and flip every active ``pb_j``.

        Machines outside the active set never get their flag raised — the
        capacity-aware flagged rounds leave their ``(pi_j, ps_j, pb_j)``
        triple in ``|0⟩`` for the whole run.
        """
        n_elements = self._db.universe
        identity_shift = np.arange(n_elements, dtype=np.int64)
        flip = np.array([1, 0], dtype=np.intp)
        active = (
            range(self._db.n_machines) if self._active is None else self._active
        )
        for j in active:
            state.apply_value_shift(
                element_reg, f"pi{j}", identity_shift, sign=1 if forward else -1
            )
            state.apply_permutation(f"pb{j}", flip)

    def _dense_aggregate(self, state: StateVector, count_reg: str, sign: int) -> None:
        """Step 3: ``s ← s ± Σ_j ps_j`` — input-independent qudit adds."""
        modulus = self._db.nu + 1
        add_table = np.arange(modulus, dtype=np.int64)
        for j in range(self._db.n_machines):
            state.apply_value_shift(f"ps{j}", count_reg, add_table, sign=sign)
