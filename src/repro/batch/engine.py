"""Batched Theorem 4.3/4.5 execution on stacked states.

:func:`execute_sampling_batch` is the batch analogue of
:func:`repro.core.backends.execute_sampling`: it takes *many* databases,
groups them by stacked backend and amplification-schedule shape
(``grover_reps``, ``needs_final`` — the two values that fix the control
flow), runs each group's amplification loop once on a single stacked
tensor, and hands back one
:class:`~repro.core.result.SamplingResult` per input database, in input
order.  The stacked representation is pluggable
(:mod:`repro.batch.backends`): the CSR-packed count-class plane
(``"classes"``, any scale and any mix of ``ν`` — what ``"auto"``
resolves to) or the explicit ``(B, N, 2)`` dense references
``"subspace"``/``"synced"`` — the engine below never branches on the
substrate.

Exactness is not traded for throughput:

* every instance keeps its **own honest query ledger** — the Lemma 4.2
  sandwich (sequential model) or Lemma 4.4's 4 rounds (parallel model)
  are charged per ``D`` application exactly as
  :class:`~repro.core.distributing.ClassDistributingOperator` does,
  recorded in bulk (the ledger is a counter, so block-recording is
  observationally identical);
* instances in one group may differ in ``N``, ``ν``, ``n`` and final
  partial-iterate angles — each class segment has its instance's own
  width, and phases are per-instance arrays;
* per-instance ``classes``-backend runs execute the same
  :class:`~repro.qsim.classvector.StackedClassVector` kernel on a
  ``B = 1`` stack, charging their ledger call by call.  The equivalence
  tests assert output probabilities, fidelities, class amplitudes and
  ledgers match those runs with ``==``, which proves that a row does not
  depend on the batch it ran in and that the bulk ledger equals the
  call-by-call one; stacked ``subspace`` runs match per-instance
  :class:`~repro.core.backends.SubspaceBackend` rows bit for bit, and
  the dense references check the kernel's physics at 1e-12.

Two batch-level amortizations do the heavy lifting beyond tensor
stacking: zero-error plans are memoized by overlap value (a sweep's
instances usually share public parameters, so :func:`solve_plan`'s
root-finding runs once per distinct ``a = M/(νN)``), and oblivious
schedules are memoized by ``(model, n, d_applications)`` — both objects
are immutable, so sharing them across results is safe.

``skip_zero_capacity=True`` carries the capacity-aware flagged-round
restriction of the per-instance samplers into batched groups: a machine
whose *public* capacity is ``κ_j = 0`` is provably empty (its oracle is
the identity), so the Lemma 4.2 sandwich skips it and the Lemma 4.4
rounds leave its flag at ``b_j = 0`` — per instance, read off that
instance's own capacities.  The stacked state math is untouched (an
identity oracle contributes nothing), but each instance's ledger and
published schedule shed the same ``Σ_j t_j`` the per-instance
``skip_zero_capacity`` samplers do; instances whose capacities are not
known (``ClassInstance.capacities is None``) conservatively query all
machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..obs.metrics import METRICS
from ..qsim.classvector import ClassVector
from ..qsim.register import Register, RegisterLayout
from ..qsim.state import StateVector
from ..core.exact_aa import AmplificationPlan, solve_plan
from ..core.result import SamplingResult
from ..core.schedule import QuerySchedule
from ..database.distributed import DistributedDatabase
from ..database.ledger import QueryLedger
from ..errors import ValidationError
from .backends import (
    CLASS_SUBSTRATE,
    create_stacked_backend,
    resolve_stacked_backend,
    resolve_stacked_name,
)


@dataclass(frozen=True)
class ClassInstance:
    """One stackable sampling instance in count-class coordinates.

    Everything the stacked engine needs, decoupled from
    :class:`~repro.database.distributed.DistributedDatabase`: the
    per-element joint counts (which double as the class map), the public
    capacity ``ν``, the machine count (for ledger width and Lemma 4.2/4.4
    accounting) and ``M``.  Two construction paths:

    * :meth:`from_db` — one ``O(nN)`` joint-count scan, the classic batch
      path;
    * :meth:`from_class_state` — a snapshot of a **live**
      :class:`~repro.qsim.classvector.ClassVector` (e.g.
      :meth:`repro.database.dynamic.UpdateStream.class_state`), which the
      serving layer uses to re-sample a mutating dynamic database with an
      ``O(N)`` copy and *no* machine scan — the class map **is** the
      joint-count table.
    """

    joints: np.ndarray
    nu: int
    n_machines: int
    total: int
    capacities: tuple[int, ...] | None = None

    @classmethod
    def from_db(cls, db: DistributedDatabase) -> "ClassInstance":
        """The one ``O(nN)`` scan, reused for state, overlap and targets."""
        joints = db.joint_counts
        return cls(
            joints=joints,
            nu=db.nu,
            n_machines=db.n_machines,
            total=int(joints.sum()),
            capacities=db.capacities,
        )

    @classmethod
    def from_class_state(
        cls,
        state: ClassVector,
        n_machines: int,
        capacities: tuple[int, ...] | None = None,
    ) -> "ClassInstance":
        """Snapshot a live count-class view (dynamic-database serving).

        The element→class map of the samplers' ``classes`` substrate maps
        each element to its joint count, so it is copied verbatim as the
        ``joints`` table; ``M`` reduces over the ``O(ν)`` multiplicity
        row.  The copy pins the request to the database state at snapshot
        time — the stream may keep mutating while the batch executes.
        """
        class_values = np.arange(state.n_classes, dtype=np.float64)
        return cls(
            joints=state.element_classes.copy(),
            nu=state.n_classes - 1,
            n_machines=n_machines,
            total=int(round(float(state.class_sizes @ class_values))),
            capacities=capacities,
        )

    @property
    def universe(self) -> int:
        """``N`` — the element-register size."""
        return int(self.joints.size)

    def overlap(self) -> float:
        """``a = M/(νN)`` — float-identical to ``db.initial_overlap()``."""
        return self.total / (self.nu * self.universe)

    def public_parameters(self) -> dict[str, object]:
        """The oblivious planning surface carried onto the result."""
        return {
            "N": self.universe,
            "n": self.n_machines,
            "nu": self.nu,
            "M": self.total,
            "capacities": self.capacities,
        }


@lru_cache(maxsize=4096)
def cached_plan(overlap: float) -> AmplificationPlan:
    """Memoized :func:`solve_plan` — plans depend only on ``a = M/(νN)``.

    :class:`AmplificationPlan` is frozen, so sharing one instance across
    every database with the same overlap is safe; in a homogeneous sweep
    this collapses ``B`` Brent solves into one.
    """
    return solve_plan(overlap)


@lru_cache(maxsize=4096)
def _cached_schedule(
    model: str,
    n_machines: int,
    d_applications: int,
    active: tuple[int, ...] | None = None,
) -> QuerySchedule:
    if model == "sequential":
        return QuerySchedule.sequential_from_plan(
            n_machines, d_applications, active_machines=active
        )
    return QuerySchedule.parallel_from_plan(
        n_machines, d_applications, active_machines=active
    )


def _active_machines(
    capacities: tuple[int, ...] | None,
    n_machines: int,
    skip_zero_capacity: bool,
) -> tuple[int, ...] | None:
    """The flagged-round machine subset from public capacities, or ``None``.

    ``None`` means "query all machines" — also returned when every
    capacity is positive, so enabling the flag on an all-nonempty
    instance is a no-op (ledger, schedule and fingerprint included),
    matching the per-instance samplers' ``_restriction`` convention.
    Split from :func:`_active_restriction` so result reconstruction
    (:func:`unpack_group_results`) can re-derive the subset from plain
    scalars without a :class:`ClassInstance` in hand.
    """
    if not skip_zero_capacity or capacities is None:
        return None
    active = tuple(j for j, kappa in enumerate(capacities) if kappa > 0)
    return active if len(active) < n_machines else None


def _active_restriction(inst: ClassInstance, skip_zero_capacity: bool) -> tuple[int, ...] | None:
    """The flagged-round machine subset for one instance, or ``None``."""
    return _active_machines(inst.capacities, inst.n_machines, skip_zero_capacity)


def _charge_run(
    ledger: QueryLedger,
    model: str,
    n_machines: int,
    d_applications: int,
    active: tuple[int, ...] | None = None,
) -> None:
    """Charge one full run's honest oracle cost onto ``ledger``.

    Sequential: each ``D``/``D†`` is Lemma 4.2's sandwich — one forward
    and one adjoint call per machine.  Parallel: each ``D``/``D†`` is
    Lemma 4.4's 4 rounds — two forward, two adjoint.  Identical totals,
    per-machine splits and forward/adjoint splits to what
    ``ClassDistributingOperator`` records call by call.  With ``active``
    given, the capacity-aware restriction applies: only the listed
    machines are charged (sequential) or flagged (parallel rounds — the
    round count itself is ``n``-free and cannot drop).
    """
    if model == "sequential":
        for j in range(n_machines) if active is None else active:
            ledger.record_machine_call(j, adjoint=False, count=d_applications)
            ledger.record_machine_call(j, adjoint=True, count=d_applications)
    else:
        ledger.record_parallel_round(
            adjoint=False, count=2 * d_applications, machines=active
        )
        ledger.record_parallel_round(
            adjoint=True, count=2 * d_applications, machines=active
        )


def _run_group(
    instances: Sequence[ClassInstance],
    plans: Sequence[AmplificationPlan],
    model: str,
    include_probabilities: bool,
    skip_zero_capacity: bool,
    backend_name: str,
) -> list[SamplingResult]:
    """Execute one (backend, schedule-shape) group as a single stacked tensor.

    The control flow below is the whole engine: the named
    :class:`~repro.batch.backends.StackedBackend` owns the tensor and the
    batched ``D`` kernel; ledgers, schedules and plans are charged here,
    identically for every substrate.  Every plan of a group shares one
    schedule shape, so the group runs one lockstep loop.  Every group
    publishes its kernel wall time into the process metrics registry
    (``engine.group_s.<backend>``), the per-phase signal the ROADMAP's
    cost-model planner needs.
    """
    kernel_start = time.perf_counter()
    plan0 = plans[0]
    backend = create_stacked_backend(backend_name, instances, model)
    state = backend.uniform_state()

    def apply_q(varphi: complex | np.ndarray, phi: complex | np.ndarray) -> None:
        # Q(φ, ϕ) = −D S_π(ϕ) D† S_χ(φ), mirroring core.engine.apply_q.
        state.apply_phase_slice("w", 0, varphi)
        backend.apply_d(state, adjoint=True)
        state.apply_pi_projector_phase(phi)
        backend.apply_d(state)
        state.apply_global_phase(-1.0)

    backend.apply_d(state)  # the initial D
    for _ in range(plan0.grover_reps):
        apply_q(np.exp(1j * np.pi), np.exp(1j * np.pi))
    if plan0.needs_final:
        varphi = np.exp(1j * np.array([p.final_varphi for p in plans]))
        phi = np.exp(1j * np.array([p.final_phi for p in plans]))
        apply_q(varphi, phi)

    fidelities = backend.fidelities(state)
    probabilities = (
        backend.output_probabilities_all(state) if include_probabilities else None
    )
    results = []
    for b, (inst, plan) in enumerate(zip(instances, plans)):
        active = _active_restriction(inst, skip_zero_capacity)
        ledger = QueryLedger(inst.n_machines)
        _charge_run(ledger, model, inst.n_machines, plan.d_applications, active=active)
        ledger.freeze()
        results.append(
            SamplingResult(
                model=model,
                backend=backend_name,
                plan=plan,
                schedule=_cached_schedule(
                    model, inst.n_machines, plan.d_applications, active
                ),
                ledger=ledger,
                fidelity=float(fidelities[b]),
                output_probabilities=(
                    probabilities[b] if probabilities is not None else None
                ),
                final_state=backend.final_state(state, b),
                public_parameters=inst.public_parameters(),
            )
        )
    METRICS.counter("engine.groups").inc()
    METRICS.counter("engine.instances").inc(len(instances))
    METRICS.histogram(f"engine.group_s.{backend_name}").observe(
        time.perf_counter() - kernel_start
    )
    return results


def execute_sampling_batch(
    dbs: Sequence[DistributedDatabase],
    model: str = "sequential",
    include_probabilities: bool = True,
    skip_zero_capacity: bool = False,
    backend: str = CLASS_SUBSTRATE,
) -> list[SamplingResult]:
    """Run the Theorem 4.3/4.5 loop over many databases as stacked tensors.

    Parameters
    ----------
    dbs:
        The databases to sample.  They may differ in ``N``, ``M``, ``ν``
        and ``n``; instances whose zero-error schedules share the same
        shape (``grover_reps``, ``needs_final``) — and resolve to the
        same stacked backend — execute together.
    model:
        ``"sequential"`` (Theorem 4.3 ledger accounting) or
        ``"parallel"`` (Theorem 4.5), applied to the whole batch.
    include_probabilities:
        When False, skip the ``O(N_b)`` output-distribution gather per
        instance and store ``None`` — the serving fast path for callers
        that only need fidelities and ledgers.
    skip_zero_capacity:
        Carry the capacity-aware flagged-round restriction into the
        batch: machines with public capacity ``κ_j = 0`` are skipped per
        instance, exactly as ``SequentialSampler``/``ParallelSampler``
        with ``skip_zero_capacity=True`` skip them (same ledgers, same
        schedule fingerprints, identical output state).
    backend:
        The stacked substrate: ``"classes"`` (default — the CSR-packed
        ``O(ν)`` compression, any scale, rows bit-identical to
        per-instance ``classes`` runs), ``"subspace"``/``"synced"`` (the
        explicit ``(B, N, 2)`` dense references, bit-identical to
        per-instance ``subspace``/``synced`` rows), or ``"auto"`` —
        ``classes``.

    Returns
    -------
    list[SamplingResult]
        One result per input database, **in input order**, each with its
        own honest ledger, plan, oblivious schedule and final (per
        instance) state — interchangeable with results from
        ``execute_sampling(db, model, <backend>, ...)``.
    """
    # One O(nN) joint-count scan per instance, reused for the state, the
    # overlap (M/(νN), float-identical to db.initial_overlap()), the
    # fidelity targets and the public parameters.
    return execute_class_batch(
        [ClassInstance.from_db(db) for db in dbs],
        model=model,
        include_probabilities=include_probabilities,
        skip_zero_capacity=skip_zero_capacity,
        backend=backend,
    )


def execute_class_batch(
    instances: Sequence[ClassInstance],
    model: str = "sequential",
    include_probabilities: bool = True,
    skip_zero_capacity: bool = False,
    backend: str = CLASS_SUBSTRATE,
) -> list[SamplingResult]:
    """The instance-level core of :func:`execute_sampling_batch`.

    Takes pre-extracted :class:`ClassInstance` snapshots — either scanned
    from databases or copied from live
    :meth:`~repro.database.dynamic.UpdateStream.class_state` views — so
    the serving layer (:mod:`repro.serve`) can mix spec-built and
    dynamic-database requests in one stacked tensor without any
    ``O(nN)`` rebuild for the latter.  (The snapshot's joint-count table
    doubles as the per-element count map, so every stacked backend,
    dense included, executes it directly.)  Both serving tiers call it
    on their packers' shape groups, which regroup into one group here.
    Semantics and guarantees are those of :func:`execute_sampling_batch`;
    results come back in input order.
    """
    if model not in ("sequential", "parallel"):
        raise ValidationError(f"unknown model {model!r}; choose from ('sequential', 'parallel')")
    instances = list(instances)
    if not instances:
        return []
    plans = [cached_plan(inst.overlap()) for inst in instances]
    backend_name = resolve_stacked_name(backend, model)
    backend_cls = resolve_stacked_backend(backend_name, model)
    groups: dict[tuple[int, bool], list[int]] = {}
    for idx, plan in enumerate(plans):
        groups.setdefault((plan.grover_reps, plan.needs_final), []).append(idx)
    results: list[SamplingResult | None] = [None] * len(instances)
    for indices in groups.values():
        # Backends may bound how many instances one tensor should hold
        # (dense stacks stay cache-resident); blocks run their whole
        # amplification loop back to back, results unaffected.
        limit = backend_cls.group_size_limit([instances[i] for i in indices])
        step = len(indices) if limit is None else max(1, limit)
        for start in range(0, len(indices), step):
            block = indices[start : start + step]
            group_results = _run_group(
                [instances[i] for i in block],
                [plans[i] for i in block],
                model,
                include_probabilities,
                skip_zero_capacity,
                backend_name,
            )
            for i, res in zip(block, group_results):
                results[i] = res
    return results  # type: ignore[return-value]


# -- cross-process result marshalling ----------------------------------------------
#
# The sharded serving tier hands finished batches back to the dispatcher
# process through shared memory (:mod:`repro.serve.shm`).  A
# SamplingResult is mostly *derivable* state — the plan is a pure
# function of the overlap, the schedule and ledger are pure functions of
# (model, n, d_applications, active) — so the wire format is: a small
# plain-scalar meta dict per instance (picklable, a few hundred bytes)
# plus the genuinely big arrays (final-state amplitudes, class maps,
# optional output distribution), which cross zero-copy in a shm block.
# ``unpack_group_results`` rebuilds full, honest results: recomputing
# the overlap from the same integers gives the float-identical plan the
# worker used (lru-cached by value), and ``_charge_run`` is
# deterministic, so the reconstructed ledger/schedule match the
# worker-side originals exactly.


def pack_group_results(
    results: Sequence[SamplingResult],
) -> tuple[list[dict[str, object]], dict[str, np.ndarray]]:
    """Flatten executed results into ``(meta, arrays)`` for the shm handoff.

    ``meta`` holds only plain scalars (ints, floats, small tuples);
    ``arrays`` holds every ndarray, keyed ``<field><index>``.  Dense
    final states record their register layout in the meta entry, so the
    wider ``(i, s, w)`` synced layouts survive the wire.  Class-substrate
    final states of the whole group are marshalled as **one** CSR triple
    — a concatenated values plane (``class_values``), a concatenated
    multiplicity plane (``class_sizes``) and one offsets array
    (``class_offsets``) — so a group crosses the shm arena as the same
    contiguous packing it executed in.  Raises :class:`ValidationError`
    for final-state types it does not know how to marshal (a custom
    registered backend) — callers fall back to pickling the whole
    results list for that batch.
    """
    meta: list[dict[str, object]] = []
    arrays: dict[str, np.ndarray] = {}
    widths: list[int] = []
    values_parts: list[np.ndarray] = []
    sizes_parts: list[np.ndarray] = []
    for i, res in enumerate(results):
        params = res.public_parameters
        entry: dict[str, object] = {
            "n": int(params["n"]),
            "N": int(params["N"]),
            "M": int(params["M"]),
            "nu": int(params["nu"]),
            "capacities": params["capacities"],
            "fidelity": float(res.fidelity),
            "backend": res.backend,
        }
        state = res.final_state
        if isinstance(state, ClassVector):
            entry["state"] = "classes"
            entry["seg"] = len(widths)
            arrays[f"ec{i}"] = state.element_classes
            widths.append(int(state.n_classes))
            sizes_parts.append(state.class_sizes)
            values_parts.append(state.class_amplitudes())
        elif isinstance(state, StateVector):
            entry["state"] = "dense"
            entry["norm"] = float(state._expected_norm)
            entry["layout"] = tuple(
                (reg.name, int(reg.dim)) for reg in state.layout.registers
            )
            arrays[f"amps{i}"] = state.as_array()
        else:
            raise ValidationError(
                f"cannot marshal final state of type {type(state).__name__}; "
                "pack_group_results knows the classes and dense substrates"
            )
        if res.output_probabilities is not None:
            arrays[f"prob{i}"] = res.output_probabilities
        meta.append(entry)
    if widths:
        offsets = np.zeros(len(widths) + 1, dtype=np.int64)
        np.cumsum(np.asarray(widths, dtype=np.int64), out=offsets[1:])
        arrays["class_offsets"] = offsets
        arrays["class_sizes"] = np.concatenate(sizes_parts, axis=0)
        arrays["class_values"] = np.concatenate(values_parts, axis=0)
    return meta, arrays


def unpack_group_results(
    meta: Sequence[dict[str, object]],
    arrays: dict[str, np.ndarray],
    model: str,
    skip_zero_capacity: bool,
) -> list[SamplingResult]:
    """Rebuild full :class:`SamplingResult` objects from the wire format.

    ``arrays`` may alias a shared-memory block about to be recycled, so
    every kept ndarray is copied out here (one memcpy per array — the
    transfer itself crossed the process boundary with zero
    serialization).  Plans, schedules and ledgers are reconstructed
    from the meta integers via the same memoized/deterministic helpers
    the direct execution path uses, so the rebuilt result is
    indistinguishable from one returned by
    :func:`execute_class_batch` in-process.
    """
    results: list[SamplingResult] = []
    for i, entry in enumerate(meta):
        n = int(entry["n"])  # type: ignore[arg-type]
        universe = int(entry["N"])  # type: ignore[arg-type]
        total = int(entry["M"])  # type: ignore[arg-type]
        nu = int(entry["nu"])  # type: ignore[arg-type]
        capacities = entry["capacities"]
        # The same integer arithmetic as ClassInstance.overlap() — the
        # float is identical, so cached_plan returns the worker's plan.
        plan = cached_plan(total / (nu * universe))
        active = _active_machines(capacities, n, skip_zero_capacity)  # type: ignore[arg-type]
        ledger = QueryLedger(n)
        _charge_run(ledger, model, n, plan.d_applications, active=active)
        ledger.freeze()
        kind = entry["state"]
        if kind == "classes":
            seg = int(entry["seg"])  # type: ignore[arg-type]
            offsets = arrays["class_offsets"]
            lo, hi = int(offsets[seg]), int(offsets[seg + 1])
            final_state: object = ClassVector.from_parts(
                np.array(arrays[f"ec{i}"]),
                np.array(arrays["class_sizes"][lo:hi]),
                np.array(arrays["class_values"][lo:hi]),
            )
        else:
            layout_spec = entry.get("layout")
            if layout_spec is not None:
                layout = RegisterLayout(
                    tuple(
                        Register(str(name), int(dim))
                        for name, dim in layout_spec  # type: ignore[union-attr]
                    )
                )
            else:
                layout = RegisterLayout.of(i=universe, w=2)
            dense = StateVector.__new__(StateVector)
            dense._layout = layout
            dense._amps = np.array(arrays[f"amps{i}"])
            dense._expected_norm = float(entry["norm"])  # type: ignore[arg-type]
            final_state = dense
        probs_key = f"prob{i}"
        results.append(
            SamplingResult(
                model=model,
                backend=str(entry["backend"]),
                plan=plan,
                schedule=_cached_schedule(model, n, plan.d_applications, active),
                ledger=ledger,
                fidelity=float(entry["fidelity"]),  # type: ignore[arg-type]
                output_probabilities=(
                    np.array(arrays[probs_key]) if probs_key in arrays else None
                ),
                final_state=final_state,
                public_parameters={
                    "N": universe,
                    "n": n,
                    "nu": nu,
                    "M": total,
                    "capacities": capacities,
                },
            )
        )
    return results
