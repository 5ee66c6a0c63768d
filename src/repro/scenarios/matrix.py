"""The scenario matrix: scenario × model × backend × shards, one artifact.

:class:`ScenarioMatrix` sweeps registered scenarios across query models,
backends and serving tiers and produces one flat list of per-cell rows —
the shape ``benchmarks/bench_e27_scenario_matrix.py`` persists as
``E27.json`` and ``benchmarks/compare_results.py`` diffs across commits.

Every cell is *gated*, not just timed:

* **equivalence** — the served trace (in-process dispatcher or sharded
  multi-process tier) is replayed per-instance on the same seeds, same
  degraded databases, and every comparable row column must agree to
  1e-12 (bit-identical modulo float noise).  Churn cells replay the same
  seeded update schedule against a fresh build and compare snapshot
  rows the same way.
* **fidelity floor** — each request's *expected* fidelity against the
  original (un-degraded) target, computed analytically from its masked
  database, must stay at or above the scenario's declared floor:
  exactly 1 for replicated-shard loss (the loss is invisible), exactly
  ``1 − M_lost/M`` for disjoint loss.
* **exactness** — every served result must be exact for its own
  (possibly degraded) target: faults degrade *what* is sampled, never
  the zero-error guarantee of sampling it.

A failed gate raises :class:`~repro.errors.ValidationError` when
``strict=True`` (the benchmark's mode); otherwise the failure is
recorded on the row (``gate="failed: ..."``) and the sweep continues.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..database.dynamic import random_update_stream
from ..database.fault import expected_mask_fidelity
from ..errors import ValidationError
from ..utils.rng import as_generator, spawn_seed
from ..utils.validation import require_pos_int
from .registry import Scenario, resolve_scenario, scenario_names

#: Row columns compared between the served trace and its per-instance
#: reference.  Labels, strategies and wall times legitimately differ;
#: everything physical must match to :data:`TOLERANCE`.
COMPARED_COLUMNS = (
    "fidelity",
    "exact",
    "n",
    "N",
    "M",
    "nu",
    "grover_reps",
    "d_applications",
    "sequential_queries",
    "parallel_rounds",
)

#: Float tolerance of the equivalence gate.
TOLERANCE = 1e-12


@dataclass(frozen=True)
class MatrixCell:
    """One point of the sweep: a scenario under one execution regime."""

    scenario: Scenario
    model: str
    backend: str
    shards: int | None

    def key(self) -> dict[str, object]:
        """The identifying columns of this cell's row."""
        return {
            "scenario": self.scenario.name,
            "model": self.model,
            "backend": self.backend,
            "shards": 0 if self.shards is None else self.shards,
        }


class ScenarioMatrix:
    """Sweep scenarios across models, backends and serving tiers.

    Parameters
    ----------
    scenarios:
        Scenario names or instances (default: every registered scenario).
    models, backends, shards:
        The execution axes.  ``shards=None`` serves through the
        in-process dispatcher; an integer routes the cell through the
        sharded multi-process tier with that many workers.
    requests_per_cell:
        Trace length per cell — long enough for a
        :class:`~repro.scenarios.faults.FaultSchedule` to kill *and*
        revive inside the trace (the chaos built-in needs ≥ 7).
    batch_size:
        Serving knob forwarded to the dispatcher.
    verify:
        Run the per-instance reference replay and the gates.  Switching
        it off keeps only the throughput measurement (a pure-bench mode).
    strict:
        Raise on the first failed gate instead of recording it.
    """

    def __init__(
        self,
        scenarios: Sequence[str | Scenario] | None = None,
        models: Sequence[str] = ("sequential",),
        backends: Sequence[str] = ("auto",),
        shards: Sequence[int | None] = (None,),
        requests_per_cell: int = 8,
        batch_size: int | None = None,
        verify: bool = True,
        strict: bool = False,
    ) -> None:
        names = scenario_names() if scenarios is None else scenarios
        self.scenarios = tuple(resolve_scenario(s) for s in names)
        if not self.scenarios:
            raise ValidationError("a ScenarioMatrix needs at least one scenario")
        self.models = tuple(models)
        self.backends = tuple(backends)
        self.shards = tuple(shards)
        self.requests_per_cell = require_pos_int(
            requests_per_cell, "requests_per_cell"
        )
        self.batch_size = batch_size
        self.verify = verify
        self.strict = strict

    def cells(self) -> list[MatrixCell]:
        """Every cell of the sweep, scenario-major."""
        return [
            MatrixCell(scenario=scenario, model=model, backend=backend, shards=n)
            for scenario in self.scenarios
            for model in self.models
            for backend in self.backends
            for n in self.shards
        ]

    def run(self, rng: object = None) -> list[dict[str, object]]:
        """Execute the sweep; one gated row per cell, cell order."""
        gen = as_generator(rng)
        rows = []
        for cell in self.cells():
            # Seeds are drawn per cell from the sweep rng, then pinned on
            # the requests — the served run and the reference replay build
            # the identical databases.
            seeds = [spawn_seed(gen) for _ in range(self.requests_per_cell)]
            if cell.scenario.is_churn:
                rows.append(self._run_churn_cell(cell, seeds[0]))
            else:
                rows.append(self._run_cell(cell, seeds))
        return rows

    # -- spec-trace cells (faults, skew, topology) ---------------------------------

    def _run_cell(self, cell: MatrixCell, seeds: list[int]) -> dict[str, object]:
        import repro

        scenario = cell.scenario
        count = self.requests_per_cell
        requests = scenario.requests(
            count, model=cell.model, backend=cell.backend, seeds=seeds
        )
        start = time.perf_counter()
        served = repro.serve(
            requests, batch_size=self.batch_size, shards=cell.shards
        )
        elapsed = time.perf_counter() - start
        served_rows = [result.row() for result in served]
        expected = [
            expected_mask_fidelity(
                scenario.spec(i).build(rng=seeds[i]), scenario.mask_at(i)
            )
            for i in range(count)
        ]
        row = self._cell_row(cell, served_rows, expected, elapsed)
        _attach_trace_summary(row, served)
        if self.verify:
            reference = repro.sample_many(requests, strategy="instance")
            failure = _compare_rows(
                served_rows, [result.row() for result in reference]
            ) or _check_floor(expected, scenario.fidelity_floor)
            self._gate(row, failure)
        return row

    # -- churn cells (live snapshots of a mutating database) -----------------------

    def _run_churn_cell(self, cell: MatrixCell, seed: int) -> dict[str, object]:
        import repro
        from repro.api.request import SamplingRequest

        scenario = cell.scenario
        churn = scenario.churn
        assert churn is not None
        count = self.requests_per_cell
        total_updates = churn.updates_per_request * count

        def trace() -> Iterator[SamplingRequest]:
            """Requests interleaved with churn — the arrival order the
            dispatcher sees, updates applied between submissions."""
            db = scenario.spec(0).build(rng=seed)
            stream = random_update_stream(
                db, total_updates, churn.insert_probability, rng=seed
            )
            stream.class_state()  # prime the O(1)-maintained view
            for _ in range(count):
                stream.apply_next(churn.updates_per_request)
                yield SamplingRequest(
                    stream=stream, model=cell.model, backend=cell.backend,
                    capacity=scenario.capacity, label=scenario.name,
                )

        start = time.perf_counter()
        served = repro.serve(
            trace(), batch_size=self.batch_size, shards=cell.shards
        )
        elapsed = time.perf_counter() - start
        served_rows = [result.row() for result in served]
        # Healthy topology: the live snapshot is the target, fidelity 1.
        expected = [1.0] * count
        row = self._cell_row(cell, served_rows, expected, elapsed)
        _attach_trace_summary(row, served)
        if self.verify:
            # The reference replays the identical seeded build + update
            # schedule and samples each snapshot on its own, one
            # repro.sample call (a stacked batch of one) per request.
            db = scenario.spec(0).build(rng=seed)
            stream = random_update_stream(
                db, total_updates, churn.insert_probability, rng=seed
            )
            stream.class_state()
            reference_rows = []
            for _ in range(count):
                stream.apply_next(churn.updates_per_request)
                result = repro.sample(
                    SamplingRequest(
                        stream=stream, model=cell.model, backend=cell.backend,
                        capacity=scenario.capacity, label=scenario.name,
                    )
                )
                reference_rows.append(result.row())
            failure = _compare_rows(served_rows, reference_rows) or _check_floor(
                expected, scenario.fidelity_floor
            )
            self._gate(row, failure)
        return row

    # -- rows and gates -------------------------------------------------------------

    def _cell_row(
        self,
        cell: MatrixCell,
        served_rows: list[dict[str, object]],
        expected: list[float],
        elapsed: float,
    ) -> dict[str, object]:
        row = cell.key()
        row.update(
            requests=len(served_rows),
            wall_time_s=elapsed,
            instances_per_sec=(
                len(served_rows) / elapsed if elapsed > 0 else float("inf")
            ),
            min_fidelity=min(float(r["fidelity"]) for r in served_rows),
            all_exact=all(bool(r["exact"]) for r in served_rows),
            expected_fidelity_min=min(expected),
            fidelity_floor=cell.scenario.fidelity_floor,
            gate="passed" if self.verify else "skipped",
        )
        return row

    def _gate(self, row: dict[str, object], failure: str | None) -> None:
        if failure is None and not row["all_exact"]:
            failure = "a served result was not exact for its degraded target"
        if failure is None:
            return
        message = (
            f"scenario cell {row['scenario']}/{row['model']}/{row['backend']}"
            f"/shards={row['shards']} failed its gate: {failure}"
        )
        if self.strict:
            raise ValidationError(message)
        row["gate"] = f"failed: {failure}"


def _attach_trace_summary(row: dict[str, object], served) -> None:
    """Ride the cell's per-phase trace aggregates along on the row.

    Only when tracing is enabled (``repro.obs.enable_tracing``): the
    ``trace_spans`` column maps span name → ``{count, total_s, p50_s,
    p99_s, max_s}`` across the cell's requests, so an E27 artifact from a
    traced run localizes a regression to a phase.  Untraced artifacts are
    byte-for-byte what they were — ``trace_spans`` is never present —
    and the column is outside :data:`COMPARED_COLUMNS`, so gates ignore
    it either way.
    """
    from ..obs.trace import tracing_enabled

    if not tracing_enabled():
        return
    summary = served.trace_summary()
    if summary:
        row["trace_spans"] = summary


def _compare_rows(
    served: list[dict[str, object]], reference: list[dict[str, object]]
) -> str | None:
    """The equivalence gate: physical columns agree to :data:`TOLERANCE`."""
    if len(served) != len(reference):
        return f"served {len(served)} rows, reference {len(reference)}"
    for i, (a, b) in enumerate(zip(served, reference)):
        for column in COMPARED_COLUMNS:
            if column not in a or column not in b:
                continue
            va, vb = a[column], b[column]
            if isinstance(va, bool) or isinstance(vb, bool):
                if bool(va) != bool(vb):
                    return f"request {i}: {column} served={va} reference={vb}"
            elif abs(float(va) - float(vb)) > TOLERANCE:
                return f"request {i}: {column} served={va} reference={vb}"
    return None


def _check_floor(expected: list[float], floor: float) -> str | None:
    """The fidelity-floor gate on the analytic expectations."""
    low = min(expected)
    if low < floor - TOLERANCE:
        return f"expected fidelity {low} below the declared floor {floor}"
    return None
