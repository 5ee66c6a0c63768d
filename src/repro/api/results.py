"""The unified result surface of the :mod:`repro.api` front door.

Every strategy — per-instance, stacked batch, process fan-out, served
stream — resolves to the same :class:`Result` shape, and every bulk call
returns a :class:`ResultSet`.  The row schema is the batch driver's
audit columns (``label``/``n``/``N``/``M``/``nu``/``backend``/``model``/
``batched``/``fidelity``/``exact``/``grover_reps``/``d_applications``/
``sequential_queries``/``parallel_rounds``) plus the two columns the
front door adds: ``strategy`` and ``wall_time_s``.  Rows drop into
:class:`~repro.analysis.sweep.SweepResult` report tables next to legacy
``run_sweep``/``run_batched`` output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from ..analysis.sweep import SweepResult
from ..batch.driver import audit_row
from ..core.result import SamplingResult
from ..database.ledger import QueryLedger

if TYPE_CHECKING:  # pragma: no cover
    from .planner import ExecutionPlan
    from .request import SamplingRequest


def unified_row(
    label: str,
    n: int,
    N: int,
    M: int,
    nu: int,
    result: SamplingResult,
    strategy: str,
    wall_time: float,
) -> dict[str, object]:
    """The front door's row: audit columns + ``strategy``/``wall_time_s``.

    ``batched`` reflects the strategy (only per-instance runs are
    unbatched), so stacked/fanout/served rows stay column-for-column and
    value-for-value identical to ``run_batched``'s ``default_row``.
    """
    row = audit_row(label, n, N, M, nu, result)
    row["batched"] = strategy != "instance"
    row["strategy"] = strategy
    row["wall_time_s"] = float(wall_time)
    return row


@dataclass
class Result:
    """One completed request: its audit row plus (when local) the run.

    Attributes
    ----------
    request:
        The originating :class:`SamplingRequest`.
    strategy:
        Which execution strategy ran it (``"instance"``/``"stacked"``/
        ``"fanout"``/``"served"``).
    backend:
        The resolved backend that executed the circuit.
    seed:
        The child seed a spec request was materialized with (``None``
        for database/stream sources).
    wall_time:
        Wall-clock seconds of the execution unit that produced this
        result: the run itself (instance), the stacked chunk (stacked),
        the observed batch completion (fanout), the request's
        submit-to-resolve latency (served).
    sampling:
        The full :class:`SamplingResult` — plan, schedule, ledger,
        final state.  ``None`` for fan-out results, whose runs completed
        in worker processes and shipped audit rows only.
    trace:
        The request's stitched span dicts (``repro.obs``), start-time
        ordered and spanning every process that touched the request —
        populated only while tracing is enabled, ``None`` otherwise (so
        untraced rows stay bit-identical across runs).
    """

    request: "SamplingRequest"
    strategy: str
    backend: str
    seed: int | None
    wall_time: float
    sampling: SamplingResult | None
    trace: list[dict] | None = field(default=None, repr=False)
    _row: dict[str, object] = field(default_factory=dict, repr=False)

    # -- convenience accessors ------------------------------------------------------

    @property
    def fidelity(self) -> float:
        """``|⟨ψ, 0…0|final⟩|²`` against the Eq. (4) target."""
        return float(self._row["fidelity"])

    @property
    def exact(self) -> bool:
        """Whether the zero-error guarantee held to tolerance."""
        return bool(self._row["exact"])

    @property
    def model(self) -> str:
        """``"sequential"`` or ``"parallel"``."""
        return str(self._row["model"])

    @property
    def sequential_queries(self) -> int:
        """Total per-machine oracle calls recorded."""
        return int(self._row["sequential_queries"])

    @property
    def parallel_rounds(self) -> int:
        """Joint-oracle rounds recorded."""
        return int(self._row["parallel_rounds"])

    @property
    def ledger(self) -> QueryLedger | None:
        """The honest query ledger (``None`` for fan-out results)."""
        return self.sampling.ledger if self.sampling is not None else None

    def row(self) -> dict[str, object]:
        """The unified audit row (a copy; see the module docstring)."""
        return dict(self._row)

    def attach_trace(self, trace_id: str, spans: list[dict]) -> None:
        """Attach the request's stitched trace (tracing-enabled runs only).

        Adds the two observability audit columns — ``trace_id`` and the
        compact ``trace_spans`` phase summary — next to the physical
        columns.  Never called when tracing is off, so default rows are
        unchanged.
        """
        from ..obs.trace import summarize

        self.trace = spans
        self._row["trace_id"] = trace_id
        self._row["trace_spans"] = summarize(spans)

    def __repr__(self) -> str:
        return (
            f"Result(strategy={self.strategy!r}, backend={self.backend!r}, "
            f"fidelity={self.fidelity:.12f}, exact={self.exact})"
        )


@dataclass
class ResultSet:
    """Results of one bulk front-door call, in request order.

    ``telemetry`` is populated by the served strategy (the service's
    live counters snapshot); ``plan`` records the routing the planner
    chose, so callers can assert or log strategy decisions.
    """

    results: list[Result] = field(default_factory=list)
    telemetry: dict[str, object] | None = None
    plan: "ExecutionPlan | None" = None

    def rows(self) -> list[dict[str, object]]:
        """All unified rows, in request order."""
        return [result.row() for result in self.results]

    def column(self, key: str) -> list[object]:
        """One row column across all results, in request order."""
        return [result._row[key] for result in self.results]

    def to_sweep(self) -> SweepResult:
        """The rows as a :class:`SweepResult`, ready for report tables."""
        return SweepResult().extend(self.rows())

    def strategies(self) -> list[str]:
        """Per-result strategy, in request order."""
        return [result.strategy for result in self.results]

    def trace_summary(self) -> dict[str, dict[str, float]]:
        """Phase-duration aggregates over every attached trace.

        Maps span name → ``{count, total_s, p50_s, p99_s, max_s}``
        across all results (empty when the run was untraced) — the
        per-phase wall-time signal the cost-model planner reads.  Each
        span counts once, keyed by ``span_id``: a batch-level span (one
        stacked chunk's ``execute``) is attached to every request it
        carried, and counting it per request would inflate ``total_s``
        by the batch size.
        """
        from ..obs.metrics import percentile

        spans: dict[str, dict] = {}
        for result in self.results:
            for record in result.trace or ():
                spans[record["span_id"]] = record
        durations: dict[str, list[float]] = {}
        for record in spans.values():
            durations.setdefault(record["name"], []).append(
                float(record["duration_s"])
            )
        summary: dict[str, dict[str, float]] = {}
        for name, values in sorted(durations.items()):
            values.sort()
            summary[name] = {
                "count": len(values),
                "total_s": sum(values),
                "p50_s": percentile(values, 0.50),
                "p99_s": percentile(values, 0.99),
                "max_s": values[-1],
            }
        return summary

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[Result]:
        return iter(self.results)

    def __getitem__(self, index: int) -> Result:
        return self.results[index]
