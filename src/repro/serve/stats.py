"""Live serving telemetry (the E23/E24 counters, continuously updated).

:class:`ServiceStats` is the one mutation point every serving event goes
through — submissions, batch launches, completions — so a single lock
keeps the counters consistent while the dispatcher, the worker pool and
any number of submitting threads race.  :meth:`snapshot` returns a
plain-scalar dict ready for report tables and JSON artifacts:

``instances_per_sec``
    Completed requests over the busy wall-clock span (first submission →
    latest completion) — directly comparable to the E23 batched
    throughput rates.
``batch_fill_ratio``
    Executed instances over offered tensor capacity, ``Σ size / Σ
    target``: 1.0 means the packer always filled the stacked tensor.
    Dispatch is work-conserving, so the ratio measures load, not a
    tuning trade: requests batch only while every worker is busy, and a
    trickle runs batches of one (fill ``1/batch_size``).  The ratio is
    weighted by target size — a near-empty idle flush moves it by its
    actual share of capacity, not by a full batch's worth (the old
    unweighted mean let one straggler batch skew the stat).
``fill_p10`` / ``fill_p50`` / ``fill_p90``
    Per-batch fill percentiles over a bounded window of recent batches
    (:data:`FILL_WINDOW`) — the distribution the weighted mean hides:
    a healthy full-load service keeps the whole histogram near 1.0,
    while trickle load shows a low ``fill_p10`` under a
    still-respectable mean.
``p50_latency`` / ``p99_latency``
    Submit-to-completion percentiles over a bounded window of recent
    requests (:data:`LATENCY_WINDOW`), so a long-lived service reports
    *current* behaviour, not its lifetime average.
``queue_depth``
    Requests accepted but not yet completed (in the input queue, the
    packer, or an executing batch).
``sequential_queries`` / ``parallel_rounds``
    Honest ledger totals summed over completed requests — the same
    audit columns ``run_batched`` rows carry.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Sequence

# The canonical nearest-rank (ceil-rank) implementation lives in the
# metrics registry; re-exported here because this module defined it
# first and callers import it from both places.
from ..obs.metrics import METRICS, percentile  # noqa: F401

#: How many most-recent request latencies the percentile window keeps.
LATENCY_WINDOW = 10_000

#: How many most-recent per-batch fill ratios the fill-percentile window keeps.
FILL_WINDOW = 10_000


class ServiceStats:
    """Thread-safe counters for one :class:`~repro.serve.SamplerService`."""

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._exact = 0
        self._batches = 0
        self._batched_instances = 0
        self._fill_target_sum = 0
        self._fills: deque[float] = deque(maxlen=FILL_WINDOW)
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._sequential_queries = 0
        self._parallel_rounds = 0
        self._first_submit: float | None = None
        self._last_complete: float | None = None

    # -- recording (called by the service machinery) -------------------------------

    def record_submit(self) -> None:
        """One request accepted."""
        with self._lock:
            self._submitted += 1
            if self._first_submit is None:
                self._first_submit = self._clock()
        METRICS.counter("serve.submitted").inc()

    def record_batch(self, size: int, target: int) -> None:
        """One packed batch handed to the worker pool."""
        with self._lock:
            self._batches += 1
            self._batched_instances += size
            self._fill_target_sum += max(target, 1)
            self._fills.append(size / max(target, 1))
        METRICS.counter("serve.batches").inc()
        METRICS.histogram("serve.batch_fill").observe(size / max(target, 1))

    def record_complete(self, latency: float, result) -> None:
        """One request finished; ``result`` is its :class:`SamplingResult`."""
        with self._lock:
            self._completed += 1
            self._latencies.append(latency)
            self._sequential_queries += result.sequential_queries
            self._parallel_rounds += result.parallel_rounds
            if result.exact:
                self._exact += 1
            self._last_complete = self._clock()
        METRICS.counter("serve.completed").inc()
        METRICS.histogram("serve.latency_s").observe(latency)

    def record_failure(self) -> None:
        """One request errored (its future carries the exception)."""
        with self._lock:
            self._failed += 1
        METRICS.counter("serve.failed").inc()

    # -- reading --------------------------------------------------------------

    @property
    def completed(self) -> int:
        """Requests finished successfully so far."""
        with self._lock:
            return self._completed

    @property
    def queue_depth(self) -> int:
        """Requests accepted but not yet completed or failed."""
        with self._lock:
            return self._submitted - self._completed - self._failed

    def snapshot(self) -> dict[str, object]:
        """All counters as plain scalars (JSON-/table-ready)."""
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> dict[str, object]:
        span = None
        if self._first_submit is not None and self._last_complete is not None:
            span = max(self._last_complete - self._first_submit, 1e-9)
        ordered = sorted(self._latencies)
        fills = sorted(self._fills)
        return {
            "submitted": self._submitted,
            "completed": self._completed,
            "failed": self._failed,
            "exact": self._exact,
            "queue_depth": self._submitted - self._completed - self._failed,
            "batches_executed": self._batches,
            "batch_fill_ratio": (
                self._batched_instances / self._fill_target_sum
                if self._fill_target_sum
                else 0.0
            ),
            "fill_p10": percentile(fills, 0.10),
            "fill_p50": percentile(fills, 0.50),
            "fill_p90": percentile(fills, 0.90),
            "mean_batch_size": (
                self._batched_instances / self._batches if self._batches else 0.0
            ),
            "instances_per_sec": (self._completed / span if span else 0.0),
            "p50_latency": percentile(ordered, 0.50),
            "p99_latency": percentile(ordered, 0.99),
            "max_latency": (max(ordered) if ordered else 0.0),
            "sequential_queries": self._sequential_queries,
            "parallel_rounds": self._parallel_rounds,
        }

    # -- aggregation (the sharded tier's one-view telemetry) -------------------------

    @staticmethod
    def aggregate(per_shard: "Sequence[ServiceStats]") -> dict[str, object]:
        """Merge several shards' counters into one snapshot-shaped view.

        Counters and ledger totals sum; fill is re-weighted over the
        combined capacity (``Σ size / Σ target`` across shards, so a
        busy shard counts by its share); latency and fill percentiles
        pool every shard's whole window; the busy span runs from the
        earliest first submission to the latest completion, so
        ``instances_per_sec`` is the tier's sustained rate, not a sum
        of per-shard rates over disjoint spans.  Per-shard snapshots
        ride along under ``"per_shard"`` (shard order preserved).
        """
        merged = ServiceStats()
        # Unbounded pools: a capped window would evict all but the last
        # shards' entries once the windows together exceed the cap.
        merged._fills = deque()
        merged._latencies = deque()
        snapshots: list[dict[str, object]] = []
        for stats in per_shard:
            with stats._lock:
                snapshots.append(stats._snapshot_locked())
                merged._submitted += stats._submitted
                merged._completed += stats._completed
                merged._failed += stats._failed
                merged._exact += stats._exact
                merged._batches += stats._batches
                merged._batched_instances += stats._batched_instances
                merged._fill_target_sum += stats._fill_target_sum
                merged._fills.extend(stats._fills)
                merged._latencies.extend(stats._latencies)
                merged._sequential_queries += stats._sequential_queries
                merged._parallel_rounds += stats._parallel_rounds
                for mine, theirs, pick in (
                    ("_first_submit", stats._first_submit, min),
                    ("_last_complete", stats._last_complete, max),
                ):
                    if theirs is not None:
                        current = getattr(merged, mine)
                        setattr(
                            merged,
                            mine,
                            theirs if current is None else pick(current, theirs),
                        )
        view = merged._snapshot_locked()
        view["per_shard"] = snapshots
        return view
