"""The four front-door workloads and their metrics.

Each workload drives the public front door — ``repro.sample_many`` for
the closed-loop batch workloads, ``repro.serve`` for the open-loop
serving workloads — on inputs made from the run's seed, checks every
result (:mod:`oracle`), and reports either the end-to-end metrics
(untraced run) or the per-layer metrics (traced run).  Why each
workload exists, and which layer metric should move which end-to-end
metric, is written down in ``README.md``.
"""

from __future__ import annotations

import itertools
import os
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.analysis.sweep import InstanceSpec
from repro.api import DEFAULT_PLANNER, SamplingRequest, unified_row
from repro.batch import (
    ClassInstance,
    cached_plan,
    execute_class_batch,
    resolve_stacked_backend,
)
from repro.database.dynamic import random_update_stream
from repro.database.workloads import WorkloadSpec
from repro.obs import disable_tracing, enable_tracing

import oracle

#: Requests per ``sample_many`` call: the planner's stack threshold, so
#: every call runs on the stacked engine.
STACK = 64
MACHINES = 4
ZIPF_TOTAL = 1000
SMALL_CELLS = (("sequential", 512), ("sequential", 4096),
               ("parallel", 512), ("parallel", 4096))
LARGE_CELLS = (("sequential", 200_000),)

#: serve-open: offered load in requests per second (the parent commit
#: saturates near 200 req/s on 2 cores) and the alternating universes.
OPEN_RATE = 80.0
OPEN_UNIVERSES = (512, 4096)

#: churn-sharded: the live database, the updates applied before each
#: request, the offered load (the parent saturates near 200 req/s) and
#: the shard count.
CHURN_UNIVERSE = 100_000
CHURN_TOTAL = 20_000
CHURN_UPDATES = 8
CHURN_RATE = 80.0
CHURN_SHARDS = 2

#: Set-ups per run; ``setup_s`` reports their median plus the import.
SETUP_REPEATS = 3
#: Seconds a served stream may take to drain after its last send before
#: its unresolved requests count as failed.
DRAIN_GRACE_S = 40.0
#: Requests whose ledgers feed ``core.*_per_request`` on the serving
#: workloads (the batch workloads use their first cycle): a fixed
#: prefix of the run, so the counts are a pure function of the seed.
CORE_PREFIX = 256
#: Warm-up inputs are fixed, so every run's set-up does the same work.
WARMUP_SEED = 7
DENSE = ("subspace", "synced")
COMPLEX_BYTES = 16

_PURPOSE = {"requests": 1, "schedule": 2, "database": 3, "updates": 4}


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """An independent, reproducible stream per input kind."""
    return np.random.default_rng([seed, _PURPOSE[purpose]])


def zipf_spec(universe: int, total: int = ZIPF_TOTAL) -> InstanceSpec:
    return InstanceSpec(WorkloadSpec.of("zipf", universe=universe, total=total),
                        n_machines=MACHINES)


def uniform_spec(universe: int, total: int) -> InstanceSpec:
    return InstanceSpec(WorkloadSpec.of("uniform", universe=universe, total=total),
                        n_machines=MACHINES)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """The larger of this process's peak RSS and its largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def percentile(values, q: float) -> float:
    # numpy's, not repro.obs.percentile: a change to the program must not
    # change how the benchmark reads it.
    data = np.asarray(list(values), dtype=np.float64)
    if not data.size:
        return float("nan")
    with np.errstate(invalid="ignore"):
        value = float(np.percentile(data, q))
    # Interpolating between two unresolved (+inf) requests gives nan.
    return float("inf") if np.isnan(value) else value


def mean(values) -> float:
    data = list(values)
    return float(np.mean(data)) if data else 0.0


def timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


@dataclass
class Outcome:
    """What one run measured: the result line plus the printed tables."""

    attempted: int
    failed: int
    end_to_end: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, tuple[float, str]] = field(default_factory=dict)
    table: dict[str, tuple[float, str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    hung: bool = False

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.hung


def latency_metrics(latencies_s: list[float], notes: list[str]) -> dict[str, tuple[float, str]]:
    """p50/p99 in ms over per-request latencies (failures are +inf)."""
    beyond = int(np.sum(np.asarray(latencies_s) > percentile(latencies_s, 99)))
    notes.append(f"latency samples: {len(latencies_s)} ({beyond} beyond p99)")
    return {
        "latency_p50_ms": (percentile(latencies_s, 50) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies_s, 99) * 1e3, "ms"),
    }


def core_counts(rows: list[dict | None], prefix: int) -> dict[str, float]:
    """The paper's costs over the run's first ``prefix`` requests."""
    done = [row for row in rows[:prefix] if row is not None]
    return {
        "core.queries_per_request": mean(r["sequential_queries"] for r in done),
        "core.rounds_per_request": mean(r["parallel_rounds"] for r in done),
    }


def dense_share(rows: list[dict]) -> float:
    done = [row for row in rows if row is not None]
    return sum(row["backend"] in DENSE for row in done) / max(1, len(done))


class PlanCacheDelta:
    """Hits over lookups of the memoized plan solver across a phase."""

    def __enter__(self) -> "PlanCacheDelta":
        self._start = cached_plan.cache_info()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = cached_plan.cache_info()
        hits = end.hits - self._start.hits
        lookups = hits + end.misses - self._start.misses
        self.ratio = hits / lookups if lookups else 0.0


#: The per-layer metrics and their units; a workload reports 0 for a
#: layer that is not on its path.
PER_LAYER_UNITS = {
    "api.plan_ms": "ms",
    "database.build_ms": "ms",
    "database.write_ms": "ms",
    "batch.extract_ms": "ms",
    "batch.execute_ms": "ms",
    "batch.dense_share": "ratio",
    "batch.state_mb": "MB",
    "batch.groups_per_call": "count",
    "core.plan_cache_hit_ratio": "ratio",
    "core.queries_per_request": "count",
    "core.rounds_per_request": "count",
    "serve.submit_ms": "ms",
    "serve.fill_ratio": "ratio",
    "serve.batch_size_mean": "count",
    "serve.service_p50_ms": "ms",
    "shard.shm_batches": "count",
    "shard.fallback_batches": "count",
    "shard.requeued_batches": "count",
    "shard.max_share": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "obs.trace_overhead": "ratio",
}


def per_layer(values: dict[str, float]) -> dict[str, tuple[float, str]]:
    unknown = set(values) - set(PER_LAYER_UNITS)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER_UNITS.items()}


# -- closed-loop batch workloads ---------------------------------------------------


@dataclass
class Call:
    """One ``sample_many`` call: its cell, requests, rows and costs.

    ``wall_s`` times the call itself (every request's latency);
    ``span_s`` and ``cpu_s`` cover the loop iteration, request
    construction included, so a cycle's spans add up to its wall time.
    """

    cell: tuple[str, int]
    requests: list[SamplingRequest]
    rows: list[dict] | None = None
    wall_s: float = 0.0
    span_s: float = 0.0
    cpu_s: float = 0.0
    error: str | None = None


class Spans:
    """In-memory spans around the front door's public steps.

    Each record is ``(name, call, request, start, end)``; a step's parent
    is the ``call`` span of the same call, and ``request`` (the index in
    the call, or ``None`` for call-level steps) ties a request's spans
    together.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, int, int | None, float, float]] = []

    @contextmanager
    def span(self, name: str, call: int, request: int | None = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, call, request, start, time.perf_counter()))

    def total(self, name: str) -> float:
        return sum(end - start for n, _, _, start, end in self.records if n == name)

    def count(self, name: str) -> int:
        return sum(1 for n, *_ in self.records if n == name)


#: The public steps ``sample_many`` takes on the stacked strategy.
STEPS = ("plan", "build", "mask", "extract", "execute", "rows")


def traced_sample_many(requests: list[SamplingRequest], spans: Spans, call: int):
    """``repro.sample_many`` decomposed into its public steps, each spanned.

    Mirrors the stacked executor of :mod:`repro.api.execute` — plan,
    then per chunk build → mask → extract for every request, one
    ``execute_class_batch`` on the plan's resolved backend, and
    ``unified_row`` per result — so its rows must equal the untraced
    call's rows (wall time aside).  Returns the rows and, per chunk, the
    resolved backend with its instances (for the computed layer counts).
    """
    rows: list[dict | None] = [None] * len(requests)
    chunks: list[tuple[str, str, list[ClassInstance]]] = []
    with spans.span("call", call):
        with spans.span("plan", call):
            plan = DEFAULT_PLANNER.plan_many(requests)
        for group in plan.groups:
            if group.strategy != "stacked":
                raise RuntimeError(
                    f"the traced decomposition covers the stacked strategy; the "
                    f"planner routed a group to {group.strategy!r}")
            for start in range(0, len(group.indices), plan.batch_size):
                chunk = group.indices[start:start + plan.batch_size]
                built = []
                for index in chunk:
                    res = plan.resolved[index]
                    with spans.span("build", call, index):
                        db = res.request.spec.build(rng=res.request.seed)
                    with spans.span("mask", call, index):
                        db = res.request.masked(db)
                    with spans.span("extract", call, index):
                        built.append((index, res, ClassInstance.from_db(db)))
                lead = built[0][1]
                begin = time.perf_counter()
                with spans.span("execute", call):
                    samplings = execute_class_batch(
                        [inst for _, _, inst in built],
                        model=lead.request.model,
                        include_probabilities=lead.request.include_probabilities,
                        skip_zero_capacity=lead.skip_zero_capacity,
                        backend=lead.backend,
                    )
                wall = time.perf_counter() - begin
                with spans.span("rows", call):
                    for (index, res, inst), sampling in zip(built, samplings):
                        rows[index] = unified_row(res.label, inst.n_machines, inst.universe,
                                                  inst.total, inst.nu, sampling, "stacked", wall)
                chunks.append((lead.backend, lead.request.model, [inst for _, _, inst in built]))
    return rows, chunks


def chunk_layout(backend: str, model: str, instances: list[ClassInstance]) -> tuple[int, float]:
    """Engine groups and computed stacked-state bytes for one chunk.

    Groups are the engine's (backend × schedule shape) keys.  Bytes are
    computed, not measured: the per-instance complex128 cells each
    substrate commits to — padded ``(ν_max+1)·2`` for ``classes``,
    ``(ν+1)·2`` for ``ragged``, ``N_max·2`` for ``subspace`` and the
    full Lemma 4.4 layout ``N·(ν+1)·2`` that ``synced`` results carry.
    """
    mixed = resolve_stacked_backend(backend, model).supports_mixed_schedules
    groups: dict[tuple, list[ClassInstance]] = {}
    for inst in instances:
        plan = cached_plan(inst.overlap())
        key = () if mixed else (plan.grover_reps, plan.needs_final)
        groups.setdefault(key, []).append(inst)
    cells = 0
    for members in groups.values():
        if backend == "classes":
            cells += len(members) * (max(i.nu for i in members) + 1) * 2
        elif backend == "subspace":
            cells += len(members) * max(i.universe for i in members) * 2
        elif backend == "synced":
            cells += sum(i.universe * (i.nu + 1) * 2 for i in members)
        else:
            cells += sum((i.nu + 1) * 2 for i in members)
    return len(groups), cells * COMPLEX_BYTES


class BatchWorkload:
    """A closed loop of back-to-back ``sample_many`` calls of 64 requests.

    Calls cycle over the workload's cells (model × universe), each call
    with fresh per-request seeds; the loop stops after the first whole
    cycle that ends past the time budget, so every run weighs the cells
    equally.
    """

    cells: tuple[tuple[str, int], ...] = ()

    def __init__(self) -> None:
        self.attempted = 0

    def calls(self, seed: int):
        rng = rng_for(seed, "requests")
        for index in itertools.count():
            model, universe = self.cells[index % len(self.cells)]
            spec = zipf_spec(universe)
            seeds = rng.integers(0, 2**63 - 1, size=STACK)
            yield Call((model, universe),
                       [SamplingRequest(spec=spec, model=model, seed=int(s)) for s in seeds])

    def setup_once(self) -> None:
        """One warm-up cycle on fixed inputs at the workload's real sizes.

        Smaller warm-ups leave the first timed calls paying first-touch
        page faults (expensive under a VM's free-page reporting) and
        the allocator's mmap-threshold adaptation to the call's arrays.
        """
        for model, universe in self.cells:
            spec = zipf_spec(universe)
            results = repro.sample_many(
                [SamplingRequest(spec=spec, model=model, seed=WARMUP_SEED + i)
                 for i in range(STACK)])
            if not all(result.exact for result in results):
                raise RuntimeError("warm-up produced an inexact result")

    def closed_loop(self, calls, seconds: float) -> tuple[list[Call], float]:
        done: list[Call] = []
        start = last = time.perf_counter()
        cpu_last = cpu_seconds()
        for call in calls:
            self.attempted += len(call.requests)
            begin = time.perf_counter()
            try:
                # Only the rows outlive the call: holding the ResultSet
                # would keep its final states alive through the next call.
                call.rows = repro.sample_many(call.requests).rows()
            except Exception as error:  # a failed call fails its requests
                call.error = repr(error)
            now, cpu_now = time.perf_counter(), cpu_seconds()
            call.wall_s, call.span_s, call.cpu_s = now - begin, now - last, cpu_now - cpu_last
            last, cpu_last = now, cpu_now
            done.append(call)
            if now - start >= seconds and len(done) % len(self.cells) == 0:
                break
        return done, last - start

    def per_cycle(self, calls: list[Call], verdicts: list[list[bool]]) -> dict[str, list[float]]:
        """Throughput, CPU per request and latency percentiles per whole cycle.

        The run reports their medians: the cells' costs differ by an
        order of magnitude, so only whole cycles compare, and the median
        of several cycles rides out bursts of load from outside.  Within
        a cycle the p50 falls between the two middle cells' calls, so
        pooling every cycle's requests would let it jump between them.
        """
        width = len(self.cells)
        stats: dict[str, list[float]] = {"rate": [], "cpu": [], "p50": [], "p99": []}
        for first in range(0, len(calls), width):
            cycle = calls[first:first + width]
            verdict = verdicts[first:first + width]
            latencies = [call.wall_s if good else float("inf")
                         for call, v in zip(cycle, verdict) for good in v]
            requests = sum(len(call.requests) for call in cycle)
            stats["rate"].append(sum(sum(v) for v in verdict) / sum(c.span_s for c in cycle))
            stats["cpu"].append(sum(call.cpu_s for call in cycle) / requests)
            stats["p50"].append(percentile(latencies, 50))
            stats["p99"].append(percentile(latencies, 99))
        return stats

    def verify(self, calls: list[Call], notes: list[str]) -> list[list[bool]]:
        verdicts = [oracle.check_batch_call(call) for call in calls]
        for call in calls:
            if call.error:
                notes.append(f"call {call.cell} raised {call.error}")
        return verdicts

    def run(self, seed: int, seconds: float, traced: bool, import_s: float) -> Outcome:
        setups = [timed(self.setup_once)[0] for _ in range(SETUP_REPEATS)]
        setup_s = import_s + statistics.median(setups)
        notes = [f"setup: import {import_s:.3f} s + median of set-ups "
                 f"{[round(s, 3) for s in setups]} s"]
        if traced:
            return self._run_traced(seed, seconds, notes)
        calls, wall = self.closed_loop(self.calls(seed), seconds)
        rss = peak_rss_mb()
        verdicts = self.verify(calls, notes)
        failed = self.attempted - sum(sum(v) for v in verdicts)
        cycles = self.per_cycle(calls, verdicts)
        notes.append(f"{len(calls)} calls, {self.attempted} requests in {wall:.3f} s; "
                     f"per-cycle req/s {[round(r, 1) for r in cycles['rate']]}")
        notes.append(f"latency: percentiles over each cycle's {len(self.cells) * STACK} "
                     f"requests, median over {len(cycles['p50'])} cycles")
        e2e = {
            "throughput_rps": (statistics.median(cycles["rate"]), "1/s"),
            "latency_p50_ms": (statistics.median(cycles["p50"]) * 1e3, "ms"),
            "latency_p99_ms": (statistics.median(cycles["p99"]) * 1e3, "ms"),
            "cpu_ms_per_request": (statistics.median(cycles["cpu"]) * 1e3, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s"),
        }
        table = dict(e2e)
        table["failed_ratio"] = (failed / self.attempted, "ratio")
        return Outcome(self.attempted, failed, end_to_end=e2e, table=table, notes=notes)

    def _run_traced(self, seed: int, seconds: float, notes: list[str]) -> Outcome:
        with PlanCacheDelta() as cache:
            calls, wall_u = self.closed_loop(self.calls(seed), seconds / 2)
        verdicts = self.verify(calls, notes)
        failed = self.attempted - sum(sum(v) for v in verdicts)
        # The traced half replays the same calls through the decomposition.
        spans = Spans()
        groups, state_bytes = [], []
        unfaithful = 0
        for index, call in enumerate(calls):
            self.attempted += len(call.requests)
            try:
                rows, chunks = traced_sample_many(call.requests, spans, index)
            except Exception as error:  # a broken decomposition fails the call
                notes.append(f"traced call {index} raised {error!r}")
                rows, chunks = None, []
            if call.rows is None or rows is None or \
                    oracle.strip_wall(rows) != oracle.strip_wall(call.rows):
                unfaithful += len(call.requests)
            for backend, model, instances in chunks:
                count, nbytes = chunk_layout(backend, model, instances)
                groups.append(count)
                state_bytes.append(nbytes)
        failed += unfaithful
        requests = sum(len(call.requests) for call in calls)
        all_rows = [row for call in calls for row in (call.rows or [None] * len(call.requests))]
        notes.append(f"traced replay: {len(calls)} calls, {requests} requests; rows equal to "
                     f"the untraced rows: {requests - unfaithful}/{requests}")
        call_total = spans.total("call")
        for step in STEPS:
            notes.append(f"  span {step:<8} {spans.total(step) * 1e3 / requests:9.4f} ms/request "
                         f"{spans.total(step) / call_total:7.2%} of call time")
        children = sum(spans.total(step) for step in STEPS)
        notes.append(f"  span self     {(call_total - children) * 1e3 / requests:9.4f} ms/request")
        notes.append("batch.state_mb is computed from B, N, nu and the substrate, not measured")
        layer = per_layer({
            "api.plan_ms": spans.total("plan") * 1e3 / spans.count("plan"),
            "database.build_ms": spans.total("build") * 1e3 / requests,
            "batch.extract_ms": spans.total("extract") * 1e3 / requests,
            "batch.execute_ms": spans.total("execute") * 1e3 / requests,
            "batch.dense_share": dense_share(all_rows),
            "batch.state_mb": mean(state_bytes) / 2**20,
            "batch.groups_per_call": mean(groups),
            "core.plan_cache_hit_ratio": cache.ratio,
            **core_counts(all_rows, len(self.cells) * STACK),
            "obs.trace_overhead": wall_u / call_total,
        })
        table = dict(layer)
        table["batch.mask_ms"] = (spans.total("mask") * 1e3 / requests, "ms")
        table["api.rows_ms"] = (spans.total("rows") * 1e3 / requests, "ms")
        table["failed_ratio"] = (failed / self.attempted, "ratio")
        return Outcome(self.attempted, failed, per_layer=layer, table=table, notes=notes)


class BatchSmall(BatchWorkload):
    cells = SMALL_CELLS


class BatchLarge(BatchWorkload):
    cells = LARGE_CELLS


# -- open-loop serving workloads ---------------------------------------------------


@dataclass
class ServePass:
    """One open-loop pass through ``repro.serve`` and its timestamps.

    All times are ``time.monotonic`` (the serving tier's clock), so a
    request's completion is the generator's resume after submitting it
    plus the service's submit→resolve latency; that bounds the true
    completion from above by the submit call's tail.
    """

    due: np.ndarray
    t0: float = 0.0
    sent: list[float] = field(default_factory=list)
    yielded: list[float] = field(default_factory=list)
    resumed: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    results: object = None
    error: str | None = None
    hung: bool = False
    cpu_s: float = 0.0


class ServeWorkload:
    """An open loop through ``repro.serve`` on a seeded arrival schedule.

    Arrivals are a Poisson process conditioned on its count: ``rate ×
    seconds`` requests at sorted uniform offsets, so every run offers
    the same load.  One primer request goes first so the service exists
    before the schedule starts.
    """

    rate: float = 0.0
    serve_kwargs: dict = {}

    def __init__(self) -> None:
        self.attempted = 0

    # Subclasses provide the inputs, the requests and the reference check.
    def setup_once(self, seed: int, count: int):
        raise NotImplementedError

    def request(self, inputs, index: int, run_pass: ServePass) -> SamplingRequest:
        raise NotImplementedError

    def primer(self, inputs) -> SamplingRequest:
        raise NotImplementedError

    def verify(self, inputs, seed: int, passes: list[ServePass]) -> list[list[bool]]:
        raise NotImplementedError

    def open_loop(self, inputs, due: np.ndarray, offset: int) -> ServePass:
        run_pass = ServePass(due=due)

        def arrivals():
            yield self.primer(inputs)
            run_pass.t0 = time.monotonic()
            for index, at in enumerate(due):
                target = run_pass.t0 + at
                now = time.monotonic()
                if target > now:
                    time.sleep(target - now)
                run_pass.sent.append(time.monotonic())
                request = self.request(inputs, offset + index, run_pass)
                run_pass.yielded.append(time.monotonic())
                yield request
                run_pass.resumed.append(time.monotonic())

        def drive():
            try:
                run_pass.results = repro.serve(arrivals(), **self.serve_kwargs)
            except Exception as error:  # a failed request fails the pass
                run_pass.error = repr(error)

        self.attempted += len(due)
        cpu_start = cpu_seconds()
        worker = threading.Thread(target=drive, name="perfbench-serve", daemon=True)
        worker.start()
        worker.join(float(due[-1]) + DRAIN_GRACE_S)
        run_pass.hung = worker.is_alive()
        run_pass.cpu_s = cpu_seconds() - cpu_start
        return run_pass

    def schedule(self, seed: int, count: int, seconds: float) -> np.ndarray:
        return np.sort(rng_for(seed, "schedule").uniform(0.0, seconds, size=count))

    def rows(self, run_pass: ServePass) -> list[dict | None]:
        """Timed rows (the primer dropped); ``None`` where unresolved."""
        if run_pass.results is None:
            return [None] * len(run_pass.due)
        return [result.row() for result in list(run_pass.results)[1:]]

    def latencies(self, run_pass: ServePass, verdict: list[bool]) -> list[float]:
        if run_pass.results is None:
            return [float("inf")] * len(run_pass.due)
        served = list(run_pass.results)[1:]
        return [
            run_pass.resumed[i] + served[i].wall_time - (run_pass.t0 + run_pass.due[i])
            if good else float("inf")
            for i, good in enumerate(verdict)
        ]

    def run(self, seed: int, seconds: float, traced: bool, import_s: float) -> Outcome:
        count = max(2, round(self.rate * seconds))
        setups = []
        for _ in range(SETUP_REPEATS):
            elapsed, inputs = timed(self.setup_once, seed, count)
            setups.append(elapsed)
        setup_s = import_s + statistics.median(setups)
        notes = [f"setup: import {import_s:.3f} s + median of set-ups "
                 f"{[round(s, 3) for s in setups]} s",
                 f"open loop: {count} requests at {self.rate:g} req/s"]
        if traced:
            return self._run_traced(seed, seconds, count, inputs, notes)
        due = self.schedule(seed, count, seconds)
        run_pass = self.open_loop(inputs, due, 0)
        rss = peak_rss_mb()
        verdict = self.verify(inputs, seed, [run_pass])[0]
        latencies = self.latencies(run_pass, verdict)
        ok = sum(verdict)
        failed = self.attempted - ok
        self._note_pass(run_pass, notes)
        e2e = {
            "throughput_rps": (ok / self._wall(run_pass), "1/s"),
            **latency_metrics(latencies, notes),
            "cpu_ms_per_request": (run_pass.cpu_s * 1e3 / self.attempted, "ms"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s"),
        }
        table = dict(e2e)
        table["failed_ratio"] = (failed / self.attempted, "ratio")
        table["loadgen.lag_p99_ms"] = (self._lag_p99_ms(run_pass), "ms")
        return Outcome(self.attempted, failed, end_to_end=e2e, table=table, notes=notes,
                       hung=run_pass.hung)

    def _lag_p99_ms(self, run_pass: ServePass) -> float:
        return percentile((s - (run_pass.t0 + d) for s, d in zip(run_pass.sent, run_pass.due)), 99) * 1e3

    def _note_pass(self, run_pass: ServePass, notes: list[str]) -> None:
        if run_pass.error:
            notes.append(f"serve raised {run_pass.error}")
        if run_pass.hung:
            notes.append(f"serve did not drain within {DRAIN_GRACE_S:.0f} s of the last "
                         "send: every request of the pass counts as unresolved")

    def _run_traced(self, seed: int, seconds: float, count: int, inputs,
                    notes: list[str]) -> Outcome:
        half = max(2, count // 2)
        due = self.schedule(seed, half, seconds / 2)
        with PlanCacheDelta() as cache:
            plain = self.open_loop(inputs, due, 0)
        if plain.hung:
            # The stuck tier cannot serve a second pass: it counts unresolved.
            self.attempted += len(due)
            traced = ServePass(due=due, hung=True)
        else:
            enable_tracing(buffer_size=1 << 18)
            try:
                traced = self.open_loop(inputs, due, half)
            finally:
                disable_tracing()
        passes = [plain, traced]
        verdicts = self.verify(inputs, seed, passes)
        failed = self.attempted - sum(sum(v) for v in verdicts)
        for run_pass in passes:
            self._note_pass(run_pass, notes)
        telemetry = traced.results.telemetry if traced.results is not None else {}
        spans = {}
        for result in list(traced.results or [None])[1:]:
            for record in result.trace or ():
                spans[record["span_id"]] = record
        span_s: dict[str, float] = {}
        span_n: dict[str, int] = {}
        for record in spans.values():
            # Root spans stay open until the whole run_pass drains.
            if record["name"] != "request":
                span_s[record["name"]] = span_s.get(record["name"], 0.0) + record["duration_s"]
                span_n[record["name"]] = span_n.get(record["name"], 0) + 1
        for name in sorted(span_s):
            notes.append(f"  repro.obs span {name:<9} {span_n[name]:6d} spans "
                         f"{span_s[name] * 1e3:10.1f} ms total {span_s[name] * 1e3 / half:8.4f} "
                         "ms/request")
        per_shard = [s.get("batches_executed", 0) for s in telemetry.get("per_shard", ())]
        rows = self.rows(plain)
        thr = [sum(v) / max(1e-9, self._wall(s)) for s, v in zip(passes, verdicts)]
        layer = per_layer({
            **self.build_metrics(span_s, half),
            "database.write_ms": mean(traced.write_s) * 1e3,
            "batch.execute_ms": span_s.get("execute", 0.0) * 1e3 / half,
            "batch.dense_share": dense_share(rows),
            "core.plan_cache_hit_ratio": cache.ratio,
            **core_counts(rows, CORE_PREFIX),
            "serve.submit_ms": mean(r - y for r, y in zip(traced.resumed, traced.yielded)) * 1e3,
            "serve.fill_ratio": telemetry.get("batch_fill_ratio", 0.0),
            "serve.batch_size_mean": telemetry.get("mean_batch_size", 0.0),
            "serve.service_p50_ms": telemetry.get("p50_latency", 0.0) * 1e3,
            "shard.shm_batches": telemetry.get("shm_batches", 0),
            "shard.fallback_batches": telemetry.get("shm_fallback_batches", 0),
            "shard.requeued_batches": telemetry.get("requeued_batches", 0),
            "shard.max_share": max(per_shard) / sum(per_shard) if sum(per_shard) else 0.0,
            "loadgen.lag_p99_ms": self._lag_p99_ms(traced),
            "obs.trace_overhead": thr[1] / thr[0] if thr[0] else 0.0,
        })
        table = dict(layer)
        table["failed_ratio"] = (failed / self.attempted, "ratio")
        return Outcome(self.attempted, failed, per_layer=layer, table=table, notes=notes,
                       hung=plain.hung or traced.hung)

    def _wall(self, run_pass: ServePass) -> float:
        if run_pass.results is None:
            return float("inf")
        served = list(run_pass.results)[1:]
        return max(run_pass.resumed[i] + r.wall_time for i, r in enumerate(served)) - run_pass.t0

    def build_metrics(self, span_s: dict[str, float], requests: int) -> dict[str, float]:
        return {}


class ServeOpen(ServeWorkload):
    """serve-open: spec-built sequential requests, N alternating 512/4096,
    through the in-process tier with default auto backend, batch size and
    flush deadline."""

    rate = OPEN_RATE
    serve_kwargs: dict = {}

    def setup_once(self, seed: int, count: int):
        specs = {universe: zipf_spec(universe) for universe in OPEN_UNIVERSES}
        warm = [SamplingRequest(spec=specs[OPEN_UNIVERSES[i % 2]], seed=WARMUP_SEED + i)
                for i in range(16)]
        if not all(result.exact for result in repro.serve(warm)):
            raise RuntimeError("warm-up produced an inexact result")
        seeds = rng_for(seed, "requests").integers(0, 2**63 - 1, size=count)
        return specs, seeds

    def primer(self, inputs) -> SamplingRequest:
        specs, _ = inputs
        return SamplingRequest(spec=specs[OPEN_UNIVERSES[0]], seed=WARMUP_SEED)

    def request(self, inputs, index: int, run_pass: ServePass) -> SamplingRequest:
        specs, seeds = inputs
        universe = OPEN_UNIVERSES[index % len(OPEN_UNIVERSES)]
        return SamplingRequest(spec=specs[universe], seed=int(seeds[index]))

    def verify(self, inputs, seed: int, passes: list[ServePass]) -> list[list[bool]]:
        verdicts, offset = [], 0
        for run_pass in passes:
            requests = [self.request(inputs, offset + i, run_pass) for i in range(len(run_pass.due))]
            offset += len(run_pass.due)
            verdicts.append(oracle.check_rows(self.rows(run_pass), requests))
        return verdicts

    def build_metrics(self, span_s: dict[str, float], requests: int) -> dict[str, float]:
        return {"database.build_ms": span_s.get("build", 0.0) * 1e3 / requests}


@dataclass
class LiveInputs:
    stream: object
    count: int


class ChurnSharded(ServeWorkload):
    """churn-sharded: live snapshots of one mutating database, each after
    ``CHURN_UPDATES`` seeded updates, through the sharded tier."""

    rate = CHURN_RATE
    serve_kwargs = {"shards": CHURN_SHARDS}

    @staticmethod
    def live_database(seed: int, count: int):
        """The seeded database and update stream, its class view primed."""
        db_seed = int(rng_for(seed, "database").integers(0, 2**63 - 1))
        update_seed = int(rng_for(seed, "updates").integers(0, 2**63 - 1))
        db = uniform_spec(CHURN_UNIVERSE, CHURN_TOTAL).build(rng=db_seed)
        stream = random_update_stream(db, CHURN_UPDATES * count, rng=update_seed)
        stream.class_state()
        return stream

    @staticmethod
    def live(stream) -> SamplingRequest:
        return SamplingRequest(stream=stream, include_probabilities=False)

    def setup_once(self, seed: int, count: int) -> LiveInputs:
        stream = self.live_database(seed, count)
        warm = repro.serve([self.live(stream) for _ in range(8)], shards=CHURN_SHARDS)
        if not all(result.exact for result in warm):
            raise RuntimeError("warm-up produced an inexact result")
        return LiveInputs(stream, count)

    def primer(self, inputs: LiveInputs) -> SamplingRequest:
        return self.live(inputs.stream)

    def request(self, inputs: LiveInputs, index: int, run_pass: ServePass) -> SamplingRequest:
        start = time.perf_counter()
        inputs.stream.apply_next(CHURN_UPDATES)
        run_pass.write_s.append(time.perf_counter() - start)
        return self.live(inputs.stream)

    def verify(self, inputs: LiveInputs, seed: int, passes: list[ServePass]) -> list[list[bool]]:
        replay = self.live_database(seed, inputs.count)
        return [oracle.check_live(self.rows(run_pass), replay, CHURN_UPDATES, self.live)
                for run_pass in passes]


WORKLOADS = {
    "batch-small": BatchSmall,
    "batch-large": BatchLarge,
    "serve-open": ServeOpen,
    "churn-sharded": ChurnSharded,
}
