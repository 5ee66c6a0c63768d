"""E26 — sharded serving: offered-load sweep across worker-tier widths.

The sharded tier's claim: splitting the serving loop across N shard
workers (each owning the pack→build→execute cycle for its affinity
classes, results returned through the shared-memory arena) multiplies
sustained throughput without giving up the audit surface. Acceptance
bars (ISSUE 6):

* **equivalence** — rows from the sharded tier equal (``==`` on every
  column, fidelity included, modulo wall-clock columns) those of the
  single-process :class:`SamplerService` fed the same request stream
  and seeds — asserted unconditionally, smoke included;
* **zero-copy** — under the default arena size every batch returns via
  shared memory: ``shm_batches > 0`` and ``shm_fallback_batches == 0``;
* **scaling** — with ≥4 CPU cores available, 4 shards sustain ≥ **2×**
  the single-process dispatcher's instances/sec at full offered load
  (gated on ``os.sched_getaffinity``: shared single-core runners cannot
  express the parallelism and skip the bar, never fake it).

``test_e26_sharded_serving`` runs the full sweep — Poisson and bursty
diurnal arrival traces × shards {1, 2, 4} — and archives the trajectory;
``test_e26_smoke_small`` is the CI-sized variant (tiny trace, shards=2,
equivalence + zero-copy bars only) archiving ``benchmarks/_results/E26.json``;
``test_e26_scaling_bar`` asserts the ≥2× bar and skips below 4 cores.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.analysis import InstanceSpec
from repro.database import WorkloadSpec
from repro.serve import SamplerService, ShardedSamplerService
from repro.utils.rng import as_generator

#: Same steady-state family as E24: ν pinned to M keeps every instance in
#: one schedule shape, i.e. one affinity class — the worst case for a
#: sharding dispatcher (all load hashes to one shard unless the tier
#: spreads *batches*, which it does not: affinity is the contract), so
#: the sweep mixes machine counts to populate every shard.
BATCH_SIZE = 32
DEADLINE = 0.05


def _specs(count: int, universe: int = 512, total: int = 128):
    """A request mix spanning several affinity classes (n ∈ {2, 3, 4})."""
    return [
        InstanceSpec(
            workload=WorkloadSpec.of("zipf", universe=universe, total=total),
            n_machines=2 + (k % 3),
            nu=total,
            tag=f"e26-{k % 3}",
        )
        for k in range(count)
    ]


def _arrival_gaps(trace: str, count: int, rate_hz: float) -> list[float]:
    """Inter-arrival gaps for one offered-load trace.

    ``poisson`` draws i.i.d. exponential gaps; ``bursty`` modulates the
    rate sinusoidally over the trace (a compressed diurnal cycle: peaks
    at ~4× the trough) so the tier sees alternating saturation and idle.
    """
    rng = as_generator(123)
    if rate_hz <= 0:
        return [0.0] * count
    if trace == "poisson":
        return [float(g) for g in rng.exponential(1.0 / rate_hz, size=count)]
    phase = 2.0 * np.pi * np.arange(count) / max(count, 1)
    local_rate = rate_hz * (1.0 + 0.6 * np.sin(phase))  # 0.4×..1.6× the mean
    return [float(rng.exponential(1.0 / r)) for r in local_rate]


def _run_tier(specs, rng, shards, trace="poisson", rate_hz=0.0,
              deadline=DEADLINE, **kwargs):
    """Replay one arrival trace through the sharded tier."""
    gaps = _arrival_gaps(trace, len(specs), rate_hz)
    with ShardedSamplerService(
        shards=shards, batch_size=BATCH_SIZE, flush_deadline=deadline,
        rng=rng, include_probabilities=False, **kwargs
    ) as tier:
        start = time.perf_counter()
        for spec, gap in zip(specs, gaps):
            if gap > 0:
                time.sleep(gap)
            tier.submit(spec)
        rows = tier.rows()
        elapsed = time.perf_counter() - start
        return tier.telemetry(), rows, len(specs) / elapsed


def _run_unsharded(specs, rng, deadline=DEADLINE):
    """The single-process dispatcher reference on the same stream."""
    with SamplerService(
        batch_size=BATCH_SIZE, flush_deadline=deadline, workers=2,
        rng=rng, include_probabilities=False
    ) as service:
        start = time.perf_counter()
        for spec in specs:
            service.submit(spec)
        rows = service.rows()
        elapsed = time.perf_counter() - start
        return service.telemetry(), rows, len(specs) / elapsed


def _assert_rows_equivalent(sharded, reference):
    """``==`` on every column, fidelity included (timing excluded)."""
    assert len(sharded) == len(reference)
    for mine, ref in zip(sharded, reference):
        for key, value in ref.items():
            if key != "wall_time_s":
                assert mine[key] == value, (key, mine[key], value)


def _scenario_row(trace, load, shards, telemetry, sustained):
    return {
        "scenario": trace,
        "offered_load": load,
        "shards": shards,
        "batch_fill_ratio": telemetry["batch_fill_ratio"],
        "p99_latency": telemetry["p99_latency"],
        "shm_batches": telemetry.get("shm_batches", 0),
        "shm_fallback_batches": telemetry.get("shm_fallback_batches", 0),
        "instances_per_sec": sustained,
    }


def _report_rows(trajectory, report, claim):
    rows = [
        [
            r["scenario"],
            r["offered_load"],
            r["shards"],
            f"{r['batch_fill_ratio']:.2f}",
            f"{r['p99_latency'] * 1e3:.1f} ms",
            r["shm_batches"],
            f"{r['instances_per_sec']:.0f}/s",
        ]
        for r in trajectory
    ]
    report(
        "E26",
        claim,
        ["trace", "load", "shards", "fill", "p99", "shm", "rate"],
        rows,
        payload={"trajectory": trajectory, "batch_size": BATCH_SIZE,
                 "cores": len(os.sched_getaffinity(0))},
    )


def test_e26_sharded_serving(report):
    """Full sweep: {poisson, bursty} × shards {1, 2, 4} at full load,
    plus a moderate-rate cell per trace for the latency picture."""
    specs = _specs(96)
    trajectory = []

    # Unconditional bars on the widest tier first: equivalence + zero-copy.
    _, reference_rows, _ = _run_unsharded(specs, rng=9)
    for shards in (1, 2, 4):
        telemetry, rows, sustained = _run_tier(specs, rng=9, shards=shards)
        _assert_rows_equivalent(rows, reference_rows)
        assert telemetry["shm_batches"] > 0
        assert telemetry["shm_fallback_batches"] == 0
        trajectory.append(_scenario_row("poisson", "max", shards, telemetry, sustained))

    for trace in ("poisson", "bursty"):
        for shards in (1, 2, 4):
            telemetry, rows, sustained = _run_tier(
                specs[:48], rng=9, shards=shards, trace=trace, rate_hz=200.0
            )
            assert telemetry["completed"] == 48 and telemetry["failed"] == 0
            trajectory.append(
                _scenario_row(trace, "200/s", shards, telemetry, sustained)
            )

    _report_rows(
        trajectory,
        report,
        "sharded rows == unsharded; zero-copy handoff; "
        "≥2× rate at 4 shards on ≥4 cores",
    )


def test_e26_scaling_bar(report):
    """≥2× sustained throughput at 4 shards vs the single-process
    dispatcher — only meaningful with real parallelism underneath."""
    if len(os.sched_getaffinity(0)) < 4:
        pytest.skip("needs ≥4 CPU cores to express 4-shard parallelism")
    specs = _specs(128)
    _run_tier(specs[:16], rng=3, shards=4)  # warm plan/schedule caches
    _, _, single_rate = _run_unsharded(specs, rng=3)
    telemetry, rows, sharded_rate = _run_tier(specs, rng=3, shards=4)
    assert telemetry["completed"] == len(specs)
    _report_rows(
        [
            _scenario_row("scaling-ref", "max", 0, telemetry, single_rate),
            _scenario_row("scaling-4x", "max", 4, telemetry, sharded_rate),
        ],
        report,
        "4 shards sustain ≥2× the single-process dispatcher at full load",
    )
    assert sharded_rate >= 2.0 * single_rate, (
        f"4-shard tier {sharded_rate:.0f}/s below 2× single-process "
        f"{single_rate:.0f}/s"
    )


def test_e26_smoke_small(report):
    """Tiny-trace CI variant: equivalence and zero-copy bars hold, JSON
    artifact archived; no rate assertions (shared runners)."""
    specs = _specs(16, universe=256, total=64)
    _, reference_rows, single_rate = _run_unsharded(specs, rng=4, deadline=0.02)
    telemetry, rows, sustained = _run_tier(
        specs, rng=4, shards=2, deadline=0.02
    )
    _assert_rows_equivalent(rows, reference_rows)
    assert telemetry["exact"] == len(specs)
    assert telemetry["shards"] == 2
    assert telemetry["shm_batches"] > 0, "zero-copy path never used"
    assert telemetry["shm_fallback_batches"] == 0, "arena overflowed in smoke"
    assert telemetry["worker_restarts"] == 0
    trajectory = [
        _scenario_row("smoke-unsharded", "max", 0,
                      {"batch_fill_ratio": 1.0, "p99_latency": 0.0},
                      single_rate),
        _scenario_row("smoke-sharded", "max", 2, telemetry, sustained),
    ]
    _report_rows(
        trajectory,
        report,
        "sharded smoke (tiny trace): rows ≡ unsharded, zero-copy handoff",
    )


def test_e26_smoke_traced():
    """Cross-process tracing through the sharded tier: worker-side spans
    (build/execute/marshal, foreign pids) ship home over the pipe and
    land in ``benchmarks/_results/E26_trace.jsonl`` (the CI artifact);
    a per-phase summary is merged into ``E26.json`` under ``"spans"``.
    """
    import json

    from repro.analysis import archive_results, load_results, results_dir
    from repro.obs.metrics import percentile
    from repro.obs.trace import disable_tracing, enable_tracing

    specs = _specs(12, universe=256, total=64)
    sink = os.path.join(results_dir(), "E26_trace.jsonl")
    open(sink, "w", encoding="utf-8").close()
    enable_tracing(sink=sink)
    try:
        telemetry, rows, _ = _run_tier(specs, rng=7, shards=2, deadline=0.02)
    finally:
        disable_tracing()
    assert telemetry["completed"] == len(specs)
    assert telemetry["failed"] == 0

    with open(sink, encoding="utf-8") as handle:
        spans = [
            record
            for record in (json.loads(line) for line in handle if line.strip())
            if record.get("kind") == "span"
        ]
    names = {span["name"] for span in spans}
    assert {"request", "dispatch", "build", "execute", "marshal"} <= names
    worker_pids = {
        span["pid"] for span in spans if span["name"] in ("build", "execute")
    }
    assert worker_pids and all(pid != os.getpid() for pid in worker_pids), (
        "expected shard-worker spans from forked processes"
    )

    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(float(span["duration_s"]))
    span_summary = {
        name: {
            "count": len(values),
            "p50_s": percentile(sorted(values), 0.50),
            "p99_s": percentile(sorted(values), 0.99),
        }
        for name, values in sorted(durations.items())
    }
    try:
        payload = load_results("E26")
    except FileNotFoundError:
        payload = {"claim": "sharded smoke (traced only)"}
    payload["spans"] = span_summary
    archive_results("E26", payload)


def test_e26_benchmark_hook(benchmark):
    """pytest-benchmark hook: steady-state full-load 2-shard serving."""
    specs = _specs(24, universe=256, total=64)
    _run_tier(specs[:8], rng=0, shards=2)  # warm caches

    def serve_once():
        telemetry, _, _ = _run_tier(specs, rng=0, shards=2)
        return telemetry

    telemetry = benchmark(serve_once)
    assert telemetry["completed"] == len(specs)
