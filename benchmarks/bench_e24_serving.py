"""E24 — serving: latency/throughput vs offered load and flush deadline.

The serving subsystem's claim: a *continuously-fed* request stream
through :class:`repro.serve.SamplerService` keeps the stacked engine's
throughput while bounding per-request latency with the deadline flush.
Acceptance bars (ISSUE 3):

* **throughput** — at full offered load (requests submitted as fast as
  the client can), served instances/sec ≥ **0.8×** the ``run_batched``
  rate on the same spec list (the E23-style batched reference measured
  inline, same machine, same moment);
* **latency** — at low offered load (arrivals far slower than service
  capacity), p99 submit-to-completion latency stays bounded by the
  flush deadline (plus a small single-batch execution allowance);
* **equivalence** — served rows equal ``run_batched`` rows on the same
  spec stream and seeds (``==`` on every column, fidelity included),
  checked inside the bench itself.

``test_e24_serving`` runs the full comparison and asserts the bars;
``test_e24_smoke_small`` is the CI-sized variant (tiny trace, no rate or
latency assertions — shared runners are not latency instruments) that
still exercises the whole path and archives the JSON artifact under
``benchmarks/_results/E24.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import InstanceSpec
from repro.batch import run_batched
from repro.database import WorkloadSpec
from repro.serve import SamplerService
from repro.utils.rng import as_generator

#: One spec family, ν pinned to M — always a valid capacity, and constant
#: across child seeds, so the shared overlap M/(νN) puts every instance in
#: one schedule shape: the steady state a homogeneous serving workload hits.
SPEC = InstanceSpec(
    workload=WorkloadSpec.of("zipf", universe=2048, total=512),
    n_machines=2,
    nu=512,
)
BATCH_SIZE = 64
DEADLINE = 0.05


def _batched_rate(specs, rng) -> tuple[float, list[dict]]:
    """The E23-style reference: run_batched instances/sec, plus its rows."""
    run_batched(specs[:8], rng=0, batch_size=BATCH_SIZE,
                include_probabilities=False)  # warm plan/schedule caches
    start = time.perf_counter()
    result = run_batched(specs, rng=rng, batch_size=BATCH_SIZE,
                         include_probabilities=False)
    elapsed = time.perf_counter() - start
    return len(specs) / elapsed, result.rows


def _serve_trace(specs, rng, rate_hz: float, deadline: float = DEADLINE):
    """Replay one arrival trace; returns (telemetry, rows)."""
    arrivals = as_generator(123)
    with SamplerService(
        batch_size=BATCH_SIZE, flush_deadline=deadline, workers=2, rng=rng
    ) as service:
        for spec in specs:
            if rate_hz > 0:
                time.sleep(float(arrivals.exponential(1.0 / rate_hz)))
            service.submit(spec)
        rows = service.rows()
        return service.telemetry(), rows


def _assert_rows_equivalent(served, reference):
    """Every column equal, fidelity included: a ``classes`` row does not
    depend on the batch it ran in."""
    assert len(served) == len(reference)
    for mine, ref in zip(served, reference):
        assert mine == ref


def _scenario_row(name, load, deadline, telemetry, rate=None):
    return {
        "scenario": name,
        "offered_load": load,
        "flush_deadline": deadline,
        "batch_fill_ratio": telemetry["batch_fill_ratio"],
        "p50_latency": telemetry["p50_latency"],
        "p99_latency": telemetry["p99_latency"],
        "instances_per_sec": (
            rate if rate is not None else telemetry["instances_per_sec"]
        ),
    }


def _report_rows(trajectory, report, claim):
    rows = [
        [
            r["scenario"],
            r["offered_load"],
            f"{r['flush_deadline'] * 1e3:.0f} ms",
            f"{r['batch_fill_ratio']:.2f}",
            f"{r['p50_latency'] * 1e3:.1f} ms",
            f"{r['p99_latency'] * 1e3:.1f} ms",
            f"{r['instances_per_sec']:.0f}/s",
        ]
        for r in trajectory
    ]
    report(
        "E24",
        claim,
        ["scenario", "load", "deadline", "fill", "p50", "p99", "rate"],
        rows,
        payload={"trajectory": trajectory, "batch_size": BATCH_SIZE},
    )


def test_e24_serving(report):
    specs = [SPEC] * 256
    trajectory = []

    # -- reference + full-load throughput + equivalence ------------------------
    batched_rate, reference_rows = _batched_rate(specs, rng=9)
    trajectory.append(
        {
            "scenario": "batched-reference",
            "offered_load": "offline",
            "flush_deadline": 0.0,
            "batch_fill_ratio": 1.0,
            "p50_latency": 0.0,
            "p99_latency": 0.0,
            "instances_per_sec": batched_rate,
        }
    )
    _serve_trace(specs[:16], rng=9, rate_hz=0.0)  # warm the serving path
    telemetry, served_rows = _serve_trace(specs, rng=9, rate_hz=0.0)
    _assert_rows_equivalent(served_rows, reference_rows)
    trajectory.append(_scenario_row("served-full-load", "max", DEADLINE, telemetry))
    served_rate = telemetry["instances_per_sec"]

    # -- low load: p99 bounded by the flush deadline ---------------------------
    low_telemetry, _ = _serve_trace(specs[:48], rng=9, rate_hz=100.0)
    trajectory.append(_scenario_row("served-low-load", "100/s", DEADLINE, low_telemetry))

    # -- deadline ablation at moderate load ------------------------------------
    for deadline in (0.01, 0.1):
        t, _ = _serve_trace(specs[:64], rng=9, rate_hz=1000.0, deadline=deadline)
        trajectory.append(_scenario_row("deadline-sweep", "1000/s", deadline, t))

    _report_rows(
        trajectory,
        report,
        "serving ≥0.8× batched instances/sec at full load; p99 ≤ deadline at low load",
    )
    assert served_rate >= 0.8 * batched_rate, (
        f"served {served_rate:.0f}/s below 0.8× batched {batched_rate:.0f}/s"
    )
    # One partial batch executes in well under 50 ms at this size; the
    # deadline dominates p99 when arrivals trickle in.
    assert low_telemetry["p99_latency"] <= DEADLINE + 0.05, (
        f"low-load p99 {low_telemetry['p99_latency'] * 1e3:.1f} ms not bounded "
        f"by the {DEADLINE * 1e3:.0f} ms flush deadline"
    )


def test_e24_smoke_small(report):
    """Tiny-trace CI variant: full path, JSON artifact, no rate assertions."""
    specs = [
        InstanceSpec(
            workload=WorkloadSpec.of("zipf", universe=256, total=64),
            n_machines=2,
            nu=64,
        )
    ] * 16
    batched_rate, reference_rows = _batched_rate(specs, rng=4)
    telemetry, served_rows = _serve_trace(specs, rng=4, rate_hz=0.0, deadline=0.02)
    _assert_rows_equivalent(served_rows, reference_rows)
    assert telemetry["exact"] == len(specs)
    trajectory = [
        {
            "scenario": "smoke-batched-reference",
            "offered_load": "offline",
            "flush_deadline": 0.0,
            "batch_fill_ratio": 1.0,
            "p50_latency": 0.0,
            "p99_latency": 0.0,
            "instances_per_sec": batched_rate,
        },
        _scenario_row("smoke-served", "max", 0.02, telemetry),
    ]
    _report_rows(
        trajectory,
        report,
        "serving smoke (tiny trace): equivalence holds, telemetry recorded",
    )


def test_e24_smoke_tracing_overhead():
    """ISSUE 8 acceptance bar: serving with tracing enabled sustains
    ≥ 0.95× the untraced instances/sec on the same stream (best-of-3
    each, so one scheduler hiccup does not fail the gate).  The traced
    run's spans land in ``benchmarks/_results/E24_trace.jsonl`` (the CI
    artifact) and a per-phase p50/p99 summary is merged into
    ``E24.json`` under ``"spans"`` for compare_results to diff.
    """
    import json
    import os

    from repro.analysis import archive_results, load_results, results_dir
    from repro.obs.metrics import percentile
    from repro.obs.trace import disable_tracing, enable_tracing

    specs = [
        InstanceSpec(
            workload=WorkloadSpec.of("zipf", universe=256, total=64),
            n_machines=2,
            nu=64,
        )
    ] * 24
    _serve_trace(specs[:8], rng=4, rate_hz=0.0, deadline=0.02)  # warm caches

    def best_rate():
        best, rows = 0.0, None
        for _ in range(3):
            telemetry, run_rows = _serve_trace(
                specs, rng=4, rate_hz=0.0, deadline=0.02
            )
            if telemetry["instances_per_sec"] >= best:
                best, rows = telemetry["instances_per_sec"], run_rows
        return best, rows

    untraced_rate, untraced_rows = best_rate()
    sink = os.path.join(results_dir(), "E24_trace.jsonl")
    open(sink, "w", encoding="utf-8").close()  # fresh artifact per run
    enable_tracing(sink=sink)
    try:
        traced_rate, traced_rows = best_rate()
    finally:
        disable_tracing()
    _assert_rows_equivalent(traced_rows, untraced_rows)

    with open(sink, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    spans = [r for r in records if r.get("kind") == "span"]
    assert {"request", "build", "execute"} <= {s["name"] for s in spans}
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

    try:  # merge into the smoke's artifact (overwritten whole otherwise)
        payload = load_results("E24")
    except FileNotFoundError:
        payload = {"claim": "serving smoke (tracing overhead only)"}
    payload["tracing"] = {
        "untraced_rate": untraced_rate,
        "traced_rate": traced_rate,
        "overhead_ratio": traced_rate / untraced_rate,
    }
    payload["spans"] = span_summary
    archive_results("E24", payload)
    assert traced_rate >= 0.95 * untraced_rate, (
        f"traced serving {traced_rate:.0f}/s below 0.95× untraced "
        f"{untraced_rate:.0f}/s — tracing overhead too high"
    )


def test_e24_benchmark_hook(benchmark):
    """pytest-benchmark hook: steady-state full-load serving of 32 requests."""
    specs = [
        InstanceSpec(
            workload=WorkloadSpec.of("zipf", universe=512, total=128),
            n_machines=2,
            nu=128,
        )
    ] * 32
    _serve_trace(specs, rng=0, rate_hz=0.0)  # warm caches

    def serve_once():
        telemetry, _ = _serve_trace(specs, rng=0, rate_hz=0.0)
        return telemetry

    telemetry = benchmark(serve_once)
    assert telemetry["exact"] == len(specs)
