"""E23 — batched throughput: stacked backends vs the per-instance loop.

Two claims, one artifact:

* **Stacked classes** (PR 2 / ISSUE 2): the ``classes`` backend
  compresses each instance to a ``(ν+1)×2`` cell grid, so ``B``
  instances stack into one ``(B, ν+1, 2)`` tensor and the whole Theorem
  4.3/4.5 amplification loop runs as a constant number of NumPy kernels
  per iterate.  Acceptance bar: **≥ 5× instances/sec over the
  per-instance ``classes`` loop at B = 256, ν ≤ 32**.
* **Stacked dense subspace**: on the medium-``N`` grid,
  against the explicit per-instance dense ``subspace`` backend, the
  ``(B, N, 2)`` stacked-dense backend amortizes the
  per-run Python cost (sampler construction, plan solve, schedule,
  kernel dispatch) across the batch while staying bit-identical to
  per-instance rows.  Acceptance bar: **≥ 3× instances/sec over
  per-instance ``subspace`` execution at B = 256** on the medium-N
  grid, with the stacked-``classes`` rate on the same databases
  recorded alongside (the classes-vs-subspace stacked comparison).

Rates are best-of-2 after a warm-up pass — the paths share caches
(plans, schedules, NumPy dispatch) and the CI-class machines this runs
on are noisy, so single-shot timings under-resolve the ratio.

``test_e23_batched_throughput`` runs the full B = 256 comparison and
asserts both bars; ``test_e23_smoke_small`` is the CI-sized variant
(tiny B, no ratio assertion — a 2-vCPU runner under noisy neighbors is
not a throughput instrument) that still exercises both stacked backends
and archives the JSON perf trajectory under
``benchmarks/_results/E23.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.batch import execute_sampling_batch, padded_fill_ratio
from repro.core import ParallelSampler, SequentialSampler
from repro.database import DistributedDatabase
from repro.utils.rng import as_generator

N_MACHINES = 2
#: (label, universe, nu) instance families; ν ≤ 32 per the acceptance bar.
FAMILIES = [
    ("nu8/N2048", 2048, 8),
    ("nu32/N4096", 4096, 32),
]

#: The medium-N grid of the stacked-dense acceptance bar: big enough
#: that the dense representation is the planner's per-instance choice,
#: small enough that per-run Python overhead still dominates the O(N)
#: kernels — the regime the (B, N, 2) stack exists for.
DENSE_FAMILIES = [
    ("nu8/N512", 512, 8),
    ("nu8/N1024", 1024, 8),
    ("nu8/N2048", 2048, 8),
]


def _instance(universe: int, nu: int, seed: int) -> DistributedDatabase:
    """Sparse heavy-key workload with per-seed support (M, ν shared)."""
    rng = as_generator(seed)
    support = rng.choice(universe, size=125, replace=False)
    counts = np.zeros((N_MACHINES, universe), dtype=np.int64)
    counts[0, support] = nu // 2
    counts[1, support] = nu - nu // 2
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def _best_rate(run, count: int, repetitions: int = 2):
    """Best instances/sec over ``repetitions`` timed calls of ``run``."""
    rate, results = 0.0, None
    for _ in range(repetitions):
        start = time.perf_counter()
        results = run()
        rate = max(rate, count / (time.perf_counter() - start))
    return rate, results


def _per_instance_rate(dbs, model: str, backend: str = "classes"):
    sampler_cls = SequentialSampler if model == "sequential" else ParallelSampler
    return _best_rate(
        lambda: [sampler_cls(db, backend=backend).run() for db in dbs], len(dbs)
    )


def _batched_rate(dbs, model: str, backend: str = "classes"):
    return _best_rate(
        lambda: execute_sampling_batch(dbs, model=model, backend=backend), len(dbs)
    )


def _compare(dbs, model: str, batch_size: int) -> dict:
    """The classes-substrate comparison (per-instance vs stacked classes)."""
    dbs = dbs[:batch_size]
    # Warm both paths once (plan/schedule caches, NumPy dispatch) so the
    # measurement sees steady-state serving throughput, not first-call cost.
    _batched_rate(dbs[:4], model)
    _per_instance_rate(dbs[:4], model)
    base_rate, base_results = _per_instance_rate(dbs, model)
    batch_rate, batch_results = _batched_rate(dbs, model)
    for ref, res in zip(base_results, batch_results):
        assert res.exact and ref.exact
        assert res.ledger.summary() == ref.ledger.summary()
    return {
        "model": model,
        "backend": "classes",
        "B": batch_size,
        "per_instance_rate": base_rate,
        "batched_rate": batch_rate,
        "speedup": batch_rate / base_rate,
    }


def _compare_dense(dbs, batch_size: int) -> list[dict]:
    """The medium-N comparison: per-instance subspace vs both stacks.

    Returns two rows — the stacked ``subspace`` tensor and the stacked
    ``classes`` compression on the same databases — each rated against
    the same per-instance ``subspace`` baseline, which is what the
    planner would run one at a time in this regime.  Bit-identity of the
    dense stack is asserted inline (fidelity via ``==``, ledgers exact).
    """
    dbs = dbs[:batch_size]
    _batched_rate(dbs[:4], "sequential", backend="subspace")
    _per_instance_rate(dbs[:4], "sequential", backend="subspace")
    base_rate, base_results = _per_instance_rate(dbs, "sequential", backend="subspace")
    dense_rate, dense_results = _batched_rate(dbs, "sequential", backend="subspace")
    classes_rate, classes_results = _batched_rate(dbs, "sequential", backend="classes")
    for ref, res, cls in zip(base_results, dense_results, classes_results):
        assert res.exact and ref.exact and cls.exact
        assert res.fidelity == ref.fidelity  # bit-identical, not approximate
        assert res.ledger.summary() == ref.ledger.summary() == cls.ledger.summary()
    return [
        {
            "model": "sequential",
            "backend": backend,
            "B": batch_size,
            "per_instance_rate": base_rate,
            "batched_rate": rate,
            "speedup": rate / base_rate,
        }
        for backend, rate in (("subspace", dense_rate), ("classes", classes_rate))
    ]


def _ragged_instance(universe: int, nu: int, seed: int) -> DistributedDatabase:
    """Full-class workload: every supported key at multiplicity ν.

    ``M = s·ν`` so the overlap ``a = M/(νN) = s/N`` is *independent of
    ν* — a mixed-ν family shares one plan and one schedule shape, which
    isolates exactly what the CSR packing removes: the padded path runs
    the same single lockstep group, just over a ``(B, max ν + 1, 2)``
    tensor instead of the ``(Σ(ν_b+1), 2)`` plane.
    """
    rng = as_generator(seed)
    support = rng.choice(universe, size=125, replace=False)
    counts = np.zeros((N_MACHINES, universe), dtype=np.int64)
    counts[0, support] = nu // 2
    counts[1, support] = nu - nu // 2
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def _mixed_nu_batch(universe: int, batch_size: int) -> list[DistributedDatabase]:
    """Mostly-narrow instances with a wide straggler every 8th slot —
    the heterogeneity that forces a padded stack to ~0.14 fill."""
    return [
        _ragged_instance(universe, 512 if seed % 8 == 0 else 8, seed)
        for seed in range(batch_size)
    ]


def _compare_ragged(dbs, model: str, batch_size: int) -> dict:
    """Padded stacked classes vs the CSR ragged substrate, same databases."""
    dbs = dbs[:batch_size]
    _batched_rate(dbs[:4], model)
    _batched_rate(dbs[:4], model, backend="ragged")
    padded_rate, padded_results = _batched_rate(dbs, model)
    ragged_rate, ragged_results = _batched_rate(dbs, model, backend="ragged")
    for ref, res in zip(padded_results, ragged_results):
        assert res.exact and ref.exact
        assert res.backend == "ragged"
        assert res.ledger.summary() == ref.ledger.summary()
        assert abs(res.fidelity - ref.fidelity) < 1e-12
    # The row-identity gate: ragged rows equal each instance's own
    # single-instance stacked-classes run bit for bit (spot-checked here;
    # the full grid lives in tests/batch/test_ragged.py).
    for db, res in zip(dbs[:4], ragged_results[:4]):
        [reference] = execute_sampling_batch([db], model=model, backend="classes")
        assert res.fidelity == reference.fidelity
        assert res.ledger.summary() == reference.ledger.summary()
    return {
        "model": model,
        "backend": "ragged",
        "B": batch_size,
        "per_instance_rate": padded_rate,  # the padded stack IS the baseline here
        "batched_rate": ragged_rate,
        "speedup": ragged_rate / padded_rate,
        "padded_fill": padded_fill_ratio([db.nu + 1 for db in dbs]),
        "ragged_fill": 1.0,  # CSR: every packed cell is live
    }


def _report_rows(trajectory, report, claim):
    rows = [
        [
            r["family"],
            r["model"],
            r["backend"],
            r["B"],
            f"{r['per_instance_rate']:.0f}/s",
            f"{r['batched_rate']:.0f}/s",
            f"{r['speedup']:.1f}×",
        ]
        for r in trajectory
    ]
    report(
        "E23",
        claim,
        ["family", "model", "backend", "B", "per-instance", "batched", "speedup"],
        rows,
        payload={"trajectory": trajectory, "n_machines": N_MACHINES},
    )


def test_e23_batched_throughput(report):
    trajectory = []
    for family, universe, nu in FAMILIES:
        dbs = [_instance(universe, nu, seed) for seed in range(256)]
        for model in ("sequential", "parallel"):
            row = _compare(dbs, model, batch_size=256)
            row["family"] = family
            trajectory.append(row)
    for family, universe, nu in DENSE_FAMILIES:
        dbs = [_instance(universe, nu, seed) for seed in range(256)]
        for row in _compare_dense(dbs, batch_size=256):
            row["family"] = f"medium/{family}"
            trajectory.append(row)
    mixed = _mixed_nu_batch(2048, 256)
    for model in ("sequential", "parallel"):
        row = _compare_ragged(mixed, model, batch_size=256)
        row["family"] = "ragged/mixed-nu/N2048"
        trajectory.append(row)
    _report_rows(
        trajectory,
        report,
        "stacked classes ≥5× per-instance classes; stacked dense ≥3× "
        "per-instance subspace on the medium-N grid; ragged ≥2× the "
        "padded stack on mixed-ν (B=256)",
    )
    for row in trajectory:
        if row["family"].startswith("medium/"):
            if row["backend"] != "subspace":
                continue  # the classes rate on the grid is recorded, not barred
            assert row["speedup"] >= 3.0, (
                f"{row['family']}: stacked-dense speedup {row['speedup']:.2f}× "
                "below the 3× acceptance bar at B=256"
            )
        elif row["family"].startswith("ragged/"):
            assert row["ragged_fill"] >= 0.9, (
                f"{row['family']}/{row['model']}: ragged fill "
                f"{row['ragged_fill']:.2f} below the 0.9 acceptance bar"
            )
            assert row["speedup"] >= 2.0, (
                f"{row['family']}/{row['model']}: ragged speedup "
                f"{row['speedup']:.2f}× over the padded stack below the "
                "2× acceptance bar at B=256"
            )
        else:
            assert row["speedup"] >= 5.0, (
                f"{row['family']}/{row['model']}: batched speedup "
                f"{row['speedup']:.2f}× below the 5× acceptance bar at B=256"
            )


def test_e23_smoke_small(report):
    """Tiny-B CI variant: full path, JSON artifact, no throughput assertion."""
    dbs = [_instance(512, 8, seed) for seed in range(8)]
    trajectory = []
    for model in ("sequential", "parallel"):
        row = _compare(dbs, model, batch_size=8)
        row["family"] = "smoke/nu8/N512"
        trajectory.append(row)
        assert row["speedup"] > 0  # correctness + a recorded rate is the point
    for row in _compare_dense(dbs, batch_size=8):
        row["family"] = "smoke-medium/nu8/N512"
        trajectory.append(row)
        assert row["speedup"] > 0
    ragged_row = _compare_ragged(_mixed_nu_batch(512, 8), "sequential", batch_size=8)
    ragged_row["family"] = "smoke-ragged/mixed-nu/N512"
    trajectory.append(ragged_row)
    assert ragged_row["speedup"] > 0
    assert ragged_row["ragged_fill"] == 1.0
    assert ragged_row["padded_fill"] < 0.9  # the stream is genuinely mixed-ν
    _report_rows(
        trajectory,
        report,
        "batched engines smoke (tiny B): equivalence holds, rates recorded",
    )


@pytest.mark.parametrize("model", ["sequential", "parallel"])
def test_e23_benchmark_hook(benchmark, model):
    """pytest-benchmark hook: steady-state batched execution at B=64."""
    dbs = [_instance(1024, 8, seed) for seed in range(64)]
    execute_sampling_batch(dbs, model=model)  # warm caches
    results = benchmark(execute_sampling_batch, dbs, model)
    assert all(r.exact for r in results)


def test_e23_benchmark_hook_stacked_dense(benchmark):
    """pytest-benchmark hook: the (B, N, 2) stacked-dense engine at B=64."""
    dbs = [_instance(1024, 8, seed) for seed in range(64)]
    execute_sampling_batch(dbs, model="sequential", backend="subspace")
    results = benchmark(
        execute_sampling_batch, dbs, "sequential", True, False, "subspace"
    )
    assert all(r.exact for r in results)
