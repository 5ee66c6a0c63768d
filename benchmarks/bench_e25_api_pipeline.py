"""E25 — the repro.api front door: one request, four planner strategies.

The api-redesign claim: a single :class:`SamplingRequest` round-trips
through every execution strategy the planner can choose — per-instance,
stacked batch, process fan-out, served stream — with the same audit
surface (plan, ledger totals, exactness) and fidelity agreement at the
serving subsystem's 1e-12 bar.  The planner's ``auto`` rules are
asserted alongside: the stacked engine at every group size (one request
included), the ``classes`` backend at every ``N``.

This is the ``make bench-api`` smoke CI runs: a tiny grid, all four
strategies, wall-clock per strategy recorded in
``benchmarks/_results/E25.json``.
"""

from __future__ import annotations

import time

import pytest

from repro import sample_many
from repro.analysis import InstanceSpec
from repro.api import Planner, SamplingRequest, serve
from repro.database import WorkloadSpec

#: Two overlap regimes → two schedule shapes, so stacking and the
#: serving packer both have grouping work to do.
GRID = [
    InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=128, total=48), n_machines=2
    ),
    InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=128, total=8), n_machines=3
    ),
]

REQUESTS_PER_SPEC = 4
SEED = 7


def _requests():
    return [
        SamplingRequest(spec=GRID[k % len(GRID)], include_probabilities=False)
        for k in range(REQUESTS_PER_SPEC * len(GRID))
    ]


def _run(strategy: str):
    start = time.perf_counter()
    if strategy == "served":
        results = serve(_requests(), rng=SEED, batch_size=4)
    else:
        results = sample_many(
            _requests(),
            rng=SEED,
            strategy=strategy,
            batch_size=4,
            jobs=2 if strategy == "fanout" else None,
        )
    elapsed = time.perf_counter() - start
    return results, elapsed


def test_e25_api_pipeline_smoke(report):
    planner = Planner()
    # The planner's auto rules, asserted before any execution.
    for size in (1, 2, 64):
        auto_plan = planner.plan_many([SamplingRequest(spec=GRID[0])] * size)
        assert set(auto_plan.strategies()) == {"stacked"}, size
        assert set(auto_plan.backends()) == {"classes"}, size
    assert planner.auto_backend("sequential") == "classes"
    assert planner.auto_backend("parallel") == "classes"

    rows = []
    trajectory = []
    reference_rows = None
    for strategy in ("instance", "stacked", "fanout", "served"):
        results, elapsed = _run(strategy)
        assert set(results.strategies()) == {strategy}
        row_data = results.rows()
        exact = sum(1 for row in row_data if row["exact"])
        assert exact == len(row_data), f"{strategy} lost exactness"
        if reference_rows is None:
            reference_rows = row_data
        else:
            for mine, ref in zip(row_data, reference_rows):
                assert mine["fidelity"] == pytest.approx(ref["fidelity"], abs=1e-12)
                for key in ("label", "n", "N", "M", "nu", "model",
                            "sequential_queries", "parallel_rounds"):
                    assert mine[key] == ref[key], (strategy, key)
        queries = sum(row["sequential_queries"] for row in row_data)
        rows.append(
            [
                strategy,
                len(row_data),
                f"{exact}/{len(row_data)}",
                queries,
                f"{elapsed * 1e3:.1f} ms",
            ]
        )
        trajectory.append(
            {
                "strategy": strategy,
                "instances": len(row_data),
                "exact": exact,
                "sequential_queries": queries,
                "wall_seconds": elapsed,
            }
        )
    report(
        "E25",
        "repro.api: one request family through all four planner strategies",
        ["strategy", "instances", "exact", "Σ queries", "wall"],
        rows,
        payload={
            "trajectory": trajectory,
            "grid": [spec.label() for spec in GRID],
        },
    )


@pytest.mark.parametrize("strategy", ["instance", "stacked"])
def test_e25_strategy_bench(benchmark, strategy):
    """pytest-benchmark hook: front-door overhead per strategy."""
    results = benchmark(lambda: _run(strategy)[0])
    assert all(results.column("exact"))
