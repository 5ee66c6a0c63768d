#!/usr/bin/env python3
"""The serving loop under a Poisson arrival trace, with live updates.

A production sampler does not get its job list up front: requests arrive
over time.  Dispatch is work-conserving: a request on an idle service
runs at once, and requests batch only while every worker is busy, so
the stacked engine fills up exactly when load demands it.  This script
replays a Poisson arrival trace of mixed-shape sampling requests
through the front door's stream call — ``repro.serve`` — at three
offered loads, interleaves live
re-samples of a mutating dynamic database (no O(nN) rebuilds — requests
snapshot the O(1)-maintained count-class view), and prints the telemetry
each load level produces.

Run:  python examples/serving_trace.py
"""

import time

import numpy as np

import repro
from repro.analysis import InstanceSpec
from repro.database import WorkloadSpec, round_robin, zipf_dataset
from repro.database.dynamic import random_update_stream
from repro.utils import Table
from repro.utils.rng import as_generator

#: Two spec families with different overlaps → different schedule shapes,
#: so the dispatcher's shape-keyed grouping actually has work to do.
SPECS = [
    InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=1024, total=256), n_machines=3
    ),
    InstanceSpec(
        workload=WorkloadSpec.of("zipf", universe=1024, total=64), n_machines=2
    ),
]

REQUESTS = 120


def replay(rate_hz: float) -> dict:
    """Drive one trace at the given offered load; returns the telemetry."""
    arrivals = as_generator(42)

    def trace():
        # The stream is consumed lazily in the submit thread, so sleeping
        # between yields replays real arrival timing.
        for k in range(REQUESTS):
            if rate_hz > 0:
                time.sleep(float(arrivals.exponential(1.0 / rate_hz)))
            yield repro.SamplingRequest(
                spec=SPECS[k % len(SPECS)], include_probabilities=False
            )

    results = repro.serve(trace(), batch_size=32, rng=7)
    assert all(results.column("exact"))
    return results.telemetry


def main() -> None:
    table = Table(
        f"serving {REQUESTS} requests",
        ["offered load", "batches", "mean batch", "p50", "p99", "throughput"],
    )
    for label, rate in [("200/s", 200.0), ("1000/s", 1000.0), ("max", 0.0)]:
        t = replay(rate)
        table.add_row([
            label,
            t["batches_executed"],
            f"{t['mean_batch_size']:.1f}",
            f"{t['p50_latency'] * 1e3:.1f} ms",
            f"{t['p99_latency'] * 1e3:.1f} ms",
            f"{t['instances_per_sec']:.0f}/s",
        ])
    print(table.render())
    print()

    # -- live dynamic requests: re-sample a mutating database ------------------
    db = round_robin(zipf_dataset(512, 128, exponent=1.2, rng=0), n_machines=3)
    stream = random_update_stream(db, length=60, insert_probability=0.7, rng=1)
    stream.class_state()  # build the O(1)-maintained view once, up front

    def live_trace():
        for _ in range(4):
            yield repro.SamplingRequest(
                stream=stream, label="before", include_probabilities=False
            )
        stream.apply_all()
        for _ in range(4):
            yield repro.SamplingRequest(
                stream=stream, label="after", include_probabilities=False
            )

    results = repro.serve(live_trace(), batch_size=8, rng=0)
    m_before = results[0].sampling.public_parameters["M"]
    m_after = results[-1].sampling.public_parameters["M"]
    print(f"live re-sampling: M = {m_before} before the updates, "
          f"{m_after} after ({stream.applied} elementary changes, "
          f"update bill {stream.total_update_cost()}) — all exact, no rebuilds")


if __name__ == "__main__":
    main()
