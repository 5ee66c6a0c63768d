"""What a served live request keeps once it resolves: its one-byte map.

A live request snapshots ``UpdateStream.class_state()``, whose class map
is ``uint8`` for ``ν ≤ 255``.  The snapshot is the result's class map:
the in-process tier's stack shares it, and the sharded tier's workers
leave it out of the result block, so the dispatcher reattaches the copy
it sent.  So a retained result holds about ``N`` bytes, where an
``int64`` map alone would be ``8·N``.  Both tiers serve the same churn
stream and must match a per-instance run on a replay of its prefixes.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.analysis.sweep import InstanceSpec
from repro.core import SequentialSampler
from repro.database import WorkloadSpec
from repro.database.dynamic import random_update_stream
from repro.serve import SamplerService, ShardedSamplerService

UNIVERSE = 100_000
REQUESTS = 32
UPDATES = 8
#: Bytes a retained result may hold per element of its universe.
BUDGET_PER_ELEMENT = 1.25
WAIT = 60.0


def churn_stream():
    """A seeded N = 10⁵, ν = 4, n = 4 database and its update stream."""
    spec = InstanceSpec(
        WorkloadSpec.of("uniform", universe=UNIVERSE, total=10_000), n_machines=4, nu=4
    )
    db = spec.build(rng=11)
    stream = random_update_stream(db, 1 + UPDATES * REQUESTS, rng=12)
    stream.class_state()
    return stream


def two_shards(**kwargs):
    return ShardedSamplerService(shards=2, **kwargs)


@pytest.mark.parametrize(
    "make_tier",
    [pytest.param(SamplerService, id="in-process"), pytest.param(two_shards, id="sharded")],
)
def test_retained_bytes_per_live_result(make_tier):
    stream = churn_stream()
    assert stream.database.nu == 4
    # The view's first write copies its map; workers fork untraced.
    stream.apply_next(1)
    tier = make_tier(rng=0, include_probabilities=False)
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        futures = []
        for _ in range(REQUESTS):
            stream.apply_next(UPDATES)
            futures.append(tier.submit_live(stream))
        results = [future.result(timeout=WAIT) for future in futures]
        tier.close()
        gc.collect()
        held = (tracemalloc.get_traced_memory()[0] - baseline) / REQUESTS
    finally:
        tracemalloc.stop()
        tier.close()  # idempotent; stops the workers if serving failed
    assert held <= BUDGET_PER_ELEMENT * UNIVERSE, (
        f"{held / UNIVERSE:.2f} bytes per element held per result"
    )

    replay = churn_stream()
    replay.apply_next(1)
    for result in results:
        replay.apply_next(UPDATES)
        reference = SequentialSampler(replay.database, backend="classes").run()
        classes = result.final_state.element_classes
        assert classes.dtype == np.uint8
        assert (classes == reference.final_state.element_classes).all()
        assert result.fidelity == reference.fidelity
        assert result.ledger.summary() == reference.ledger.summary()
        assert result.plan == reference.plan
