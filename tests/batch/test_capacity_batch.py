"""Capacity-aware flagged rounds inside the stacked batch engine.

The ROADMAP open item: batched runs of mostly-empty topologies should
shed the same ``Σ_j t_j`` the per-instance
``ParallelSampler(skip_zero_capacity=True)`` already does — per
instance, with identical ledgers, schedules and output state.
"""

import numpy as np
import pytest

from repro import sample_many
from repro.api import SamplingRequest
from repro.batch import execute_sampling_batch
from repro.core import ParallelSampler, SequentialSampler
from repro.database import DistributedDatabase, Multiset
from repro.serve import SamplerService
from repro.analysis import InstanceSpec
from repro.database import WorkloadSpec


@pytest.fixture
def mostly_empty_db() -> DistributedDatabase:
    """5 machines, only two hold data (κ = 0 elsewhere)."""
    shards = [
        Multiset(16, {0: 1, 1: 1}),
        Multiset.empty(16),
        Multiset(16, {5: 2}),
        Multiset.empty(16),
        Multiset.empty(16),
    ]
    return DistributedDatabase.from_shards(shards, nu=2)


@pytest.fixture
def full_db() -> DistributedDatabase:
    """3 machines, all nonempty — the restriction must be a no-op."""
    shards = [
        Multiset(16, {0: 2, 1: 1}),
        Multiset(16, {3: 1, 4: 1}),
        Multiset(16, {7: 2}),
    ]
    return DistributedDatabase.from_shards(shards, nu=4)


class TestBatchedRestriction:
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_ledger_matches_per_instance_skip(self, mostly_empty_db, model):
        batched = execute_sampling_batch(
            [mostly_empty_db], model=model, skip_zero_capacity=True
        )[0]
        sampler_cls = SequentialSampler if model == "sequential" else ParallelSampler
        legacy = sampler_cls(
            mostly_empty_db, backend="classes", skip_zero_capacity=True
        ).run()
        assert batched.ledger.summary() == legacy.ledger.summary()
        assert batched.schedule.fingerprint() == legacy.schedule.fingerprint()

    def test_skipped_machines_never_charged(self, mostly_empty_db):
        result = execute_sampling_batch(
            [mostly_empty_db], skip_zero_capacity=True
        )[0]
        per_machine = result.ledger.per_machine()
        assert per_machine[1] == per_machine[3] == per_machine[4] == 0
        assert per_machine[0] > 0 and per_machine[2] > 0

    def test_total_work_drops_but_state_unchanged(self, mostly_empty_db):
        full, restricted = (
            execute_sampling_batch(
                [mostly_empty_db], model="parallel", skip_zero_capacity=skip
            )[0]
            for skip in (False, True)
        )
        # Rounds are n-free (Theorem 4.5) and cannot drop; Σ_j t_j does:
        # 2 active machines of 5 → exactly 2/5 of the unrestricted bill.
        assert restricted.parallel_rounds == full.parallel_rounds
        assert restricted.sequential_queries * 5 == full.sequential_queries * 2
        np.testing.assert_allclose(
            restricted.output_probabilities, full.output_probabilities, atol=1e-12
        )
        assert restricted.exact

    def test_all_nonempty_is_a_noop(self, full_db):
        plain, skipping = (
            execute_sampling_batch([full_db], skip_zero_capacity=skip)[0]
            for skip in (False, True)
        )
        assert plain.ledger.summary() == skipping.ledger.summary()
        assert plain.schedule.fingerprint() == skipping.schedule.fingerprint()

    def test_mixed_batch_restricts_per_instance(self, mostly_empty_db, full_db):
        results = execute_sampling_batch(
            [mostly_empty_db, full_db], skip_zero_capacity=True
        )
        assert results[0].ledger.per_machine()[1] == 0
        assert all(t > 0 for t in results[1].ledger.per_machine())
        assert all(r.exact for r in results)


class TestCapacityPolicySurface:
    """The restriction is reachable through the front door and the service."""

    def test_request_capacity_policy_reaches_the_batch(self, mostly_empty_db):
        results = sample_many(
            [
                SamplingRequest(
                    database=mostly_empty_db,
                    model="parallel",
                    capacity="skip_empty",
                )
            ]
        )
        legacy = ParallelSampler(
            mostly_empty_db, backend="classes", skip_zero_capacity=True
        ).run()
        assert results.strategies() == ["stacked"]
        assert results[0].sampling.ledger.summary() == legacy.ledger.summary()

    def test_service_capacity_policy(self, mostly_empty_db):
        # Serve the same topology via a spec that rebuilds it: use a
        # sparse workload on 5 machines where round-robin leaves some
        # machines empty is fiddly — submit the live stream instead.
        from repro.database.dynamic import UpdateStream

        stream = UpdateStream(mostly_empty_db, [])
        with SamplerService(
            model="parallel", batch_size=2, capacity="skip_empty",
        ) as service:
            future = service.submit_live(stream)
            result = future.result(timeout=60)
        legacy = ParallelSampler(
            mostly_empty_db, backend="classes", skip_zero_capacity=True
        ).run()
        assert result.ledger.summary() == legacy.ledger.summary()

    def test_run_batched_capacity_parameter(self, mostly_empty_db):
        # The driver shim routes the same policy; exercised via specs in
        # the sweep: a single-machine-empty partition is easiest made by
        # spec'ing more machines than occupied keys.
        from repro.batch import run_batched

        spec = InstanceSpec(
            workload=WorkloadSpec.of("single", universe=16, key=3, multiplicity=2),
            n_machines=4,
            strategy="disjoint",
        )
        restricted = run_batched([spec], rng=0, capacity="skip_empty")
        full = run_batched([spec], rng=0)
        assert restricted.rows[0]["exact"] and full.rows[0]["exact"]
        assert (
            restricted.rows[0]["sequential_queries"]
            < full.rows[0]["sequential_queries"]
        )
