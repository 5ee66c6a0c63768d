"""Sharding strategies: conservation, balance, overlap regimes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    DistributedDatabase,
    Multiset,
    concentrate_on_machine,
    disjoint_support,
    partition,
    random_assignment,
    replicated,
    round_robin,
    single_machine,
    skewed_sizes,
)
from repro.errors import ValidationError


@pytest.fixture
def dataset():
    return Multiset(10, {0: 3, 1: 2, 4: 1, 7: 4})


def total_conserved(db, dataset):
    return db.total_count == dataset.cardinality() and np.array_equal(
        db.joint_counts, dataset.counts
    )


class TestRoundRobin:
    def test_conserves_data(self, dataset):
        assert total_conserved(round_robin(dataset, 3), dataset)

    def test_balanced_sizes(self, dataset):
        db = round_robin(dataset, 3)
        sizes = db.machine_sizes
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self, dataset):
        a = round_robin(dataset, 3)
        b = round_robin(dataset, 3)
        np.testing.assert_array_equal(a.count_matrix, b.count_matrix)


def dealt_one_at_a_time(dataset, n_machines, nu=None):
    """The reference deal: one ``Multiset.add`` per element, in rotation."""
    shards = [Multiset.empty(dataset.universe) for _ in range(n_machines)]
    for position, element in enumerate(dataset):
        shards[position % n_machines].add(element)
    return DistributedDatabase.from_shards(shards, nu=nu)


@settings(max_examples=80, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40),
    n_machines=st.integers(min_value=1, max_value=6),
    nu_slack=st.none() | st.integers(min_value=0, max_value=3),
)
def test_round_robin_matches_one_at_a_time_deal(counts, n_machines, nu_slack):
    """The vectorized deal is byte-identical to the per-element loop:
    count matrix, ν and capacities."""
    dataset = Multiset(len(counts), np.array(counts, dtype=np.int64))
    nu = None if nu_slack is None else max(1, max(counts)) + nu_slack
    fast = round_robin(dataset, n_machines, nu=nu)
    slow = dealt_one_at_a_time(dataset, n_machines, nu=nu)
    assert fast.count_matrix.tobytes() == slow.count_matrix.tobytes()
    assert fast.count_matrix.dtype == slow.count_matrix.dtype
    assert fast.nu == slow.nu
    assert fast.capacities == slow.capacities


class TestRandomAssignment:
    def test_conserves_data(self, dataset):
        assert total_conserved(random_assignment(dataset, 4, rng=0), dataset)

    def test_seeded(self, dataset):
        a = random_assignment(dataset, 4, rng=5)
        b = random_assignment(dataset, 4, rng=5)
        np.testing.assert_array_equal(a.count_matrix, b.count_matrix)


class TestDisjoint:
    def test_conserves_data(self, dataset):
        assert total_conserved(disjoint_support(dataset, 3, rng=1), dataset)

    def test_no_key_on_two_machines(self, dataset):
        db = disjoint_support(dataset, 3, rng=1)
        owners_per_key = (db.count_matrix > 0).sum(axis=0)
        assert owners_per_key.max() <= 1


class TestReplicated:
    def test_every_machine_full_copy(self, dataset):
        db = replicated(dataset, 3)
        for machine in db:
            np.testing.assert_array_equal(machine.counts, dataset.counts)

    def test_nu_scales_with_n(self, dataset):
        db = replicated(dataset, 3)
        assert db.nu >= 3 * dataset.max_multiplicity()
        db.validate()


class TestSingleMachine:
    def test_single(self, dataset):
        db = single_machine(dataset)
        assert db.n_machines == 1
        assert total_conserved(db, dataset)


class TestSkewed:
    def test_conserves_data(self, dataset):
        assert total_conserved(skewed_sizes(dataset, 4, skew=2.0, rng=2), dataset)

    def test_skew_zero_is_roughly_uniform(self):
        big = Multiset(4, {0: 400, 1: 400})
        db = skewed_sizes(big, 2, skew=0.0, rng=3)
        sizes = db.machine_sizes
        assert abs(sizes[0] - sizes[1]) < 200

    def test_high_skew_concentrates(self):
        big = Multiset(4, {0: 200, 1: 200})
        db = skewed_sizes(big, 4, skew=4.0, rng=4)
        assert db.machine_sizes[0] > sum(db.machine_sizes[1:])

    def test_negative_skew_rejected(self, dataset):
        with pytest.raises(ValidationError):
            skewed_sizes(dataset, 2, skew=-1.0)


class TestConcentrate:
    def test_all_on_target(self, dataset):
        db = concentrate_on_machine(dataset, 3, target=1)
        assert db.machine(1).size == dataset.cardinality()
        assert db.machine(0).is_empty()
        assert db.machine(2).is_empty()

    def test_target_range_checked(self, dataset):
        with pytest.raises(ValidationError):
            concentrate_on_machine(dataset, 3, target=3)


class TestDispatch:
    @pytest.mark.parametrize(
        "strategy", ["round_robin", "random", "disjoint", "replicated", "skewed"]
    )
    def test_partition_by_name(self, dataset, strategy):
        db = partition(dataset, 2, strategy=strategy, rng=0)
        assert db.n_machines == 2

    def test_unknown_strategy(self, dataset):
        with pytest.raises(ValidationError, match="unknown partition strategy"):
            partition(dataset, 2, strategy="mystery")
