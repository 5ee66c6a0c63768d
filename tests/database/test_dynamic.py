"""Dynamic updates (Section 3 remark): streams, costs, validity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.database import (
    DistributedDatabase,
    Machine,
    Multiset,
    Update,
    UpdateStream,
    random_update_stream,
)
from repro.errors import CapacityError, ValidationError


@pytest.fixture
def db_with_headroom():
    machines = [
        Machine(Multiset(6, {0: 1, 1: 1}), capacity=4, name="m0"),
        Machine(Multiset(6, {2: 2}), capacity=4, name="m1"),
    ]
    return DistributedDatabase(machines, nu=8)


class TestUpdate:
    def test_kind_validated(self):
        with pytest.raises(ValidationError):
            Update(0, 0, "mutate")


class TestUpdateStream:
    def test_apply_next_mutates_database(self, db_with_headroom):
        stream = UpdateStream(
            db_with_headroom,
            [Update(0, 3, "insert"), Update(1, 2, "delete")],
        )
        stream.apply_next()
        assert db_with_headroom.machine(0).multiplicity(3) == 1
        assert stream.pending == 1
        stream.apply_next()
        assert db_with_headroom.machine(1).multiplicity(2) == 1
        assert stream.pending == 0

    def test_apply_all(self, db_with_headroom):
        stream = UpdateStream(
            db_with_headroom, [Update(0, 3, "insert")] * 3
        )
        assert stream.apply_all() == 3
        assert db_with_headroom.machine(0).multiplicity(3) == 3

    def test_unit_cost_per_update(self, db_with_headroom):
        stream = UpdateStream(
            db_with_headroom,
            [Update(0, 3, "insert"), Update(0, 3, "insert"), Update(0, 3, "delete")],
        )
        stream.apply_all()
        assert stream.total_update_cost() == 3

    def test_machine_range_validated(self, db_with_headroom):
        with pytest.raises(ValidationError):
            UpdateStream(db_with_headroom, [Update(5, 0, "insert")])

    def test_element_range_validated(self, db_with_headroom):
        with pytest.raises(ValidationError):
            UpdateStream(db_with_headroom, [Update(0, 9, "insert")])

    def test_len_and_iter(self, db_with_headroom):
        updates = [Update(0, 3, "insert"), Update(0, 3, "delete")]
        stream = UpdateStream(db_with_headroom, updates)
        assert len(stream) == 2
        assert list(stream) == updates

    def test_apply_next_past_end_returns_zero(self, db_with_headroom):
        stream = UpdateStream(db_with_headroom, [Update(0, 3, "insert")])
        stream.apply_all()
        assert stream.apply_next() == 0


class TestRandomStream:
    def test_stream_always_valid(self, db_with_headroom):
        stream = random_update_stream(db_with_headroom, length=40, rng=0)
        assert len(stream) == 40
        stream.apply_all()
        db_with_headroom.validate()

    def test_deletes_only_present_elements(self, db_with_headroom):
        stream = random_update_stream(
            db_with_headroom, length=30, insert_probability=0.0, rng=1
        )
        stream.apply_all()  # would raise if it tried to remove an absent key
        db_with_headroom.validate()

    def test_inserts_respect_capacity(self, db_with_headroom):
        stream = random_update_stream(
            db_with_headroom, length=60, insert_probability=1.0, rng=2
        )
        stream.apply_all()
        db_with_headroom.validate()

    def test_seeded(self, db_with_headroom):
        a = random_update_stream(db_with_headroom, length=10, rng=7)
        fresh = DistributedDatabase(
            [m.replaced_shard(m.shard) for m in db_with_headroom.machines],
            nu=db_with_headroom.nu,
        )
        b = random_update_stream(fresh, length=10, rng=7)
        assert list(a) == list(b)


class TestClassStateTracking:
    """The ``classes``-substrate hook: updates move elements between
    adjacent count classes in O(1) instead of rebuilding the class map."""

    def test_class_state_tracks_updates_incrementally(self, db_with_headroom):
        stream = UpdateStream(
            db_with_headroom,
            [Update(0, 3, "insert"), Update(1, 3, "insert"), Update(1, 2, "delete")],
        )
        state = stream.class_state()  # built once, before any update
        import numpy as np

        np.testing.assert_array_equal(
            state.element_classes, db_with_headroom.joint_counts
        )
        stream.apply_all()
        np.testing.assert_array_equal(
            state.element_classes, db_with_headroom.joint_counts
        )
        np.testing.assert_array_equal(
            state.class_sizes,
            np.bincount(
                db_with_headroom.joint_counts, minlength=db_with_headroom.nu + 1
            ),
        )

    def test_class_state_matches_fresh_rebuild_on_random_stream(self):
        import numpy as np

        from repro.database import round_robin, uniform_dataset
        from repro.qsim import ClassVector

        db = round_robin(uniform_dataset(24, 30, rng=3), n_machines=3)
        db = db.with_nu(db.nu + 2)  # headroom so inserts are possible
        stream = random_update_stream(db, 40, rng=5)
        state = stream.class_state()
        stream.apply_all()
        rebuilt = ClassVector.uniform(db.joint_counts, db.nu + 1)
        np.testing.assert_array_equal(state.element_classes, rebuilt.element_classes)
        np.testing.assert_array_equal(state.class_sizes, rebuilt.class_sizes)

    def test_untracked_stream_pays_no_bookkeeping(self, db_with_headroom):
        stream = UpdateStream(db_with_headroom, [Update(0, 3, "insert")])
        stream.apply_all()  # class_state never requested: no ClassVector built
        assert stream._class_state is None

    def test_tracked_over_capacity_insert_fails_atomically(self):
        # Regression: Machine.insert only enforces the local κ_j, so a
        # ν-violating insert used to mutate the machine and *then* blow
        # up in the class-map transfer, leaving the stream position
        # behind the database (a retry double-applied the update).
        import numpy as np

        from repro.errors import ValidationError

        machines = [
            Machine(Multiset(4, {0: 2}), capacity=8, name="m0"),
            Machine(Multiset(4, {0: 1}), capacity=8, name="m1"),
        ]
        db = DistributedDatabase(machines, nu=3)  # element 0 already at ν
        stream = UpdateStream(db, [Update(0, 0, "insert")])
        state = stream.class_state()
        before = db.joint_counts.copy()
        for _ in range(2):  # the retry must not double-apply either
            with pytest.raises(ValidationError):
                stream.apply_next()
        np.testing.assert_array_equal(db.joint_counts, before)
        assert stream.applied == 0
        np.testing.assert_array_equal(state.element_classes, before)

    def test_untracked_over_capacity_insert_fails_atomically(self):
        # Without a class map the ν bound is summed over the machines
        # before the insert; the database used to be mutated first and
        # rejected only by the full rescan afterwards, with the stream
        # position already advanced.
        import numpy as np

        machines = [
            Machine(Multiset(4, {0: 2}), capacity=8, name="m0"),
            Machine(Multiset(4, {0: 1}), capacity=8, name="m1"),
        ]
        db = DistributedDatabase(machines, nu=3)  # element 0 already at ν
        stream = UpdateStream(db, [Update(1, 0, "insert")])
        before = db.joint_counts.copy()
        for _ in range(2):  # the retry must not double-apply either
            with pytest.raises(CapacityError):
                stream.apply_next()
        np.testing.assert_array_equal(db.joint_counts, before)
        assert stream.applied == 0
        assert stream._class_state is None
        db.validate()


@settings(max_examples=30, deadline=None)
@given(
    universe=st.integers(min_value=1, max_value=12),
    total=st.integers(min_value=1, max_value=30),
    n_machines=st.integers(min_value=1, max_value=4),
    headroom=st.integers(min_value=0, max_value=2),
    length=st.integers(min_value=1, max_value=40),
    insert_probability=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    tracked=st.booleans(),
)
def test_every_prefix_of_a_random_stream_is_valid(
    universe, total, n_machines, headroom, length, insert_probability, seed, tracked
):
    """``validate()`` (the full rescan ``apply_next`` no longer runs)
    holds after every prefix, with and without a live class map."""
    import numpy as np

    from repro.database import round_robin, uniform_dataset

    db = round_robin(uniform_dataset(universe, total, rng=seed), n_machines=n_machines)
    db = db.with_nu(db.nu + headroom)
    stream = random_update_stream(db, length, insert_probability, rng=seed)
    state = stream.class_state() if tracked else None
    while stream.pending:
        assert stream.apply_next() == 1
        db.validate()
        if state is not None:
            np.testing.assert_array_equal(state.element_classes, db.joint_counts)
    assert stream.applied == length
