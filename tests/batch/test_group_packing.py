"""Cross-process result marshalling for the sharded serving tier.

A pack → (shared memory) → unpack round trip must rebuild results
indistinguishable from the in-process originals — same plan object,
same ledger totals, same schedule fingerprint, same final state — with
class states crossing as one CSR triple per group.  Class maps the
receiver already holds (live snapshots) stay out of the payload and are
reattached by identity.
"""

import dataclasses

import numpy as np
import pytest

from repro.batch import ClassInstance, engine, execute_class_batch
from repro.batch.backends import StackedClassBackend
from repro.batch.engine import (
    cached_plan,
    pack_group_results,
    unpack_group_results,
)
from repro.database import DistributedDatabase
from repro.database.dynamic import random_update_stream
from repro.errors import ValidationError
from repro.qsim import ClassVector
from repro.serve.shm import ArenaClient, ShmArena, arrays_nbytes, read_arrays, write_arrays
from repro.utils.rng import as_generator


def random_database(rng):
    """A small random distributed database (mirrors test_batch_engine)."""
    n_machines = int(rng.integers(2, 5))
    universe = int(rng.integers(16, 193))
    nu = int(rng.integers(2, 9))
    total = int(rng.integers(1, max(2, universe // 4)))
    counts = np.zeros((n_machines, universe), dtype=np.int64)
    for _ in range(total):
        j = int(rng.integers(n_machines))
        i = int(rng.integers(universe))
        if counts[:, i].sum() < nu:
            counts[j, i] += 1
    if counts.sum() == 0:
        counts[0, 0] = 1
    return DistributedDatabase.from_count_matrix(counts, nu=nu)


def shape_group(rng, size, model="sequential"):
    """Instances sharing one schedule shape (the packer's invariant)."""
    instances, shape = [], None
    while len(instances) < size:
        inst = ClassInstance.from_db(random_database(rng))
        plan = cached_plan(inst.overlap())
        key = (plan.grover_reps, plan.needs_final)
        if shape is None:
            shape = key
        if key == shape:
            instances.append(inst)
    return instances


def assert_results_match(rebuilt, original):
    assert len(rebuilt) == len(original)
    for ours, ref in zip(rebuilt, original):
        assert ours.model == ref.model
        assert ours.backend == ref.backend
        assert ours.plan is ref.plan  # the memoized plan, by float identity
        assert ours.fidelity == ref.fidelity
        assert ours.schedule.fingerprint() == ref.schedule.fingerprint()
        assert ours.ledger.sequential_queries == ref.ledger.sequential_queries
        assert ours.ledger.parallel_rounds == ref.ledger.parallel_rounds
        assert ours.ledger.per_machine() == ref.ledger.per_machine()
        assert ours.public_parameters == ref.public_parameters
        if ref.output_probabilities is None:
            assert ours.output_probabilities is None
        else:
            np.testing.assert_array_equal(
                ours.output_probabilities, ref.output_probabilities
            )


#: Every registered stacked backend, per model.
STACKED_BACKENDS = [
    ("sequential", "classes"),
    ("sequential", "subspace"),
    ("parallel", "classes"),
    ("parallel", "synced"),
]


def mixed_shape_instances(seed=13, size=12):
    """Instances spanning several schedule shapes (and ν, N, n)."""
    rng = as_generator(seed)
    instances = [ClassInstance.from_db(random_database(rng)) for _ in range(size)]
    shapes = {
        (p.grover_reps, p.needs_final)
        for p in (cached_plan(i.overlap()) for i in instances)
    }
    assert len(shapes) > 1  # the seed spans several schedule shapes
    return instances


def final_amplitudes(result):
    state = result.final_state
    if isinstance(state, ClassVector):
        return state.class_amplitudes()
    return state.as_array()


class TestExecuteClassBatch:
    """The entry shard workers run their packers' shape groups through."""

    @pytest.mark.parametrize("model,backend", STACKED_BACKENDS)
    def test_mixed_shapes_regroup_per_shape(self, model, backend):
        # No backend runs mixed schedules in one loop, so a mixed list
        # splits into shape groups; rows come back in input order, each
        # equal to the instance's own run on the same backend.
        instances = mixed_shape_instances()
        results = execute_class_batch(
            instances, model=model, include_probabilities=True, backend=backend
        )
        for inst, ours in zip(instances, results):
            [ref] = execute_class_batch(
                [inst], model=model, include_probabilities=True, backend=backend
            )
            assert ours.backend == backend
            assert ours.public_parameters == inst.public_parameters()
            assert_results_match([ours], [ref])
            np.testing.assert_array_equal(final_amplitudes(ours), final_amplitudes(ref))

    def test_size_limited_blocks_keep_every_row(self, monkeypatch):
        # A backend's group_size_limit splits a shape group into blocks
        # that run back to back; no row may depend on the split.
        instances = shape_group(as_generator(17), 5)
        whole = execute_class_batch(instances, include_probabilities=True)
        blocks = []
        run_group = engine._run_group

        def recording_run_group(block, *args):
            blocks.append(len(block))
            return run_group(block, *args)

        monkeypatch.setattr(engine, "_run_group", recording_run_group)
        monkeypatch.setattr(
            StackedClassBackend, "group_size_limit", classmethod(lambda cls, insts: 2)
        )
        blocked = execute_class_batch(instances, include_probabilities=True)
        assert blocks == [2, 2, 1]
        assert_results_match(blocked, whole)
        for ours, ref in zip(blocked, whole):
            np.testing.assert_array_equal(final_amplitudes(ours), final_amplitudes(ref))

    def test_unknown_backend_rejected(self):
        instances = shape_group(as_generator(3), 2)
        with pytest.raises(ValidationError, match="unknown stacked backend 'ragged'"):
            execute_class_batch(instances, backend="ragged")

    def test_unknown_model_rejected(self):
        instances = shape_group(as_generator(3), 2)
        with pytest.raises(ValidationError, match="unknown model"):
            execute_class_batch(instances, model="adiabatic")


class TestPackUnpack:
    def test_empty_group_round_trips(self):
        meta, arrays = pack_group_results([])
        assert meta == [] and arrays == {}
        assert unpack_group_results(meta, arrays, "sequential", False) == []

    def test_unknown_final_state_type_is_refused(self):
        # The shard worker pickles the whole batch when packing refuses.
        [result] = execute_class_batch(shape_group(as_generator(5), 1))
        foreign = dataclasses.replace(result, final_state=object())
        with pytest.raises(ValidationError, match="cannot marshal"):
            pack_group_results([foreign])

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    @pytest.mark.parametrize("include_probabilities", [False, True])
    def test_classes_round_trip(self, model, include_probabilities):
        rng = as_generator(23)
        instances = shape_group(rng, 4, model)
        original = execute_class_batch(
            instances,
            model=model,
            include_probabilities=include_probabilities,
            backend="classes",
        )
        meta, arrays = pack_group_results(original)
        assert all(not isinstance(v, np.ndarray) for e in meta for v in e.values())
        rebuilt = unpack_group_results(meta, arrays, model, False)
        assert_results_match(rebuilt, original)
        for ours, ref in zip(rebuilt, original):
            np.testing.assert_array_equal(
                ours.final_state.class_amplitudes(),
                ref.final_state.class_amplitudes(),
            )
            assert ours.final_state.norm() == pytest.approx(
                ref.final_state.norm(), abs=1e-12
            )

    def test_only_dense_entries_carry_a_norm(self):
        rng = as_generator(31)
        instances = shape_group(rng, 2)
        for backend, carries in (("classes", False), ("subspace", True)):
            results = execute_class_batch(
                instances, model="sequential", backend=backend
            )
            meta, _ = pack_group_results(results)
            assert all(("norm" in entry) is carries for entry in meta), backend

    def test_dense_round_trip(self):
        rng = as_generator(29)
        instances = shape_group(rng, 3)
        original = execute_class_batch(
            instances, model="sequential", include_probabilities=True,
            backend="subspace",
        )
        meta, arrays = pack_group_results(original)
        rebuilt = unpack_group_results(meta, arrays, "sequential", False)
        assert_results_match(rebuilt, original)
        for ours, ref in zip(rebuilt, original):
            np.testing.assert_array_equal(
                ours.final_state.as_array(), ref.final_state.as_array()
            )
            assert tuple(ours.final_state.layout.names) == ("i", "w")

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_classes_cross_as_one_csr_triple(self, model):
        # CSR wire format: one shared offsets/sizes/values plane instead
        # of per-instance class arrays, mixed ν included.
        rng = as_generator(37)
        instances = [ClassInstance.from_db(random_database(rng)) for _ in range(5)]
        assert len({inst.nu for inst in instances}) > 1
        original = execute_class_batch(
            instances, model=model, include_probabilities=True, backend="classes"
        )
        meta, arrays = pack_group_results(original)
        offsets, sizes, values = (
            arrays["class_offsets"], arrays["class_sizes"], arrays["class_values"]
        )
        assert not any(k.startswith(("cs", "amps")) for k in arrays)
        assert offsets.dtype == np.int64 and offsets.size == 6
        assert offsets[-1] == values.shape[0] == sizes.shape[0]
        rebuilt = unpack_group_results(meta, arrays, model, False)
        assert_results_match(rebuilt, original)
        for ours, ref in zip(rebuilt, original):
            np.testing.assert_array_equal(
                ours.final_state.class_amplitudes(),
                ref.final_state.class_amplitudes(),
            )

    def test_synced_round_trip_preserves_layout(self):
        # The parallel dense state carries an (i, s, w) layout; the wire
        # format must rebuild it, not fall back to the (i, w) default.
        rng = as_generator(41)
        instances = shape_group(rng, 3, "parallel")
        original = execute_class_batch(
            instances, model="parallel", include_probabilities=True,
            backend="synced",
        )
        meta, arrays = pack_group_results(original)
        rebuilt = unpack_group_results(meta, arrays, "parallel", False)
        assert_results_match(rebuilt, original)
        for ours, ref in zip(rebuilt, original):
            assert tuple(ours.final_state.layout.names) == tuple(
                ref.final_state.layout.names
            )
            np.testing.assert_array_equal(
                ours.final_state.as_array(), ref.final_state.as_array()
            )

    def test_mixed_nu_round_trip_through_shared_memory(self):
        # The CSR planes (including the int64 offsets) over the real shm
        # wire, mixed ν and schedule shapes included.
        rng = as_generator(43)
        instances = [ClassInstance.from_db(random_database(rng)) for _ in range(6)]
        original = execute_class_batch(
            instances, model="sequential", include_probabilities=True,
            backend="classes",
        )
        meta, arrays = pack_group_results(original)
        client = ArenaClient()
        with ShmArena("csr-roundtrip", 1 << 20) as arena:
            block = arena.alloc(arrays_nbytes(arrays))
            layout = write_arrays(arena.payload(block), arrays)
            try:
                views = read_arrays(client.view(block), layout)
                rebuilt = unpack_group_results(meta, views, "sequential", False)
            finally:
                client.detach_all()
            arena.free(block)
        assert_results_match(rebuilt, original)
        for ours, ref in zip(rebuilt, original):
            np.testing.assert_array_equal(
                ours.final_state.class_amplitudes(),
                ref.final_state.class_amplitudes(),
            )

    def test_skip_zero_capacity_restriction_survives(self):
        # A database with an empty machine: the reconstructed ledger and
        # schedule must shed the same machine the worker-side run shed.
        counts = np.zeros((3, 32), dtype=np.int64)
        counts[0, :6] = 2
        counts[2, 6:10] = 1
        db = DistributedDatabase.from_count_matrix(counts, nu=4)
        inst = ClassInstance.from_db(db)
        original = execute_class_batch(
            [inst], model="sequential", skip_zero_capacity=True, backend="classes"
        )
        meta, arrays = pack_group_results(original)
        rebuilt = unpack_group_results(meta, arrays, "sequential", True)
        assert_results_match(rebuilt, original)
        assert rebuilt[0].ledger.per_machine()[1] == 0

    def test_round_trip_through_shared_memory(self):
        # The full wire path: pack → write into a shm block → attach as
        # a peer → zero-copy views → unpack → release. The rebuilt
        # results must not alias the (recycled) block.
        rng = as_generator(31)
        instances = shape_group(rng, 3)
        original = execute_class_batch(
            instances, model="sequential", include_probabilities=True,
            backend="classes",
        )
        meta, arrays = pack_group_results(original)
        client = ArenaClient()
        with ShmArena("pack-roundtrip", 1 << 20) as arena:
            block = arena.alloc(arrays_nbytes(arrays))
            layout = write_arrays(arena.payload(block), arrays)
            try:
                views = read_arrays(client.view(block), layout)
                rebuilt = unpack_group_results(meta, views, "sequential", False)
            finally:
                client.detach_all()
            arena.free(block)
        assert_results_match(rebuilt, original)
        for ours, ref in zip(rebuilt, original):
            np.testing.assert_array_equal(
                ours.final_state.class_amplitudes(),
                ref.final_state.class_amplitudes(),
            )


def live_and_spec_batch(seed=47):
    """Executed results alternating live snapshots (uint8 maps) and
    database-built instances (int64 maps), with their instances."""
    rng = as_generator(seed)
    instances = []
    for k in range(4):
        db = random_database(rng)
        if k % 2:
            instances.append(ClassInstance.from_db(db))
        else:
            stream = random_update_stream(db, 4, rng=k)
            stream.apply_all()
            instances.append(ClassInstance.from_class_state(
                stream.class_state(), db.n_machines, capacities=db.capacities
            ))
    assert [inst.joints.dtype for inst in instances] == [np.uint8, np.int64] * 2
    return instances, execute_class_batch(instances, include_probabilities=False)


class TestHeldClassMaps:
    """A map the dispatcher already holds crosses the wire once."""

    def test_pack_omits_exactly_the_held_maps(self):
        _, original = live_and_spec_batch()
        held = {0, 2}
        meta, arrays = pack_group_results(original, held)
        assert {k for k in arrays if k.startswith("ec")} == {"ec1", "ec3"}
        assert arrays["ec1"].dtype == np.int64
        full_meta, full = pack_group_results(original)
        assert meta == full_meta
        assert arrays_nbytes(full) - arrays_nbytes(arrays) >= sum(
            original[i].final_state.element_classes.nbytes for i in held
        )

    def test_unpack_attaches_held_maps_by_identity(self):
        instances, original = live_and_spec_batch()
        meta, arrays = pack_group_results(original, {0, 2})
        held = {0: instances[0].joints, 2: instances[2].joints}
        rebuilt = unpack_group_results(meta, arrays, "sequential", False, held)
        assert_results_match(rebuilt, original)
        for i, (ours, ref) in enumerate(zip(rebuilt, original)):
            state = ours.final_state
            if i in held:
                assert state.element_classes is held[i]
            else:
                assert state.element_classes is not arrays[f"ec{i}"]
            assert state.element_classes.dtype == ref.final_state.element_classes.dtype
            assert (state.element_classes == ref.final_state.element_classes).all()
            assert (state.class_amplitudes() == ref.final_state.class_amplitudes()).all()

    def test_positions_rebuild_a_subset_in_order(self):
        instances, original = live_and_spec_batch()
        meta, arrays = pack_group_results(original, {0, 2})
        # Result 0 was resolved elsewhere: no held map, not rebuilt.
        rebuilt = unpack_group_results(
            meta, arrays, "sequential", False, {2: instances[2].joints}, [3, 2]
        )
        assert_results_match(rebuilt, [original[3], original[2]])
        assert rebuilt[1].final_state.element_classes is instances[2].joints
