"""Stacked ``classes`` rows are bit-identical to per-instance rows.

Every row of a mixed-ν, mixed-N, mixed-schedule batch must equal that
instance's own single-instance ``classes``-backend execution **bit for
bit** — fidelity, output distribution, class amplitudes, ledger and
schedule — whatever batch it ran in.  A hypothesis property shuffles a
pool of instances and cuts it into random chunks: the chunking must
never change a row, and neither may the batches either serving tier's
dispatch forms.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.batch import execute_sampling_batch
from repro.config import strict_mode
from repro.core import ParallelSampler, SequentialSampler
from repro.database import DistributedDatabase
from repro.database.dynamic import UpdateStream
from repro.serve import SamplerService, ShardedSamplerService
from repro.utils.rng import as_generator


def random_database(
    rng: np.random.Generator, nu: int | None = None
) -> DistributedDatabase:
    """Small random distributed database (mirrors test_batch_engine)."""
    n_machines = int(rng.integers(2, 5))
    universe = int(rng.integers(16, 193))
    nu = int(rng.integers(2, 9)) if nu is None else nu
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


def mixed_databases() -> list[DistributedDatabase]:
    """Six instances spanning several ν, N, n and schedule shapes."""
    from repro.analysis.sweep import InstanceSpec, WorkloadSpec

    def db(total, n, universe, seed):
        spec = InstanceSpec(
            workload=WorkloadSpec.of("zipf", universe=universe, total=total),
            n_machines=n,
            tag="t",
        )
        return spec.build(as_generator(seed))

    return [
        db(24, 2, 64, 0), db(6, 3, 32, 1), db(48, 2, 64, 2),
        db(30, 5, 16, 3), db(12, 2, 64, 4), db(24, 4, 32, 5),
    ]


def assert_row_bit_identical(result, reference):
    """Every float the row carries matches the reference with ==."""
    assert result.fidelity == reference.fidelity
    assert (result.output_probabilities == reference.output_probabilities).all()
    assert (
        result.final_state.class_amplitudes()
        == reference.final_state.class_amplitudes()
    ).all()
    assert result.ledger.summary() == reference.ledger.summary()
    assert result.ledger.per_machine() == reference.ledger.per_machine()
    assert result.schedule.fingerprint() == reference.schedule.fingerprint()
    assert result.plan == reference.plan


class TestBitIdentity:
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_randomized_grid_matches_per_instance_classes(self, model, seed):
        rng = as_generator(3000 * seed)
        dbs = [random_database(rng) for _ in range(9)]
        batched = execute_sampling_batch(
            dbs, model=model, backend="classes", include_probabilities=True
        )
        for db, result in zip(dbs, batched):
            [reference] = execute_sampling_batch(
                [db], model=model, backend="classes", include_probabilities=True
            )
            assert result.backend == "classes"
            assert_row_bit_identical(result, reference)

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_mixed_shape_batch_matches_per_instance(self, model):
        dbs = mixed_databases()
        batched = execute_sampling_batch(
            dbs, model=model, backend="classes", include_probabilities=True
        )
        for db, result in zip(dbs, batched):
            [reference] = execute_sampling_batch(
                [db], model=model, backend="classes", include_probabilities=True
            )
            assert_row_bit_identical(result, reference)

    def test_strict_mode_run_stays_exact(self):
        dbs = mixed_databases()[:3]
        with strict_mode():
            results = execute_sampling_batch(dbs, model="sequential", backend="classes")
        assert all(r.exact for r in results)


#: Capacities on both sides of NumPy's 8-wide unrolled summation block
#: and past its 128-element pairwise block, so a reduction over any
#: other width than the instance's own would show in the last bits.
POOL_NUS = (2, 5, 8, 12, 17, 33, 140)
#: Overlaps ``a = M/(νN)`` as ``1/k``: instances of one overlap share a
#: schedule shape whatever their ν, so a chunk's shape groups mix widths.
POOL_INVERSE_OVERLAPS = (8, 5, 3)
POOL_UNIVERSE = 120


def _pool() -> list[DistributedDatabase]:
    """Twenty-one mixed-ν instances over three shared overlaps; every
    third instance leaves its last machine empty, so ``skip_empty`` has a
    provably empty machine to drop."""
    rng = as_generator(9191)
    pool = []
    shapes = [(k, nu) for k in POOL_INVERSE_OVERLAPS for nu in POOL_NUS]
    for index, (inverse, nu) in enumerate(shapes):
        total = POOL_UNIVERSE * nu // inverse
        joint = rng.multinomial(total, np.full(POOL_UNIVERSE, 1 / POOL_UNIVERSE))
        while (joint > nu).any():
            over = int(np.argmax(joint))
            joint[over] -= 1
            joint[int(rng.choice(np.flatnonzero(joint < nu)))] += 1
        n_machines = 2 + index % 3
        filled = n_machines - 1 if index % 3 == 0 else n_machines
        counts = np.zeros((n_machines, POOL_UNIVERSE), dtype=np.int64)
        for i in np.flatnonzero(joint):
            counts[:filled, i] = rng.multinomial(joint[i], np.full(filled, 1 / filled))
        pool.append(DistributedDatabase.from_count_matrix(counts, nu=nu))
    return pool


POOL = _pool()
_REFERENCES: dict[tuple[int, str, bool], object] = {}


def per_instance(index: int, model: str, skip: bool):
    """The per-instance ``classes`` sampler row (memoized per pool entry)."""
    key = (index, model, skip)
    if key not in _REFERENCES:
        sampler = SequentialSampler if model == "sequential" else ParallelSampler
        _REFERENCES[key] = sampler(
            POOL[index], backend="classes", skip_zero_capacity=skip
        ).run()
    return _REFERENCES[key]


class TestChunkingInvariance:
    def test_pool_is_heterogeneous(self):
        from repro.batch import cached_plan

        plans = [cached_plan(db.initial_overlap()) for db in POOL]
        assert len({db.nu for db in POOL}) > 1
        assert len({(p.grover_reps, p.needs_final) for p in plans}) > 1
        assert any(0 in db.capacities for db in POOL)

    @given(
        model=st.sampled_from(["sequential", "parallel"]),
        capacity=st.sampled_from(["all", "skip_empty"]),
        order=st.permutations(range(len(POOL))),
        cuts=st.lists(st.integers(min_value=1, max_value=len(POOL) - 1), max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_do_not_depend_on_the_batching(self, model, capacity, order, cuts):
        skip = capacity == "skip_empty"
        bounds = [0, *sorted(set(cuts)), len(order)]
        for lo, hi in zip(bounds, bounds[1:]):
            chunk = order[lo:hi]
            results = execute_sampling_batch(
                [POOL[i] for i in chunk],
                model=model,
                include_probabilities=True,
                skip_zero_capacity=skip,
                backend="classes",
            )
            for index, result in zip(chunk, results):
                reference = per_instance(index, model, skip)
                assert result.fidelity == reference.fidelity
                assert np.array_equal(
                    result.final_state.class_amplitudes(),
                    reference.final_state.class_amplitudes(),
                )
                assert np.array_equal(
                    result.output_probabilities, reference.output_probabilities
                )
                assert result.ledger.summary() == reference.ledger.summary()
                assert result.ledger.per_machine() == reference.ledger.per_machine()


class TestServedRows:
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    @pytest.mark.parametrize("shards", [None, 2])
    def test_served_rows_equal_per_instance(self, model, shards):
        """Live snapshots of the pool through either tier: the packers
        mix ν within each schedule shape, and every row still equals
        the per-instance run."""
        options = dict(model=model, batch_size=5)
        service = (
            SamplerService(**options)
            if shards is None
            else ShardedSamplerService(shards=shards, **options)
        )
        with service:
            futures = [service.submit_live(UpdateStream(db, [])) for db in POOL]
            results = [future.result(timeout=60) for future in futures]
        for index, result in enumerate(results):
            reference = per_instance(index, model, False)
            assert result.fidelity == reference.fidelity
            assert np.array_equal(
                result.final_state.class_amplitudes(),
                reference.final_state.class_amplitudes(),
            )
            assert result.ledger.per_machine() == reference.ledger.per_machine()
