"""The throughput driver: determinism, ordering, packing, process fan-out."""

import numpy as np
import pytest

from repro.analysis import InstanceSpec
from repro.batch import DEFAULT_BATCH_SIZE, default_row, pack_batches, run_batched
from repro.database import WorkloadSpec
from repro.errors import ValidationError


def specs(count=6, universe=64, total=24):
    return [
        InstanceSpec(
            workload=WorkloadSpec.of("zipf", universe=universe, total=total),
            n_machines=2 + (k % 2),
            strategy="round_robin",
            tag=f"inst{k}",
        )
        for k in range(count)
    ]


class TestRows:
    def test_one_row_per_spec_in_spec_order(self):
        result = run_batched(specs(), rng=0, batch_size=4)
        assert len(result) == 6
        for k, row in enumerate(result.rows):
            assert f"inst{k}" in row["label"]

    def test_rows_carry_sweep_and_audit_columns(self):
        result = run_batched(specs(count=2), rng=0)
        row = result.rows[0]
        for column in ("label", "n", "N", "M", "nu", "backend", "fidelity",
                       "exact", "sequential_queries", "parallel_rounds", "batched"):
            assert column in row
        assert row["backend"] == "classes"
        assert row["batched"] is True
        assert row["exact"] is True

    def test_parallel_model_rows(self):
        result = run_batched(specs(count=3), model="parallel", rng=0)
        assert all(row["parallel_rounds"] > 0 for row in result.rows)
        assert all(row["exact"] for row in result.rows)

    def test_custom_row_fn(self):
        result = run_batched(
            specs(count=2), rng=0, row_fn=lambda spec, res: {"f": res.fidelity}
        )
        assert set(result.rows[0]) == {"f"}


class TestDeterminism:
    def test_same_rng_same_rows(self):
        a = run_batched(specs(), rng=7, batch_size=2)
        b = run_batched(specs(), rng=7, batch_size=2)
        assert a.rows == b.rows

    def test_batch_size_does_not_change_rows(self):
        # Every class segment reduces over its own width, so packing
        # never changes a row — fidelity included.
        a = run_batched(specs(), rng=7, batch_size=2)
        b = run_batched(specs(), rng=7, batch_size=DEFAULT_BATCH_SIZE)
        assert a.rows == b.rows

    def test_jobs_do_not_change_rows(self):
        a = run_batched(specs(), rng=7, batch_size=2)
        b = run_batched(specs(), rng=7, batch_size=2, jobs=2)
        assert a.rows == b.rows


class TestPacking:
    def test_pack_batches_chunks_in_order(self):
        items = [(None, k) for k in range(7)]
        batches = pack_batches(items, 3)
        assert [len(b) for b in batches] == [3, 3, 1]
        assert [seed for batch in batches for _, seed in batch] == list(range(7))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValidationError):
            pack_batches([], 0)

    def test_empty_specs(self):
        assert len(run_batched([], rng=0)) == 0


class TestDefaultRow:
    def test_values_are_plain_python_scalars(self):
        result = run_batched(specs(count=1), rng=0)
        for value in result.rows[0].values():
            assert not isinstance(value, np.generic)

    def test_default_row_is_picklable(self):
        import pickle

        assert pickle.loads(pickle.dumps(default_row)) is default_row


class TestLazySpecStreams:
    """specs may be a generator: consumed chunk-wise, never materialized."""

    def test_generator_rows_match_list_rows(self):
        eager = run_batched(specs(), rng=7, batch_size=2)
        lazy = run_batched(iter(specs()), rng=7, batch_size=2)
        assert eager.rows == lazy.rows

    def test_stream_consumed_incrementally(self):
        """The first batch executes before later specs are even drawn."""
        pulled = []
        consumed_at_execution = []

        def spec_stream():
            for k, spec in enumerate(specs()):
                pulled.append(k)
                yield spec

        def recording_row(spec, result):
            consumed_at_execution.append(len(pulled))
            return {"label": spec.label()}

        run_batched(spec_stream(), rng=0, batch_size=2, row_fn=recording_row)
        # 6 specs, batch_size 2: when the first batch's rows are built,
        # only that batch's specs (2) have been drawn from the stream.
        assert consumed_at_execution[0] == 2
        assert consumed_at_execution[-1] == 6

    def test_generator_with_jobs_matches_in_process(self):
        lazy_fanout = run_batched(iter(specs()), rng=7, batch_size=2, jobs=2)
        in_process = run_batched(specs(), rng=7, batch_size=2)
        assert lazy_fanout.rows == in_process.rows

    def test_iter_seeded_batches_chunks_and_seed_order(self):
        from repro.batch import iter_seeded_batches

        items = specs()
        batches = list(iter_seeded_batches(items, 5, batch_size=4))
        assert [len(b) for b in batches] == [4, 2]
        assert [spec for batch in batches for spec, _ in batch] == items
        # seeds are the spec-order spawn_seed sequence for rng=5
        from repro.utils.rng import as_generator, spawn_seed

        gen = as_generator(5)
        expected = [spawn_seed(gen) for _ in items]
        assert [seed for batch in batches for _, seed in batch] == expected
