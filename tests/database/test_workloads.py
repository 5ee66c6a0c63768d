"""Workload generators: shapes, seeding, spec round-trips."""

import numpy as np
import pytest

from repro.database import (
    WorkloadSpec,
    block_dataset,
    single_key_dataset,
    sparse_support_dataset,
    uniform_dataset,
    zipf_dataset,
)
from repro.database.workloads import _zipf_weights
from repro.errors import ValidationError
from repro.utils.rng import as_generator


class TestUniform:
    def test_total_exact(self):
        ds = uniform_dataset(16, 100, rng=0)
        assert ds.cardinality() == 100

    def test_seeding(self):
        a = uniform_dataset(16, 100, rng=9)
        b = uniform_dataset(16, 100, rng=9)
        assert a == b

    def test_spread_roughly_uniform(self):
        ds = uniform_dataset(4, 4000, rng=0)
        freqs = ds.frequencies()
        assert np.all(np.abs(freqs - 0.25) < 0.05)


class TestZipf:
    def test_total_exact(self):
        ds = zipf_dataset(16, 100, rng=0)
        assert ds.cardinality() == 100

    def test_head_heavier_than_tail(self):
        ds = zipf_dataset(32, 5000, exponent=1.5, rng=0)
        counts = ds.counts
        assert counts[0] > counts[16]

    def test_exponent_zero_is_uniform(self):
        ds = zipf_dataset(4, 4000, exponent=0.0, rng=0)
        assert np.all(np.abs(ds.frequencies() - 0.25) < 0.05)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValidationError):
            zipf_dataset(4, 10, exponent=-0.5)

    @pytest.mark.parametrize("exponent", [0.0, 1, 1.1, 2.5])
    def test_cached_weights_draw_the_uncached_dataset(self, exponent):
        """The weights are computed once per (N, exponent), read-only, and
        the multinomial draw is the one the per-call weights gave."""
        weights = np.arange(1, 301, dtype=np.float64) ** (-exponent)
        weights /= weights.sum()
        expected = as_generator(7).multinomial(500, weights)
        before = _zipf_weights.cache_info()
        for _ in range(3):
            assert (zipf_dataset(300, 500, exponent=exponent, rng=7).counts == expected).all()
        after = _zipf_weights.cache_info()
        assert after.misses - before.misses <= 1 and after.hits - before.hits >= 2
        assert not _zipf_weights(300, exponent).flags.writeable


class TestSparse:
    def test_exact_support(self):
        ds = sparse_support_dataset(20, 5, multiplicity=3, rng=0)
        assert ds.support_size() == 5
        assert ds.max_multiplicity() == 3
        assert ds.cardinality() == 15

    def test_support_cannot_exceed_universe(self):
        with pytest.raises(ValidationError):
            sparse_support_dataset(4, 5)


class TestSingleAndBlock:
    def test_single_key(self):
        ds = single_key_dataset(8, key=3, multiplicity=2)
        assert ds.support_size() == 1
        assert ds.multiplicity(3) == 2

    def test_single_key_range(self):
        with pytest.raises(ValidationError):
            single_key_dataset(8, key=8)

    def test_block(self):
        ds = block_dataset(8, block_size=3, multiplicity=2)
        np.testing.assert_array_equal(ds.counts[:4], [2, 2, 2, 0])

    def test_block_too_big(self):
        with pytest.raises(ValidationError):
            block_dataset(4, block_size=5)


class TestWorkloadSpec:
    def test_build_uniform(self):
        spec = WorkloadSpec.of("uniform", universe=8, total=20)
        ds = spec.build(rng=0)
        assert ds.universe == 8
        assert ds.cardinality() == 20

    def test_build_deterministic_generator(self):
        spec = WorkloadSpec.of("block", universe=8, block_size=2)
        assert spec.build() == block_dataset(8, 2)

    def test_label(self):
        spec = WorkloadSpec.of("zipf", universe=8, total=20)
        assert "zipf" in spec.label()
        assert "universe=8" in spec.label()

    def test_unknown_generator(self):
        spec = WorkloadSpec.of("nope", universe=8)
        with pytest.raises(ValidationError):
            spec.build()

    def test_hashable_for_grids(self):
        a = WorkloadSpec.of("uniform", universe=8, total=20)
        b = WorkloadSpec.of("uniform", universe=8, total=20)
        assert len({a, b}) == 1
