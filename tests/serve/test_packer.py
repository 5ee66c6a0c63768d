"""ShapePacker: full flushes, ordering, drain."""

import pytest

from repro.errors import ValidationError
from repro.serve import ShapePacker


class TestFullFlush:
    def test_full_group_flushes_immediately(self):
        packer = ShapePacker(batch_size=3)
        for item in "abc":
            packer.add("shape", item)
        assert list(packer.pop_full()) == [["a", "b", "c"]]
        assert packer.pending == 0

    def test_oversized_group_flushes_in_chunks(self):
        packer = ShapePacker(batch_size=2)
        for item in range(5):
            packer.add("shape", item)
        batches = list(packer.pop_full())
        assert batches == [[0, 1], [2, 3]]  # the trailing 1 is not full
        assert packer.pending == 1

    def test_partial_group_stays(self):
        packer = ShapePacker(batch_size=4)
        packer.add("shape", "a")
        assert list(packer.pop_full()) == []
        assert packer.pending == 1

    def test_groups_do_not_mix(self):
        packer = ShapePacker(batch_size=2)
        packer.add("x", 1)
        packer.add("y", 2)
        packer.add("x", 3)
        packer.add("y", 4)
        assert list(packer.pop_full()) == [[1, 3], [2, 4]]


class TestDrain:
    def test_drain_flushes_everything_chunked(self):
        packer = ShapePacker(batch_size=2)
        for item in range(3):
            packer.add("x", item)
        packer.add("y", "solo")
        batches = list(packer.drain())
        assert batches == [[0, 1], [2], ["solo"]]
        assert packer.pending == 0
        assert list(packer.drain()) == []


class TestValidationGuards:
    def test_bad_batch_size(self):
        with pytest.raises(ValidationError):
            ShapePacker(batch_size=0)
