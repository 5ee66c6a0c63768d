"""Star topology round/latency accounting."""

import pytest

from repro.database import (
    COORDINATOR,
    parallel_schedule_cost,
    sequential_schedule_cost,
    speedup,
    star_graph,
)
from repro.errors import ValidationError


class TestStarGraph:
    @pytest.fixture(autouse=True)
    def _networkx(self):
        # Only the graph needs networkx; the round-cost tests below run
        # without it.
        pytest.importorskip("networkx")

    def test_structure(self):
        graph = star_graph(4)
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 4
        assert graph.degree[COORDINATOR] == 4

    def test_machines_only_touch_coordinator(self):
        graph = star_graph(3)
        for node in graph.nodes:
            if node != COORDINATOR:
                assert list(graph.neighbors(node)) == [COORDINATOR]


class TestCosts:
    def test_sequential_cost(self):
        cost = sequential_schedule_cost([0, 1, 0, 2], n_machines=3)
        assert cost.rounds == 4
        assert cost.link_uses == 4

    def test_sequential_validates_indices(self):
        with pytest.raises(ValidationError):
            sequential_schedule_cost([0, 5], n_machines=3)

    def test_parallel_cost(self):
        cost = parallel_schedule_cost(6, n_machines=3)
        assert cost.rounds == 6
        assert cost.link_uses == 18

    def test_parallel_negative_rejected(self):
        with pytest.raises(ValidationError):
            parallel_schedule_cost(-1, n_machines=2)

    def test_speedup(self):
        seq = sequential_schedule_cost([0] * 12, n_machines=3)
        par = parallel_schedule_cost(4, n_machines=3)
        assert speedup(seq, par) == pytest.approx(3.0)

    def test_speedup_zero_parallel(self):
        seq = sequential_schedule_cost([0], 1)
        par = parallel_schedule_cost(0, 1)
        assert speedup(seq, par) == float("inf")
