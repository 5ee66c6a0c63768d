"""Star-topology communication model for the coordinator and machines.

The paper's model is a coordinator talking to ``n`` machines (a star).
This module makes the topology explicit — as a :mod:`networkx` graph when
that optional extra is installed (it loads on the first :func:`star_graph`
call, never at import), with a dependency-free fallback — and computes the
round/latency structure of a query schedule: sequential queries serialize
on the coordinator, parallel queries share a round.  The latency model is
deliberately simple (unit cost per link use) — it exists to make the
sequential-vs-parallel round comparison of Theorems 4.3/4.5 concrete, not
to model a real network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ValidationError
from ..utils.validation import require_pos_int

COORDINATOR = "coordinator"


def star_graph(n_machines: int):
    """The coordinator-machines star as a :mod:`networkx` graph.

    Raises ``ImportError`` when networkx is unavailable.
    """
    n_machines = require_pos_int(n_machines, "n_machines")
    try:  # networkx is an optional extra
        import networkx as nx
    except ImportError:
        raise ImportError(
            "networkx is required for star_graph(); install repro[analysis]"
        ) from None
    graph = nx.Graph()
    graph.add_node(COORDINATOR, role="coordinator")
    for j in range(n_machines):
        graph.add_node(f"machine-{j}", role="machine", index=j)
        graph.add_edge(COORDINATOR, f"machine-{j}", latency=1.0)
    return graph


@dataclass(frozen=True)
class RoundCost:
    """Latency accounting for a query schedule on the star.

    Attributes
    ----------
    rounds:
        Communication rounds (parallel queries share one round).
    link_uses:
        Total machine-link activations (the sequential-equivalent work).
    """

    rounds: int
    link_uses: int


def sequential_schedule_cost(machine_sequence: Sequence[int], n_machines: int) -> RoundCost:
    """Cost of a sequential schedule: one round and one link use per query."""
    n_machines = require_pos_int(n_machines, "n_machines")
    for j in machine_sequence:
        if not 0 <= j < n_machines:
            raise ValidationError(f"machine index {j} out of range")
    count = len(machine_sequence)
    return RoundCost(rounds=count, link_uses=count)


def parallel_schedule_cost(n_rounds: int, n_machines: int) -> RoundCost:
    """Cost of a parallel schedule: each round touches every link once."""
    n_rounds_int = int(n_rounds)
    if n_rounds_int < 0:
        raise ValidationError(f"n_rounds must be nonnegative, got {n_rounds}")
    n_machines = require_pos_int(n_machines, "n_machines")
    return RoundCost(rounds=n_rounds_int, link_uses=n_rounds_int * n_machines)


def speedup(sequential: RoundCost, parallel: RoundCost) -> float:
    """Round-count speedup of parallel over sequential (∞-safe)."""
    if parallel.rounds == 0:
        return float("inf") if sequential.rounds else 1.0
    return sequential.rounds / parallel.rounds


def surviving_machines(n_machines: int, lost: Sequence[int]) -> tuple[int, ...]:
    """Machine indices still on the star after ``lost`` machines fail.

    The degraded topology the scenario engine re-plans against: a fault
    mask removes coordinator links, and the capacity-aware schedules
    restrict to exactly these indices.
    """
    n_machines = require_pos_int(n_machines, "n_machines")
    gone = set()
    for j in lost:
        if not 0 <= j < n_machines:
            raise ValidationError(f"machine index {j} out of range")
        gone.add(j)
    return tuple(j for j in range(n_machines) if j not in gone)


def degraded_sequential_cost(
    machine_sequence: Sequence[int], n_machines: int, lost: Sequence[int]
) -> RoundCost:
    """Cost of a sequential schedule re-planned around lost machines.

    Queries addressed to dead machines are dropped from the schedule
    (the ``skip_empty`` restriction); the survivors keep one round and
    one link use each.
    """
    alive = set(surviving_machines(n_machines, lost))
    kept = [j for j in machine_sequence if j in alive]
    return sequential_schedule_cost(kept, n_machines)
