"""The correctness oracle: every timed result is checked.

A result passes when it is ``exact`` and its ledger columns and public
parameters equal a reference computed independently for the same
inputs: a per-instance run pinned to the ``classes`` backend for
spec-built requests, and, for live snapshots, a replay of the seeded
update stream sampled per instance, the way
:class:`repro.scenarios.ScenarioMatrix` gates its churn cells.
"""

from __future__ import annotations

from dataclasses import replace

import repro

LEDGER = ("sequential_queries", "parallel_rounds", "d_applications")
IDENTITY = ("model", "n", "N", "M", "nu")


def matches(row: dict | None, reference: dict) -> bool:
    return (row is not None and bool(row["exact"])
            and all(row[key] == reference[key] for key in LEDGER + IDENTITY))


def check_rows(rows: list[dict | None], requests: list) -> list[bool]:
    """Spec-built rows against the per-instance ``classes`` reference."""
    if all(row is None for row in rows):
        return [False] * len(rows)
    pinned = [replace(request, backend="classes") for request in requests]
    reference = repro.sample_many(pinned, strategy="instance").rows()
    return [matches(row, ref) for row, ref in zip(rows, reference)]


def check_batch_call(call) -> list[bool]:
    if call.rows is None:
        return [False] * len(call.requests)
    return check_rows(call.rows, call.requests)


def check_live(rows: list[dict | None], replay, updates: int, live) -> list[bool]:
    """Live-snapshot rows against a per-instance replay of the stream.

    ``replay`` is a fresh copy of the seeded database and update stream;
    it advances ``updates`` per request even past unresolved rows, so
    later passes stay aligned with the served stream.
    """
    verdict = []
    for row in rows:
        replay.apply_next(updates)
        if row is None:
            verdict.append(False)
            continue
        reference = repro.sample(replace(live(replay), backend="classes")).row()
        verdict.append(matches(row, reference))
    return verdict


def strip_wall(rows: list[dict | None]) -> list[dict | None]:
    """Rows without the one column that legitimately differs: wall time."""
    return [None if row is None else {k: v for k, v in row.items() if k != "wall_time_s"}
            for row in rows]
