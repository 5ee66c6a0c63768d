"""Shared fixtures: canonical databases, layouts, deterministic RNGs.

Also a per-test watchdog: a test still running after
:data:`HANG_TIMEOUT_S` dumps every thread's stack to the terminal and
ends the run with exit status 1, instead of idling silently.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest

from repro.database import (
    DistributedDatabase,
    Machine,
    Multiset,
    round_robin,
    uniform_dataset,
    zipf_dataset,
)
from repro.qsim import RegisterLayout
from repro.utils.rng import as_generator


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator — never use global numpy randomness."""
    return as_generator(20250611)


@pytest.fixture
def tiny_db() -> DistributedDatabase:
    """2 machines, N = 4, overlapping keys — small enough for dense checks.

    counts:  machine0 = {0:2, 1:1},  machine1 = {1:1, 3:1}
    joint:   c = (2, 2, 0, 1), M = 5, ν = 4 (headroom above max c_i = 2).
    """
    shards = [Multiset(4, {0: 2, 1: 1}), Multiset(4, {1: 1, 3: 1})]
    return DistributedDatabase.from_shards(shards, nu=4)


@pytest.fixture
def small_db() -> DistributedDatabase:
    """3 machines, N = 8, Zipf-ish data — the workhorse instance."""
    shards = [
        Multiset(8, {0: 3, 1: 1, 2: 1}),
        Multiset(8, {0: 1, 3: 2}),
        Multiset(8, {5: 1, 6: 1}),
    ]
    return DistributedDatabase.from_shards(shards, nu=6)


@pytest.fixture
def sparse_db() -> DistributedDatabase:
    """Low overlap a = M/(νN): forces several Grover iterations."""
    shards = [Multiset(32, {0: 1, 7: 1}), Multiset(32, {20: 2})]
    return DistributedDatabase.from_shards(shards, nu=4)


@pytest.fixture
def single_machine_db() -> DistributedDatabase:
    """The centralized n = 1 case."""
    return DistributedDatabase.from_shards([Multiset(8, {1: 2, 4: 1, 6: 1})], nu=3)


@pytest.fixture
def uniform_db(rng) -> DistributedDatabase:
    """Randomized uniform workload over 2 machines (seeded)."""
    return round_robin(uniform_dataset(16, 24, rng=rng), n_machines=2)


@pytest.fixture
def zipf_db(rng) -> DistributedDatabase:
    """Randomized Zipf workload over 3 machines (seeded)."""
    return round_robin(zipf_dataset(16, 30, exponent=1.3, rng=rng), n_machines=3)


@pytest.fixture
def basic_layout() -> RegisterLayout:
    """The sequential sampler layout on a small instance."""
    return RegisterLayout.of(i=4, s=3, w=2)


#: Seconds one test may run before the watchdog fires: well above the
#: serving tests' 60 s ``HOLD_TIMEOUT`` and any single test's runtime.
HANG_TIMEOUT_S = 300.0

#: A duplicate of the terminal's stderr, taken in ``pytest_configure``
#: while output capture is suspended: a stack written to fd 2 during a
#: test would land in pytest's capture file and be lost with the process.
_watchdog_fd: int | None = None


def pytest_configure(config):
    global _watchdog_fd
    config.addinivalue_line("markers", "slow: long-running integration checks")
    if _watchdog_fd is None:
        _watchdog_fd = os.dup(sys.stderr.fileno())


@pytest.fixture(autouse=True)
def _hang_watchdog():
    """Dump all stacks and exit 1 if this test hangs."""
    faulthandler.dump_traceback_later(HANG_TIMEOUT_S, exit=True, file=_watchdog_fd)
    yield
    faulthandler.cancel_dump_traceback_later()
