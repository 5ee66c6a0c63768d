"""Serving-test helpers: hold requests behind deliberately busy workers."""

import multiprocessing as mp
import time

import pytest

from repro.batch.driver import default_row

#: Generous wall-clock allowance — CI runners stall.
HOLD_TIMEOUT = 60.0


class Hold:
    """A ``row_fn`` that blocks every served request until :meth:`release`.

    Dispatch is work-conserving, so a request waits in a packer only
    while every worker is busy.  A worker blocked here keeps its batch
    busy: requests submitted after it queue behind it whatever the
    dispatcher's timing, which makes batching and shutdown tests
    deterministic.

    The gate is a lock-free flag in shared memory that the blocked
    worker polls, so it holds in executor threads and in forked shard
    workers alike.  A worker killed while it waits leaves nothing
    locked; ``multiprocessing.Event.set`` would instead wait forever for
    the killed sleeper to wake.
    """

    def __init__(self) -> None:
        self._open = mp.RawValue("b", 0)
        self._entered = mp.Semaphore(0)

    def row_fn(self, spec, result):
        self._entered.release()
        deadline = time.monotonic() + HOLD_TIMEOUT
        while not self._open.value and time.monotonic() < deadline:
            time.sleep(0.001)
        return default_row(spec, result)

    def wait_entered(self) -> None:
        """Block until one more request has reached the gate."""
        assert self._entered.acquire(timeout=HOLD_TIMEOUT), "no request reached the hold"

    def release(self) -> None:
        self._open.value = 1


@pytest.fixture
def hold():
    gate = Hold()
    yield gate
    gate.release()  # never leave a worker blocked past its test
