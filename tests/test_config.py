"""Context-local numerics configuration (safe under concurrent sweeps)."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import CONFIG, strict_mode


class TestRoutingThresholds:
    """The planner's magic numbers live here, once."""

    def test_defaults(self):
        assert CONFIG.stack_threshold == 64
        assert CONFIG.max_dense_dimension == 2**24

    def test_fields_are_plain_mutable_attributes(self):
        before = CONFIG.stack_threshold
        CONFIG.stack_threshold = 8
        try:
            assert CONFIG.stack_threshold == 8
        finally:
            CONFIG.stack_threshold = before


class TestStrictChecksContextVar:
    def test_default_off(self):
        assert not CONFIG.strict_checks

    def test_attribute_assignment_still_works(self):
        CONFIG.strict_checks = True
        try:
            assert CONFIG.strict_checks
        finally:
            CONFIG.strict_checks = False
        assert not CONFIG.strict_checks

    def test_strict_mode_token_restores_nested(self):
        with strict_mode():
            assert CONFIG.strict_checks
            with strict_mode(False):
                assert not CONFIG.strict_checks
            assert CONFIG.strict_checks
        assert not CONFIG.strict_checks

    def test_threads_do_not_observe_each_others_toggle(self):
        """The race the ContextVar fixes: one worker's strict_mode used to
        flip norm checking for every in-flight sampler run."""
        inside = threading.Event()
        observed_in_other_thread = []

        def toggler():
            with strict_mode():
                inside.set()
                release.wait(timeout=5)
            return True

        def observer():
            inside.wait(timeout=5)
            observed_in_other_thread.append(CONFIG.strict_checks)
            release.set()
            return True

        release = threading.Event()
        with ThreadPoolExecutor(max_workers=2) as pool:
            f1 = pool.submit(toggler)
            f2 = pool.submit(observer)
            assert f1.result(timeout=10) and f2.result(timeout=10)
        assert observed_in_other_thread == [False]

    def test_concurrent_strict_sweeps_are_isolated(self):
        """Many threads toggling strict_mode concurrently each see their
        own value for the entire scope."""

        def worker(enabled: bool) -> bool:
            with strict_mode(enabled):
                # Re-read many times while other threads toggle freely.
                return all(CONFIG.strict_checks is enabled for _ in range(200))

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(worker, [i % 2 == 0 for i in range(32)]))
        assert all(results)

    def test_strict_runs_work_inside_threads(self, small_db):
        """A strict-mode sampler run on a worker thread passes its norm
        checks without requiring any global coordination."""
        from repro.core import sample_sequential

        def run():
            with strict_mode():
                return sample_sequential(small_db, backend="classes").exact

        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.submit(run).result() for _ in range(4))

    def test_strict_mode_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with strict_mode():
                raise RuntimeError("boom")
        assert not CONFIG.strict_checks
