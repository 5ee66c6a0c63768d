"""What one stacked request costs beyond its result: ledgers and allocations.

* A charged ledger is a pure function of ``(model, n, d_applications,
  active)``, so results of one shape share one frozen ledger.  It must
  refuse recording and equal the call-by-call ledger
  ``ClassDistributingOperator`` charges.
* Building and executing one N=4096 zipf request allocates its joints,
  one machine's counts at a time and its output distribution.  It never
  allocates the ``(n, N)`` count matrix, which at n=4 is 128 KiB by
  itself.
"""

import tracemalloc

import pytest

from repro.analysis.sweep import InstanceSpec
from repro.batch import ClassInstance, execute_class_batch
from repro.core.distributing import ClassDistributingOperator
from repro.database.fault import apply_fault_mask
from repro.database.ledger import QueryLedger
from repro.database.workloads import WorkloadSpec
from repro.errors import ValidationError
from repro.qsim.classvector import StackedClassVector

ZIPF_4096 = InstanceSpec(WorkloadSpec.of("zipf", universe=4096, total=1000), n_machines=4)


def call_by_call(db, model, d_applications, active):
    """The ledger a per-instance ``classes`` run charges, one ``D`` at a time."""
    ledger = QueryLedger(db.n_machines)
    operator = ClassDistributingOperator(db, ledger, model, active_machines=active)
    state = StackedClassVector.uniform([db.joint_counts], [db.nu + 1])
    for k in range(d_applications):
        operator.apply(state, adjoint=bool(k % 2))
    return ledger


class TestSharedLedgers:
    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    def test_one_shape_one_frozen_ledger(self, model):
        spec = InstanceSpec(WorkloadSpec.of("uniform", universe=64, total=64), n_machines=3)
        instances = [ClassInstance.from_spec(spec, 5)] * 3
        results = execute_class_batch(instances, model=model)
        results += execute_class_batch(instances[:1], model=model)
        assert all(r.ledger is results[0].ledger for r in results)
        with pytest.raises(ValidationError, match="frozen"):
            results[0].ledger.record_machine_call(0)
        with pytest.raises(ValidationError, match="frozen"):
            results[0].ledger.record_parallel_round()
        before = results[0].ledger.summary()
        for _, tally in results[0].ledger.tallies():
            tally.forward += 1
        assert results[1].ledger.summary() == before

    @pytest.mark.parametrize("model", ["sequential", "parallel"])
    @pytest.mark.parametrize("skip_zero_capacity", [False, True])
    def test_tallies_equal_the_call_by_call_ledger(self, model, skip_zero_capacity):
        db = apply_fault_mask(ZIPF_4096.build(rng=9), (1,))
        result = execute_class_batch(
            [ClassInstance.from_db(db)], model=model, skip_zero_capacity=skip_zero_capacity
        )[0]
        active = [0, 2, 3] if skip_zero_capacity else None
        reference = call_by_call(db, model, result.plan.d_applications, active)
        assert result.ledger.summary() == reference.summary()
        assert [(t.forward, t.adjoint) for _, t in result.ledger.tallies()] == [
            (t.forward, t.adjoint) for _, t in reference.tallies()
        ]


def test_one_request_allocates_under_128_kib():
    """Build + execute of one N=4096, n=4 zipf request: peak < 128 KiB."""

    def request():
        return execute_class_batch([ClassInstance.from_spec(ZIPF_4096, 3)])

    request()  # fill the plan, block, rotation, ledger and weight caches
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = request()
        peak = tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()
    assert result[0].exact
    assert peak < 128 * 1024, f"peak {peak / 1024:.1f} KiB above baseline"
