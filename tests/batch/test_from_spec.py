"""``ClassInstance.from_spec``: a spec built straight into class coordinates.

It must equal the database path — ``from_db(apply_fault_mask(
spec.build(seed), mask))`` — field for field, and raise what that path
raises, for every partition strategy, workload shape, fault mask and
explicit or default ``ν``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.sweep import InstanceSpec
from repro.batch import ClassInstance
from repro.database import STRATEGIES
from repro.database.fault import apply_fault_mask
from repro.database.workloads import WorkloadSpec
from repro.errors import CapacityError, ValidationError


def workload(kind, universe, total):
    if kind == "sparse":
        return WorkloadSpec.of("sparse", universe=universe,
                               support_size=min(universe, total), multiplicity=2)
    return WorkloadSpec.of(kind, universe=universe, total=total)


def via_database(spec, seed, mask):
    db = spec.build(rng=seed)
    if mask is not None:
        db = apply_fault_mask(db, mask)
    return ClassInstance.from_db(db)


def outcome(fn):
    try:
        return fn()
    except (CapacityError, ValidationError) as error:
        return error


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    spec = InstanceSpec(
        workload(draw(st.sampled_from(["uniform", "zipf", "sparse"])),
                 draw(st.integers(min_value=1, max_value=300)),
                 draw(st.integers(min_value=1, max_value=400))),
        n_machines=n,
        strategy=draw(st.sampled_from(sorted(STRATEGIES))),
        nu=draw(st.one_of(st.none(), st.integers(min_value=1, max_value=60))),
    )
    mask = draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1)).map(tuple)))
    return spec, draw(st.integers(min_value=0, max_value=2**63 - 2)), mask


@given(cases())
@settings(max_examples=300, deadline=None)
def test_from_spec_equals_the_database_path(case):
    spec, seed, mask = case
    expected = outcome(lambda: via_database(spec, seed, mask))
    got = outcome(lambda: ClassInstance.from_spec(spec, seed, mask))
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert got.joints.dtype == expected.joints.dtype == np.int64
    assert (got.joints == expected.joints).all()
    assert (got.nu, got.n_machines, got.total, got.capacities) == (
        expected.nu, expected.n_machines, expected.total, expected.capacities
    )


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("kind", ["uniform", "zipf", "sparse"])
def test_every_strategy_and_shape_with_a_mask(strategy, kind):
    spec = InstanceSpec(workload(kind, 64, 90), n_machines=3, strategy=strategy)
    for mask in (None, (), (1,), (0, 2)):
        got = ClassInstance.from_spec(spec, 17, mask)
        expected = via_database(spec, 17, mask)
        assert (got.joints == expected.joints).all()
        assert (got.nu, got.total, got.capacities) == (
            expected.nu, expected.total, expected.capacities
        )


def test_capacity_error_sees_the_lost_machines_too():
    """ν is checked against every machine, as the unmasked build does."""
    spec = InstanceSpec(workload("zipf", 8, 200), n_machines=2, nu=5)
    with pytest.raises(CapacityError):
        via_database(spec, 0, (0,))
    with pytest.raises(CapacityError):
        ClassInstance.from_spec(spec, 0, (0,))


def test_all_lost_mask_raises_validation_error():
    spec = InstanceSpec(workload("uniform", 16, 40), n_machines=2)
    with pytest.raises(ValidationError, match="cannot lose all"):
        ClassInstance.from_spec(spec, 3, (0, 1))
