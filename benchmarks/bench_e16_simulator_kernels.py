"""E16 — substrate sanity: statevector kernel throughput.

Not a paper claim — this is the profiling discipline the HPC guides ask
for: know where simulation time goes, keep the hot kernels vectorized.
Each dense kernel is timed on a sampling-sized state (N = 4096, ν = 7);
E16e times the ``classes`` iterate, fused and as five kernels, on B = 1
and B = 64 zipf stacks and checks the two agree with ``==``.
"""

import numpy as np
import pytest

from repro.database import round_robin, sparse_support_dataset
from repro.core import u_rotation_blocks
from repro.qsim import RegisterLayout, StateVector, uniform_state


N_UNIVERSE = 4096
NU = 7


@pytest.fixture(scope="module")
def layout():
    return RegisterLayout.of(i=N_UNIVERSE, s=NU + 1, w=2)


@pytest.fixture(scope="module")
def shifts():
    dataset = sparse_support_dataset(N_UNIVERSE, 64, multiplicity=3, rng=0)
    return dataset.counts


def _fresh_state(layout):
    amps = np.zeros(layout.shape, dtype=np.complex128)
    amps[:, 0, 0] = uniform_state(N_UNIVERSE)
    return StateVector.from_array(layout, amps)


def test_e16a_value_shift_kernel(benchmark, layout, shifts):
    """The Eq. (1) oracle gather on ~65k amplitudes."""
    state = _fresh_state(layout)
    benchmark(lambda: state.apply_value_shift("i", "s", shifts))


def test_e16b_controlled_rotation_kernel(benchmark, layout):
    """The Eq. (6) count-controlled rotation."""
    state = _fresh_state(layout)
    blocks = u_rotation_blocks(NU)
    benchmark(lambda: state.apply_controlled_qubit_unitary("s", "w", blocks))


def test_e16c_projector_phase_kernel(benchmark, layout):
    """The S_π rank-one reflection."""
    state = _fresh_state(layout)
    factors = {"i": uniform_state(N_UNIVERSE), "w": 0}
    benchmark(lambda: state.apply_projector_phase(factors, -1.0))


def test_e16d_full_sampler_medium(benchmark):
    """End-to-end sequential sampling at production-ish scale."""
    from repro.core import sample_sequential

    dataset = sparse_support_dataset(N_UNIVERSE, 16, multiplicity=1, rng=1)
    db = round_robin(dataset, 2, nu=2)
    result = sample_sequential(db, backend="subspace")
    assert result.exact
    benchmark(lambda: sample_sequential(db, backend="subspace"))


@pytest.mark.parametrize("batch", [1, 64])
def test_e16e_class_iterate_fused_vs_five_kernels(report, batch):
    """The ``classes`` Grover iterate: one fused call vs the five kernels.

    Zipf stacks (N alternating 512/4096, M = 1000, n = 4) after ``F`` and
    the initial ``D``; both forms run the same iterates from the same
    plane, which must come out ``==``.  Median wall time per iterate over
    alternating repeats, so a drifting machine slows both alike.
    """
    import time

    from repro.analysis.sweep import InstanceSpec
    from repro.batch import ClassInstance
    from repro.batch.backends import StackedBackend, create_stacked_backend
    from repro.database.workloads import WorkloadSpec

    instances = [
        ClassInstance.from_spec(
            InstanceSpec(WorkloadSpec.of("zipf", universe=(512, 4096)[b % 2], total=1000),
                         n_machines=4),
            seed=b,
        )
        for b in range(batch)
    ]
    backend = create_stacked_backend("classes", instances, "sequential")
    fused = backend.uniform_state()
    backend.apply_d(fused)
    five = backend.uniform_state()
    backend.apply_d(five)
    reflect = np.exp(1j * np.pi)
    iterates = 20
    times = {"fused": [], "five_kernels": []}
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(iterates):
            backend.apply_q(fused, reflect, reflect)
        times["fused"].append((time.perf_counter() - start) / iterates)
        start = time.perf_counter()
        for _ in range(iterates):
            StackedBackend.apply_q(backend, five, reflect, reflect)
        times["five_kernels"].append((time.perf_counter() - start) / iterates)
    assert (fused.values() == five.values()).all()
    medians = {form: float(np.median(t)) * 1e6 for form, t in times.items()}
    report(
        f"E16e-B{batch}",
        "fused classes iterate == five-kernel iterate",
        ["B", "cells", "fused µs/iterate", "five kernels µs/iterate"],
        [[batch, fused.values().shape[0], round(medians["fused"], 2),
          round(medians["five_kernels"], 2)]],
        payload={"us_per_iterate": medians},
    )
