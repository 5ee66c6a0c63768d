"""The paper's primary contribution: distributed quantum sampling.

Public API: the two samplers (Theorems 4.3 and 4.5), the distributing
operator implementations (Eq. 5, Lemmas 4.2 and 4.4), the zero-error
amplitude-amplification plan solver, target-state helpers, cost formulas
and the oblivious schedule objects.
"""

from .amplitude import (
    InitialDecomposition,
    grover_rotation_matrix,
    initial_decomposition,
    initial_vector,
    q_matrix,
    reflection_about_initial,
    s_chi_matrix,
    state_after_iterations,
)
from .backends import (
    DEFAULT_BACKENDS,
    SamplerBackend,
    backend_names,
    create_backend,
    execute_sampling,
    register_backend,
    resolve_backend,
)
from .costs import (
    epsilon_condition_nu,
    parallel_round_count,
    predicted_costs,
    sequential_oracle_calls,
    speedup_factor,
    theoretical_parallel_rounds,
    theoretical_sequential_queries,
)
from .distributing import (
    ClassDistributingOperator,
    DirectDistributingOperator,
    OracleDistributingOperator,
    ParallelDistributingOperator,
    rotation_blocks_from_counts,
    u_rotation_blocks,
)
from .engine import apply_q, apply_s_chi, apply_s_pi, run_amplification
from .estimation import (
    OverlapEstimate,
    bhmt_error_bound,
    estimate_overlap,
    outcome_to_overlap,
    phase_register_distribution,
    sample_with_estimated_m,
)
from .exact_aa import (
    AmplificationPlan,
    grover_reps_for,
    plain_grover_plan,
    solve_plan,
    success_probability,
)
from .parallel import ParallelSampler, sample_parallel
from .result import SamplingResult
from .schedule import QuerySchedule, ScheduleEntry
from .sequential import SequentialSampler, sample_sequential
from .target import (
    fidelity_with_target,
    target_amplitudes,
    target_on_layout,
    target_state,
)

__all__ = [
    "AmplificationPlan",
    "ClassDistributingOperator",
    "DEFAULT_BACKENDS",
    "DirectDistributingOperator",
    "InitialDecomposition",
    "OracleDistributingOperator",
    "OverlapEstimate",
    "ParallelDistributingOperator",
    "ParallelSampler",
    "QuerySchedule",
    "SamplerBackend",
    "SamplingResult",
    "ScheduleEntry",
    "SequentialSampler",
    "apply_q",
    "apply_s_chi",
    "apply_s_pi",
    "backend_names",
    "bhmt_error_bound",
    "create_backend",
    "epsilon_condition_nu",
    "estimate_overlap",
    "execute_sampling",
    "fidelity_with_target",
    "grover_reps_for",
    "grover_rotation_matrix",
    "initial_decomposition",
    "initial_vector",
    "outcome_to_overlap",
    "parallel_round_count",
    "phase_register_distribution",
    "plain_grover_plan",
    "predicted_costs",
    "q_matrix",
    "register_backend",
    "resolve_backend",
    "sample_with_estimated_m",
    "reflection_about_initial",
    "rotation_blocks_from_counts",
    "run_amplification",
    "s_chi_matrix",
    "sample_parallel",
    "sample_sequential",
    "sequential_oracle_calls",
    "solve_plan",
    "speedup_factor",
    "state_after_iterations",
    "success_probability",
    "target_amplitudes",
    "target_on_layout",
    "target_state",
    "theoretical_parallel_rounds",
    "theoretical_sequential_queries",
    "u_rotation_blocks",
]
