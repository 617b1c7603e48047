"""Exact simulator and verification harness for optimization by post-selection.

The procedure under test prepares a uniform superposition over all N
candidate bitstrings, entangles an ancilla register with each candidate's
cost, accepts only the all-zero ancilla outcome (restarting otherwise), and
measures the data register.  This package computes the exact per-attempt
success probability of that loop for arbitrary cost instances and encoders,
and verifies that it never exceeds M/N, the hit probability of plain random
search over the same instance.
"""

__version__ = "0.1.0"

from .algorithm import (
    ChainDecomposition,
    ExactAnalysis,
    RunConfig,
    TrialStats,
    chain_decomposition,
    exact_analysis,
    run_repeat_until_success,
    sequential_vs_joint_check,
)
from .baselines import (
    SearchResult,
    amplitude_amplification_success,
    grover_simulate,
    hill_climb,
    optimal_iterations,
    random_search,
)
from .costfn import CostInstance, count_below, generate, load_instance, min_cost, save_instance
from .encoding import AmplitudeEncoder, JunkPolicy, instance_amplitudes
from .errors import CapacityError, ConfigurationError, DomainError, PostoptError
