"""Stochastic global optimization as composable Markov kernels.

Selection schemes, simulated annealing, and (mu/rho +, lambda) evolution
strategies built from a small kernel algebra, plus an exact finite-space
verifier for the absorbing/reachability premises and the
1 - (1 - delta)^t convergence bound.
"""

from .core import (
    Algorithm,
    ContinuousBox,
    ConvergenceTrace,
    Problem,
    Relation,
    SGoalResult,
    best,
    closeness,
    max_iters,
    run_algorithm,
    run_sgoal,
)
from .errors import ConfigError, SgoalError, UsageError
from .kernels import (
    FiniteSpace,
    Kernel,
    Population,
    ScheduleState,
    compose,
    identity,
    join,
    load_matrix,
    projection,
    save_matrix,
    sort_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "Algorithm",
    "ConfigError",
    "ContinuousBox",
    "ConvergenceTrace",
    "FiniteSpace",
    "Kernel",
    "Population",
    "Problem",
    "Relation",
    "SGoalResult",
    "ScheduleState",
    "SgoalError",
    "UsageError",
    "best",
    "closeness",
    "compose",
    "identity",
    "join",
    "load_matrix",
    "max_iters",
    "projection",
    "run_algorithm",
    "run_sgoal",
    "save_matrix",
    "sort_kernel",
]
