"""Kernels sample populations: fitness travels with its members.

Only a kernel that makes a new point scores it, so every population a
kernel returns carries each member's objective value, and a run makes one
objective call per new point.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import instances, population

from sgoal.bench import make_benchmark
from sgoal.core import Problem, max_iters, run_algorithm
from sgoal.es import ESConfig, es_next_pop, make_es
from sgoal.kernels import ScheduleState, compose, identity, join, projection, sort_kernel
from sgoal.mutation import proposal_kernel
from sgoal.sa import SAConfig, fixed, geometric, make_sa, metropolis_kernel
from sgoal.selection import proportional, ranking, roulette, selection_kernel, tournament, uniform


@pytest.fixture
def evaluate_calls(monkeypatch):
    """Count every ``Problem.evaluate`` call."""
    calls = []
    real = Problem.evaluate

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(Problem, "evaluate", counted)
    return calls


@pytest.mark.parametrize("elitist", [True, False])
def test_box_annealer_scores_each_candidate_once(evaluate_calls, elitist):
    # x0 once, then one candidate per step; a box point is never memoized
    problem = make_benchmark("sphere", 10).problem
    algo = make_sa(problem, SAConfig(schedule=geometric(1.0, 0.95), elitist=elitist))
    result = run_algorithm(algo, max_iters(2000), seed=1)
    assert len(evaluate_calls) == 2001 == problem.evals == result.trace.evals[-1]
    assert problem._cache == {}


def test_finite_strategy_scores_each_child_once(evaluate_calls):
    # two parents, then three children per generation; evals counts distinct points
    problem = make_benchmark("onemax", 8).problem
    algo = make_es(problem, ESConfig(mu=2, rho=1, lam=3, mode="plus"))
    result = run_algorithm(algo, max_iters(200), seed=1)
    assert len(evaluate_calls) == 2 + 200 * 3
    assert problem.evals == len(problem._cache) == len(set(evaluate_calls))
    assert result.trace.evals[-1] == problem.evals


def built_kernels(problem, mutation):
    """(kernel, input arity) for every kernel the package builds on a problem."""
    proposal = proposal_kernel(problem, mutation)
    schemes = [uniform(), proportional(), ranking(), tournament(2),
               roulette(rate_fn=lambda v: v + 1.0)]
    kernels = [(proposal, 1), (sort_kernel(problem, 3), 3), (projection(3, [2, 0]), 3)]
    kernels += [(selection_kernel(problem, scheme, 3), 3) for scheme in schemes]
    pick = selection_kernel(problem, ranking(), 3)
    kernels += [
        (join([proposal, identity(1)]), 1),
        (join([pick, selection_kernel(problem, uniform(), 3)]), 3),
        (compose(proposal, pick), 3),
        (metropolis_kernel(problem, SAConfig(schedule=fixed(1.0))), 2),
    ]
    for elitist in (True, False):
        config = SAConfig(schedule=geometric(2.0, 0.5), mutation=mutation, elitist=elitist)
        kernels.append((make_sa(problem, config).next_pop, 2 if elitist else 1))
    for mode in ("plus", "comma"):
        config = ESConfig(mu=2, rho=1, lam=3, mode=mode, mutation=mutation)
        kernels.append((es_next_pop(problem, config), 2))
    return kernels


@settings(max_examples=40, deadline=None)
@given(instances(), st.integers(0, 2**32 - 1))
def test_sampled_fitness_is_the_objective(instance, seed):
    problem, mutation = instance
    rng = np.random.default_rng(seed)
    n = len(problem.space)
    for t, (kernel, arity) in enumerate(built_kernels(problem, mutation)):
        for _ in range(4):
            start = population(rng.integers(0, n, size=arity).tolist(), problem)
            out = kernel.sample(start, ScheduleState(t), rng)
            want = [problem.objective(m) for m in out.members]
            assert out.fitness.tolist() == want, kernel.name
