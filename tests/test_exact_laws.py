"""Each finite sampler's exact law, enumerated draw by draw, is its matrix row.

A ``ScriptedRng`` replays every branch of a sampler's draws, so the law
of its output is computed exactly, not estimated: the kernel that runs
is checked to be the kernel that is verified, to 1e-12.
"""

import numpy as np
import pytest

from conftest import exact_law, line_problem, population, sampler_law

from sgoal.bench import make_benchmark
from sgoal.mutation import proposal_kernel
from sgoal.sa import SAConfig, geometric, linear, logarithmic, sa_next_pop


def problems():
    return {
        "onemax3": make_benchmark("onemax", 3).problem,
        "line5": line_problem([2.0, 0.0, 1.0, 0.0, 3.0]),
    }


def spec(kind: str, n: int):
    """A uniform (None), vector or matrix spec with distinct, uneven rows."""
    rng = np.random.default_rng(n)
    if kind == "uniform":
        return None
    if kind == "vector":
        v = rng.random(n) + 0.1
        return v / v.sum()
    m = rng.random((n, n)) + 0.1
    return m / m.sum(axis=1, keepdims=True)


def assert_laws_are_rows(kernel, problem, t=0):
    space = problem.space
    rows = kernel.exact_matrix(space, t)
    for i, x in enumerate(space.points):
        law = sampler_law(kernel, space, population((x,), problem), t)
        assert np.max(np.abs(law - rows[i])) <= 1e-12, (x, law, rows[i])


def test_the_enumeration_is_a_law():
    # a two-draw program: masses add up to one and land where they should
    def draw(rng):
        return int(rng.integers(2)), rng.random() < 0.25

    law = exact_law(draw)
    assert law == {(0, True): 0.125, (0, False): 0.375, (1, True): 0.125, (1, False): 0.375}


def test_an_unsupported_draw_is_refused():
    with pytest.raises(TypeError, match="standard_normal"):
        exact_law(lambda rng: rng.standard_normal())


@pytest.mark.parametrize("kind", ["uniform", "vector", "matrix"])
@pytest.mark.parametrize("name", ["onemax3", "line5"])
def test_proposal_law_is_its_row(name, kind):
    problem = problems()[name]
    kernel = proposal_kernel(problem, spec(kind, len(problem.space)))
    assert_laws_are_rows(kernel, problem)


@pytest.mark.parametrize("t", [0, 5])
@pytest.mark.parametrize(
    "schedule",
    [geometric(2.0, 0.9), linear(2.0, step=0.3), logarithmic(1.0)],
    ids=["geometric", "linear", "logarithmic"],
)
def test_annealer_step_law_is_its_row(schedule, t):
    # the non-elitist step: proposal, then Metropolis at temperature(t)
    problem = make_benchmark("onemax", 3).problem
    kernel = sa_next_pop(problem, SAConfig(schedule=schedule, elitist=False))
    assert_laws_are_rows(kernel, problem, t)
