"""Each finite sampler's exact law, enumerated draw by draw, is its matrix row.

A ``ScriptedRng`` replays every branch of a sampler's draws, so the law
of its output is computed exactly, not estimated: the kernel that runs
is checked to be the kernel that is verified, to 1e-12.  The elitist
annealer's (walker, best) step is checked against its composition from the
combinators, and the law of its best against the greedy chain it verifies.
A finite strategy's generation law is checked against its row and against
an independent enumeration of every child tuple.
"""

import numpy as np
import pytest

from conftest import (
    brute_es_matrix,
    exact_law,
    line_problem,
    population,
    sampler_law,
    tuple_index,
)

from sgoal.bench import make_benchmark
from sgoal.es import ESConfig, make_es
from sgoal.kernels import ClassSpace, compose, join, projection, sort_kernel
from sgoal.mutation import proposal_kernel
from sgoal.sa import SAConfig, geometric, linear, logarithmic, make_sa, metropolis_kernel


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


COOLINGS = pytest.mark.parametrize(
    "schedule",
    [geometric(2.0, 0.9), linear(2.0, step=0.3), logarithmic(1.0)],
    ids=["geometric", "linear", "logarithmic"],
)


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


def test_integers_take_numpy_arguments():
    # integers(low, high, size): one branch set per element, in order
    law = exact_law(lambda rng: (int(rng.integers(3)), tuple(rng.integers(1, 3, size=2))))
    pairs = [(a, b) for a in (1, 2) for b in (1, 2)]
    assert law == pytest.approx({(i, pair): 1 / 12 for i in range(3) for pair in pairs})
    assert exact_law(lambda rng: rng.integers(0, 2, size=(1, 2)).shape) == {(1, 2): 1.0}


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
@COOLINGS
def test_annealer_step_law_is_its_row(schedule, t):
    # the non-elitist step: proposal, then Metropolis at temperature(t)
    problem = make_benchmark("onemax", 3).problem
    kernel = make_sa(problem, SAConfig(schedule=schedule, elitist=False)).next_pop
    assert_laws_are_rows(kernel, problem, t)


def pair_step(problem, config):
    """The elitist (walker, best) step composed from the combinators: from
    (candidate, walker, best), the walker takes the Metropolis survivor of
    (candidate, walker), and the best takes the first of a stable sort of
    (best, candidate, walker), so a tie keeps the best."""
    proposal = proposal_kernel(problem, config.mutation)
    walker = compose(metropolis_kernel(problem, config), projection(3, [0, 1]))
    best = compose(projection(3, [0]), compose(sort_kernel(problem, 3), projection(3, [2, 0, 1])))
    draw = join([compose(proposal, projection(2, [0])), projection(2, [0]), projection(2, [1])])
    return compose(join([walker, best]), draw)


def reachable_pairs(space, problem):
    """The (walker, best) pairs a run reaches: the best is at least as good."""
    f = space.fitness(problem)
    n = len(space)
    return [(w, b) for w in range(n) for b in range(n) if problem.relation.better_eq(f[b], f[w])]


def best_law_gap(problem, config, t=0):
    """The largest gap, over the class pairs a run reaches, between the
    composed step's law of the next best and the greedy chain's row of the
    best, on the fitness-class space."""
    classes = ClassSpace(problem.space, problem)
    k = len(classes)
    pair = pair_step(problem, config).exact_matrix(classes, t)
    best = pair.reshape(k * k, k, k).sum(axis=1)  # summed over the next walker
    greedy = make_sa(problem, config).chain_kernel.exact_matrix(classes, t)
    return max(
        float(np.max(np.abs(best[w * k + b] - greedy[b])))
        for w, b in reachable_pairs(classes, problem)
    )


@pytest.mark.parametrize("t", [0, 5])
@COOLINGS
@pytest.mark.parametrize("kind", ["uniform", "vector"])
@pytest.mark.parametrize("name", ["onemax3", "line5"])
def test_elitist_step_law_is_the_composed_row(name, kind, schedule, t):
    # (a) the sampler that runs equals the composition, from every pair it reaches
    problem = problems()[name]
    space = problem.space
    config = SAConfig(schedule=schedule, mutation=spec(kind, len(space)))
    rows = pair_step(problem, config).exact_matrix(space, t)
    step = make_sa(problem, config).next_pop
    for w, b in reachable_pairs(space, problem):
        pair = (space.points[w], space.points[b])
        law = sampler_law(step, space, population(pair, problem), t)
        row = rows[tuple_index(space, pair)]
        assert np.max(np.abs(law - row)) <= 1e-12, (pair, law, row)


@pytest.mark.parametrize("t", [0, 5])
@COOLINGS
@pytest.mark.parametrize("kind", ["uniform", "vector"])
@pytest.mark.parametrize("name", ["onemax3", "line5"])
def test_greedy_chain_is_the_law_of_the_best(name, kind, schedule, t):
    # (b) on fitness classes, the best-so-far of the composition moves by the
    # verified greedy chain: it holds because this proposal ignores the walker
    problem = problems()[name]
    config = SAConfig(schedule=schedule, mutation=spec(kind, len(problem.space)))
    assert best_law_gap(problem, config, t) <= 1e-12


def test_greedy_chain_is_not_the_law_of_the_best_under_a_per_point_proposal():
    # the scope of (b): a bit-flip proposal (p = 0.25) draws from the walker's
    # row, so the best moves by another chain than the one verified, the chain
    # of a search that proposes from its best
    problem = make_benchmark("onemax", 3).problem
    bits = np.array(problem.space.points)
    flips = (bits[:, None, :] != bits[None, :, :]).sum(axis=2)
    config = SAConfig(schedule=geometric(2.0, 0.9), mutation=0.25**flips * 0.75 ** (3 - flips))
    assert best_law_gap(problem, config) == pytest.approx(0.1875, abs=1e-12)


@pytest.mark.parametrize("kind", ["uniform", "vector", "matrix"])
@pytest.mark.parametrize(
    "mode, mu, lam",
    [("plus", 1, 1), ("plus", 1, 3), ("plus", 2, 2), ("plus", 2, 3),
     ("comma", 2, 2), ("comma", 2, 3)],
    ids=["1+1", "1+3", "2+2", "2+3", "2,2", "2,3"],
)
def test_strategy_generation_law_is_its_row(mode, mu, lam, kind):
    # points 0 and 2 tie: the survivors are the first mu of a stable sort of
    # the parents, then the children (plus), or of the children (comma), so a
    # tie keeps the earlier member
    problem = line_problem([1.0, 0.0, 1.0])
    space = problem.space
    mutation = spec(kind, len(space))
    config = ESConfig(mu=mu, rho=1, lam=lam, mode=mode, mutation=mutation)
    step = make_es(problem, config).next_pop
    rows = step.exact_matrix(space)
    brute = brute_es_matrix(problem, mu, lam, mode, mutation)
    for start in space.tuples(mu):
        i = tuple_index(space, start)
        law = sampler_law(step, space, population(start, problem))
        assert np.max(np.abs(law - rows[i])) <= 1e-12, (start, law, rows[i])
        assert np.max(np.abs(law - brute[i])) <= 1e-12, (start, law, brute[i])
