"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from sgoal.core import FiniteSet, Problem, Relation
from sgoal.es import replace_es
from sgoal.kernels import FiniteSpace, Kernel, ScheduleState, dense_rows
from sgoal.sa import acceptance_probability, fixed, linear


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def line_problem(values, relation=Relation.MINIMIZE, f_star=None):
    """Finite problem over integer states 0..n-1 with listed fitness values."""
    values = [float(v) for v in values]
    space = FiniteSet(tuple(range(len(values))))
    return Problem(space, lambda i: values[i], relation, f_star=f_star)


@st.composite
def instances(draw):
    """(problem, mutation spec) on a 2-6 point line problem with tied fitness
    values, either relation, and a uniform, vector or matrix proposal."""
    n = draw(st.integers(2, 6))
    values = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), min_size=n, max_size=n))
    relation = draw(st.sampled_from([Relation.MINIMIZE, Relation.MAXIMIZE]))
    kind = draw(st.sampled_from(["uniform", "vector", "matrix"]))
    weights = st.floats(0.05, 1.0)
    if kind == "uniform":
        mutation = None
    elif kind == "vector":
        v = np.array(draw(st.lists(weights, min_size=n, max_size=n)))
        mutation = v / v.sum()
    else:
        m = np.array(draw(st.lists(weights, min_size=n * n, max_size=n * n))).reshape(n, n)
        mutation = m / m.sum(axis=1, keepdims=True)
    return line_problem(values, relation=relation), mutation


def matrix_kernel(matrix: np.ndarray, space: FiniteSpace) -> Kernel:
    """Arity-1 kernel defined by an explicit row-stochastic matrix."""
    matrix = np.asarray(matrix, dtype=float)

    def sample_fn(members, state, rng):
        (x,) = members
        row = matrix[space.index(x)]
        return (space.points[int(rng.choice(len(space), p=row))],)

    def matrix_fn(sp, state, idx):
        return dense_rows(matrix[idx])

    return Kernel(1, 1, sample_fn, matrix_fn, name="matrix-kernel")


def schedule_at(temperature: float):
    """A cooling schedule and the step t at which it reads ``temperature``:
    ``fixed(T)`` at t = 0, or for the greedy limit T = 0 a linear schedule
    that reaches 0 at t = 1."""
    if temperature > 0:
        return fixed(temperature), 0
    return linear(1.0, step=1.0), 1


def state_at(t: int) -> ScheduleState:
    """A schedule state after t ticks."""
    state = ScheduleState()
    for _ in range(t):
        state.tick()
    return state


def random_stochastic(rng, n: int) -> np.ndarray:
    """Random dense row-stochastic matrix (Dirichlet rows)."""
    return rng.dirichlet(np.ones(n), size=n)


def transition_counts(kernel, space, start_members, n_samples, rng, state=None):
    """Sample one-step transitions from a fixed start; counts per end state."""
    if state is None:
        state = ScheduleState()
    counts = np.zeros(space.n_tuples(kernel.arity_out), dtype=int)
    for _ in range(n_samples):
        out = kernel.sample(start_members, state, rng)
        counts[space.tuple_index(out)] += 1
    return counts


def proposal_rows(n: int, mutation=None) -> np.ndarray:
    """Oracle: the (n, n) proposal matrix of a mutation spec, built directly."""
    if mutation is None:
        return np.full((n, n), 1.0 / n)
    arr = np.asarray(mutation, dtype=float)
    if arr.ndim == 1:
        return np.tile(arr / arr.sum(), (n, 1))
    return arr / arr.sum(axis=1, keepdims=True)


def brute_sa_matrix(problem, mutation, elitist: bool, temperature: float) -> np.ndarray:
    """Oracle: enumerate every (state, proposal) pair of the arity-1 annealer.

    Elitist keeps the candidate when it is at least as good; otherwise the
    candidate passes with ``acceptance_probability``.  A rejection stays put.
    """
    points = problem.space.points
    n = len(points)
    rows = proposal_rows(n, mutation)
    m = np.zeros((n, n))
    for i, x in enumerate(points):
        f_x = problem.evaluate(x)
        for j, c in enumerate(points):
            f_c = problem.evaluate(c)
            if elitist:
                accept = 1.0 if problem.better_eq(f_c, f_x) else 0.0
            else:
                accept = float(acceptance_probability(problem, f_c, f_x, temperature))
            m[i, j] += rows[i, j] * accept
            m[i, i] += rows[i, j] * (1.0 - accept)
    return m


def brute_es_matrix(problem, mu: int, lam: int, mode: str, mutation=None) -> np.ndarray:
    """Oracle: enumerate every child tuple of every population through ``replace_es``.

    Each child is the proposal draw of a uniformly picked parent, so its
    distribution is the mean of the parents' proposal rows.
    """
    space = FiniteSpace(problem.space.points)
    n = len(space)
    rows = proposal_rows(n, mutation)
    m = np.zeros((n**mu, n**mu))
    for r, pop in enumerate(space.tuples(mu)):
        mix = np.mean([rows[space.index(p)] for p in pop], axis=0)
        for combo in itertools.product(range(n), repeat=lam):
            p = 1.0
            for c in combo:
                p *= mix[c]
            children = tuple(space.points[c] for c in combo)
            m[r, space.tuple_index(replace_es(problem, pop, children, mode))] += p
    return m


def brute_tournament_probs(fitness, relation: Relation, m: int) -> np.ndarray:
    """Oracle: enumerate all lambda^m ordered entrant tuples directly."""
    f = np.asarray(fitness, dtype=float)
    lam = f.size
    probs = np.zeros(lam)
    weight = 1.0 / lam**m
    for entrants in itertools.product(range(lam), repeat=m):
        fs = f[list(entrants)]
        if relation is Relation.MINIMIZE:
            rates = np.array([1.0 + np.sum(fs > v) for v in fs])
        else:
            rates = np.array([1.0 + np.sum(fs < v) for v in fs])
        total = rates.sum()
        for slot, idx in enumerate(entrants):
            probs[idx] += weight * rates[slot] / total
    return probs


def brute_selection_probs(scheme, fitness, relation: Relation) -> np.ndarray:
    """Oracle: selection probabilities from each scheme's definition.

    Tournament enumerates its entrant tuples; the other schemes normalize
    their rates (proportional defaults to ranking rates).
    """
    f = np.asarray(fitness, dtype=float)
    if scheme.kind == "tournament":
        return brute_tournament_probs(f, relation, scheme.m)
    if scheme.kind == "uniform":
        rates = np.ones(f.size)
    elif scheme.kind == "roulette":
        rates = f.copy()
    else:
        rates = np.array([1.0 + sum(relation.better(v, g) for g in f) for v in f])
    return rates / rates.sum()


def fold_into(value: float, lo: float, hi: float) -> float:
    """Oracle for box reflection: fold one coordinate step by step."""
    v = float(value)
    while v < lo or v > hi:
        if v > hi:
            v = 2.0 * hi - v
        else:
            v = 2.0 * lo - v
    return v


def reference_es_children(y, s, config, box, n: int, rng) -> tuple:
    """Oracle: n box-strategy children drawn one at a time, coordinate by
    coordinate, from the (mu, d) parent rows ``y`` and ``s``.

    Per child: rho uniform parent picks, one global log-normal draw, then per
    coordinate the recombined values, the clamped step size and the mutated
    coordinate folded into the box.
    """
    mu, d = y.shape
    tau = config.tau_for(d)
    out_y, out_s = np.empty((n, d)), np.empty((n, d))

    def blend(values, mode):
        if mode == "intermediate":
            return sum(values) / len(values)
        return values[int(rng.integers(len(values)))]

    for i in range(n):
        picks = [int(rng.integers(mu)) for _ in range(config.rho)]
        g = rng.standard_normal()
        for j in range(d):
            yj = blend([y[p, j] for p in picks], config.recomb_y)
            sj = blend([s[p, j] for p in picks], config.recomb_s)
            sj *= math.exp(tau * g + tau * rng.standard_normal())
            sj = min(max(sj, config.sigma_min), config.sigma_max)
            out_s[i, j] = sj
            out_y[i, j] = fold_into(yj + sj * rng.standard_normal(), box.lower[j], box.upper[j])
    return out_y, out_s
