"""Shared fixtures and independent oracles for the test suite."""

from __future__ import annotations

import dataclasses
import enum
import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from sgoal.core import Problem, Relation, closeness
from sgoal.errors import UsageError
from sgoal.kernels import FiniteSpace, Kernel, Population, ScheduleState, dense_rows
from sgoal.sa import acceptance_probability, fixed, linear


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def line_problem(values, relation=Relation.MINIMIZE, f_star=None):
    """Finite problem over integer states 0..n-1 with listed fitness values."""
    values = [float(v) for v in values]
    space = FiniteSpace(tuple(range(len(values))))
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


def population(members, problem=None) -> Population:
    """``members`` with their fitness under ``problem``, read from its
    objective; without a problem (a kernel over a bare space) it is zero."""
    members = tuple(members)
    if problem is None:
        return Population(members, np.zeros(len(members)))
    return Population(members, [problem.objective(m) for m in members])


def concat(first: Population, second: Population) -> Population:
    """The members of ``first`` and then of ``second``, with their fitness."""
    return Population(
        first.members + second.members, np.concatenate([first.fitness, second.fitness])
    )


def tuple_index(space: FiniteSpace, members) -> int:
    """Index of the tuple state ``members`` in ``space``'s enumeration."""
    idx = 0
    for m in members:
        idx = idx * len(space) + space.points.index(m)
    return idx


def matrix_kernel(matrix: np.ndarray, space: FiniteSpace) -> Kernel:
    """Arity-1 kernel defined by an explicit row-stochastic matrix over a
    bare space; its points carry fitness zero."""
    matrix = np.asarray(matrix, dtype=float)

    def sample_fn(pop, state, rng):
        row = matrix[tuple_index(space, pop.members)]
        return population((space.points[int(rng.choice(len(space), p=row))],))

    def matrix_fn(sp, state, idx):
        return dense_rows(matrix[idx])

    return Kernel(1, 1, sample_fn, matrix_fn, name="matrix-kernel")


def counting_builds(kernel: Kernel) -> tuple[Kernel, list]:
    """A copy of ``kernel`` and a list that gains one entry, the space,
    whenever the copy builds its matrix (a ``matrix_fn`` call on the block
    that starts at input row 0)."""
    builds = []

    def matrix_fn(space, state, idx):
        if idx[0] == 0:
            builds.append(space)
        return kernel.matrix_fn(space, state, idx)

    return dataclasses.replace(kernel, matrix_fn=matrix_fn), builds


def schedule_at(temperature: float):
    """A cooling schedule and the step t at which it reads ``temperature``:
    ``fixed(T)`` at t = 0, or for the greedy limit T = 0 a linear schedule
    that reaches 0 at t = 1."""
    if temperature > 0:
        return fixed(temperature), 0
    return linear(1.0, step=1.0), 1


def backward_bound(matrices, eps_set, t_max: int) -> tuple[float, bool, list]:
    """Oracle: (delta, absorbing, min_mass per t) of steps 1 .. t_max, each
    mass by its own backward pass ``M_1 (M_2 (... (M_t 1_eps)))``."""
    mask = np.zeros(matrices[0].shape[0], dtype=bool)
    mask[sorted(eps_set)] = True
    steps = [matrices[0]] * t_max if len(matrices) == 1 else list(matrices[:t_max])
    into = [m[:, mask].sum(axis=1) for m in steps]
    delta = min(float(row[~mask].min()) for row in into)
    absorbing = all(np.all(np.abs(row[mask] - 1.0) <= 1e-12) for row in into)
    masses = []
    for t in range(1, t_max + 1):
        v = mask.astype(float)
        for m in reversed(steps[:t]):
            v = m @ v
        masses.append(float(v.min()))
    return delta, absorbing, masses


def random_stochastic(rng, n: int) -> np.ndarray:
    """Random dense row-stochastic matrix (Dirichlet rows)."""
    return rng.dirichlet(np.ones(n), size=n)


def transition_counts(kernel, space, start, n_samples, rng, state=None):
    """Sample one-step transitions from a fixed start population; counts
    per end state."""
    if state is None:
        state = ScheduleState()
    counts = np.zeros(space.n_tuples(kernel.arity_out), dtype=int)
    for _ in range(n_samples):
        out = kernel.sample(start, state, rng)
        counts[tuple_index(space, out.members)] += 1
    return counts


class _Branch(BaseException):
    """Raised at the first draw past a replayed prefix: the masses of the
    outcomes that draw can take.  A BaseException, so no sampler's
    ``except Exception`` swallows it."""

    def __init__(self, masses) -> None:
        super().__init__()
        self.masses = masses


class ScriptedRng:
    """A generator that replays a prefix of draw outcomes and branches at
    the first new draw (exhaustive enumeration, Ramsey & Pfeffer 2002).

    ``integers(low, high=None, size=None)`` takes numpy's arguments (one
    bound draws from [0, low)) and opens high - low branches of mass
    1 / (high - low) per element, one element after another when ``size``
    asks for an array; ``choice(n, p=p)`` opens n branches of masses p, and
    ``random()`` returns a uniform whose ``< x`` opens two branches, True
    of mass x and False of mass 1 - x.  Any other draw raises, rather than
    guess its law.  ``mass`` is the product of the masses of the outcomes
    replayed so far.
    """

    def __init__(self, prefix: tuple) -> None:
        self.prefix = prefix
        self.depth = 0
        self.mass = 1.0

    def _draw(self, masses):
        if self.depth == len(self.prefix):
            raise _Branch(masses)
        k = self.prefix[self.depth]
        self.depth += 1
        self.mass *= masses[k]
        return k

    def integers(self, low, high=None, size=None):
        low, high = (0, low) if high is None else (low, high)
        masses = [1.0 / (high - low)] * int(high - low)
        if size is None:
            return np.int64(low + self._draw(masses))
        draws = [low + self._draw(masses) for _ in range(int(np.prod(size)))]
        return np.array(draws, dtype=np.int64).reshape(size)

    def choice(self, n, p):
        return np.int64(self._draw(np.asarray(p, dtype=float).tolist()))

    def random(self):
        return _ScriptedUniform(self)

    def __getattr__(self, name):
        raise TypeError(f"a scripted generator cannot enumerate the draws of {name!r}")


class _ScriptedUniform:
    """``random()``'s value: only ``< x`` is defined, and it branches."""

    def __init__(self, rng: ScriptedRng) -> None:
        self.rng = rng

    def __lt__(self, x):
        x = float(x)
        assert 0.0 <= x <= 1.0, x
        return self.rng._draw([x, 1.0 - x]) == 0


def exact_law(draw) -> dict:
    """Oracle: the exact law of ``draw(rng)``, a hashable outcome, as
    ``{outcome: mass}``, by running ``draw`` once per branch of a
    ``ScriptedRng``, each run replaying its prefix from the start."""
    law: dict = {}
    pending = [()]
    while pending:
        prefix = pending.pop()
        rng = ScriptedRng(prefix)
        try:
            outcome = draw(rng)
        except _Branch as branch:
            pending.extend(prefix + (k,) for k in range(len(branch.masses)))
            continue
        law[outcome] = law.get(outcome, 0.0) + rng.mass
    return law


def sampler_law(kernel: Kernel, space: FiniteSpace, start: Population, t: int = 0) -> np.ndarray:
    """Oracle: the exact law of one ``kernel.sample`` step from ``start``
    at step t, as a vector over the output tuple states."""
    law = np.zeros(space.n_tuples(kernel.arity_out))
    outcomes = exact_law(
        lambda rng: tuple_index(space, kernel.sample(start, ScheduleState(t), rng).members)
    )
    for idx, mass in outcomes.items():
        law[idx] = mass
    return law


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
                accept = 1.0 if problem.relation.better_eq(f_c, f_x) else 0.0
            else:
                accept = float(acceptance_probability(problem, f_c, f_x, temperature))
            m[i, j] += rows[i, j] * accept
            m[i, i] += rows[i, j] * (1.0 - accept)
    return m


def brute_es_matrix(problem, mu: int, lam: int, mode: str, mutation=None) -> np.ndarray:
    """Oracle: enumerate every child tuple of every population, with
    fitness read from the objective.

    Each child is the proposal draw of a uniformly picked parent, so its
    distribution is the mean of the parents' proposal rows.  The survivors
    are the first mu of a stable best-first sort of parents + children
    (plus) or of the children only (comma).
    """
    space = problem.space
    n = len(space)
    rows = proposal_rows(n, mutation)
    m = np.zeros((n**mu, n**mu))
    for r, pop in enumerate(space.tuples(mu)):
        mix = np.mean([rows[tuple_index(space, (p,))] for p in pop], axis=0)
        for combo in itertools.product(range(n), repeat=lam):
            p = 1.0
            for c in combo:
                p *= mix[c]
            children = [space.points[c] for c in combo]
            pool = (list(pop) if mode == "plus" else []) + children
            maximize = problem.relation is Relation.MAXIMIZE
            survivors = sorted(pool, key=problem.evaluate, reverse=maximize)[:mu]
            m[r, tuple_index(space, survivors)] += p
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


class EpsClass(enum.Enum):
    """Position of a population relative to the closeness threshold."""

    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def classify_eps(pop: Population, problem: Problem, eps: float) -> EpsClass:
    """Oracle: classify a population as inside / on / outside the
    eps-neighborhood of the optimum, from its ``closeness``."""
    if not eps > 0:
        raise UsageError("eps must be positive")
    d = closeness(pop, problem)
    if d < eps:
        return EpsClass.INSIDE
    if d == eps:
        return EpsClass.BOUNDARY
    return EpsClass.OUTSIDE


def binomial_se(p: float, n: int) -> float:
    """Standard error of a frequency estimate from n Bernoulli trials."""
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def in_box(box, x) -> bool:
    """True iff every coordinate of ``x`` lies within ``box``'s bounds."""
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= box.lower) and np.all(x <= box.upper))


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
