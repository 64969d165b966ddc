"""Simulated annealing as a variation + replacement kernel with cooling.

The run-time algorithm follows the classic Metropolis loop: a proposal
kernel draws and scores a candidate, and a 2 -> 1 Metropolis kernel keeps
candidate or incumbent, reading the fitness they carry, at temperature
``T = schedule.temperature(t)``, a closed form of the step index t, so
a step makes one objective call, for the candidate.  The non-elitist
loop is ``compose(metropolis, join([proposal, identity(1)]))`` on both
spaces; on a finite space that same kernel is verified.  In elitist mode
the population carries the best point found so far next to the
Metropolis walker, so the reported closeness never worsens; its verified
chain is the arity-1 greedy chain ``compose(proj[0] . sort2,
join([proposal, identity(1)]))``, which keeps the better of candidate and
incumbent and whose eps-neighborhoods are absorbing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import STEP_SCALE_MAX, Algorithm, Population, Problem
from .errors import ConfigError
from .kernels import FiniteSpace, Kernel, compose, identity, join, projection, sort_kernel
from .mutation import proposal_kernel


@dataclass(frozen=True)
class Cooling:
    """Temperature schedule: ``temperature(t)`` is the temperature at step t,
    non-increasing in t and within [0, T0].

    Kinds: ``geometric`` (T0 * gamma^t), ``linear`` (T0 - t*step, floored
    at a floor <= T0), ``logarithmic`` (c / ln(t + 2)).
    """

    kind: str
    t0: float
    gamma: float = 0.95
    step: float = 0.0
    floor: float = 0.0
    c: float = 0.0

    def __post_init__(self) -> None:
        if not self.t0 > 0:
            raise ConfigError("initial temperature must be positive")
        if self.kind == "geometric":
            if not 0.0 < self.gamma < 1.0:
                raise ConfigError("geometric cooling needs gamma in (0, 1)")
        elif self.kind == "linear":
            if not self.step > 0:
                raise ConfigError("linear cooling needs step > 0")
            if not 0 <= self.floor <= self.t0:
                raise ConfigError("linear cooling floor must lie in [0, T0]")
        elif self.kind == "logarithmic":
            if not self.c > 0:
                raise ConfigError("logarithmic cooling needs c > 0")
        else:
            raise ConfigError(f"unknown cooling kind {self.kind!r}")

    def temperature(self, t: int) -> float:
        if self.kind == "geometric":
            return self.t0 * self.gamma**t
        if self.kind == "linear":
            return max(self.t0 - t * self.step, self.floor)
        return self.c / math.log(t + 2.0)


def geometric(t0: float, gamma: float = 0.95) -> Cooling:
    return Cooling("geometric", t0, gamma=gamma)


def linear(t0: float, step: float, floor: float = 0.0) -> Cooling:
    return Cooling("linear", t0, step=step, floor=floor)


def logarithmic(c: float) -> Cooling:
    return Cooling("logarithmic", c / math.log(2.0), c=c)


def fixed(t0: float) -> Cooling:
    """Constant temperature (a linear schedule floored at T0)."""
    return Cooling("linear", t0, step=1.0, floor=t0)


@dataclass(frozen=True)
class SAConfig:
    """Neighborhood, cooling, and elitism switches.

    ``sigma`` scales the isotropic Gaussian step on boxes, at most
    ``STEP_SCALE_MAX`` on both spaces.  ``mutation`` selects the
    finite-space proposal: None for uniform over the space, a probability
    vector, the one row every point shares, or a square matrix that gives
    each point its row (all mass strictly positive).
    """

    schedule: Cooling
    sigma: float = 0.1
    mutation: Any = None
    elitist: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.sigma <= STEP_SCALE_MAX:
            raise ConfigError(f"neighborhood sigma must lie in (0, {STEP_SCALE_MAX:g}]")


def gaussian_move(problem: Problem, sigma: float):
    """The box proposal on one point: ``move(x, rng) -> (y, f_y)``, an
    isotropic Gaussian step of scale ``sigma`` reflected into the box, and
    the fitness it scored."""
    space = problem.space

    def move(x, rng):
        x = np.asarray(x, dtype=float)
        y = space.reflect(x + sigma * rng.standard_normal(space.dim))
        return y, problem.evaluate(y)

    return move


def sa_proposal(problem: Problem, config: SAConfig) -> Kernel:
    """The 1 -> 1 proposal: the finite-space proposal kernel, or on a box
    the ``gaussian_move`` of its one member (no matrix).  Both score the
    candidate they draw."""
    if isinstance(problem.space, FiniteSpace):
        return proposal_kernel(problem, config.mutation)
    move = gaussian_move(problem, config.sigma)

    def step(pop, state, rng):
        y, f_y = move(pop.members[0], rng)
        return Population((y,), (f_y,))

    return Kernel(1, 1, step, name="gaussian-step")


def metropolis_accept(
    problem: Problem,
    f_candidate: float,
    f_incumbent: float,
    temperature: float,
    rng: np.random.Generator,
) -> bool:
    """Metropolis rule: improvements always pass; a worsening of size
    |df| passes with probability exp(-|df|/T).  T <= 0 is the greedy
    limit (strict improvements only); equal fitness is accepted with
    probability one when T > 0.  The difference is a Python float, so a
    subnormal T overflows the quotient to -inf silently, numpy scalar
    arguments included."""
    if problem.relation.better(f_candidate, f_incumbent):
        return True
    if f_candidate == f_incumbent:
        return temperature > 0.0
    if temperature <= 0.0:
        return False
    return rng.random() < math.exp(-abs(float(f_candidate - f_incumbent)) / temperature)


def acceptance_probability(
    problem: Problem, f_candidate, f_incumbent, temperature: float
) -> np.ndarray:
    """Exact acceptance probability of ``metropolis_accept``, elementwise
    over arrays of candidate and incumbent fitness values."""
    f_cand = np.asarray(f_candidate, dtype=float)
    f_inc = np.asarray(f_incumbent, dtype=float)
    if temperature <= 0.0:
        return np.where(problem.relation.better(f_cand, f_inc), 1.0, 0.0)
    # math.exp as in metropolis_accept: np.exp differs from it in the last
    # bit on some inputs.  It runs once per distinct fitness difference.  A
    # subnormal temperature overflows the quotient to -inf, whose exp is 0,
    # as in metropolis_accept.
    with np.errstate(over="ignore"):
        x, inverse = np.unique(-np.abs(f_cand - f_inc) / temperature, return_inverse=True)
    worse = np.array([math.exp(v) for v in x])[inverse].reshape(f_cand.shape)
    return np.where(problem.relation.better_eq(f_cand, f_inc), 1.0, worse)


def replace_sa(
    problem: Problem,
    f_candidate: float,
    f_incumbent: float,
    temperature: float,
    rng: np.random.Generator,
) -> int:
    """Metropolis replacement of an incumbent by a candidate, given the
    fitness each carries: the index of the survivor in (candidate,
    incumbent), 0 when the candidate is accepted, else 1.  It scores
    nothing and draws as ``metropolis_accept`` draws."""
    return 0 if metropolis_accept(problem, f_candidate, f_incumbent, temperature, rng) else 1


def metropolis_kernel(problem: Problem, config: SAConfig) -> Kernel:
    """2 -> 1 replacement: (candidate, incumbent) -> the Metropolis survivor
    at the schedule's step-t temperature."""
    temperature = config.schedule.temperature

    def sample_fn(pop, state, rng):
        f_cand, f_inc = pop.fitness.tolist()
        return pop.take([replace_sa(problem, f_cand, f_inc, temperature(state.t), rng)])

    def matrix_fn(space, state, idx):
        pairs = space.digits(idx, 2)
        f = space.fitness(problem)[pairs]
        accept = acceptance_probability(problem, f[:, 0], f[:, 1], temperature(state.t))
        return pairs, np.stack([accept, 1.0 - accept], axis=1)

    return Kernel(2, 1, sample_fn, matrix_fn, name="metropolis")


def sa_next_pop(problem: Problem, config: SAConfig) -> Kernel:
    """The per-generation kernel run by the annealing loop.

    Non-elitist: a single Metropolis walker (arity 1), ``compose(metropolis,
    join([proposal, identity(1)]))`` on a finite space and on a box alike.
    Elitist: the walker plus the best-so-far point (arity 2), so closeness
    is read from the best member; the candidate replaces the best-so-far
    point when its carried fitness is strictly better.  Sampling reads ``T =
    temperature(state.t)``.
    """
    proposal = sa_proposal(problem, config)
    if not config.elitist:
        return compose(metropolis_kernel(problem, config), join([proposal, identity(1)]))
    temperature = config.schedule.temperature
    # on a box the walker moves point to point, with no one-member population
    move = None if isinstance(problem.space, FiniteSpace) else gaussian_move(problem, config.sigma)

    def sample_fn(pop, state, rng):
        (current, best_pt), (f_current, f_best) = pop.members, pop.fitness.tolist()
        if move is not None:
            x, f_x = move(current, rng)
        else:
            candidate = proposal.sample_fn(Population((current,), (f_current,)), state, rng)
            (x,), (f_x,) = candidate.members, candidate.fitness.tolist()
        if replace_sa(problem, f_x, f_current, temperature(state.t), rng) == 0:
            current, f_current = x, f_x
        if problem.relation.better(f_x, f_best):
            best_pt, f_best = x, f_x
        return Population((current, best_pt), (f_current, f_best))

    return Kernel(2, 2, sample_fn, name="sa-next-pop-elitist")


def make_sa(problem: Problem, config: SAConfig) -> Algorithm:
    """Assemble the annealing loop for ``run_algorithm``."""
    def init(rng: np.random.Generator) -> Population:
        x0 = problem.space.sample_uniform(rng)
        n = 2 if config.elitist else 1
        return Population((x0,) * n, (problem.evaluate(x0),) * n)

    chain = None
    if config.elitist:
        keep_better = compose(projection(2, [0]), sort_kernel(problem, 2))
        chain = compose(keep_better, join([sa_proposal(problem, config), identity(1)]))

    return Algorithm(
        name="sa-elitist" if config.elitist else "sa",
        problem=problem,
        init=init,
        next_pop=sa_next_pop(problem, config),
        param_fn=lambda pop, state: config.schedule.temperature(state.t),
        chain_kernel=chain,
    )
