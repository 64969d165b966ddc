"""(mu/rho +, lambda) evolution strategies with self-adaptive step sizes.

One generation is one kernel on both spaces,

    compose(proj[first mu] . sort(pool), pool),

where ``pool = join([identity(mu), children])`` in plus mode and
``pool = children`` in comma mode, and ``children`` is the mu -> lambda
kernel of ``child_kernel``.  The stable sort keeps the best mu: plus
pools parents before children, so ties favor parents; comma keeps
children only (lambda >= mu required).

Only the children differ per space.  On a box a member is a (2, d) array
``[y; s]``: row 0 the object parameters, row 1 the step sizes.  The lambda
i.i.d. children are drawn at once: rho parent indices per child (uniform,
with replacement), discrete or intermediate recombination of the parents'
rows, a log-normal step-size update with one global and d coordinate
draws per child clamped into [sigma_min, sigma_max], Gaussian mutation
with the fresh step sizes reflected into the box, and one objective call
for all lambda children, the generation's only scoring.

On a finite space the strategy machinery collapses (rho = 1): a child is
the proposal after uniform selection, ``compose(proposal,
selection_kernel(uniform, mu))``, which keeps every state reachable, and
lambda of them are joined.  The generation kernel then carries the exact
matrix, so the kernel that runs is the one that is verified.  Only the
proposal scores: each child once, through the finite problem's memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import Algorithm, ContinuousBox, Population, Problem
from .errors import ConfigError, UsageError
from .kernels import FiniteSpace, Kernel, compose, identity, join, projection, sort_kernel
from .mutation import proposal_kernel
from .selection import selection_kernel, uniform


# The largest accepted ``tau``.  ``tau * g + tau * local`` stays finite for
# any two draws below 8e7 in magnitude, and numpy's Gaussian draws stay
# below 14.  An ``exp`` that overflows to inf clips to ``sigma_max``.
TAU_MAX = 1e300


@dataclass(frozen=True)
class ESConfig:
    mu: int
    rho: int
    lam: int
    mode: str = "plus"
    tau: float | None = None
    sigma_init: float = 1.0
    sigma_min: float = 1e-8
    sigma_max: float = 1e3
    recomb_y: str = "discrete"
    recomb_s: str = "intermediate"
    mutation: Any = None

    def __post_init__(self) -> None:
        if self.mu < 1 or self.rho < 1 or self.lam < 1:
            raise ConfigError("mu, rho, lambda must be positive")
        if self.rho > self.mu:
            raise ConfigError("rho cannot exceed mu")
        if self.mode not in ("plus", "comma"):
            raise ConfigError("mode must be 'plus' or 'comma'")
        if self.mode == "comma" and self.lam < self.mu:
            raise ConfigError("comma replacement requires lambda >= mu")
        if self.tau is not None and not 0 <= self.tau <= TAU_MAX:
            raise ConfigError(f"tau must lie in [0, {TAU_MAX:g}]")
        if not (0 < self.sigma_min <= self.sigma_max):
            raise ConfigError("need 0 < sigma_min <= sigma_max")
        if not self.sigma_min <= self.sigma_init <= self.sigma_max:
            raise ConfigError("sigma_init must lie in [sigma_min, sigma_max]")
        for label, value in (("recomb_y", self.recomb_y), ("recomb_s", self.recomb_s)):
            if value not in ("discrete", "intermediate"):
                raise ConfigError(f"{label} must be 'discrete' or 'intermediate'")

    def tau_for(self, dim: int) -> float:
        return self.tau if self.tau is not None else 1.0 / math.sqrt(2.0 * dim)


def recombine(
    ys: np.ndarray,
    ss: np.ndarray,
    recomb_y: str,
    recomb_s: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend each child's rho parents, given as (k, rho, d) object and
    strategy rows, into (k, d) rows; rho = 1 is the identity."""
    return _recombine_rows(ys, recomb_y, rng), _recombine_rows(ss, recomb_s, rng)


def _recombine_rows(rows: np.ndarray, mode: str, rng: np.random.Generator) -> np.ndarray:
    k, rho, d = rows.shape
    if rho == 1:
        return rows[:, 0]
    if mode == "intermediate":
        return rows.mean(axis=1)
    picks = rng.integers(0, rho, size=(k, 1, d))  # a parent per child and coordinate
    return np.take_along_axis(rows, picks, axis=1)[:, 0]


def update_strategies(
    s: np.ndarray,
    tau: float,
    sigma_min: float,
    sigma_max: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Log-normal self-adaptation of step-size rows: one global draw per row
    and one per coordinate, clamped into [sigma_min, sigma_max].  A factor
    that overflows to inf clamps to sigma_max."""
    s = np.asarray(s, dtype=float)
    if not np.all(s > 0):
        raise UsageError("step sizes must be strictly positive")
    g = rng.standard_normal(s.shape[:-1] + (1,))
    local = rng.standard_normal(s.shape)
    with np.errstate(over="ignore"):
        factor = np.exp(tau * g + tau * local)
    return np.clip(s * factor, sigma_min, sigma_max)


def mutate_y(
    problem: Problem, y: np.ndarray, s_new: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian object mutation of each row with its fresh step sizes,
    reflected into the box."""
    if not isinstance(problem.space, ContinuousBox):
        raise UsageError("object-parameter mutation applies to box spaces")
    y = np.asarray(y, dtype=float)
    return problem.space.reflect(y + s_new * rng.standard_normal(y.shape))


def next_sub_pop(
    problem: Problem,
    parents: Population,
    config: ESConfig,
    rng: np.random.Generator,
    k: int,
) -> Population:
    """k i.i.d. box children of the ``[y; s]`` parents: marriage (rho
    uniform parent indices per child, with replacement), recombination,
    strategy update, mutation, and one batched evaluation."""
    rows = np.stack(parents.members)
    idx = rng.integers(0, parents.n, size=(k, config.rho))
    y, s = recombine(rows[:, 0][idx], rows[:, 1][idx], config.recomb_y, config.recomb_s, rng)
    s = update_strategies(s, config.tau_for(y.shape[1]), config.sigma_min, config.sigma_max, rng)
    y = mutate_y(problem, y, s, rng)
    return Population(np.stack([y, s], axis=1), problem.evaluate_batch(y))


def child_kernel(problem: Problem, config: ESConfig) -> Kernel:
    """The mu -> lambda kernel of a generation's i.i.d. children.

    On a finite space it joins lambda copies of the proposal after uniform
    selection of a parent, and carries the exact matrix; on a box it draws
    all lambda children as one ``next_sub_pop`` batch.
    """
    mu, lam = config.mu, config.lam
    if isinstance(problem.space, FiniteSpace):
        if config.rho != 1:
            raise ConfigError("finite-space strategies support rho = 1 only")
        child = compose(
            proposal_kernel(problem, config.mutation),
            selection_kernel(problem, uniform(), mu),
        )
        return join([child] * lam)
    return Kernel(
        mu,
        lam,
        lambda pop, state, rng: next_sub_pop(problem, pop, config, rng, lam),
        name="es-children",
    )


def replace_es(problem: Problem, pool_size: int, mu: int) -> Kernel:
    """Survivor selection over a pool of ``pool_size`` members: a stable
    best-first sort, then the first mu, ``proj[first mu] . sort(pool)``."""
    return compose(projection(pool_size, range(mu)), sort_kernel(problem, pool_size))


def es_next_pop(problem: Problem, config: ESConfig) -> Kernel:
    """Per-generation kernel: lambda children, then survivor selection over
    the parents followed by the children (plus) or the children only
    (comma)."""
    children = child_kernel(problem, config)
    pool = join([identity(config.mu), children]) if config.mode == "plus" else children
    return compose(replace_es(problem, pool.arity_out, config.mu), pool)


def init_es_population(
    problem: Problem, config: ESConfig, rng: np.random.Generator
) -> Population:
    """mu fresh members: uniform in the box with sigma_init step sizes,
    or uniform finite states."""
    space = problem.space
    if isinstance(space, ContinuousBox):
        y = rng.uniform(space.lower, space.upper, size=(config.mu, space.dim))
        s = np.full(y.shape, config.sigma_init)
        return Population(np.stack([y, s], axis=1), problem.evaluate_batch(y))
    members = tuple(space.sample_uniform(rng) for _ in range(config.mu))
    return Population.evaluated(members, problem)


def mean_sigma(pop: Population) -> float:
    """Mean step size over every coordinate of every box member."""
    return float(np.mean([m[1] for m in pop.members]))


def make_es(problem: Problem, config: ESConfig) -> Algorithm:
    """Assemble the evolution strategy for ``run_algorithm``."""
    finite = isinstance(problem.space, FiniteSpace)
    return Algorithm(
        name=f"es-{config.mode}",
        problem=problem,
        init=lambda rng: init_es_population(problem, config, rng),
        next_pop=es_next_pop(problem, config),
        param_fn=None if finite else (lambda pop, state: mean_sigma(pop)),
    )
