"""(mu/rho +, lambda) evolution strategies with self-adaptive step sizes.

The lambda children of a generation are i.i.d. draws of one child, so on
a box the whole generation is drawn at once, as (lambda, d) arrays: rho
parent indices per child (uniform, with replacement), discrete or
intermediate recombination of the parents' object and strategy rows, a
log-normal step-size update with one global and d coordinate draws per
child clamped into [sigma_min, sigma_max], Gaussian mutation with the
fresh step sizes reflected into the box, and one objective call for all
lambda children.  A stable argsort keeps the best mu: plus replacement
pools parents before children, so ties favor parents; comma replacement
keeps children only (lambda >= mu required).  Fitness lives in the
population and in the batch rows, never in an individual, so the
children's one objective call is the generation's only scoring.

On finite spaces the strategy machinery collapses (rho = 1): a child is
the proposal after uniform selection, ``compose(proposal,
selection_kernel(uniform, mu))``, which keeps every state reachable.  The
generation is then built from the kernel algebra, ``compose(proj[first
mu] . sort(pool), join(parent projections [plus only] + lambda
children))``, and that one kernel both runs and is verified; the
plus-mode chain is exactly analyzable.  Only the proposal scores: each
child once, through the finite problem's memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import Algorithm, ContinuousBox, Population, Problem
from .errors import ConfigError, UsageError
from .kernels import FiniteSpace, Kernel, compose, join, projection, sort_kernel
from .mutation import proposal_kernel
from .selection import selection_kernel, uniform


@dataclass(frozen=True)
class ESIndividual:
    """Object parameters and per-coordinate step sizes; the fitness is
    carried by the population that holds the individual."""

    y: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if y.shape != s.shape or y.ndim != 1:
            raise UsageError("object and strategy vectors must share one shape")
        if np.any(s <= 0):
            raise UsageError("step sizes must be strictly positive")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)


@dataclass(frozen=True)
class ESBatch:
    """k individuals as rows: object parameters ``y`` and step sizes ``s``,
    both (k, d), and their ``fitness``, (k,)."""

    y: np.ndarray
    s: np.ndarray
    fitness: np.ndarray

    @classmethod
    def of(cls, pop: Population) -> "ESBatch":
        """The rows of a population of ``ESIndividual``s."""
        return cls(
            np.stack([m.y for m in pop.members]),
            np.stack([m.s for m in pop.members]),
            pop.fitness,
        )

    def __add__(self, other: "ESBatch") -> "ESBatch":
        return ESBatch(
            np.concatenate([self.y, other.y]),
            np.concatenate([self.s, other.s]),
            np.concatenate([self.fitness, other.fitness]),
        )

    def take(self, rows: np.ndarray) -> "ESBatch":
        return ESBatch(self.y[rows], self.s[rows], self.fitness[rows])

    def population(self) -> Population:
        """One ``ESIndividual`` per row, with the rows' fitness.  The rows
        come from the checked stages, so they skip the per-individual
        validation."""
        members = []
        for y, s in zip(self.y, self.s):
            member = object.__new__(ESIndividual)
            member.__dict__.update(y=y, s=s)
            members.append(member)
        return Population(tuple(members), self.fitness)


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
        if self.tau is not None and not 0 <= self.tau < math.inf:
            raise ConfigError("tau must be finite and nonnegative")
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
    and one per coordinate, clamped into [sigma_min, sigma_max]."""
    s = np.asarray(s, dtype=float)
    if not np.all(s > 0):
        raise UsageError("step sizes must be strictly positive")
    g = rng.standard_normal(s.shape[:-1] + (1,))
    local = rng.standard_normal(s.shape)
    return np.clip(s * np.exp(tau * g + tau * local), sigma_min, sigma_max)


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
    parents: ESBatch,
    config: ESConfig,
    rng: np.random.Generator,
    k: int,
) -> ESBatch:
    """k i.i.d. children of the parent rows: marriage (rho uniform parent
    indices per child, with replacement), recombination, strategy update,
    mutation, and one batched evaluation."""
    idx = rng.integers(0, len(parents.fitness), size=(k, config.rho))
    y, s = recombine(parents.y[idx], parents.s[idx], config.recomb_y, config.recomb_s, rng)
    s = update_strategies(s, config.tau_for(y.shape[1]), config.sigma_min, config.sigma_max, rng)
    y = mutate_y(problem, y, s, rng)
    return ESBatch(y, s, problem.evaluate_batch(y))


def replace_es(problem: Problem, parents: Any, children: Any, mode: str) -> Any:
    """Deterministic survivor selection over the fitness the rows carry.

    Plus: stable-sort parents + children best-first and keep the first mu
    (parents precede children, so ties favor parents).  Comma: the same
    over children only.  Parents and children are both ``ESBatch``es or
    both ``Population``s, and the survivors come back as the same type.
    """
    mu = len(parents.fitness)
    if mode not in ("plus", "comma"):
        raise ConfigError("mode must be 'plus' or 'comma'")
    if mode == "comma" and len(children.fitness) < mu:
        raise ConfigError("comma replacement requires lambda >= mu")
    pool = children if mode == "comma" else parents + children
    return pool.take(problem.relation.order(pool.fitness)[:mu])


def es_next_pop(problem: Problem, config: ESConfig) -> Kernel:
    """Per-generation kernel: lambda children, then survivor selection.

    On a finite space it is the composition of the plus/comma survivor
    selection with the join of the carried parents and lambda children,
    and carries the exact matrix.  On a box it draws the generation as
    one batch.  Sampling leaves the schedule alone.
    """
    if isinstance(problem.space, FiniteSpace):
        if config.rho != 1:
            raise ConfigError("finite-space strategies support rho = 1 only")
        mu = config.mu
        carried = [projection(mu, [i]) for i in range(mu)] if config.mode == "plus" else []
        child = compose(
            proposal_kernel(problem, config.mutation),
            selection_kernel(problem, uniform(), mu),
        )
        pool = len(carried) + config.lam
        survivors = compose(projection(pool, range(mu)), sort_kernel(problem, pool))
        return compose(survivors, join(carried + [child] * config.lam))

    def sample_fn(pop, state, rng):
        parents = ESBatch.of(pop)
        children = next_sub_pop(problem, parents, config, rng, config.lam)
        return replace_es(problem, parents, children, config.mode).population()

    return Kernel(config.mu, config.mu, sample_fn, name=f"es-next-pop-{config.mode}")


def init_es_population(
    problem: Problem, config: ESConfig, rng: np.random.Generator
) -> Population:
    """mu fresh individuals: uniform in the box with sigma_init step sizes,
    or uniform finite states."""
    space = problem.space
    if isinstance(space, ContinuousBox):
        y = rng.uniform(space.lower, space.upper, size=(config.mu, space.dim))
        s = np.full(y.shape, config.sigma_init)
        return ESBatch(y, s, problem.evaluate_batch(y)).population()
    members = tuple(space.sample_uniform(rng) for _ in range(config.mu))
    return Population.evaluated(members, problem)


def mean_sigma(pop: Population) -> float:
    """Mean step size over every coordinate of every member."""
    return float(np.mean([m.s for m in pop.members]))


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
