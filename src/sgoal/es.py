"""(mu/rho +, lambda) evolution strategies with self-adaptive step sizes.

Each generation draws lambda children independently: pick rho parents
uniformly with replacement, recombine object and strategy parameters,
mutate the step sizes log-normally, then perturb the object parameters
with the fresh step sizes.  Plus replacement pools parents and children;
comma replacement keeps children only (lambda >= mu required).

On finite spaces the strategy machinery collapses (rho = 1): a child is
the proposal after uniform selection, ``compose(proposal,
selection_kernel(uniform, mu))``, which keeps every state reachable.  The
generation is then built from the kernel algebra, ``compose(proj[first
mu] . sort(pool), join(parent projections [plus only] + lambda
children))``, and that one kernel both runs and is verified; the
plus-mode chain is exactly analyzable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .core import Algorithm, ContinuousBox, FiniteSet, Population, Problem
from .errors import ConfigError, UsageError
from .kernels import Kernel, ScheduleState, compose, join, projection, sort_kernel
from .mutation import proposal_kernel
from .selection import selection_kernel, uniform


@dataclass(frozen=True)
class ESIndividual:
    """Object parameters, per-coordinate step sizes, cached fitness."""

    y: np.ndarray
    s: np.ndarray
    f: float

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if y.shape != s.shape or y.ndim != 1:
            raise UsageError("object and strategy vectors must share one shape")
        if np.any(s <= 0):
            raise UsageError("step sizes must be strictly positive")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "f", float(self.f))


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
        if self.tau is not None and self.tau < 0:
            raise ConfigError("tau must be nonnegative")
        if not (0 < self.sigma_min <= self.sigma_max):
            raise ConfigError("need 0 < sigma_min <= sigma_max")
        for label, value in (("recomb_y", self.recomb_y), ("recomb_s", self.recomb_s)):
            if value not in ("discrete", "intermediate"):
                raise ConfigError(f"{label} must be 'discrete' or 'intermediate'")

    def tau_for(self, dim: int) -> float:
        return self.tau if self.tau is not None else 1.0 / math.sqrt(2.0 * dim)


def _recombine_vectors(vectors: np.ndarray, mode: str, rng: np.random.Generator) -> np.ndarray:
    if vectors.shape[0] == 1:
        return vectors[0].copy()
    if mode == "intermediate":
        return vectors.mean(axis=0)
    picks = rng.integers(0, vectors.shape[0], size=vectors.shape[1])
    return vectors[picks, np.arange(vectors.shape[1])]


def recombine(
    parents: Sequence[ESIndividual],
    recomb_y: str,
    recomb_s: str,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Blend rho parents into one (y, s) pair; rho = 1 is the identity."""
    parents = tuple(parents)
    if not parents:
        raise UsageError("recombination needs at least one parent")
    ys = np.stack([p.y for p in parents])
    ss = np.stack([p.s for p in parents])
    return (
        _recombine_vectors(ys, recomb_y, rng),
        _recombine_vectors(ss, recomb_s, rng),
    )


def update_strategies(
    s: np.ndarray,
    tau: float,
    sigma_min: float,
    sigma_max: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Log-normal self-adaptation with one global and d coordinate draws,
    clamped into [sigma_min, sigma_max]."""
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0):
        raise UsageError("step sizes must be strictly positive")
    g = rng.standard_normal()
    locals_ = rng.standard_normal(s.size)
    return np.clip(s * np.exp(tau * g + tau * locals_), sigma_min, sigma_max)


def mutate_y(
    problem: Problem, y: np.ndarray, s_new: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian object mutation with the fresh step sizes, reflected into the box."""
    if not isinstance(problem.space, ContinuousBox):
        raise UsageError("object-parameter mutation applies to box spaces")
    y = np.asarray(y, dtype=float)
    return problem.space.reflect(y + np.asarray(s_new) * rng.standard_normal(y.size))


def next_sub_pop(
    problem: Problem,
    members: Sequence[ESIndividual],
    config: ESConfig,
    state: ScheduleState,
    rng: np.random.Generator,
) -> ESIndividual:
    """One child: marriage (rho uniform draws with replacement),
    recombination, strategy update, mutation, evaluation."""
    parents = [members[int(i)] for i in rng.integers(0, len(members), size=config.rho)]
    y, s = recombine(parents, config.recomb_y, config.recomb_s, rng)
    tau = config.tau_for(y.size)
    s_new = update_strategies(s, tau, config.sigma_min, config.sigma_max, rng)
    y_new = mutate_y(problem, y, s_new, rng)
    return ESIndividual(y_new, s_new, problem.evaluate(y_new))


def variate_es(
    problem: Problem,
    members: Sequence[ESIndividual],
    config: ESConfig,
    state: ScheduleState,
    rng: np.random.Generator,
) -> tuple:
    """lambda independent children from the same parent population."""
    return tuple(
        next_sub_pop(problem, members, config, state, rng) for _ in range(config.lam)
    )


def _fitness_of(problem: Problem, member: Any) -> float:
    if isinstance(member, ESIndividual):
        return member.f
    return problem.evaluate(member)


def replace_es(
    problem: Problem,
    parents: Sequence[Any],
    children: Sequence[Any],
    mode: str,
) -> tuple:
    """Deterministic survivor selection.

    Plus: stable-sort parents + children best-first and keep the first mu
    (parents precede children, so ties favor parents).  Comma: the same
    over children only.
    """
    parents = tuple(parents)
    children = tuple(children)
    mu = len(parents)
    if mode == "plus":
        pool = parents + children
    elif mode == "comma":
        if len(children) < mu:
            raise ConfigError("comma replacement requires lambda >= mu")
        pool = children
    else:
        raise ConfigError("mode must be 'plus' or 'comma'")
    if problem.relation.value == "minimize":
        ordered = sorted(pool, key=lambda m: _fitness_of(problem, m))
    else:
        ordered = sorted(pool, key=lambda m: -_fitness_of(problem, m))
    return tuple(ordered[:mu])


def es_next_pop(problem: Problem, config: ESConfig) -> Kernel:
    """Per-generation kernel: variate then replace.

    On a finite space it is the composition of the plus/comma survivor
    selection with the join of the carried parents and lambda children,
    and carries the exact matrix.  Sampling leaves the schedule alone.
    """
    if isinstance(problem.space, FiniteSet):
        if config.rho != 1:
            raise ConfigError("finite-space strategies support rho = 1 only")
        mu = config.mu
        carried = [projection(mu, [i]) for i in range(mu)] if config.mode == "plus" else []
        child = compose(
            proposal_kernel(problem.space.points, config.mutation),
            selection_kernel(problem, uniform(), mu),
        )
        pool = len(carried) + config.lam
        survivors = compose(projection(pool, range(mu)), sort_kernel(problem, pool))
        return compose(survivors, join(carried + [child] * config.lam))

    def sample_fn(members, state, rng):
        children = variate_es(problem, members, config, state, rng)
        return replace_es(problem, members, children, config.mode)

    return Kernel(config.mu, config.mu, sample_fn, name=f"es-next-pop-{config.mode}")


def init_es_population(
    problem: Problem, config: ESConfig, rng: np.random.Generator
) -> Population:
    """mu fresh individuals: uniform in the box with sigma_init step sizes,
    or uniform finite states."""
    space = problem.space
    if isinstance(space, ContinuousBox):
        members = []
        sigma0 = min(max(config.sigma_init, config.sigma_min), config.sigma_max)
        for _ in range(config.mu):
            y = space.sample_uniform(rng)
            ind = ESIndividual(y, np.full(space.dim, sigma0), problem.evaluate(y))
            members.append(ind)
        return Population(tuple(members), np.array([m.f for m in members]))
    members = tuple(space.sample_uniform(rng) for _ in range(config.mu))
    return Population.evaluated(members, problem)


def mean_sigma(pop: Population) -> float:
    """Average step size across a population of individuals (NaN if none)."""
    sigmas = [float(np.mean(m.s)) for m in pop.members if isinstance(m, ESIndividual)]
    return float(np.mean(sigmas)) if sigmas else math.nan


def make_es(problem: Problem, config: ESConfig) -> Algorithm:
    """Assemble the evolution strategy for ``run_algorithm``."""
    finite = isinstance(problem.space, FiniteSet)
    return Algorithm(
        name=f"es-{config.mode}",
        problem=problem,
        pop_size=config.mu,
        init=lambda rng: init_es_population(problem, config, rng),
        next_pop=es_next_pop(problem, config),
        schedule_factory=ScheduleState,
        fitness_of=None if finite else (lambda m: m.f),
        param_fn=None if finite else (lambda pop, state: mean_sigma(pop)),
    )
