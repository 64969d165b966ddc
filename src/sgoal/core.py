"""Problems, populations, closeness, and the generic iterate-a-population loop.

A stochastic optimizer here is a loop that repeatedly feeds a population
through a next-population kernel until a stopping predicate fires.  The
loop itself is deterministic given a seed; all randomness flows through
an explicitly passed ``numpy.random.Generator``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, UsageError
from .kernels import Kernel, ScheduleState


class Relation(enum.Enum):
    """Direction of the optimization order: which of two values is better."""

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: float, b: float) -> bool:
        """True iff ``a`` is strictly better than ``b``."""
        return a < b if self is Relation.MINIMIZE else a > b

    def better_eq(self, a: float, b: float) -> bool:
        """True iff ``a`` is at least as good as ``b``."""
        return a <= b if self is Relation.MINIMIZE else a >= b

    @classmethod
    def parse(cls, text: str) -> "Relation":
        key = text.strip().lower()
        if key in ("min", "minimize", "minimise"):
            return cls.MINIMIZE
        if key in ("max", "maximize", "maximise"):
            return cls.MAXIMIZE
        raise UsageError(f"unknown relation {text!r} (expected min or max)")


@dataclass(frozen=True)
class ContinuousBox:
    """Axis-aligned box in R^dim with strictly ordered bounds."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or hi.shape != lo.shape or lo.size == 0:
            raise UsageError("box bounds must be 1-d vectors of equal positive length")
        if not np.all(lo < hi):
            raise UsageError("box requires lower[i] < upper[i] for every coordinate")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    def contains(self, x: np.ndarray) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower) and np.all(x <= self.upper))

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)

    def reflect(self, x: np.ndarray) -> np.ndarray:
        """Fold a point into the box by reflecting at the walls.

        Each coordinate is mapped by the triangle wave of period
        ``2 * (upper - lower)``, so arbitrarily large excursions land
        back inside the box.
        """
        x = np.asarray(x, dtype=float)
        span = self.upper - self.lower
        m = np.mod(x - self.lower, 2.0 * span)
        return self.lower + span - np.abs(m - span)


@dataclass(frozen=True)
class FiniteSet:
    """Explicitly enumerated finite search space of hashable points."""

    points: tuple

    def __post_init__(self) -> None:
        pts = tuple(self.points)
        if len(pts) == 0:
            raise UsageError("finite space needs at least one point")
        try:
            seen = set(pts)
        except TypeError as exc:
            raise UsageError("finite-space points must be hashable") from exc
        if len(seen) != len(pts):
            raise UsageError("finite-space points must be distinct")
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return len(self.points)

    def sample_uniform(self, rng: np.random.Generator):
        return self.points[int(rng.integers(len(self.points)))]


Space = ContinuousBox | FiniteSet


def _point_key(x: Any):
    """Hashable cache key for a point (arrays keyed by their bytes)."""
    if isinstance(x, np.ndarray):
        return (x.shape, x.tobytes())
    return x


class Problem:
    """Search space plus objective plus optimization direction.

    ``evaluate`` memoizes per point and counts, so every distinct point
    costs exactly one objective call and evaluation budgets are comparable
    across algorithms; ``evaluate_batch`` counts a box batch from one
    objective call without the memo.  When the true optimum ``f_star`` is
    declared, any evaluation that beats it raises: that always means a
    mis-declared optimum.

    The memo and counters are per-run mutable state: concurrent
    replicates must each work on their own ``copy()``.
    """

    def __init__(
        self,
        space: Space,
        objective: Callable[[Any], float],
        relation: Relation = Relation.MINIMIZE,
        f_star: float | None = None,
    ) -> None:
        if not isinstance(space, (ContinuousBox, FiniteSet)):
            raise UsageError("space must be a ContinuousBox or a FiniteSet")
        self.space = space
        self.objective = objective
        self.relation = relation
        self.f_star = None if f_star is None else float(f_star)
        self._cache: dict = {}
        self.evals: int = 0
        self.best_seen_point: Any = None
        self.best_seen_fitness: float = math.nan

    def evaluate(self, x: Any) -> float:
        key = _point_key(x)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        value = float(self.objective(x))
        self._check(x, value)
        self._cache[key] = value
        self.evals += 1
        if self.best_seen_point is None or self.relation.better(value, self.best_seen_fitness):
            self.best_seen_point = x
            self.best_seen_fitness = value
        return value

    def _check(self, x: Any, value: float) -> None:
        if math.isnan(value):
            raise UsageError(f"objective returned NaN at {x!r}")
        if self.f_star is not None and self.relation.better(value, self.f_star):
            raise UsageError(
                f"objective value {value} beats declared optimum {self.f_star}; "
                "f_star is mis-declared"
            )

    def values(self, points: Sequence[Any]) -> np.ndarray:
        """Objective values of ``points``, checked as ``evaluate`` checks them.

        Neither the memo nor the counters change: a table over a whole
        enumerated space would otherwise keep one memo entry per point.
        """
        values = np.fromiter(map(self.objective, points), dtype=float, count=len(points))
        self._check_all(points, values)
        return values

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Objective values of the k rows of a (k, d) box batch, from one
        objective call that must return k values.

        Checked as ``evaluate`` checks, counted, and followed by
        ``best_seen_*``; the memo is left alone, because every row of a
        continuous batch is a new point.
        """
        values = np.asarray(self.objective(points), dtype=float)
        if values.shape != (len(points),):
            raise UsageError(
                f"objective returned shape {values.shape} for a batch of "
                f"{len(points)} points; box objectives map (k, d) rows to (k,) values"
            )
        self._check_all(points, values)
        self.evals += len(values)
        i = int(np.argmin(values) if self.relation is Relation.MINIMIZE else np.argmax(values))
        if self.best_seen_point is None or self.relation.better(values[i], self.best_seen_fitness):
            self.best_seen_point = points[i]
            self.best_seen_fitness = float(values[i])
        return values

    def _check_all(self, points: Sequence[Any], values: np.ndarray) -> None:
        bad = np.isnan(values)
        if self.f_star is not None:
            bad |= self.relation.better(values, self.f_star)
        if bad.any():
            i = int(np.argmax(bad))
            self._check(points[i], float(values[i]))

    def better(self, a: float, b: float) -> bool:
        return self.relation.better(a, b)

    def better_eq(self, a: float, b: float) -> bool:
        return self.relation.better_eq(a, b)

    def copy(self) -> "Problem":
        """Fresh problem sharing space and objective but with zeroed counters."""
        return Problem(self.space, self.objective, self.relation, self.f_star)


@dataclass(frozen=True)
class Population:
    """Fixed-length ordered tuple of points with their cached fitness."""

    members: tuple
    fitness: np.ndarray

    def __post_init__(self) -> None:
        members = tuple(self.members)
        fitness = np.asarray(self.fitness, dtype=float)
        if len(members) == 0:
            raise UsageError("population must be nonempty")
        if fitness.shape != (len(members),):
            raise UsageError("fitness vector length must match member count")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "fitness", fitness)

    @property
    def n(self) -> int:
        return len(self.members)

    @classmethod
    def evaluated(cls, members: Iterable[Any], problem: Problem) -> "Population":
        members = tuple(members)
        return cls(members, np.array([problem.evaluate(m) for m in members]))


class EpsClass(enum.Enum):
    """Position of a population relative to the closeness threshold."""

    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def best(pop: Population, relation: Relation) -> int:
    """Index of the fittest member; ties go to the earliest occurrence."""
    if pop.n == 0:
        raise UsageError("best of an empty population is undefined")
    if relation is Relation.MINIMIZE:
        return int(np.argmin(pop.fitness))
    return int(np.argmax(pop.fitness))


def closeness(pop: Population, problem: Problem) -> float:
    """Distance of the population's best fitness from the known optimum.

    Nonnegative under both optimization directions.
    """
    if problem.f_star is None:
        raise UsageError("closeness requires a problem with a known optimum")
    best_f = float(pop.fitness[best(pop, problem.relation)])
    if problem.relation is Relation.MINIMIZE:
        d = best_f - problem.f_star
    else:
        d = problem.f_star - best_f
    return d + 0.0


def classify_eps(pop: Population, problem: Problem, eps: float) -> EpsClass:
    """Classify a population as inside / on / outside the eps-neighborhood.

    Comparison is exact; with floating-point objectives the boundary case
    is a measure-zero event and essentially never occurs.
    """
    if not eps > 0:
        raise UsageError("eps must be positive")
    d = closeness(pop, problem)
    if d < eps:
        return EpsClass.INSIDE
    if d == eps:
        return EpsClass.BOUNDARY
    return EpsClass.OUTSIDE


# ---------------------------------------------------------------------------
# Stopping predicates.  Each returns a predicate (population, t) -> bool.


def max_iters(limit: int) -> Callable[[Population, int], bool]:
    if limit < 0:
        raise UsageError("iteration limit must be nonnegative")
    return lambda pop, t: t >= limit


def max_evals(problem: Problem, limit: int) -> Callable[[Population, int], bool]:
    if limit <= 0:
        raise UsageError("evaluation limit must be positive")
    return lambda pop, t: problem.evals >= limit


def target_closeness(problem: Problem, eps: float) -> Callable[[Population, int], bool]:
    if not eps > 0:
        raise UsageError("eps must be positive")
    return lambda pop, t: closeness(pop, problem) < eps


def any_of(*predicates: Callable[[Population, int], bool]) -> Callable[[Population, int], bool]:
    """OR-combination of stopping predicates."""
    return lambda pop, t: any(p(pop, t) for p in predicates)


# ---------------------------------------------------------------------------
# The iteration loop and its trace.


@dataclass
class ConvergenceTrace:
    """Per-iteration record of a single run.

    ``d[t]`` is the population closeness at step t (NaN when the optimum
    is unknown), ``f_best[t]`` the best objective value seen so far over
    every evaluated point, ``evals[t]`` the cumulative evaluation count,
    and ``param[t]`` the active schedule parameter (temperature or mean
    step size; NaN when the algorithm has none).
    """

    t: np.ndarray
    d: np.ndarray
    f_best: np.ndarray
    evals: np.ndarray
    param: np.ndarray

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass
class SGoalResult:
    best_point: Any
    best_fitness: float
    best_seen_point: Any
    best_seen_fitness: float
    trace: ConvergenceTrace
    final_population: Population
    iterations: int


def run_sgoal(
    problem: Problem,
    init: Callable[[np.random.Generator], Population],
    next_pop: Kernel,
    end: Callable[[Population, int], bool],
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    fitness_of: Callable[[Any], float] | None = None,
    param_fn: Callable[[Population, ScheduleState], float] | None = None,
) -> SGoalResult:
    """Run the generic population-iteration loop.

    Applies ``next_pop`` to the population until ``end(pop, t)`` is true,
    advancing a fresh ``ScheduleState`` once after every step, so the step
    kernel reads its time index as ``state.t``, and records the trace
    at t = 0 and after every step.  Identical seeds and configuration
    produce bit-identical traces.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    schedule = ScheduleState()
    if fitness_of is None:
        fitness_of = problem.evaluate

    pop = init(rng)
    if not isinstance(pop, Population):
        raise UsageError("init must return a Population")
    if next_pop.arity_in != pop.n or next_pop.arity_out != pop.n:
        raise ConfigError(
            f"next-pop kernel arity {next_pop.arity_in}->{next_pop.arity_out} "
            f"does not match population size {pop.n}"
        )

    ts: list[int] = []
    ds: list[float] = []
    fbest: list[float] = []
    evals: list[int] = []
    params: list[float] = []

    def record(t: int) -> None:
        ts.append(t)
        ds.append(closeness(pop, problem) if problem.f_star is not None else math.nan)
        fbest.append(problem.best_seen_fitness)
        evals.append(problem.evals)
        params.append(param_fn(pop, schedule) if param_fn is not None else math.nan)

    t = 0
    record(t)
    while not end(pop, t):
        members = next_pop.sample(pop.members, schedule, rng)
        schedule.tick()
        pop = Population(tuple(members), np.array([fitness_of(m) for m in members]))
        t += 1
        record(t)

    trace = ConvergenceTrace(
        t=np.array(ts, dtype=int),
        d=np.array(ds, dtype=float),
        f_best=np.array(fbest, dtype=float),
        evals=np.array(evals, dtype=int),
        param=np.array(params, dtype=float),
    )
    i = best(pop, problem.relation)
    return SGoalResult(
        best_point=pop.members[i],
        best_fitness=float(pop.fitness[i]),
        best_seen_point=problem.best_seen_point,
        best_seen_fitness=problem.best_seen_fitness,
        trace=trace,
        final_population=pop,
        iterations=t,
    )


@dataclass
class Algorithm:
    """A ready-to-run optimizer: problem, initializer and step kernel.

    ``next_pop`` reads the time index from the run's ``ScheduleState``;
    ``param_fn`` reports the step's schedule parameter for the trace.

    ``chain_kernel`` is the one-step kernel used for exact finite-space
    verification.  It is ``next_pop`` itself unless given: only the
    elitist annealer passes its own, because its run carries a best-so-far
    point that its arity-1 greedy chain leaves out.  A kernel without a
    matrix (a continuous space) cannot be verified.
    """

    name: str
    problem: Problem
    init: Callable[[np.random.Generator], Population]
    next_pop: Kernel
    fitness_of: Callable[[Any], float] | None = None
    param_fn: Callable[[Population, ScheduleState], float] | None = None
    chain_kernel: Kernel | None = None

    def __post_init__(self) -> None:
        if self.chain_kernel is None:
            self.chain_kernel = self.next_pop


def run_algorithm(
    algo: Algorithm,
    end: Callable[[Population, int], bool],
    seed: int | None = None,
    rng: np.random.Generator | None = None,
) -> SGoalResult:
    """Run an assembled algorithm from step 0."""
    return run_sgoal(
        algo.problem,
        algo.init,
        algo.next_pop,
        end,
        seed=seed,
        rng=rng,
        fitness_of=algo.fitness_of,
        param_fn=algo.param_fn,
    )
