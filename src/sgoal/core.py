"""Problems, populations, closeness, and the generic iterate-a-population loop.

A stochastic optimizer here is a loop that repeatedly feeds a population
through a next-population kernel until a stopping predicate fires.  A run
is a function of the algorithm and its seed: all randomness flows through
one seeded ``numpy.random.Generator``, and the run owns its state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import ConfigError, UsageError
from .kernels import FiniteSpace, Kernel, Population, ScheduleState


class Relation(enum.Enum):
    """Direction of the optimization order: which of two values is better.

    The one place that knows the direction: every sort, best, rank and
    closeness in the package reads it through these methods.
    """

    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    def better(self, a: float, b: float) -> bool:
        """True iff ``a`` is strictly better than ``b``."""
        return a < b if self is Relation.MINIMIZE else a > b

    def better_eq(self, a: float, b: float) -> bool:
        """True iff ``a`` is at least as good as ``b``."""
        return a <= b if self is Relation.MINIMIZE else a >= b

    def order(self, values: np.ndarray, axis: int = -1) -> np.ndarray:
        """Indices that sort ``values`` best first along ``axis``; ties keep
        their input order."""
        values = np.asarray(values)
        key = values if self is Relation.MINIMIZE else -values
        return np.argsort(key, axis=axis, kind="stable")

    def argbest(self, values: np.ndarray, axis: int | None = None):
        """Index of the best value; ties go to the earliest occurrence.

        With ``axis``, the index array of the best value along that axis.
        """
        values = np.asarray(values)
        i = values.argmin(axis) if self is Relation.MINIMIZE else values.argmax(axis)
        return int(i) if axis is None else i

    def running_best(self, values: np.ndarray) -> np.ndarray:
        """The best of ``values[:t + 1]`` at every t."""
        return (np.minimum if self is Relation.MINIMIZE else np.maximum).accumulate(values)

    def gap(self, f, f_star):
        """How far ``f`` falls short of the optimum ``f_star``: nonnegative
        unless ``f`` beats it, and never ``-0.0``.  Elementwise on arrays."""
        return (f - f_star if self is Relation.MINIMIZE else f_star - f) + 0.0

    @classmethod
    def parse(cls, text: str) -> "Relation":
        key = text.strip().lower()
        if key in ("min", "minimize", "minimise"):
            return cls.MINIMIZE
        if key in ("max", "maximize", "maximise"):
            return cls.MAXIMIZE
        raise UsageError(f"unknown relation {text!r} (expected min or max)")


# The largest Gaussian step scale (``sa.sigma``, ``es.sigma_max``): numpy's Gaussian
# draws stay below 14 in magnitude, so a step from a box point stays finite.
STEP_SCALE_MAX = 1e300


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
        # reflect's constants, evaluated once: the same expressions, the same bits
        span = hi - lo
        object.__setattr__(self, "_span", span)
        object.__setattr__(self, "_period", 2.0 * span)
        object.__setattr__(self, "_top", lo + span)

    @property
    def dim(self) -> int:
        return int(self.lower.size)

    def sample_uniform(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lower, self.upper)

    def reflect(self, x: np.ndarray) -> np.ndarray:
        """Fold a point into the box by reflecting at the walls.

        Each coordinate is mapped by the triangle wave of period
        ``2 * (upper - lower)``, so arbitrarily large excursions land
        back inside the box.
        """
        m = np.mod(np.asarray(x, dtype=float) - self.lower, self._period)
        return self._top - np.abs(m - self._span)


Space = ContinuousBox | FiniteSpace


class Problem:
    """Search space plus objective plus optimization direction.

    The space is a ``ContinuousBox`` or a ``FiniteSpace``; a finite space
    is also the enumeration that exact kernel matrices and the verifier
    index their states by.

    ``evaluate`` scores and counts one new point.  On a finite space it
    memoizes per point, a memo bounded by the space, so every distinct
    point costs exactly one objective call and ``evals`` counts distinct
    points; a box point is scored on every call, because kernels score
    only the points they make and carry fitness with their members.
    ``evaluate_batch`` counts a box batch from one objective call.  When
    the true optimum ``f_star`` is declared, any evaluation that beats it
    raises: that always means a mis-declared optimum.

    The memo and the count belong to the run: ``run_sgoal`` empties and
    zeroes them, so only concurrent runs need a problem each.
    """

    def __init__(
        self,
        space: Space,
        objective: Callable[[Any], float],
        relation: Relation = Relation.MINIMIZE,
        f_star: float | None = None,
    ) -> None:
        if not isinstance(space, (ContinuousBox, FiniteSpace)):
            raise UsageError("space must be a ContinuousBox or a FiniteSpace")
        self.space = space
        self.objective = objective
        self.relation = relation
        self.f_star = None if f_star is None else float(f_star)
        self._cache: dict = {}
        self.evals: int = 0

    def evaluate(self, x: Any) -> float:
        finite = isinstance(self.space, FiniteSpace)
        if finite and x in self._cache:
            return self._cache[x]
        value = float(self.objective(x))
        self._check(x, value)
        if finite:
            self._cache[x] = value
        self.evals += 1
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

        Checked and counted as ``evaluate`` checks and counts.
        """
        values = np.asarray(self.objective(points), dtype=float)
        if values.shape != (len(points),):
            raise UsageError(
                f"objective returned shape {values.shape} for a batch of "
                f"{len(points)} points; box objectives map (k, d) rows to (k,) values"
            )
        self._check_all(points, values)
        self.evals += len(values)
        return values

    def _check_all(self, points: Sequence[Any], values: np.ndarray) -> None:
        bad = np.isnan(values)
        if self.f_star is not None:
            bad |= self.relation.better(values, self.f_star)
        if bad.any():
            i = int(np.argmax(bad))
            self._check(points[i], float(values[i]))


def best(pop: Population, relation: Relation) -> int:
    """Index of the fittest member; ties go to the earliest occurrence."""
    return relation.argbest(pop.fitness)


def closeness(pop: Population, problem: Problem) -> float:
    """Distance of the population's best fitness from the known optimum.

    Nonnegative under both optimization directions.
    """
    if problem.f_star is None:
        raise UsageError("closeness requires a problem with a known optimum")
    best_f = float(pop.fitness[best(pop, problem.relation)])
    return problem.relation.gap(best_f, problem.f_star)


# ---------------------------------------------------------------------------
# Stopping predicate: (population, t) -> bool.


def max_iters(limit: int) -> Callable[[Population, int], bool]:
    if limit < 0:
        raise UsageError("iteration limit must be nonnegative")
    return lambda pop, t: t >= limit


# ---------------------------------------------------------------------------
# The iteration loop and its trace.

TRACE_ROWS_INIT = 1024  # fitness rows the run loop allocates before it first doubles


@dataclass
class ConvergenceTrace:
    """Per-iteration record of a single run.

    ``d[t]`` is the population closeness at step t (NaN when the optimum
    is unknown) and ``f_best[t]`` the best fitness any population of steps
    0..t has held, both from every step's recorded fitness; ``evals[t]`` is
    the run's cumulative evaluation count and ``param[t]`` the active
    schedule parameter (temperature or mean step size; NaN when none).
    """

    t: np.ndarray
    d: np.ndarray
    f_best: np.ndarray
    evals: np.ndarray
    param: np.ndarray

    def __len__(self) -> int:
        return int(self.t.size)


def exceedance(d, eps: float) -> np.ndarray:
    """The exceedance sequence ``Pr{D_t > eps}`` per step t, estimated from
    replicate closeness rows: ``d`` is ``(replicates, steps)``, one run's
    ``ConvergenceTrace.d`` per row.

    A run at ``D_t == eps`` does not exceed, while the verifier's
    near-optimal set is ``D < eps``: such a run counts in neither (on
    onemax, a gap equal to an integer eps).
    """
    d = np.asarray(d, dtype=float)
    if d.ndim != 2:
        raise UsageError("closeness must be a (replicates, steps) array")
    if not eps > 0:
        raise UsageError("eps must be positive")
    if np.isnan(d).any():
        raise UsageError("closeness rows carry NaN; is the optimum known?")
    return (d > eps).mean(axis=0)


@dataclass
class SGoalResult:
    best_point: Any
    best_fitness: float
    trace: ConvergenceTrace
    final_population: Population
    iterations: int


def run_sgoal(
    problem: Problem,
    init: Callable[[np.random.Generator], Population],
    next_pop: Kernel,
    end: Callable[[Population, int], bool],
    seed: int | None = None,
    param_fn: Callable[[Population, ScheduleState], float] | None = None,
) -> SGoalResult:
    """Run the generic population-iteration loop.

    Applies ``next_pop`` to the population until ``end(pop, t)`` is true
    and records the trace at t = 0 and after every step.  The loop's one
    counter t is the step: step t samples with ``ScheduleState(t)``, which
    ``param_fn`` reads for trace row t.  The kernel returns each population
    with its fitness, so the loop scores nothing itself.  A step records
    its population's fitness row; once the loop ends, ``d`` is computed
    from those rows as ``closeness`` computes it, and ``f_best`` is the
    running best of each row's best.  The run starts from a zero count and
    an empty memo, so identical seeds give bit-identical traces.
    """
    rng = np.random.default_rng(seed)
    problem.evals = 0
    problem._cache.clear()

    pop = init(rng)
    if not isinstance(pop, Population):
        raise UsageError("init must return a Population")
    if next_pop.arity_in != pop.n or next_pop.arity_out != pop.n:
        raise ConfigError(
            f"next-pop kernel arity {next_pop.arity_in}->{next_pop.arity_out} "
            f"does not match population size {pop.n}"
        )

    # one fitness row per recorded step, in a buffer that doubles when full
    fitness = np.empty((TRACE_ROWS_INIT, pop.n))
    rows = 0
    evals: list[int] = []
    params: list[float] = []

    def record(state: ScheduleState) -> None:
        nonlocal fitness, rows
        if rows == len(fitness):
            fitness = np.concatenate((fitness, np.empty_like(fitness)))
        fitness[rows] = pop.fitness
        rows += 1
        evals.append(problem.evals)
        params.append(param_fn(pop, state) if param_fn is not None else math.nan)

    t = 0
    record(state := ScheduleState(t))
    while not end(pop, t):
        pop = next_pop.sample(pop, state, rng)
        t += 1
        record(state := ScheduleState(t))

    fitness = fitness[:rows]
    best_f = fitness[np.arange(rows), problem.relation.argbest(fitness, axis=1)]
    f_star = math.nan if problem.f_star is None else problem.f_star  # NaN gaps
    trace = ConvergenceTrace(
        t=np.arange(rows),
        d=problem.relation.gap(best_f, f_star),
        f_best=problem.relation.running_best(best_f),
        evals=np.array(evals, dtype=int),
        param=np.array(params, dtype=float),
    )
    i = best(pop, problem.relation)
    return SGoalResult(
        best_point=pop.members[i],
        best_fitness=float(pop.fitness[i]),
        trace=trace,
        final_population=pop,
        iterations=t,
    )


@dataclass
class Algorithm:
    """A ready-to-run optimizer: problem, initializer and step kernel.

    ``init`` scores the first population and ``next_pop`` carries fitness
    with its members from then on; it reads the step it acts at from its
    ``ScheduleState``.  ``param_fn`` reports the step's schedule parameter
    for the trace.

    ``chain_kernel`` is the one-step kernel used for exact finite-space
    verification, ``next_pop`` itself unless given.  Only the elitist
    annealer passes its own: a greedy chain composed from the proposal its
    run draws from, on fitness classes the exact law of the run's best-so-far
    when the proposal ignores the walker (uniform, or a ``mutation=`` vector),
    but with a per-point matrix that of a search proposing from its best.  A
    kernel without a matrix (a continuous space) cannot be verified.
    """

    name: str
    problem: Problem
    init: Callable[[np.random.Generator], Population]
    next_pop: Kernel
    param_fn: Callable[[Population, ScheduleState], float] | None = None
    chain_kernel: Kernel | None = None

    def __post_init__(self) -> None:
        if self.chain_kernel is None:
            self.chain_kernel = self.next_pop


def run_algorithm(
    algo: Algorithm,
    end: Callable[[Population, int], bool],
    seed: int | None = None,
) -> SGoalResult:
    """Run an assembled algorithm from step 0."""
    return run_sgoal(
        algo.problem, algo.init, algo.next_pop, end, seed=seed, param_fn=algo.param_fn
    )
