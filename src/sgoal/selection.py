"""Selection schemes as Markov kernels.

Each scheme has an exact per-individual selection probability vector
(``exact_probs``) and one sampler that simulates the actual mechanism
(``select_many``), so the two can be cross-checked statistically.
``selection_kernel`` turns a scheme into an arity -> 1 kernel over a
population: its sampler runs the mechanism on the fitness the members
carry, and its exact rows put each member's selection probability on
that member's point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Population, Problem, Relation
from .errors import UsageError, check_cap
from .kernels import Kernel

DRAW_CAP = 10**7  # entries a batch of draws allocates: 1 per draw, m * m per tournament
MULTISET_CAP = 10**5  # entrant multisets an exact tournament enumerates in Python, one at a time


@dataclass(frozen=True)
class SelectionScheme:
    """One of: uniform, proportional, tournament(m), roulette, ranking.

    ``rate_fn`` maps a fitness value to a nonnegative selection rate and
    applies to roulette (default: the raw fitness, which requires
    maximization over nonnegative values) and proportional (default:
    ranking rates).  Tournament uses ranking rates inside the tournament.
    """

    kind: str
    m: int = 2
    rate_fn: Callable[[float], float] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "proportional", "tournament", "roulette", "ranking"):
            raise UsageError(f"unknown selection scheme {self.kind!r}")
        if self.kind == "tournament" and self.m < 1:
            raise UsageError("tournament size must be >= 1")
        if self.rate_fn is not None and self.kind not in ("roulette", "proportional"):
            raise UsageError(f"{self.kind} selection reads no rate_fn")


def uniform() -> SelectionScheme:
    return SelectionScheme("uniform")


def proportional(rate_fn: Callable[[float], float] | None = None) -> SelectionScheme:
    return SelectionScheme("proportional", rate_fn=rate_fn)


def tournament(m: int = 2) -> SelectionScheme:
    return SelectionScheme("tournament", m=m)


def roulette(rate_fn: Callable[[float], float] | None = None) -> SelectionScheme:
    return SelectionScheme("roulette", rate_fn=rate_fn)


def ranking() -> SelectionScheme:
    return SelectionScheme("ranking")


def _as_fitness(pop) -> np.ndarray:
    if isinstance(pop, Population):
        f = np.asarray(pop.fitness, dtype=float)
    else:
        f = np.asarray(pop, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise UsageError("fitness must be a nonempty vector")
    if np.any(np.isnan(f)):
        raise UsageError("fitness vector carries NaN")
    return f


def ranking_rates(fitness: np.ndarray, relation: Relation) -> np.ndarray:
    """Rate = 1 + number of strictly worse individuals.

    Equal fitness gets equal rates, better fitness strictly larger ones.
    One sort of the shortfalls counts the worse members, in O(lambda) memory.
    """
    f = _as_fitness(fitness)
    key = relation.gap(f, 0.0)
    worse = f.size - np.searchsorted(np.sort(key), key, side="right")
    return 1.0 + worse.astype(float)


def _roulette_rates(scheme: SelectionScheme, f: np.ndarray, relation: Relation) -> np.ndarray:
    if scheme.rate_fn is not None:
        rates = np.array([float(scheme.rate_fn(v)) for v in f])
    elif scheme.kind == "roulette":
        if relation is not Relation.MAXIMIZE:
            raise UsageError(
                "roulette with rate = fitness requires maximization; "
                "supply a rate_fn for minimization"
            )
        rates = f.astype(float).copy()
    else:  # proportional default
        rates = ranking_rates(f, relation)
    if not np.all(np.isfinite(rates)):
        raise UsageError("selection rates must be finite")
    if np.any(rates < 0):
        raise UsageError("selection rates must be nonnegative")
    with np.errstate(over="ignore"):  # finite rates may still sum to inf
        total = rates.sum()
    if not 0 < total < math.inf:
        raise UsageError("total selection rate must be positive and finite")
    return rates


def _tournament_probs(f: np.ndarray, relation: Relation, m: int) -> np.ndarray:
    """Closed-form tournament probabilities via fitness-class enumeration.

    A tournament draws m entrants i.i.d. uniformly (with replacement) and
    picks one of them with probability proportional to the within-tuple
    ranking rates.  Enumerating entrant counts per distinct fitness class
    (instead of all lambda^m ordered tuples) keeps this polynomial; the
    brute-force tuple enumeration serves as the independent test oracle.
    """
    lam = f.size
    values, members = np.unique(f, return_inverse=True)
    members = np.argsort(relation.order(values))[members]  # relabel: best class first
    g = values.size
    check_cap(math.comb(g + m - 1, m), MULTISET_CAP, "entrant multisets of an exact tournament")
    class_count = np.bincount(members, minlength=g).astype(float)
    log_share = (np.log(class_count) - math.log(lam)).tolist()
    class_mass = [0.0] * g
    counts = [(0, m)]  # an entrant multiset: its classes, best first, with counts k_j > 0
    while counts:
        # multinomial(m; k) * prod (n_j / lam)^k_j
        log_p = math.lgamma(m + 1) + sum(k * log_share[j] - math.lgamma(k + 1) for j, k in counts)
        # each entrant's rate is 1 + the number of entrants in worse classes
        worse, weights = m, []
        for j, k in counts:
            worse -= k
            weights.append((j, k * (1.0 + worse)))
        scale = math.exp(log_p) / sum(w for _, w in weights)
        for j, w in weights:
            class_mass[j] += scale * w
        # the next multiset in combinations_with_replacement order: one entrant of
        # the last class below g - 1 moves up a class, and class g - 1's join it
        tail = counts.pop()[1] if counts[-1][0] == g - 1 else 0
        if counts:
            j, k = counts.pop()
            counts += [(j, k - 1), (j + 1, tail + 1)] if k > 1 else [(j + 1, tail + 1)]
    return (np.array(class_mass) / class_count)[members]


def exact_probs(scheme: SelectionScheme, fitness, relation: Relation) -> np.ndarray:
    """Exact selection probability of each individual; sums to one."""
    f = _as_fitness(fitness)
    lam = f.size
    if scheme.kind == "uniform":
        return np.full(lam, 1.0 / lam)
    if scheme.kind in ("roulette", "proportional", "ranking"):
        if scheme.kind == "ranking":
            rates = ranking_rates(f, relation)
        else:
            rates = _roulette_rates(scheme, f, relation)
        return rates / rates.sum()
    return _tournament_probs(f, relation, scheme.m)


def select_many(
    scheme: SelectionScheme,
    pop,
    relation: Relation,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized batch of independent mechanism draws."""
    f = _as_fitness(pop)
    lam = f.size
    if size < 1:
        raise UsageError("sample size must be >= 1")
    m = scheme.m if scheme.kind == "tournament" else 1
    check_cap(size * m * m, DRAW_CAP, f"entries of {size:,} draws")
    if scheme.kind == "uniform":
        return rng.integers(0, lam, size=size)
    if scheme.kind in ("roulette", "proportional", "ranking"):
        probs = exact_probs(scheme, f, relation)
        return rng.choice(lam, size=size, p=probs)
    entrants = rng.integers(0, lam, size=(size, m))
    fv = f[entrants]
    worse = relation.better(fv[:, :, None], fv[:, None, :])
    rates = 1.0 + worse.sum(axis=2)
    cum = np.cumsum(rates, axis=1)
    picks = rng.random(size) * cum[:, -1]
    slot = (picks[:, None] >= cum).sum(axis=1)
    return entrants[np.arange(size), slot]


def selection_kernel(problem: Problem, scheme: SelectionScheme, arity: int) -> Kernel:
    """arity -> 1: the member of the input population that the scheme selects.

    The sampler runs the mechanism on the fitness the members carry and
    returns the selected member with its fitness.  A matrix row lists the
    tuple's points with their exact probabilities (a point that occurs
    twice adds up), once per fitness pattern; uniform reads no fitness.
    """

    def sample_fn(pop, state, rng):
        return pop.take(select_many(scheme, pop, problem.relation, 1, rng))

    def matrix_fn(space, state, idx):
        digits = space.digits(idx, arity)
        if scheme.kind == "uniform":
            return digits, np.full(digits.shape, 1.0 / arity)
        patterns, inverse = np.unique(
            space.fitness(problem)[digits], axis=0, return_inverse=True
        )
        probs = np.stack([exact_probs(scheme, f, problem.relation) for f in patterns])
        return digits, probs[inverse.ravel()]

    return Kernel(arity, 1, sample_fn, matrix_fn, name=f"select-{scheme.kind}")
