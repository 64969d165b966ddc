"""Executable convergence checks for optimizer chains.

Two premises make a chain provably convergent: the near-optimal set
traps whatever enters it, and every step reaches it from anywhere else
with probability at least delta > 0.  Under those premises the t-step
mass on the set is at least 1 - (1 - delta)^t.  On finite spaces this
module checks the premises and the bound exactly from the transition
matrices; on continuous problems it estimates the exceedance sequence
Pr{D_t > eps} from replicated run traces.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Algorithm, Problem, Relation
from .errors import ConfigError, NotLumpable, UsageError
from .kernels import ClassSpace, FiniteSpace, ScheduleState, check_row_stochastic
from .kernels import iterated_products  # noqa: F401  (perfbench traces it here)

EXACT_TOL = 1e-12
STATE_CAP = 4096


@dataclass(frozen=True)
class FiniteChain:
    """Enumerated population states, the near-optimal subset, and the
    per-step transition matrices (a single matrix means stationary).
    ``lumped`` marks states that are tuples of fitness classes."""

    states: tuple
    eps_set: frozenset
    matrices: tuple
    lumped: bool = False

    def __post_init__(self) -> None:
        states = tuple(self.states)
        eps_set = frozenset(int(i) for i in self.eps_set)
        matrices = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        if not states:
            raise UsageError("chain needs at least one state")
        if not eps_set or len(eps_set) >= len(states):
            raise UsageError("eps set must be nonempty and proper")
        if min(eps_set) < 0 or max(eps_set) >= len(states):
            raise UsageError("eps set indices out of range")
        if not matrices:
            raise UsageError("chain needs at least one transition matrix")
        for m in matrices:
            if m.shape != (len(states), len(states)):
                raise UsageError("matrices must be square over the chain states")
            check_row_stochastic(m)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "eps_set", eps_set)
        object.__setattr__(self, "matrices", matrices)

    @property
    def size(self) -> int:
        return len(self.states)

    def eps_mask(self) -> np.ndarray:
        mask = np.zeros(self.size, dtype=bool)
        mask[sorted(self.eps_set)] = True
        return mask


def check_premises(chain: FiniteChain, tol: float = EXACT_TOL) -> tuple[float, bool]:
    """(delta, absorbing) for the chain.

    ``absorbing`` is true iff every step keeps all mass of every
    near-optimal state inside the set; ``delta`` is the worst one-step
    mass on the set from any outside state (nonpositive delta means the
    reachability premise fails).
    """
    mask = chain.eps_mask()
    absorbing = True
    delta = math.inf
    for m in chain.matrices:
        into = m[:, mask].sum(axis=1)
        if np.any(np.abs(into[mask] - 1.0) > tol):
            absorbing = False
        outside = into[~mask]
        if outside.size:
            delta = min(delta, float(outside.min()))
    if not math.isfinite(delta):
        delta = 0.0
    return delta, absorbing


@dataclass(frozen=True)
class BoundRow:
    t: int
    min_mass: float
    bound: float
    margin: float


@dataclass(frozen=True)
class BoundReport:
    delta: float
    premise_absorbing: bool
    premise_reach: bool
    per_t: tuple
    states: int
    lumped: bool

    @property
    def premises_hold(self) -> bool:
        return self.premise_absorbing and self.premise_reach

    def verified(self, tol: float = EXACT_TOL) -> bool:
        return self.premises_hold and all(row.margin >= -tol for row in self.per_t)

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "premise_absorbing": self.premise_absorbing,
            "premise_reach": self.premise_reach,
            "states": self.states,
            "lumped": self.lumped,
            "per_t": [
                {
                    "t": row.t,
                    "min_mass": row.min_mass,
                    "bound": row.bound,
                    "margin": row.margin,
                }
                for row in self.per_t
            ],
        }


def check_bound(
    chain: FiniteChain,
    t_max: int,
    tol: float = EXACT_TOL,
    delta: float | None = None,
) -> BoundReport:
    """Exact t-step masses on the near-optimal set against 1-(1-delta)^t.

    The kernels act in time order: the t-step mass from state i is entry
    i of ``M_1 M_2 ... M_t 1_eps``, computed by matrix-vector products
    only.  A stationary chain takes one product per step
    (``v_t = M v_{t-1}``); a non-stationary one takes one backward pass
    ``M_1 (M_2 (... (M_t 1_eps)))`` per t.  ``delta`` defaults to the
    tightest value the matrices support; a supplied override must itself
    satisfy the reachability premise (0 < delta <= extracted minimum).
    When the premises fail, the report still carries the computed masses
    so the failure is inspectable, but nothing is asserted.
    """
    if t_max < 1:
        raise UsageError("t_max must be >= 1")
    extracted, absorbing = check_premises(chain, tol=tol)
    if delta is None:
        delta = extracted
    elif not 0.0 < delta <= extracted + tol:
        raise UsageError(
            f"supplied delta {delta} is not supported by the matrices "
            f"(extracted minimum {extracted})"
        )
    ms = chain.matrices
    if 1 < len(ms) < t_max:
        raise UsageError(f"non-stationary sequence has {len(ms)} kernels but t_max={t_max}")
    eps = chain.eps_mask().astype(float)
    v = eps
    per_t = []
    for t in range(1, t_max + 1):
        if len(ms) == 1:
            v = ms[0] @ v
        else:
            v = eps
            for m in reversed(ms[:t]):
                v = m @ v
        min_mass = float(v.min())
        bound = 1.0 - (1.0 - delta) ** t
        per_t.append(BoundRow(t=t, min_mass=min_mass, bound=bound, margin=min_mass - bound))
    return BoundReport(
        delta=delta,
        premise_absorbing=absorbing,
        premise_reach=delta > 0.0,
        per_t=tuple(per_t),
        states=chain.size,
        lumped=chain.lumped,
    )


def extract_chain(
    algo: Algorithm,
    eps: float,
    t_max: int = 1,
    cap: int = STATE_CAP,
    lump: bool = False,
) -> FiniteChain:
    """Enumerate an algorithm's exact population chain on a finite space.

    Builds the chain kernel's transition matrix at each step t = 0 ..
    t_max - 1 (a non-stationary kernel reads ``state.t`` and yields
    distinct matrices), and marks the near-optimal states as
    ``classify_eps`` classifies them.

    With ``lump=True`` the states are tuples of fitness classes (a
    ``ClassSpace``) when the chain lumps onto them, and the full tuples
    otherwise.  Every kernel must then read only positions and
    ``space.fitness``, or lump its own rows as the proposal kernel does;
    the proposal's lumping certificate decides between the two chains.
    ``cap`` bounds the number of states actually built.
    """
    kernel = algo.chain_kernel
    if not kernel.has_matrix:
        raise ConfigError(
            f"{algo.name} has no exact chain kernel (continuous space or "
            "unsupported configuration)"
        )
    if kernel.arity_in != kernel.arity_out:
        raise ConfigError("chain kernel must preserve population arity")
    problem = algo.problem
    space = FiniteSpace.from_problem(problem)
    n_states = space.n_tuples(kernel.arity_in)
    why = ""
    if lump:
        classes = ClassSpace(space, problem)
        n_classes = classes.n_tuples(kernel.arity_in)
        if n_classes > cap:
            raise UsageError(
                f"{n_states} population states lump onto {n_classes} fitness-class "
                f"states, which exceed the verification cap {cap}; use a smaller instance"
            )
        try:
            return _enumerate_chain(algo, classes, eps, t_max)
        except NotLumpable as exc:
            why = f" (the chain does not lump onto fitness classes: {exc})"
    if n_states > cap:
        raise UsageError(
            f"{n_states} population states exceed the verification cap {cap}{why}; "
            "use a smaller instance"
        )
    return _enumerate_chain(algo, space, eps, t_max)


def _enumerate_chain(algo: Algorithm, space: FiniteSpace, eps: float, t_max: int) -> FiniteChain:
    kernel = algo.chain_kernel
    inside = eps_inside(space, algo.problem, eps, kernel.arity_in)
    n_inside = int(inside.sum())
    if n_inside in (0, inside.size):
        raise UsageError(
            f"eps={eps} marks {n_inside} of {inside.size} states as "
            "near-optimal; the premise check needs a nonempty proper subset"
        )
    schedule = ScheduleState()
    matrices = []
    for _ in range(max(1, t_max)):
        matrices.append(kernel.exact_matrix(space, schedule))
        schedule.tick()
    if all(np.array_equal(matrices[0], m) for m in matrices[1:]):
        matrices = matrices[:1]  # stationary: one matrix serves every step
    return FiniteChain(
        states=space.tuples(kernel.arity_in),
        eps_set=frozenset(np.flatnonzero(inside).tolist()),
        matrices=tuple(matrices),
        lumped=isinstance(space, ClassSpace),
    )


def eps_inside(space: FiniteSpace, problem: Problem, eps: float, arity: int) -> np.ndarray:
    """Which tuple states of ``space`` ``classify_eps`` puts INSIDE.

    Read from the fitness table, not from populations: a tuple's
    closeness is its best member's, and closeness is monotone in fitness
    (rounding included), so a tuple is inside iff one of its members is.
    """
    if not eps > 0:
        raise UsageError("eps must be positive")
    if problem.f_star is None:
        raise UsageError("closeness requires a problem with a known optimum")
    f = space.fitness(problem)
    d = f - problem.f_star if problem.relation is Relation.MINIMIZE else problem.f_star - f
    idx = np.arange(space.n_tuples(arity))
    return (d < eps)[space.digits(idx, arity)].any(axis=1)


def chain_from_files(matrix_paths: Sequence, eps_set) -> FiniteChain:
    """Assemble a chain from plain-text matrix files (states are indices)."""
    from .kernels import load_matrix

    matrices = [load_matrix(p) for p in matrix_paths]
    if not matrices:
        raise UsageError("need at least one matrix file")
    size = matrices[0].shape[0]
    return FiniteChain(
        states=tuple(range(size)),
        eps_set=frozenset(int(i) for i in eps_set),
        matrices=tuple(matrices),
    )


@dataclass(frozen=True)
class ConvergenceEstimate:
    """Empirical exceedance probabilities and their partial sums."""

    eps: float
    p: np.ndarray
    partial_sums: np.ndarray
    plateaued: bool
    tail_increase: float
    threshold: float


def estimate_convergence(
    traces: Sequence,
    eps: float,
    plateau_threshold: float = 0.01,
) -> ConvergenceEstimate:
    """Estimate Pr{D_t > eps} per step from replicate traces.

    The partial sums proxy the convergence series: the run is flagged
    as plateaued when the last quarter adds less than the threshold.
    Needs at least 30 traces of a common length.
    """
    if eps <= 0:
        raise UsageError("eps must be positive")
    ds = []
    for trace in traces:
        d = np.asarray(getattr(trace, "d", trace), dtype=float)
        if d.ndim != 1:
            raise UsageError("each trace must be a 1-d closeness sequence")
        ds.append(d)
    if len(ds) < 30:
        raise UsageError("need at least 30 traces for a meaningful estimate")
    length = ds[0].size
    if any(d.size != length for d in ds):
        raise UsageError("traces must share a common length")
    stacked = np.stack(ds)
    if np.any(np.isnan(stacked)):
        raise UsageError("traces carry NaN closeness; is the optimum known?")
    p = (stacked > eps).mean(axis=0)
    sums = np.cumsum(p)
    tail_start = (3 * length) // 4
    tail_increase = float(sums[-1] - sums[tail_start]) if length > 1 else 0.0
    return ConvergenceEstimate(
        eps=eps,
        p=p,
        partial_sums=sums,
        plateaued=tail_increase < plateau_threshold,
        tail_increase=tail_increase,
        threshold=plateau_threshold,
    )


def write_bound_json(report: BoundReport, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_bound_csv(report: BoundReport, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "min_mass", "bound", "margin"])
        for row in report.per_t:
            writer.writerow(
                [row.t, f"{row.min_mass:.17g}", f"{row.bound:.17g}", f"{row.margin:.17g}"]
            )
