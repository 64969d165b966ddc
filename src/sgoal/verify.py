"""Executable convergence checks for optimizer chains.

Two premises make a chain provably convergent: the near-optimal set
traps whatever enters it, and every step reaches it from anywhere else
with probability at least delta > 0.  Under those premises the t-step
mass on the set is at least 1 - (1 - delta)^t.  On finite spaces this
module checks the premises and the bound exactly from the transition
matrices.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Algorithm, Problem
from .errors import ConfigError, NotLumpable, UsageError
from .kernels import ClassSpace, FiniteSpace, ScheduleState, check_row_stochastic
from .kernels import iterated_products  # noqa: F401  (perfbench traces it here)

EXACT_TOL = 1e-12
STATE_CAP = 4096
T_MAX_CAP = 1000  # a chain that reads t costs O(t_max^2) matrix-vector products
MATRIX_BYTES_CAP = 1 << 30  # dense bytes a chain whose matrices change with t may hold


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


def check_premises(chain: FiniteChain) -> tuple[float, bool]:
    """(delta, absorbing) for the chain.

    ``absorbing`` is true iff every step keeps all mass of every
    near-optimal state inside the set, to ``EXACT_TOL``; ``delta`` is the
    worst one-step mass on the set from any outside state (nonpositive
    delta means the reachability premise fails).
    """
    mask = chain.eps_mask()
    absorbing = True
    delta = math.inf
    for m in chain.matrices:
        into = m[:, mask].sum(axis=1)
        if np.any(np.abs(into[mask] - 1.0) > EXACT_TOL):
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

    def verified(self) -> bool:
        return self.premises_hold and all(row.margin >= -EXACT_TOL for row in self.per_t)

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


def check_bound(chain: FiniteChain, t_max: int) -> BoundReport:
    """Exact t-step masses on the near-optimal set against 1-(1-delta)^t.

    The kernels act in time order: the t-step mass from state i is entry
    i of ``M_1 M_2 ... M_t 1_eps``, computed by matrix-vector products
    only.  A stationary chain takes one product per step
    (``v_t = M v_{t-1}``); a non-stationary one takes one backward pass
    ``M_1 (M_2 (... (M_t 1_eps)))`` per t.  ``delta`` is the tightest
    value the matrices support.  When the premises fail, the report still
    carries the computed masses so the failure is inspectable, but
    nothing is asserted.
    """
    if t_max < 1:
        raise UsageError("t_max must be >= 1")
    delta, absorbing = check_premises(chain)
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


def extract_chain(algo: Algorithm, eps: float, t_max: int = 1, lump: bool = False) -> FiniteChain:
    """Enumerate an algorithm's exact population chain on a finite space.

    The states are the tuples of the problem's own ``FiniteSpace``, in its
    enumeration order.  Asks for the chain kernel's transition matrix on
    that space at each step t = 0 .. t_max - 1 and marks the near-optimal
    states, those ``eps_inside`` finds.  A stationary kernel, one that does
    not read ``state.t``, builds its matrix once and the chain holds that
    one matrix.  A kernel that reads ``t`` builds one matrix per step; once
    step 1 shows that it does, the ``t_max`` matrices must fit in
    ``MATRIX_BYTES_CAP`` before step 2 is built.

    With ``lump=True`` the states are tuples of fitness classes (a
    ``ClassSpace``) when the chain lumps onto them, and the full tuples
    otherwise.  Every kernel must then read only positions and
    ``space.fitness``, or lump its own rows as the proposal kernel does;
    the proposal's lumping certificate decides between the two chains.
    ``STATE_CAP`` bounds the number of states actually built.
    """
    kernel = algo.chain_kernel
    if kernel.matrix_fn is None:
        raise ConfigError(
            f"{algo.name} has no exact chain kernel (continuous space or "
            "unsupported configuration)"
        )
    if kernel.arity_in != kernel.arity_out:
        raise ConfigError("chain kernel must preserve population arity")
    problem = algo.problem
    space = problem.space
    if not isinstance(space, FiniteSpace):
        raise UsageError("exact kernel matrices require a finite search space")
    n_states = space.n_tuples(kernel.arity_in)
    why = ""
    if lump:
        classes = ClassSpace(space, problem)
        n_classes = classes.n_tuples(kernel.arity_in)
        if n_classes > STATE_CAP:
            raise UsageError(
                f"{n_states} population states lump onto {n_classes} fitness-class "
                f"states, which exceed the verification cap {STATE_CAP}; "
                "use a smaller instance"
            )
        try:
            return _enumerate_chain(algo, classes, eps, t_max)
        except NotLumpable as exc:
            why = f" (the chain does not lump onto fitness classes: {exc})"
    if n_states > STATE_CAP:
        raise UsageError(
            f"{n_states} population states exceed the verification cap {STATE_CAP}{why}; "
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
    need = inside.size**2 * 8 * t_max  # bytes when every step builds its own matrix
    schedule = ScheduleState()
    matrices = []
    for step in range(max(1, t_max)):
        if step == 2 and matrices[1] is not matrices[0] and need > MATRIX_BYTES_CAP:
            raise UsageError(
                f"the chain kernel reads t, so its {t_max} matrices over {inside.size} "
                f"states need {need:,} bytes ({need >> 20} MiB), above the "
                f"{MATRIX_BYTES_CAP >> 20} MiB cap; lower verify.t_max or use a smaller instance"
            )
        matrices.append(kernel.exact_matrix(space, schedule))
        schedule.tick()
    if all(m is matrices[0] or np.array_equal(matrices[0], m) for m in matrices[1:]):
        matrices = matrices[:1]  # stationary: one matrix serves every step
    return FiniteChain(
        states=space.tuples(kernel.arity_in),
        eps_set=frozenset(np.flatnonzero(inside).tolist()),
        matrices=tuple(matrices),
        lumped=isinstance(space, ClassSpace),
    )


def eps_inside(space: FiniteSpace, problem: Problem, eps: float, arity: int) -> np.ndarray:
    """Which tuple states of ``space`` lie inside the eps-neighborhood: a
    population's ``closeness`` is strictly below ``eps``.

    Read from the fitness table, not from populations: a tuple's
    closeness is its best member's, and closeness is monotone in fitness
    (rounding included), so a tuple is inside iff one of its members is.
    """
    if not eps > 0:
        raise UsageError("eps must be positive")
    if problem.f_star is None:
        raise UsageError("closeness requires a problem with a known optimum")
    d = problem.relation.gap(space.fitness(problem), problem.f_star)
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
