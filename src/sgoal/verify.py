"""Executable convergence checks for optimizer chains.

Two premises make a chain provably convergent: the near-optimal set
traps whatever enters it, and every step reaches it from anywhere else
with probability at least delta > 0.  Under those premises the t-step
mass on the set is at least 1 - (1 - delta)^t.  On finite spaces this
module checks the premises and the bound exactly from the transition
matrices.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .core import Algorithm, Problem
from .errors import ConfigError, NotLumpable, UsageError
from .kernels import ClassSpace, FiniteSpace, Kernel, check_row_stochastic
from .kernels import iterated_products  # noqa: F401  (perfbench traces it here)

EXACT_TOL = 1e-12
STATE_CAP = 4096
T_MAX_CAP = 1000  # a chain that reads t costs one dense n x n product per step
MATRIX_BYTES_CAP = 1 << 30  # bytes a run's arrays may take; three STATE_CAP^2 matrices fit


@dataclass(frozen=True)
class FiniteChain:
    """Enumerated population states, the near-optimal subset, and the
    per-step transition matrices (a tuple of one matrix means stationary).
    The matrices are a tuple, or the ``KernelSteps`` of a kernel that
    reads t.  ``lumped`` marks states that are tuples of fitness classes."""

    states: tuple
    eps_set: frozenset
    matrices: Sequence
    lumped: bool = False

    def __post_init__(self) -> None:
        states = tuple(self.states)
        eps_set = frozenset(int(i) for i in self.eps_set)
        matrices = self.matrices
        if not states:
            raise UsageError("chain needs at least one state")
        if not eps_set or len(eps_set) >= len(states):
            raise UsageError("eps set must be nonempty and proper")
        if min(eps_set) < 0 or max(eps_set) >= len(states):
            raise UsageError("eps set indices out of range")
        if not isinstance(matrices, KernelSteps):  # exact_matrix checks each step it builds
            matrices = tuple(np.asarray(m, dtype=float) for m in matrices)
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


class KernelSteps(Sequence):
    """The step matrices of a kernel that reads t, built when read: item s
    is ``kernel.exact_matrix(space, s)``, the step ``run_sgoal`` samples
    with ``ScheduleState(s)``.  A step-0 matrix built already is handed out
    once; nothing else is kept, so a walk over the steps holds one at a time."""

    def __init__(self, kernel: Kernel, space: FiniteSpace, steps: int, first=None) -> None:
        self.kernel, self.space, self.steps, self._first = kernel, space, steps, first

    def __len__(self) -> int:
        return self.steps

    def __getitem__(self, s):
        t = range(self.steps)[s]  # a step, or a range of them; IndexError past the last
        if isinstance(t, range):
            return tuple(map(self.__getitem__, t))
        first, self._first = self._first, None
        return first if t == 0 and first is not None else self.kernel.exact_matrix(self.space, t)


def _premise_sums(m: np.ndarray, mask: np.ndarray) -> tuple[float, bool]:
    """(least mass into the set from outside it, whether the set keeps its mass)"""
    into = m[:, mask].sum(axis=1)
    return float(into[~mask].min()), not np.any(np.abs(into[mask] - 1.0) > EXACT_TOL)


def check_premises(chain: FiniteChain) -> tuple[float, bool]:
    """(delta, absorbing) for the chain.

    ``absorbing`` is true iff every step keeps all mass of every
    near-optimal state inside the set, to ``EXACT_TOL``; ``delta`` is the
    worst one-step mass on the set from any outside state (nonpositive
    delta means the reachability premise fails).
    """
    mask = chain.eps_mask()
    reach, keep = zip(*(_premise_sums(m, mask) for m in chain.matrices))
    return min(reach), all(keep)


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
        return asdict(self)


def check_bound(chain: FiniteChain, t_max: int) -> BoundReport:
    """Exact t-step masses on the near-optimal set against 1-(1-delta)^t.

    The kernels act in time order: the t-step mass from state i is entry
    i of ``M_1 M_2 ... M_t 1_eps``.  One pass reads each step matrix once,
    taking its premise sums while it is held: a stationary chain, a tuple
    of one matrix, takes ``v_t = M v_{t-1}``; any other needs t_max steps
    and carries the forward product ``P_t = P_{t-1} M_t``, so it holds
    three matrices whatever t_max is.  ``delta`` is the tightest value
    steps 1 .. t_max support.
    When the premises fail, the report still carries the computed masses
    so the failure is inspectable, but nothing is asserted.
    """
    if t_max < 1:
        raise UsageError("t_max must be >= 1")
    ms = chain.matrices
    stationary = isinstance(ms, tuple) and len(ms) == 1
    if not stationary and len(ms) < t_max:
        raise UsageError(f"non-stationary sequence has {len(ms)} kernels but t_max={t_max}")
    mask = chain.eps_mask()
    sums = []

    def read(s: int) -> np.ndarray:  # step s + 1's matrix, its premise sums taken
        m = ms[s]
        sums.append(_premise_sums(m, mask))
        return m

    v, masses = mask.astype(float), []
    if stationary:
        m = read(0)
        for _ in range(t_max):
            v = m @ v
            masses.append(float(v.min()))
    else:
        p = read(0)
        for s in range(t_max):
            if s:
                p = p @ read(s)  # the step matrix is dropped once multiplied in
            masses.append(float((p @ v).min()))
    reach, keep = zip(*sums)
    delta, absorbing = min(reach), all(keep)
    per_t = []
    for t, min_mass in enumerate(masses, 1):
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
    that space at steps 0, 1, ... t_max - 1 and marks the near-optimal
    states, those ``eps_inside`` finds.  A stationary kernel, one that does
    not read ``state.t``, hands back the one matrix it kept, and the chain
    holds it.  For a kernel whose step-0 build read ``t``, the chain holds its
    ``KernelSteps``, which covers t_max steps only and starts from that build.

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
    first = kernel.exact_matrix(space)  # kept, read-only, unless its build read t
    later = (kernel.exact_matrix(space, s) for s in range(1, t_max))  # the kept one, if any
    stationary = not first.flags.writeable and all(m is first for m in later)
    return FiniteChain(
        states=space.tuples(kernel.arity_in),
        eps_set=frozenset(np.flatnonzero(inside).tolist()),
        matrices=(first,) if stationary else KernelSteps(kernel, space, t_max, first),
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

    matrices = tuple(load_matrix(p) for p in matrix_paths)
    if not matrices:
        raise UsageError("need at least one matrix file")
    return FiniteChain(tuple(range(matrices[0].shape[0])), eps_set, matrices)


def _overwrite(path, text: str) -> None:
    # in place, then cut to length: on ext4 a truncating open starts writeback at close
    with os.fdopen(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(text.encode("ascii"))
        fh.truncate()


_BOUND_JSON = ('{\n  "delta": %s,\n  "lumped": %s,\n  "per_t": %s,\n  "premise_absorbing": %s,\n'
               '  "premise_reach": %s,\n  "states": %s\n}\n')
_BOUND_ROW = ('    {\n      "bound": %s,\n      "margin": %s,\n      "min_mass": %s,\n'
              '      "t": %s\n    }')


def write_bound_json(report: BoundReport, path) -> None:
    # the bytes of json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True) and a
    # newline, in one write: json's C encoder spells the values, the layout is fixed
    r = report
    cells = [r.delta, r.lumped, r.premise_absorbing, r.premise_reach, r.states]
    cells += [v for row in r.per_t for v in (row.bound, row.margin, row.min_mass, row.t)]
    delta, lumped, absorbing, reach, states, *rows = json.dumps(cells)[1:-1].split(", ")
    per_t = ",\n".join([_BOUND_ROW] * len(r.per_t)) % tuple(rows)
    per_t = f"[\n{per_t}\n  ]" if rows else "[]"
    _overwrite(path, _BOUND_JSON % (delta, lumped, per_t, absorbing, reach, states))


def write_bound_csv(report: BoundReport, path) -> None:
    # csv.writer's bytes: its \r\n line ending, and no field that needs quotes
    rows = [f"{r.t},{r.min_mass:.17g},{r.bound:.17g},{r.margin:.17g}\r\n" for r in report.per_t]
    _overwrite(path, "t,min_mass,bound,margin\r\n" + "".join(rows))
