"""Stochastic-operator algebra over populations.

A kernel maps an input population (a tuple of points with their fitness)
to a random output population.  On an enumerated finite base space every
kernel can additionally realize itself as an exact row-stochastic matrix
over tuple states, and the combinators below (sequential composition,
independent join, coordinate projection, fitness sorting) propagate both
the sampler and the matrix.

Matrix convention: distributions are row vectors, so applying kernel K1
and then K2 multiplies as ``M1 @ M2``.  Inside the combinators a matrix
travels as fixed-width sparse rows (width one for a deterministic
kernel).  Deterministic kernels compose as one map on point indices:
decode once, encode once.  ``exact_matrix`` builds the dense matrix once,
and a kernel that does not read the time index keeps it for later steps.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, NotLumpable, UsageError

if TYPE_CHECKING:  # pragma: no cover
    from .core import Problem

ROW_SUM_TOL = 1e-12
LUMP_TOL = 1e-12  # the lumping certificate's tolerance on class masses
JOIN_WIDTH_CAP = 4096  # joint outcomes per input tuple that ``join`` enumerates
BLOCK_ENTRIES = 1 << 14  # dense matrix entries ``exact_matrix`` fills per block


class ScheduleState:
    """The step a kernel acts at: ``run_sgoal`` samples step t with
    ``ScheduleState(t)``, and ``exact_matrix(space, t)`` builds with one.

    A non-stationary kernel reads its step-t parameters as closed forms of
    ``t``.  ``t`` is read-only, and reading it sets ``read_t``, so
    ``exact_matrix`` keeps a matrix that no block read ``t`` for.
    """

    __slots__ = ("_t", "read_t")

    def __init__(self, t: int = 0) -> None:
        self._t = t
        self.read_t = False

    @property
    def t(self) -> int:
        self.read_t = True
        return self._t


@dataclass(frozen=True, slots=True, init=False, eq=False)
class Population:
    """Fixed-length ordered tuple of points with their fitness.

    Fitness travels with its members: a kernel that moves, drops or
    reorders members carries their fitness along, and only a kernel that
    makes a new point scores it.  Populations compare and hash by identity.
    """

    members: tuple
    fitness: np.ndarray

    def __init__(self, members: Iterable[Any], fitness) -> None:
        members = tuple(members)
        fitness = np.asarray(fitness, dtype=float)
        if len(members) == 0:
            raise UsageError("population must be nonempty")
        if fitness.shape != (len(members),):
            raise UsageError("fitness vector length must match member count")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "fitness", fitness)

    @property
    def n(self) -> int:
        return len(self.members)

    def take(self, indices) -> "Population":
        """The members at ``indices`` (a list or an index array), in that
        order, with their fitness."""
        members = self.members
        # Python ints index a tuple faster than numpy integer scalars do
        picks = indices.tolist() if isinstance(indices, np.ndarray) else indices
        return Population([members[i] for i in picks], self.fitness[indices])

    @classmethod
    def evaluated(cls, members: Iterable[Any], problem: "Problem") -> "Population":
        members = tuple(members)
        return cls(members, np.array([problem.evaluate(m) for m in members]))


class FiniteSpace:
    """An enumerated finite search space of distinct hashable points.

    It is both a finite problem's search space, which a run draws its
    points from, and the enumeration order of every exact matrix a kernel
    realizes on it: point i is state i.  Tuple states of arity a are
    ordered like ``itertools.product``: the first coordinate varies
    slowest.  That ordering is what makes the independent join a plain
    Kronecker product of rows.
    """

    def __init__(self, points: Iterable[Any]) -> None:
        pts = tuple(points)
        if not pts:
            raise UsageError("finite space must contain at least one point")
        try:
            distinct = len(set(pts))
        except TypeError as exc:
            raise UsageError("finite-space points must be hashable") from exc
        if distinct != len(pts):
            raise UsageError("finite-space points must be distinct")
        self.points = pts
        self._fitness: tuple | None = None  # (problem, table) of the last problem asked

    def __len__(self) -> int:
        return len(self.points)

    def sample_uniform(self, rng: np.random.Generator) -> Any:
        return self.points[int(rng.integers(len(self.points)))]

    def n_tuples(self, arity: int) -> int:
        return len(self.points) ** arity

    def tuples(self, arity: int) -> tuple:
        if arity < 1:
            raise UsageError("tuple arity must be >= 1")
        return tuple(itertools.product(self.points, repeat=arity))

    def digits(self, idx: np.ndarray, arity: int) -> np.ndarray:
        """Point indices of the tuple indices ``idx``, along a new last axis."""
        powers = len(self.points) ** np.arange(arity - 1, -1, -1)
        return np.asarray(idx)[..., None] // powers % len(self.points)

    def encode(self, digits: np.ndarray) -> np.ndarray:
        """Tuple indices of point-index arrays; the inverse of ``digits``."""
        powers = len(self.points) ** np.arange(digits.shape[-1] - 1, -1, -1)
        return (digits * powers).sum(axis=-1)

    def fitness(self, problem: "Problem") -> np.ndarray:
        """Objective value of every point, in enumeration order; the table
        of the last problem asked is kept."""
        if self._fitness is None or self._fitness[0] is not problem:
            self._fitness = (problem, problem.values(self.points))
        return self._fitness[1]


class ClassSpace(FiniteSpace):
    """The fitness classes of a finite space: one point per distinct value.

    The points are the problem's distinct objective values, ascending, and
    ``fitness`` returns them.  A kernel that reads only positions and
    ``space.fitness`` therefore realizes on a class space the chain lumped
    onto tuples of classes (Kemeny & Snell, *Finite Markov Chains*, 6.3).
    A kernel that reads which point it holds must lump its own rows with
    ``lump``, which checks that they do lump.
    """

    def __init__(self, base: FiniteSpace, problem: "Problem") -> None:
        values, self._first, self.labels = np.unique(
            base.fitness(problem), return_index=True, return_inverse=True
        )
        super().__init__(values.tolist())
        self.base = base
        self.problem = problem
        self._values = values

    def fitness(self, problem: "Problem") -> np.ndarray:
        if problem is not self.problem:
            raise NotLumpable("a class space holds the fitness classes of one problem only")
        return self._values

    def lump(self, rows: np.ndarray) -> np.ndarray:
        """The ``(k, k)`` class rows of per-point rows over the base space.

        ``rows`` holds one row per base point, or a single row that every
        point shares.  The lumping certificate: every point of a class
        must put the same mass, within ``LUMP_TOL``, on every target
        class; otherwise this raises ``NotLumpable``.
        """
        lumped = _scatter_rows(np.broadcast_to(self.labels, rows.shape), rows, len(self))
        if rows.shape[0] == 1:
            return np.repeat(lumped, len(self), axis=0)
        first = lumped[self._first]
        worst = float(np.max(np.abs(lumped - first[self.labels])))
        if worst > LUMP_TOL:
            raise NotLumpable(
                f"points of one fitness class put masses {worst:.3e} apart on one class"
            )
        return first


Rows = tuple  # (cols, mass): two (k, w) arrays, output tuple indices and masses


def dense_rows(mass: np.ndarray) -> Rows:
    """Sparse rows that list every output state, one column per entry of ``mass``."""
    return np.broadcast_to(np.arange(mass.shape[1]), mass.shape), mass


def _scatter_rows(cols: np.ndarray, mass: np.ndarray, n_out: int) -> np.ndarray:
    """The dense ``(k, n_out)`` rows of sparse rows; repeated columns add up in order."""
    k = cols.shape[0]
    flat = (cols + n_out * np.arange(k)[:, None]).ravel()
    return np.bincount(flat, weights=mass.ravel(), minlength=k * n_out).reshape(k, n_out)


@dataclass(frozen=True)
class Kernel:
    """A stochastic operation on populations at the step ``state.t``.

    ``sample_fn(pop, state, rng)`` draws one output ``Population``: the
    members it keeps carry their input fitness, and a new point it makes
    carries the fitness it scored.  On a finite base space
    ``matrix_fn(space, state, idx)`` realizes the exact matrix:
    it returns the rows of the input tuple states ``idx`` as sparse rows
    ``(cols, mass)``, two ``(len(idx), w)`` arrays of output tuple indices
    and their masses (a repeated column adds up).  A deterministic kernel
    gives width-1 rows of mass one.  The rows are a function of the space
    and ``state.t`` only: a kernel whose ``matrix_fn`` never reads ``t``
    is stationary, and ``exact_matrix`` builds its matrix once per space.
    """

    arity_in: int
    arity_out: int
    sample_fn: Callable[[Population, ScheduleState, np.random.Generator], Population]
    matrix_fn: Callable[[FiniteSpace, ScheduleState, np.ndarray], Rows] | None = None
    name: str = "kernel"
    # (space, matrix) of the last build that read no ``t``; never copied by
    # ``dataclasses.replace``
    _memo: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.arity_in < 1 or self.arity_out < 1:
            raise ConfigError("kernel arities must be positive")

    def sample(
        self, pop: Population, state: ScheduleState, rng: np.random.Generator
    ) -> Population:
        if pop.n != self.arity_in:
            raise UsageError(
                f"{self.name}: expected a population of {self.arity_in}, got {pop.n}"
            )
        out = self.sample_fn(pop, state, rng)
        if not isinstance(out, Population) or out.n != self.arity_out:
            raise UsageError(f"{self.name}: sampler produced wrong output arity")
        return out

    def exact_matrix(self, space: FiniteSpace, t: int = 0) -> np.ndarray:
        """The dense row-stochastic matrix at step ``t``, filled in blocks
        of input rows that all read one ``ScheduleState(t)``.

        When no block reads ``t`` the matrix is the same at every step: it
        is kept, read-only, and every later call on the same ``space``
        object returns that array, whatever the step.
        """
        if self.matrix_fn is None:
            raise UsageError(f"{self.name} has no exact matrix realization")
        if self._memo is not None and self._memo[0] is space:
            return self._memo[1]
        state = ScheduleState(t)
        n_in = space.n_tuples(self.arity_in)
        n_out = space.n_tuples(self.arity_out)
        m = np.empty((n_in, n_out))
        step = max(1, BLOCK_ENTRIES // n_out)
        for start in range(0, n_in, step):
            idx = np.arange(start, min(start + step, n_in))
            cols, mass = self.matrix_fn(space, state, idx)
            if (
                cols.shape != mass.shape
                or cols.shape[0] != idx.size
                or cols.size == 0
                or cols.min() < 0
                or cols.max() >= n_out
            ):
                raise UsageError(
                    f"{self.name}: rows of shape {cols.shape} do not map tuple "
                    f"spaces {(n_in, n_out)}"
                )
            m[start : start + idx.size] = _scatter_rows(cols, mass, n_out)
        check_row_stochastic(m, name=self.name)
        if not state.read_t:
            m.flags.writeable = False
            object.__setattr__(self, "_memo", (space, m))
        return m


class DigitMap:
    """Rows of a deterministic kernel from its map on point-index digit
    arrays: ``fn(space, digits)`` sends the ``(k, arity_in)`` point indices
    of k input tuples to those of their outputs.  A block of rows is
    decoded once and encoded once, whatever ``fn`` composes."""

    def __init__(self, arity_in: int, fn: Callable[[FiniteSpace, np.ndarray], np.ndarray]):
        self.arity_in, self.fn = arity_in, fn

    def __call__(self, space: FiniteSpace, state: ScheduleState, idx: np.ndarray) -> Rows:
        cols = space.encode(self.fn(space, space.digits(idx, self.arity_in)))
        return cols[:, None], np.ones((idx.size, 1))


def check_row_stochastic(m: np.ndarray, tol: float = ROW_SUM_TOL, name: str = "matrix") -> None:
    """Raise unless every row is a probability vector within ``tol``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise UsageError(f"{name}: expected a 2-d matrix")
    if np.any(m < -tol):
        raise UsageError(f"{name}: negative transition mass")
    sums = m.sum(axis=1)
    if not np.all(np.abs(sums - 1.0) <= tol):  # phrased so that a NaN row fails
        worst = float(np.max(np.abs(sums - 1.0)))
        raise UsageError(f"{name}: rows must sum to 1 (worst deviation {worst:.3e})")


# ---------------------------------------------------------------------------
# Combinators.


def compose(k2: Kernel, k1: Kernel) -> Kernel:
    """Sequential composition: apply ``k1`` first, then ``k2``.

    The exact matrix, when both factors have one, is ``M1 @ M2``: each
    entry of a ``k1`` row fans out into the ``k2`` row it lands on, and a
    row wider than the output space is folded into a dense row.  Two
    ``DigitMap`` factors compose as the ``DigitMap`` of their composed map.
    """
    if k1.arity_out != k2.arity_in:
        raise ConfigError(
            f"cannot compose {k2.name} after {k1.name}: "
            f"{k1.name} emits {k1.arity_out}, {k2.name} expects {k2.arity_in}"
        )

    def sample_fn(pop, state, rng):
        return k2.sample(k1.sample(pop, state, rng), state, rng)

    matrix_fn = None
    if isinstance(k1.matrix_fn, DigitMap) and isinstance(k2.matrix_fn, DigitMap):
        f1, f2 = k1.matrix_fn.fn, k2.matrix_fn.fn
        matrix_fn = DigitMap(k1.arity_in, lambda space, digits: f2(space, f1(space, digits)))
    elif k1.matrix_fn is not None and k2.matrix_fn is not None:

        def matrix_fn(space, state, idx):
            cols1, mass1 = k1.matrix_fn(space, state, idx)
            cols2, mass2 = k2.matrix_fn(space, state, cols1.ravel())
            cols = cols2.reshape(idx.size, -1)
            mass = (mass1.reshape(-1, 1) * mass2).reshape(idx.size, -1)
            n_out = space.n_tuples(k2.arity_out)
            if cols.shape[1] > n_out:
                return dense_rows(_scatter_rows(cols, mass, n_out))
            return cols, mass

    return Kernel(
        arity_in=k1.arity_in,
        arity_out=k2.arity_out,
        sample_fn=sample_fn,
        matrix_fn=matrix_fn,
        name=f"({k2.name} . {k1.name})",
    )


def join(kernels: Sequence[Kernel]) -> Kernel:
    """Independent parallel application of kernels.

    Every component reads the same input population; their output members
    and fitness concatenate in order.  The joint matrix row is the
    Kronecker product of the component rows, so its width is the product
    of theirs.  A component joined more than once (one object) is realized
    once per block of rows; the sampler still draws every copy.
    """
    kernels = list(kernels)
    if not kernels:
        raise ConfigError("join requires at least one kernel")
    arity_in = kernels[0].arity_in
    for k in kernels:
        if k.arity_in != arity_in:
            raise ConfigError("joined kernels must share their input arity")
    if len(kernels) == 1:
        return kernels[0]

    def sample_fn(pop, state, rng):
        outs = [k.sample(pop, state, rng) for k in kernels]
        return Population(
            itertools.chain.from_iterable(o.members for o in outs),
            np.concatenate([o.fitness for o in outs]),
        )

    matrix_fn = None
    if all(k.matrix_fn is not None for k in kernels):

        distinct = {id(k): k for k in kernels}

        def matrix_fn(space, state, idx):
            built = {key: k.matrix_fn(space, state, idx) for key, k in distinct.items()}
            parts = [built[id(k)] for k in kernels]
            width = math.prod(cols.shape[1] for cols, _ in parts)
            if width > JOIN_WIDTH_CAP:
                raise UsageError(
                    f"{width} joint outcomes per input tuple exceed the "
                    f"exact-enumeration cap {JOIN_WIDTH_CAP}; use a smaller instance"
                )
            cols, mass = parts[0]
            for k, (c, p) in zip(kernels[1:], parts[1:]):
                radix = space.n_tuples(k.arity_out)
                cols = (cols[:, :, None] * radix + c[:, None, :]).reshape(idx.size, -1)
                mass = (mass[:, :, None] * p[:, None, :]).reshape(idx.size, -1)
            return cols, mass

    return Kernel(
        arity_in=arity_in,
        arity_out=sum(k.arity_out for k in kernels),
        sample_fn=sample_fn,
        matrix_fn=matrix_fn,
        name="join(" + ", ".join(k.name for k in kernels) + ")",
    )


def projection(arity_in: int, indices: Sequence[int]) -> Kernel:
    """Deterministic kernel emitting the selected coordinates in order."""
    indices = [int(i) for i in indices]
    if not indices:
        raise ConfigError("projection needs at least one index")
    for i in indices:
        if i < 0 or i >= arity_in:
            raise ConfigError(f"projection index {i} out of range for arity {arity_in}")

    take = DigitMap(arity_in, lambda space, digits: digits[:, indices])
    return Kernel(arity_in, len(indices), lambda pop, state, rng: pop.take(indices), take,
                  name=f"proj{indices}")


def identity(arity: int) -> Kernel:
    return projection(arity, range(arity))


def sort_kernel(problem: "Problem", arity: int) -> Kernel:
    """Deterministic stable sort, best fitness first under the problem's relation.

    The sampler and the matrix both read ``Relation.order``: ties keep
    their original relative order, matching the first-occurrence
    tie-break of the best operator.
    """
    if arity < 1:
        raise ConfigError("sort arity must be >= 1")
    order = problem.relation.order

    def sort_digits(space, digits):
        return np.take_along_axis(digits, order(space.fitness(problem)[digits], axis=1), axis=1)

    return Kernel(arity, arity, lambda pop, state, rng: pop.take(order(pop.fitness)),
                  DigitMap(arity, sort_digits), name=f"sort{arity}")


# ---------------------------------------------------------------------------
# Iterated products of (possibly time-varying) transition matrices.


def iterated_products(matrices: Sequence[np.ndarray], t_max: int) -> list[np.ndarray]:
    """Time-ordered t-step matrices M_1 M_2 ... M_t for t = 1..t_max.

    Row i of the t-th product is the law of X_t given X_0 = i when the
    step-s kernel is M_s (Isaacson & Madsen 1976).  A single matrix is
    reused for every step (stationary chain); otherwise the sequence
    must cover ``t_max`` steps.
    """
    if not matrices:
        raise UsageError("need at least one transition matrix")
    if t_max < 1:
        raise UsageError("t_max must be >= 1")
    ms = [np.asarray(m, dtype=float) for m in matrices]
    for m in ms:
        if m.ndim != 2 or m.shape != (ms[0].shape[0],) * 2:
            raise UsageError("transition matrices must be square over one state space")
        check_row_stochastic(m)
    if len(ms) == 1:
        ms = ms * t_max
    elif len(ms) < t_max:
        raise UsageError(
            f"non-stationary sequence has {len(ms)} kernels but t_max={t_max}"
        )
    out = [ms[0]]
    for t in range(1, t_max):
        out.append(out[-1] @ ms[t])
    return out


# ---------------------------------------------------------------------------
# Plain-text matrix exchange format: a first line "rows cols", then the
# entries in row-major order, every non-blank line carrying as many.


def save_matrix(path, m: np.ndarray) -> None:
    """Write ``m`` in the exchange format: one row per line, each entry as
    ``%.17g``, so that ``load_matrix`` reads back the same bits."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise UsageError("can only save 2-d matrices")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        np.savetxt(fh, m, fmt="%.17g")


def load_matrix(path) -> np.ndarray:
    """Read an exchange-format file: one row per line, or all entries on
    one line; ragged lines and Python-only spellings such as ``1_0``, which
    ``float`` reads, are refused.  A malformed file raises a ``UsageError``
    that names it."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline().split()
            if len(header) != 2:
                raise UsageError(f"matrix file {path} must start with a line 'rows cols'")
            rows, cols = int(header[0]), int(header[1])
            with warnings.catch_warnings():  # a header-only file holds no data
                warnings.simplefilter("ignore", UserWarning)
                values = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
    except ValueError as exc:
        raise UsageError(f"matrix file {path}: {exc}") from None
    if min(rows, cols) < 0 or values.size != rows * cols:
        raise UsageError(
            f"matrix file {path} promises {rows}x{cols} entries but carries {values.size}"
        )
    return values.reshape(rows, cols)
