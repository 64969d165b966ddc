"""Stochastic-operator algebra over populations.

A kernel maps an input tuple of points to a random output tuple.  On an
enumerated finite base space every kernel can additionally realize itself
as an exact row-stochastic matrix over tuple states, and the combinators
below (sequential composition, independent join, coordinate projection,
fitness sorting) propagate both the sampler and the matrix.

Matrix convention: distributions are row vectors, so applying kernel K1
and then K2 multiplies as ``M1 @ M2``.  Inside the combinators a matrix
travels as fixed-width sparse rows (width one for a deterministic
kernel); ``exact_matrix`` builds the dense matrix once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
    """The time index threaded through kernel sampling.

    ``t`` counts completed next-population applications; a non-stationary
    kernel reads its step-t parameters as closed forms of ``t``.
    """

    def __init__(self) -> None:
        self.t: int = 0

    def tick(self) -> None:
        self.t += 1


class FiniteSpace:
    """Enumeration of a finite base set with product-tuple indexing.

    Tuple states of arity a are ordered like ``itertools.product``: the
    first coordinate varies slowest.  That ordering is what makes the
    independent join a plain Kronecker product of rows.
    """

    def __init__(self, points: Iterable[Any]) -> None:
        pts = tuple(points)
        if not pts:
            raise UsageError("finite space must contain at least one point")
        if len(set(pts)) != len(pts):
            raise UsageError("finite-space points must be distinct")
        self.points = pts
        self._index: dict | None = None  # built on the first ``index`` call
        self._tuples: dict[int, tuple] = {}
        self._fitness: dict["Problem", np.ndarray] = {}

    @classmethod
    def from_problem(cls, problem: "Problem") -> "FiniteSpace":
        from .core import FiniteSet

        if not isinstance(problem.space, FiniteSet):
            raise UsageError("exact kernel matrices require a finite search space")
        return cls(problem.space.points)

    def __len__(self) -> int:
        return len(self.points)

    def index(self, point: Any) -> int:
        if self._index is None:
            self._index = {p: i for i, p in enumerate(self.points)}
        try:
            return self._index[point]
        except KeyError as exc:
            raise UsageError(f"point {point!r} is not in the enumerated space") from exc

    def n_tuples(self, arity: int) -> int:
        return len(self.points) ** arity

    def tuples(self, arity: int) -> tuple:
        if arity < 1:
            raise UsageError("tuple arity must be >= 1")
        if arity not in self._tuples:
            self._tuples[arity] = tuple(itertools.product(self.points, repeat=arity))
        return self._tuples[arity]

    def tuple_index(self, members: Sequence[Any]) -> int:
        idx = 0
        for m in members:
            idx = idx * len(self.points) + self.index(m)
        return idx

    def digits(self, idx: np.ndarray, arity: int) -> np.ndarray:
        """Point indices of the tuple indices ``idx``, along a new last axis."""
        powers = len(self.points) ** np.arange(arity - 1, -1, -1)
        return np.asarray(idx)[..., None] // powers % len(self.points)

    def encode(self, digits: np.ndarray) -> np.ndarray:
        """Tuple indices of point-index arrays; the inverse of ``digits``."""
        powers = len(self.points) ** np.arange(digits.shape[-1] - 1, -1, -1)
        return (digits * powers).sum(axis=-1)

    def fitness(self, problem: "Problem") -> np.ndarray:
        """Objective value of every point, in enumeration order."""
        if problem not in self._fitness:
            self._fitness[problem] = problem.values(self.points)
        return self._fitness[problem]


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
    """A time-indexed stochastic operation on tuples of points.

    ``sample_fn(members, state, rng)`` draws one output tuple.  On a finite
    base space ``matrix_fn(space, state, idx)`` realizes the exact matrix:
    it returns the rows of the input tuple states ``idx`` as sparse rows
    ``(cols, mass)``, two ``(len(idx), w)`` arrays of output tuple indices
    and their masses (a repeated column adds up).  A deterministic kernel
    gives width-1 rows of mass one.
    """

    arity_in: int
    arity_out: int
    sample_fn: Callable[[tuple, ScheduleState, np.random.Generator], tuple]
    matrix_fn: Callable[[FiniteSpace, ScheduleState, np.ndarray], Rows] | None = None
    name: str = "kernel"

    def __post_init__(self) -> None:
        if self.arity_in < 1 or self.arity_out < 1:
            raise ConfigError("kernel arities must be positive")

    def sample(
        self, members: Sequence[Any], state: ScheduleState, rng: np.random.Generator
    ) -> tuple:
        members = tuple(members)
        if len(members) != self.arity_in:
            raise UsageError(
                f"{self.name}: expected input tuple of length {self.arity_in}, "
                f"got {len(members)}"
            )
        out = tuple(self.sample_fn(members, state, rng))
        if len(out) != self.arity_out:
            raise UsageError(f"{self.name}: sampler produced wrong output arity")
        return out

    @property
    def has_matrix(self) -> bool:
        return self.matrix_fn is not None

    def exact_matrix(
        self, space: FiniteSpace, state: ScheduleState | None = None
    ) -> np.ndarray:
        """The dense row-stochastic matrix, filled in blocks of input rows."""
        if self.matrix_fn is None:
            raise UsageError(f"{self.name} has no exact matrix realization")
        if state is None:
            state = ScheduleState()
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
        return m


def check_row_stochastic(m: np.ndarray, tol: float = ROW_SUM_TOL, name: str = "matrix") -> None:
    """Raise unless every row is a probability vector within ``tol``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise UsageError(f"{name}: expected a 2-d matrix")
    if np.any(m < -tol):
        raise UsageError(f"{name}: negative transition mass")
    sums = m.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > tol):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise UsageError(f"{name}: rows must sum to 1 (worst deviation {worst:.3e})")


# ---------------------------------------------------------------------------
# Combinators.


def compose(k2: Kernel, k1: Kernel) -> Kernel:
    """Sequential composition: apply ``k1`` first, then ``k2``.

    The exact matrix, when both factors have one, is ``M1 @ M2``: each
    entry of a ``k1`` row fans out into the ``k2`` row it lands on.  A
    composed row wider than the output space is folded into a dense row.
    """
    if k1.arity_out != k2.arity_in:
        raise ConfigError(
            f"cannot compose {k2.name} after {k1.name}: "
            f"{k1.name} emits {k1.arity_out}, {k2.name} expects {k2.arity_in}"
        )

    def sample_fn(members, state, rng):
        return k2.sample(k1.sample(members, state, rng), state, rng)

    matrix_fn = None
    if k1.has_matrix and k2.has_matrix:

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
    """Independent parallel application of single-output kernels.

    Every component reads the same input tuple and contributes one output
    coordinate; the joint matrix row is the Kronecker product of the
    component rows, so its width is the product of theirs.
    """
    kernels = list(kernels)
    if not kernels:
        raise ConfigError("join requires at least one kernel")
    arity_in = kernels[0].arity_in
    for k in kernels:
        if k.arity_in != arity_in:
            raise ConfigError("joined kernels must share their input arity")
        if k.arity_out != 1:
            raise ConfigError("joined kernels must each emit a single point")
    if len(kernels) == 1:
        return kernels[0]

    def sample_fn(members, state, rng):
        return tuple(k.sample(members, state, rng)[0] for k in kernels)

    matrix_fn = None
    if all(k.has_matrix for k in kernels):

        def matrix_fn(space, state, idx):
            parts = [k.matrix_fn(space, state, idx) for k in kernels]
            width = math.prod(cols.shape[1] for cols, _ in parts)
            if width > JOIN_WIDTH_CAP:
                raise UsageError(
                    f"{width} joint outcomes per input tuple exceed the "
                    f"exact-enumeration cap {JOIN_WIDTH_CAP}; use a smaller instance"
                )
            cols, mass = parts[0]
            for c, p in parts[1:]:
                cols = (cols[:, :, None] * len(space) + c[:, None, :]).reshape(idx.size, -1)
                mass = (mass[:, :, None] * p[:, None, :]).reshape(idx.size, -1)
            return cols, mass

    return Kernel(
        arity_in=arity_in,
        arity_out=len(kernels),
        sample_fn=sample_fn,
        matrix_fn=matrix_fn,
        name="join(" + ", ".join(k.name for k in kernels) + ")",
    )


def projection(arity_in: int, indices: Sequence[int]) -> Kernel:
    """Deterministic kernel emitting the selected coordinates in order."""
    indices = tuple(int(i) for i in indices)
    if not indices:
        raise ConfigError("projection needs at least one index")
    for i in indices:
        if i < 0 or i >= arity_in:
            raise ConfigError(f"projection index {i} out of range for arity {arity_in}")

    def matrix_fn(space, state, idx):
        cols = space.encode(space.digits(idx, arity_in)[:, list(indices)])
        return cols[:, None], np.ones((idx.size, 1))

    return Kernel(
        arity_in=arity_in,
        arity_out=len(indices),
        sample_fn=lambda members, state, rng: tuple(members[i] for i in indices),
        matrix_fn=matrix_fn,
        name=f"proj{list(indices)}",
    )


def identity(arity: int) -> Kernel:
    return projection(arity, range(arity))


def sort_kernel(problem: "Problem", arity: int) -> Kernel:
    """Deterministic stable sort, best fitness first under the problem's relation.

    Ties keep their original relative order, matching the first-occurrence
    tie-break of the best operator.
    """
    if arity < 1:
        raise ConfigError("sort arity must be >= 1")
    sign = 1.0 if problem.relation.value == "minimize" else -1.0

    def sample_fn(members, state, rng):
        return tuple(sorted(members, key=lambda m: sign * problem.evaluate(m)))

    def matrix_fn(space, state, idx):
        digits = space.digits(idx, arity)
        order = np.argsort(sign * space.fitness(problem)[digits], axis=1, kind="stable")
        cols = space.encode(np.take_along_axis(digits, order, axis=1))
        return cols[:, None], np.ones((idx.size, 1))

    return Kernel(
        arity_in=arity,
        arity_out=arity,
        sample_fn=sample_fn,
        matrix_fn=matrix_fn,
        name=f"sort{arity}",
    )


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
# Plain-text matrix exchange format: header "rows cols", then row-major reals.


def save_matrix(path, m: np.ndarray) -> None:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise UsageError("can only save 2-d matrices")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise UsageError("matrix file must start with 'rows cols'")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
        values = np.array(tokens[2:], dtype=float)
    except ValueError as exc:
        raise UsageError(f"matrix file {path}: {exc}") from None
    if min(rows, cols) < 0 or values.size != rows * cols:
        raise UsageError(
            f"matrix file {path} promises {rows}x{cols} entries but carries {values.size}"
        )
    return values.reshape(rows, cols)
