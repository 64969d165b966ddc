"""Finite-space proposal distributions with strictly positive support.

A proposal is what the variation step of an annealer or a finite-space
evolution strategy draws its candidate states from.  Keeping every state
reachable with positive mass is what gives the one-step kernel a uniform
lower bound on hitting the near-optimal set.
"""

from __future__ import annotations

import numpy as np

from .core import Problem
from .errors import ConfigError, UsageError
from .kernels import ClassSpace, Kernel, Population, dense_rows


def _validate(rows: np.ndarray) -> None:
    # Both checks are phrased so that NaN, which fails every comparison, fails them.
    if not np.all(rows > 0):
        raise ConfigError(
            "finite-space mutation needs strictly positive mass on every state"
        )
    if not np.all(np.abs(rows.sum(axis=1) - 1.0) <= 1e-9):
        raise ConfigError("mutation rows must sum to 1")


def proposal_kernel(problem: Problem, spec=None) -> Kernel:
    """The 1 -> 1 proposal kernel over a finite problem's space.

    Its sampler draws a point and scores it with ``problem.evaluate``.
    ``spec`` is None for the uniform distribution, a probability vector
    for a state-independent proposal, or a row-stochastic square matrix
    of per-state proposals, indexed in the space's enumeration order.
    All mass must be strictly positive, so every row lists all states:
    its columns are ``0..n-1`` in order.  The exact matrix is realized on
    a space with the same points in the same order, or on the fitness
    classes of one.
    """
    points = problem.space.points
    n = len(points)
    vector = matrix = None
    if spec is not None:
        arr = np.asarray(spec, dtype=float)
        if arr.ndim == 1:
            if arr.size != n:
                raise ConfigError("mutation vector length must match the space size")
            _validate(arr[None, :])
            vector = arr / arr.sum()
        elif arr.ndim == 2:
            if arr.shape != (n, n):
                raise ConfigError("mutation matrix must be square over the space")
            _validate(arr)
            matrix = arr / arr.sum(axis=1, keepdims=True)
            index = {p: i for i, p in enumerate(points)}
        else:
            raise ConfigError("mutation must be a probability vector or matrix")

    def sample_fn(pop, state, rng):
        (x,) = pop.members
        if vector is not None:
            y = points[int(rng.choice(n, p=vector))]
        elif matrix is not None:
            y = points[int(rng.choice(n, p=matrix[index[x]]))]
        else:
            y = points[int(rng.integers(n))]
        return Population((y,), (problem.evaluate(y),))

    # One row per point for a matrix spec, else the single row every point shares.
    if matrix is not None:
        table = matrix
    else:
        table = (vector if vector is not None else np.full(n, 1.0 / n))[None, :]
    lumped: list = [None, None]  # (class space, its certified class rows)

    def matrix_fn(space, state, idx):
        if isinstance(space, ClassSpace):
            if lumped[0] is not space:
                if space.base.points != points:
                    raise UsageError("kernel and enumeration must share the same point order")
                lumped[:] = space, space.lump(table)
            return dense_rows(lumped[1][idx])
        if space.points != points:
            raise UsageError("kernel and enumeration must share the same point order")
        if matrix is not None:
            return dense_rows(matrix[idx])
        return dense_rows(np.broadcast_to(table, (idx.size, n)))

    return Kernel(1, 1, sample_fn, matrix_fn, name="proposal")
