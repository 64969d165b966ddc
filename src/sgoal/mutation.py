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


def proposal_kernel(problem: Problem, spec=None) -> Kernel:
    """The 1 -> 1 proposal kernel over a finite problem's space.

    ``spec`` is None for the uniform distribution, a probability vector,
    the one row every point shares, or a row-stochastic square matrix that
    gives each point its row, indexed in the space's enumeration order.
    All mass must be strictly positive, so every row lists all states: its
    columns are ``0..n-1`` in order.  The sampler draws a point from the
    row of its member and scores it with ``problem.evaluate``; the exact
    matrix is that row table, realized on a space with the same points in
    the same order, or lumped onto the fitness classes of one.
    """
    points = problem.space.points
    n = len(points)
    if spec is None:
        table = np.full((1, n), 1.0 / n)
    else:
        arr = np.asarray(spec, dtype=float)
        if arr.shape not in ((n,), (n, n)):
            raise ConfigError(
                f"mutation must be a probability vector of length {n} or a {n} x {n} matrix"
            )
        table = arr.reshape(-1, n)
        # Both checks are phrased so that NaN, which fails every comparison, fails them.
        if not np.all(table > 0):
            raise ConfigError("finite-space mutation needs strictly positive mass on every state")
        if not np.all(np.abs(table.sum(axis=1) - 1.0) <= 1e-9):
            raise ConfigError("mutation rows must sum to 1")
        table = table / table.sum(axis=1, keepdims=True)
    index = {p: i for i, p in enumerate(points)} if len(table) > 1 else None

    def sample_fn(pop, state, rng):
        (x,) = pop.members
        if spec is None:
            j = rng.integers(n)
        else:
            j = rng.choice(n, p=table[index[x] if index else 0])
        y = points[int(j)]
        return Population((y,), (problem.evaluate(y),))

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
        return dense_rows(table[idx] if index else np.broadcast_to(table, (idx.size, n)))

    return Kernel(1, 1, sample_fn, matrix_fn, name="proposal")
