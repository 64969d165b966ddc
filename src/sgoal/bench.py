"""Desk-scale test problems with exactly known optima.

The box objectives take one point, giving a float, or a (k, d) batch of
points as rows, giving their k values.  They reduce with
``np.add.reduce``: the reduction ``np.sum`` runs after its dispatch, to
the same bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import ContinuousBox, Problem, Relation
from .errors import UsageError
from .kernels import FiniteSpace

MAX_BITS = 20  # finite spaces are fully enumerated: 2^bits states


def _per_row(total):
    """A float for one point, the (k,) array for a (k, d) batch."""
    return total if total.ndim else float(total)


def sphere(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    return _per_row(np.add.reduce(x * x, axis=-1))


def rastrigin(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    terms = x * x - 10.0 * np.cos(2.0 * np.pi * x)
    return _per_row(10.0 * x.shape[-1] + np.add.reduce(terms, axis=-1))


def rosenbrock(x: np.ndarray):
    x = np.asarray(x, dtype=float)
    head, tail = x[..., :-1], x[..., 1:]
    return _per_row(
        np.add.reduce(100.0 * (tail - head**2) ** 2 + (1.0 - head) ** 2, axis=-1)
    )


def onemax(bits) -> float:
    return float(sum(bits))


def trap5(bits) -> float:
    # deceptive 5-bit trap per block: all-ones scores 5, otherwise 4 - ones
    total = 0.0
    for start in range(0, len(bits), 5):
        u = sum(bits[start : start + 5])
        total += 5.0 if u == 5 else 4.0 - u
    return total


def _bit_space(dim: int) -> FiniteSpace:
    if dim > MAX_BITS:
        raise UsageError(f"bit-string spaces are enumerated; dim must be <= {MAX_BITS}")
    return FiniteSpace(tuple(itertools.product((0, 1), repeat=dim)))


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    problem: Problem
    f_star: float
    x_star: Any


def make_benchmark(name: str, dim: int) -> BenchmarkProblem:
    """Benchmark by name: sphere / rastrigin / rosenbrock on boxes,
    onemax / trap5 on enumerated bit strings (both maximized)."""
    if dim < 1:
        raise UsageError("dim must be >= 1")
    if name == "sphere":
        box = ContinuousBox(np.full(dim, -5.12), np.full(dim, 5.12))
        problem = Problem(box, sphere, Relation.MINIMIZE, f_star=0.0)
        return BenchmarkProblem(name, problem, 0.0, np.zeros(dim))
    if name == "rastrigin":
        box = ContinuousBox(np.full(dim, -5.12), np.full(dim, 5.12))
        problem = Problem(box, rastrigin, Relation.MINIMIZE, f_star=0.0)
        return BenchmarkProblem(name, problem, 0.0, np.zeros(dim))
    if name == "rosenbrock":
        box = ContinuousBox(np.full(dim, -2.048), np.full(dim, 2.048))
        problem = Problem(box, rosenbrock, Relation.MINIMIZE, f_star=0.0)
        return BenchmarkProblem(name, problem, 0.0, np.ones(dim))
    if name == "onemax":
        problem = Problem(_bit_space(dim), onemax, Relation.MAXIMIZE, f_star=float(dim))
        return BenchmarkProblem(name, problem, float(dim), (1,) * dim)
    if name == "trap5":
        if dim % 5 != 0:
            raise UsageError("trap5 needs dim to be a multiple of 5")
        problem = Problem(_bit_space(dim), trap5, Relation.MAXIMIZE, f_star=float(dim))
        return BenchmarkProblem(name, problem, float(dim), (1,) * dim)
    raise UsageError(f"unknown benchmark {name!r}")


FINITE_BENCHMARKS = ("onemax", "trap5")  # on enumerated bit strings
BENCHMARKS = ("sphere", "rastrigin", "rosenbrock", *FINITE_BENCHMARKS)
