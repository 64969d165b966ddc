"""Closed-form onemax chains and the oracles the verifier workloads check.

The elitist annealer with a uniform proposal on onemax has a one-step
matrix in closed form: from state i every state j is proposed with mass
1/n and kept when f_j >= f_i; a rejected proposal stays at i.  Its
t-step masses on the optimum follow the vector recursion
v_t = M v_{t-1}, v_0 = 1_eps, so min(v_t) is the exact ``min_mass``.
"""

from __future__ import annotations

import itertools

import numpy as np


def onemax_states(dim: int) -> list[tuple]:
    """Bit strings in the enumeration order of the onemax benchmark."""
    return list(itertools.product((0, 1), repeat=dim))


def elitist_onemax_chain(dim: int) -> tuple[np.ndarray, list[int]]:
    """(M, eps_set) of the elitist annealer on onemax in state order.

    The diagonal is 1/n times (1 + number of worse states), the same sum
    of 1/n terms the verifier accumulates, so for n a power of two the
    entries are exact.
    """
    fitness = np.array([sum(s) for s in onemax_states(dim)], dtype=float)
    n = fitness.size
    keep = fitness[None, :] >= fitness[:, None]
    m = np.where(keep, 1.0 / n, 0.0)
    m[np.arange(n), np.arange(n)] = (1.0 + np.count_nonzero(~keep, axis=1)) / n
    eps_set = [int(i) for i in np.flatnonzero(fitness == dim)]
    return m, eps_set


def permuted(m: np.ndarray, eps_set: list[int], seed: int) -> tuple[np.ndarray, list[int]]:
    """Relabel the states by a seeded permutation; the masses are unchanged."""
    perm = np.random.default_rng(seed).permutation(m.shape[0])
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    return m[np.ix_(perm, perm)], sorted(int(inverse[i]) for i in eps_set)


def min_mass_oracle(m: np.ndarray, eps_set: list[int], t_max: int) -> np.ndarray:
    """min_i Pr{X_t in eps | X_0 = i} for t = 1..t_max by the vector recursion."""
    v = np.zeros(m.shape[0])
    v[eps_set] = 1.0
    out = np.empty(t_max)
    for t in range(t_max):
        v = m @ v
        out[t] = v.min()
    return out


def write_matrix(path, m: np.ndarray) -> None:
    """Plain-text matrix: a 'rows cols' header, then one row per line.

    Written here rather than with sgoal's ``save_matrix`` so that the
    inputs do not depend on the code under test.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for row in m:
            fh.write(" ".join(map(repr, row.tolist())) + "\n")
