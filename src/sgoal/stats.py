"""Small statistical helpers for checking samplers against exact laws."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

MIN_EXPECTED = 5.0  # the expected count below which a cell is pooled


@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    pvalue: float
    alpha: float

    @property
    def passed(self) -> bool:
        return self.pvalue >= self.alpha


def chisquare_gof(counts, probs, alpha: float = 0.001) -> GofResult:
    """Chi-square goodness of fit of observed counts against exact cell
    probabilities.

    Cells whose expected count falls below ``MIN_EXPECTED`` are pooled
    into one bucket (standard practice for sparse tails).  When every cell
    falls below it, runs of consecutive cells are pooled instead, each
    until it reaches ``MIN_EXPECTED``; a short last run joins the one
    before.  Cells with zero probability must hold zero counts; observing
    mass there is an immediate failure.
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if counts.shape != probs.shape or counts.ndim != 1:
        raise UsageError("counts and probs must be 1-d and aligned")
    if np.any(counts < 0) or np.any(probs < -1e-15):
        raise UsageError("counts and probs must be nonnegative")
    total = counts.sum()
    if total <= 0:
        raise UsageError("need at least one observation")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise UsageError("cell probabilities must sum to 1")

    zero = probs <= 0
    if np.any(counts[zero] > 0):
        return GofResult(statistic=float("inf"), dof=0, pvalue=0.0, alpha=alpha)
    counts, probs = counts[~zero], probs[~zero]

    expected = probs * total
    small = expected < MIN_EXPECTED
    if small.sum() >= 1 and (~small).sum() >= 1:
        counts = np.append(counts[~small], counts[small].sum())
        probs = np.append(probs[~small], probs[small].sum())
        expected = probs * total
    elif small.all():
        starts, run = [0], 0.0
        for i, e in enumerate(expected.tolist(), 1):
            run += e
            if run >= MIN_EXPECTED:
                starts.append(i)
                run = 0.0
        starts = starts[:-1] or [0]  # the last start is past the end or opens a short run
        counts, probs = np.add.reduceat(counts, starts), np.add.reduceat(probs, starts)
        expected = probs * total
    if counts.size < 2:
        # everything pooled into one cell: nothing to test
        return GofResult(statistic=0.0, dof=0, pvalue=1.0, alpha=alpha)

    statistic = float(np.sum((counts - expected) ** 2 / expected))
    dof = counts.size - 1
    pvalue = chi2_sf(statistic, dof)
    return GofResult(statistic=statistic, dof=dof, pvalue=pvalue, alpha=alpha)


def chi2_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square law with ``dof`` degrees of
    freedom: the regularized upper incomplete gamma ``Q(dof/2, x/2)``.

    Below ``a + 1`` it is one minus the lower series, above it a
    continued fraction evaluated by the modified Lentz method; both stop
    at double precision.
    """
    a, x = dof / 2.0, x / 2.0
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    log_front = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        return 1.0 - total * math.exp(log_front)
    tiny = 1e-300  # keeps the Lentz denominators off zero
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, i, step = d, 0, 0.0
    while abs(step - 1.0) > 1e-15:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        h *= step
    return h * math.exp(log_front)
