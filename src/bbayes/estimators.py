"""Frequentist companions: boundary MLEs over max-closed classes, the
one-sided test, and the posterior-below-MLE domination check.

The likelihood is increasing in the integral of f on the feasible set, so the
MLE over a max-closed class is the largest class member lying below every
data point.
"""

from __future__ import annotations

import numpy as np

from .grid import GridFunction, PointPattern, constraint_satisfied
from .posterior import PosteriorEnsemble, bin_minima

__all__ = [
    "mle_lipschitz",
    "lipschitz_envelope_at",
    "mle_piecewise_constant",
    "np_test",
    "check_posterior_below_mle",
]


def lipschitz_envelope_at(pattern: PointPattern, lip: float, cap: float, x) -> np.ndarray:
    """Exact cone formula min(cap, min_i (y_i + lip |x - x_i|)) at arbitrary x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if len(pattern) == 0:
        return np.full(x.shape, float(cap))
    cones = pattern.ys[None, :] + lip * np.abs(x[:, None] - pattern.xs[None, :])
    return np.minimum(cap, cones.min(axis=1))


def mle_lipschitz(pattern: PointPattern, lip: float, cap: float, grid_level: int = 8) -> GridFunction:
    """Largest lip-Lipschitz function below all data points, capped above by cap.

    The result is the cone envelope sampled at bin midpoints; use
    :func:`lipschitz_envelope_at` for exact off-grid evaluation.
    """
    if not lip > 0:
        raise ValueError("lip must be positive")
    if len(pattern) and cap < pattern.ys.min():
        raise ValueError("cap below the lowest data point makes the class infeasible")
    m = 1 << grid_level
    mids = (np.arange(m) + 0.5) / m
    return GridFunction(grid_level, lipschitz_envelope_at(pattern, lip, cap, mids))


def mle_piecewise_constant(pattern: PointPattern, bins: int, cap: float) -> GridFunction:
    """Per-bin minimum of point ordinates; cap on empty bins."""
    level = int(bins).bit_length() - 1
    if bins < 1 or (1 << level) != bins:
        raise ValueError("bins must be a power of two")
    return GridFunction(level, np.minimum(bin_minima(pattern, level), cap))


def np_test(g: GridFunction, pattern: PointPattern) -> int:
    """One-sided test: 1 iff no data point lies strictly below g."""
    return 1 if constraint_satisfied(g, pattern) else 0


def check_posterior_below_mle(ens: PosteriorEnsemble, mle: GridFunction):
    """True iff every ensemble sample lies below the MLE bin-wise (tolerance 0).

    Returns ``(ok, violations)`` where violations lists ``(sample_index,
    bin_index, excess)`` triples at the comparison grid level.
    """
    lvl = max(ens.grid_level, mle.grid_level)
    a = np.repeat(ens.values, 1 << (lvl - ens.grid_level), axis=1)
    b = mle.refine(lvl).values
    violations = [(int(i), int(k), float(a[i, k] - b[k])) for i, k in np.argwhere(a > b)]
    return (not violations), violations
