"""Complexity functionals on finite function dictionaries: sup-norm covering
numbers, one-sided bracketing numbers and the separation quantity.

Each functional is one weighted set cover.  It builds a boolean coverage
matrix, ``covers[c, k]`` true when candidate c covers member k, by testing each
candidate row against the stacked member values, and ``_cover`` solves it as
one binary integer program with ``scipy.optimize.milp`` (HiGHS) at relative
gap 0: minimise ``weights @ x`` over x in {0, 1} subject to ``covers.T @ x >= 1``.
Every value is an optimum, whatever the size.  Counts are covers with unit
weights, so they come out as exact integers.

The separation weights exp(-n * excess) span many orders of magnitude.  They
are divided by a lower bound on the optimum: the largest, over members, of the
cheapest weight among the rows that cover the member.  Every cover costs
between that bound and the member count times it, so the solver's tolerances
act on an O(1) objective.  Dividing by the largest weight instead leaves the
objective tiny at large n, where the solver can stop short of the optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

__all__ = [
    "FunctionDictionary",
    "UncoverableMemberError",
    "CoverResult",
    "covering_number",
    "one_sided_bracketing_number",
    "separation_quantity",
    "covering_number_detailed",
    "one_sided_bracketing_number_detailed",
    "separation_quantity_detailed",
    "default_bracket_pool",
]

class UncoverableMemberError(ValueError):
    """Some dictionary member admits no admissible bracket in the pool."""


@dataclass(frozen=True)
class FunctionDictionary:
    """Finite list of grid functions at a common grid level."""

    members: tuple

    def __post_init__(self) -> None:
        members = tuple(self.members)
        if not members:
            raise ValueError("dictionary must be nonempty")
        lvl = members[0].grid_level
        if any(f.grid_level != lvl for f in members):
            raise ValueError("all members must share one grid level")
        object.__setattr__(self, "members", members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def grid_level(self) -> int:
        return self.members[0].grid_level

    def matrix(self, level: int) -> np.ndarray:
        """The members refined to ``level``, stacked as an ``(N, 2**level)`` matrix (row k = member k)."""
        return np.stack([f.refine(level).values for f in self.members])


@dataclass(frozen=True)
class CoverResult:
    value: float
    selection: tuple


def _coverage(candidates: FunctionDictionary, dict_: FunctionDictionary, test) -> np.ndarray:
    """``(len(candidates), len(dict_))`` matrix whose row c is ``test(c, F)``, F the member matrix.

    Both sides are refined to the finer grid.  One row at a time keeps memory at one member matrix.
    """
    lvl = max(candidates.grid_level, dict_.grid_level)
    members = dict_.matrix(lvl)
    return np.array([test(c, members) for c in candidates.matrix(lvl)], dtype=bool)


def _cover(covers: np.ndarray, weights: np.ndarray) -> CoverResult:
    """Cheapest set of rows of ``covers`` whose union holds every column, by one exact MILP."""
    # function-local: scipy.optimize would add about 0.2 s and 20 MB to ``import bbayes``, which few runs need
    from scipy.optimize import Bounds, LinearConstraint, milp

    missing = np.flatnonzero(~covers.any(axis=0)).tolist()
    if missing:
        raise UncoverableMemberError(f"members {missing} have no admissible bracket in the pool")
    # a lower bound on the optimum (see the module docstring); 0 only if every covering weight underflowed
    scale = np.where(covers, weights[:, None], np.inf).min(axis=0).max() or 1.0
    res = milp(
        weights / scale,
        integrality=np.ones(len(weights)),
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(covers.T.astype(float), lb=1),
        options={"mip_rel_gap": 0},
    )
    if res.status != 0:
        raise RuntimeError(f"set cover MILP not solved: {res.message}")
    sel = np.flatnonzero(res.x > 0.5)
    if not covers[sel].any(axis=0).all():
        raise RuntimeError("set cover MILP returned a selection that misses a member")
    return CoverResult(float(weights[sel].sum()), tuple(sel.tolist()))


def covering_number_detailed(dict_: FunctionDictionary, eps: float) -> CoverResult:
    if not eps > 0:
        raise ValueError("eps must be positive")
    covers = _coverage(dict_, dict_, lambda c, members: np.abs(c - members).max(axis=1) <= eps)
    return _cover(covers, np.ones(len(dict_)))


def covering_number(dict_: FunctionDictionary, eps: float) -> int:
    """Minimal number of closed sup-norm eps-balls centered at members covering the dictionary."""
    return int(covering_number_detailed(dict_, eps).value)


def one_sided_bracketing_number_detailed(
    dict_: FunctionDictionary, delta: float, bracket_pool: FunctionDictionary
) -> CoverResult:
    if not delta >= 0:
        raise ValueError("delta must be nonnegative")
    covers = _coverage(
        bracket_pool,
        dict_,
        lambda ell, members: np.all(ell <= members, axis=1) & ((members - ell).mean(axis=1) <= delta),
    )
    return _cover(covers, np.ones(len(bracket_pool)))


def one_sided_bracketing_number(
    dict_: FunctionDictionary, delta: float, bracket_pool: FunctionDictionary
) -> int:
    """Smallest number of pool functions lower-bracketing every member within delta."""
    return int(one_sided_bracketing_number_detailed(dict_, delta, bracket_pool).value)


def separation_quantity_detailed(
    dict_: FunctionDictionary, f0: GridFunction, n: float, bracket_pool: FunctionDictionary
) -> CoverResult:
    if not 0 < n < math.inf:
        raise ValueError("n must be positive and finite")
    covers = _coverage(bracket_pool, dict_, lambda ell, members: np.all(ell <= members, axis=1))
    lvl = max(bracket_pool.grid_level, f0.grid_level)
    excess = np.maximum(bracket_pool.matrix(lvl) - f0.refine(lvl).values, 0.0).mean(axis=1)
    return _cover(covers, np.exp(-n * excess))


def separation_quantity(
    dict_: FunctionDictionary, f0: GridFunction, n: float, bracket_pool: FunctionDictionary
) -> float:
    """Minimized sum of exp(-n * integral((l - f0)_+)) over lower-bracket families from the pool."""
    return separation_quantity_detailed(dict_, f0, n, bracket_pool).value


def default_bracket_pool(dict_: FunctionDictionary) -> FunctionDictionary:
    """The dictionary itself plus all pairwise pointwise minima (deduplicated)."""
    pool = list(dict_.members)
    seen = set(pool)
    for i, f in enumerate(dict_.members):
        for g in dict_.members[i + 1 :]:
            h = f.pointwise_min(g)
            if h not in seen:
                seen.add(h)
                pool.append(h)
    return FunctionDictionary(tuple(pool))
