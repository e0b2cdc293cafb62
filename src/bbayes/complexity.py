"""Complexity functionals on finite function dictionaries: sup-norm covering
numbers, one-sided bracketing numbers and the separation quantity.

Each functional is one weighted set cover.  It builds a boolean coverage
matrix, ``covers[c, k]`` true when candidate c covers member k, by testing each
candidate row against the stacked member values, and hands it to ``_cover``;
counts are covers with unit weights.  When both dimensions are at most
``EXACT_LIMIT`` the cover is exact: Dijkstra over bitmask coverage states,
branching only on the candidates that cover the lowest uncovered member.
Every cover contains such a candidate, so the search misses no optimum.
Larger inputs fall back to greedy set cover, whose value is an upper bound
within a factor 1 + ln(members) of the optimum.
"""

from __future__ import annotations

import heapq
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

EXACT_LIMIT = 20


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
    exact: bool
    selection: tuple


def _coverage(candidates: FunctionDictionary, dict_: FunctionDictionary, test) -> np.ndarray:
    """``(len(candidates), len(dict_))`` matrix whose row c is ``test(c, F)``, F the member matrix.

    Both sides are refined to the finer grid.  One row at a time keeps memory at one member matrix.
    """
    lvl = max(candidates.grid_level, dict_.grid_level)
    members = dict_.matrix(lvl)
    return np.array([test(c, members) for c in candidates.matrix(lvl)], dtype=bool)


def _exact_cover(masks: list[int], weights: list[float], full: int) -> list[int]:
    """Minimum-weight cover by Dijkstra over coverage states (weights nonnegative)."""
    by_member = [[i for i, mask in enumerate(masks) if mask >> k & 1] for k in range(full.bit_length())]
    best = {0: 0.0}
    heap = [(0.0, 0, ())]
    while True:
        cost, state, chosen = heapq.heappop(heap)
        if state == full:
            return sorted(chosen)
        if cost > best[state]:
            continue
        for i in by_member[(~state & (state + 1)).bit_length() - 1]:  # the lowest uncovered member
            new, new_cost = state | masks[i], cost + weights[i]
            if new_cost < best.get(new, math.inf):
                best[new] = new_cost
                heapq.heappush(heap, (new_cost, new, chosen + (i,)))


def _greedy_complete(masks: list[int], weights: list[float], full: int, first: int) -> list[int]:
    """Complete a cover greedily from a forced first pick, then drop redundancies."""
    chosen = [first]
    covered = masks[first]
    while covered != full:
        best_i = -1
        best_score = math.inf
        for i, mask in enumerate(masks):
            gain = (mask & ~covered).bit_count()
            if gain == 0:
                continue
            score = weights[i] / gain
            if score < best_score - 1e-15:
                best_score = score
                best_i = i
        chosen.append(best_i)
        covered |= masks[best_i]
    # prune: remove redundant picks, most expensive first
    for i in sorted(chosen, key=lambda k: -weights[k]):
        rest = [j for j in chosen if j != i]
        rest_cover = 0
        for j in rest:
            rest_cover |= masks[j]
        if rest_cover == full:
            chosen = rest
    return chosen


def _greedy_cover(masks: list[int], weights: list[float], full: int) -> list[int]:
    """Multi-start pruned greedy set cover; ties broken by lowest index.

    Each pool element is tried as the forced first pick, the rest of the cover
    is filled by weight-per-gain greedy and pruned of redundant picks; the
    cheapest completed cover wins.  Still an upper bound on the optimum, but
    exact on most small instances.
    """
    best: list[int] = []
    best_weight = math.inf
    for first, mask in enumerate(masks):
        if mask == 0:
            continue
        chosen = _greedy_complete(masks, weights, full, first)
        total = sum(weights[i] for i in chosen)
        if total < best_weight - 1e-15:
            best_weight = total
            best = chosen
    return best


def _cover(covers: np.ndarray, weights: list[float]) -> CoverResult:
    """Cheapest set of rows of ``covers`` whose union holds every column; exact when both sides are small."""
    missing = np.flatnonzero(~covers.any(axis=0)).tolist()
    if missing:
        raise UncoverableMemberError(f"members {missing} have no admissible bracket in the pool")
    masks = [sum(1 << k for k in np.flatnonzero(row).tolist()) for row in covers]
    exact = max(covers.shape) <= EXACT_LIMIT
    sel = (_exact_cover if exact else _greedy_cover)(masks, weights, (1 << covers.shape[1]) - 1)
    return CoverResult(sum(weights[i] for i in sel), exact, tuple(sel))


def covering_number_detailed(dict_: FunctionDictionary, eps: float) -> CoverResult:
    if not eps > 0:
        raise ValueError("eps must be positive")
    covers = _coverage(dict_, dict_, lambda c, members: np.abs(c - members).max(axis=1) <= eps)
    return _cover(covers, [1.0] * len(dict_))


def covering_number(dict_: FunctionDictionary, eps: float) -> int:
    """Minimal number of closed sup-norm eps-balls centered at members covering the dictionary."""
    return int(covering_number_detailed(dict_, eps).value)


def one_sided_bracketing_number_detailed(
    dict_: FunctionDictionary, delta: float, bracket_pool: FunctionDictionary
) -> CoverResult:
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    covers = _coverage(
        bracket_pool,
        dict_,
        lambda ell, members: np.all(ell <= members, axis=1) & ((members - ell).mean(axis=1) <= delta),
    )
    return _cover(covers, [1.0] * len(bracket_pool))


def one_sided_bracketing_number(
    dict_: FunctionDictionary, delta: float, bracket_pool: FunctionDictionary
) -> int:
    """Smallest number of pool functions lower-bracketing every member within delta."""
    return int(one_sided_bracketing_number_detailed(dict_, delta, bracket_pool).value)


def separation_quantity_detailed(
    dict_: FunctionDictionary, f0: GridFunction, n: float, bracket_pool: FunctionDictionary
) -> CoverResult:
    if not n > 0:
        raise ValueError("n must be positive")
    covers = _coverage(bracket_pool, dict_, lambda ell, members: np.all(ell <= members, axis=1))
    lvl = max(bracket_pool.grid_level, f0.grid_level)
    excess = np.maximum(bracket_pool.matrix(lvl) - f0.refine(lvl).values, 0.0).mean(axis=1)
    return _cover(covers, [math.exp(-n * float(x)) for x in excess])


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
