"""Reference set-cover solver for the complexity tests: Dijkstra over bitmask coverage states.

Exact for nonnegative weights, and exponential in the member count, so the tests call it on at most
about 20 members.  It branches only on the rows that cover the lowest uncovered member; every cover
holds such a row, so the search misses no optimum.
"""

import heapq
import math

import numpy as np


def min_cover(covers, weights):
    """(weight, sorted row indices) of the cheapest set of rows of bool ``covers`` covering every column."""
    masks = [sum(1 << k for k in np.flatnonzero(row).tolist()) for row in covers]
    full = (1 << covers.shape[1]) - 1
    by_member = [[i for i, mask in enumerate(masks) if mask >> k & 1] for k in range(covers.shape[1])]
    best = {0: 0.0}
    heap = [(0.0, 0, ())]
    while True:
        cost, state, chosen = heapq.heappop(heap)
        if state == full:
            return cost, sorted(chosen)
        if cost > best[state]:
            continue
        for i in by_member[(~state & (state + 1)).bit_length() - 1]:  # the lowest uncovered member
            new, new_cost = state | masks[i], cost + float(weights[i])
            if new_cost < best.get(new, math.inf):
                best[new] = new_cost
                heapq.heappush(heap, (new_cost, new, chosen + (i,)))


def _values(dict_):
    return np.stack([f.values for f in dict_.members])


def covering(dict_, eps):
    f = _values(dict_)
    return min_cover(np.abs(f[:, None, :] - f[None, :, :]).max(axis=2) <= eps, np.ones(len(f)))[0]


def bracketing(dict_, delta, pool):
    f, ell = _values(dict_), _values(pool)
    below = np.all(ell[:, None, :] <= f[None, :, :], axis=2)
    close = (f[None, :, :] - ell[:, None, :]).mean(axis=2) <= delta
    return min_cover(below & close, np.ones(len(ell)))[0]


def separation(dict_, f0, n, pool):
    f, ell = _values(dict_), _values(pool)
    weights = np.exp(-n * np.maximum(ell - f0.values, 0.0).mean(axis=1))
    return min_cover(np.all(ell[:, None, :] <= f[None, :, :], axis=2), weights)[0]
