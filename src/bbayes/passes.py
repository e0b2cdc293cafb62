"""Exact passes over a prior's Markov structure, which draw no random numbers: the small-ball quadratures, and the
Haar-tree passes that refuse or start a wavelet chain.  ``brownian_log_p`` walks the Brownian prior's bins; each
pass up a wavelet series' Haar tree is one ``haar_fold``.  The tree's leaves are the 2**(j_max+1) finest blocks;
the even and odd columns of level j+1's ``(rows, 2**(j+1))`` array are the children of level j's nodes, where a
detail z moves the partial sum s to s + A_j z (left) and s - A_j z (right), A_j = 2^{j/2} a_j; the root's is a_0 z_0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

__all__ = ["haar_fold", "block_minima", "haar_log_p", "brownian_log_p", "richardson", "mixture_log_p",
           "improper_laplace", "highest_feasible"]


def haar_fold(prior, leaves: np.ndarray, node, top: int | None = None) -> list:
    """Each level's values of a pass up ``prior``'s Haar tree from ``leaves``, the children of level ``top`` (j_max by
    default): level j's are ``node(left, right, A_j)`` of its children's ``[:, 0::2]``, ``[:, 1::2]``, j = top..0."""
    levels = [leaves]
    for j in range(prior.j_max if top is None else top, -1, -1):
        levels.append(node(levels[-1][:, 0::2], levels[-1][:, 1::2], _level_step(prior, j)))
    return levels


def _level_step(prior, j: int) -> np.ndarray:
    """A_j = 2^{j/2} a_j, one per level-j node of ``prior``."""
    return 2.0 ** (j / 2.0) * prior.amplitudes[1 << j : 2 << j]


def block_minima(prior, values: np.ndarray) -> np.ndarray:
    """The minimum of each of the 2**(j_max+1) finest blocks of ``prior``, over the last axis of ``values``."""
    return values.reshape(*values.shape[:-1], 2 << prior.j_max, -1).min(axis=-1)


def _mass(dist, lo, hi) -> np.ndarray:
    """P(lo < z <= hi) for z of law ``dist``, 0 where lo >= hi; an interval right of 0 is read in the left tail."""
    return np.maximum(np.where(lo > 0.0, dist.cdf(-lo) - dist.cdf(-hi), dist.cdf(hi) - dist.cdf(lo)), 0.0)


def haar_log_p(prior, target: np.ndarray, eps: float, cells: int) -> float:
    """log P(sup|X - target| <= eps), wavelet-series prior, by an upward pass over the Haar tree; -inf if P = 0.

    The ball is one window [max_b target - eps, min_b target + eps] per finest block b.  A node with partial sum s
    has message M(s), the probability that its blocks stay in their windows.  At j_max both children are blocks,
    and M is the law's mass on the z both windows allow.  Above, on the lattice s_i = i d, d = 2 eps / cells,
    M(s_i) is sum_t w_t M_L(s_{i+t}) M_R(s_{i-t}), w_t the law's mass on the cell of z = t d / A_j, over every t
    with w_t > 0; the root integrates M_0 against the cell masses of the scaling coefficient.  Messages are
    (S, nodes) arrays, one level at a time, each node's renormalised by its max, whose log is added to log P.
    """
    lo, hi = -block_minima(prior, -target) - eps, block_minima(prior, target) + eps
    if np.any(lo >= hi):
        return -math.inf
    dist, d = prior.dist, 2.0 * eps / cells
    s = d * np.arange(math.floor(lo.min() / d), math.ceil(hi.max() / d) + 1)
    n, log_p = s.size, 0.0

    def normalised(msg):
        nonlocal log_p
        peak = msg.max(axis=0)
        log_p += float(np.log(peak).sum())
        return msg / peak

    def node(left, right, a):
        left, right = np.ascontiguousarray(left), np.ascontiguousarray(right)
        step, offsets = d / a[0], np.arange((n + 1) // 2)  # one lattice cell in z; all the lattice holds
        w = _mass(dist, (offsets - 0.5) * step, (offsets + 0.5) * step)
        msg = w[0] * left * right
        for t in range(1, np.flatnonzero(w)[-1] + 1):  # up to where the law's mass underflows or ends
            msg[t : n - t] += w[t] * (left[2 * t :] * right[: n - 2 * t] + left[: n - 2 * t] * right[2 * t :])
        return normalised(msg)

    a = _level_step(prior, prior.j_max)
    z_lo = np.maximum(lo[0::2] - s[:, None], s[:, None] - hi[1::2]) / a
    z_hi = np.minimum(hi[0::2] - s[:, None], s[:, None] - lo[1::2]) / a
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero peak: log P = -inf, and nan messages above it
        msg = haar_fold(prior, normalised(_mass(dist, z_lo, z_hi)), node, prior.j_max - 1)[-1]
    root = float(_mass(dist, (s - 0.5 * d) / prior.amplitudes[0], (s + 0.5 * d) / prior.amplitudes[0]) @ msg[:, 0])
    return log_p + math.log(root) if root > 0.0 else -math.inf


def brownian_log_p(target: np.ndarray, eps: float, cells: int) -> float:
    """log P(sup|X - target| <= eps), Brownian-start prior, by a transfer operator; -inf if the mass is lost.

    Each bin's window [target_k - eps, target_k + eps] is cut into ``cells`` cells of width d, edge to edge.
    Bin 0 holds the N(0, 1 + 1/m) cell masses; each next bin convolves them, taken at the cell centres, with the
    cell-integrated N(0, 1/m) increment cut at 8 sd, a band set by target_k - target_{k-1}.  Error: smooth O(d^2).
    """
    m, t = target.size, target.tolist()
    sd, d = 1.0 / math.sqrt(m), 2.0 * eps / cells
    w = np.diff(ndtr((t[0] - eps + d * np.arange(cells + 1)) / math.sqrt(1.0 + 1.0 / m)))
    log_p, shift = 0.0, None
    for k in range(m):
        if k:
            if t[k] - t[k - 1] != shift:  # cell offsets lo..hi: the 8 sd cut, widened to hold 0
                shift = t[k] - t[k - 1]
                lo = max(1 - cells, min(0, math.ceil((-8.0 * sd - shift) / d)))
                hi = min(cells - 1, max(0, math.floor((8.0 * sd - shift) / d)))
                kernel = np.diff(ndtr((shift + (np.arange(lo, hi + 2) - 0.5) * d) / sd))
            w = np.convolve(w, kernel)[-lo : cells - lo]
        s = float(w.sum())
        if s <= 0.0:
            return -math.inf
        log_p += math.log(s)
        w /= s
    return log_p


def richardson(log_p, cells: int) -> tuple[float, float]:
    """(P, std_error) of an O(d^2) quadrature ``log_p(c)`` run at ``cells``, 2 ``cells`` and 4 ``cells`` cells.

    With R(a, b) = (4 log_p(b) - log_p(a)) / 3, P = exp R(2 cells, 4 cells) and std_error is
    P |R(2 cells, 4 cells) - R(cells, 2 cells)|; (0, 0) if a run loses the mass.
    """
    coarse, mid, fine = (log_p(c) for c in (cells, 2 * cells, 4 * cells))
    if min(coarse, mid, fine) == -math.inf:
        return 0.0, 0.0
    r = (4.0 * fine - mid) / 3.0
    return math.exp(r), math.exp(r) * abs(r - (4.0 * mid - coarse) / 3.0)


def mixture_log_p(levels, target: np.ndarray, eps: float, cells: int) -> float:
    """log sum_j w_j P_j over the weighted wavelet-series priors ``levels``, each P_j by ``haar_log_p``."""
    return float(np.logaddexp.reduce([math.log(w) + haar_log_p(prior, target, eps, cells) for w, prior in levels]))


def improper_laplace(prior, mins: np.ndarray, n) -> np.ndarray:
    """Which rows of bin minima ``mins`` give a laplace wavelet prior (none for any other) an improper posterior
    at intensity n, a scalar or one per row: those where, at some level of ``levels()``, raising z0 by 1 stays
    feasible at a detail cost sum |d_i| / s = a0 * kappa <= n a0 - 1/s.  kappa, the cost per unit partial sum, is 0
    on a finest block with no point and inf on one with a point; a node's is the cheaper of passing the sum on or
    zeroing one child."""
    improper = np.zeros(len(mins), dtype=bool)
    if getattr(prior, "dist", None) is None or prior.dist.kind != "laplace":
        return improper
    for _, level in prior.levels():
        s, a0 = level.dist.scale, float(level.amplitudes[0])
        leaves = np.where(np.isfinite(block_minima(level, mins)), np.inf, 0.0)
        kappa = haar_fold(level, leaves, lambda l, r, a: np.minimum(l + r, 1.0 / (a * s) + 2.0 * np.minimum(l, r)))
        improper |= n * a0 >= 1.0 / s + a0 * kappa[-1][:, 0]
    return improper


def highest_feasible(prior, mins: np.ndarray):
    """The highest feasible state of a uniform wavelet prior at each row of bin minima ``mins``, as latent rows,
    and whether any state is feasible there.

    U, the highest feasible partial sum of a Haar node, is the block minimum on a finest block; a level-j node,
    whose detail moves its children by at most s A_j, takes (U_L + U_R) / 2 if |U_L - U_R| <= 2 s A_j, else
    min(U_L, U_R) + s A_j.  A state is feasible iff U_root >= -s a0; then z0 = min(U_root, s a0) / a0, and top
    down each detail is the one nearest 0 that keeps both children at or below their U.
    """
    s, a0 = prior.dist.scale, float(prior.amplitudes[0])
    with np.errstate(invalid="ignore"):  # two empty blocks: inf - inf, where min(U_L, U_R) + s A_j is inf as well
        u = haar_fold(prior, block_minima(prior, mins), lambda l, r, a: np.where(
            np.abs(l - r) <= 2.0 * s * a, (l + r) / 2.0, np.minimum(l, r) + s * a))[::-1]  # U per level, root first
    z, c = np.empty((len(mins), prior.latent_dim)), np.minimum(u[0], s * a0)  # c: the partial sums of a level
    z[:, 0] = c[:, 0] / a0
    for j, children in enumerate(u[1:]):
        d = np.clip(0.0, c - children[:, 1::2], children[:, 0::2] - c)
        z[:, 1 << j : 2 << j] = np.clip(d / (s * _level_step(prior, j)), -1.0, 1.0) * s
        c = np.stack([c + d, c - d], axis=2).reshape(len(mins), -1)
    return z, u[0][:, 0] >= -s * a0
