"""Exact passes over a prior's Markov structure, which draw no random numbers: the small-ball quadratures, and the
Haar-tree passes that refuse, start or bound a wavelet chain.  ``brownian_log_p`` walks the Brownian prior's bins;
a pass up a wavelet series' Haar tree that reads its steps A_j is one ``haar_fold``.  The tree's leaves are the
2**(j_max+1) finest blocks; the even and odd columns of level j+1's ``(rows, 2**(j+1))`` array are the children of
level j's nodes, where a detail z moves the partial sum s to s + A_j z (left) and s - A_j z (right),
A_j = 2^{j/2} a_j; the root's is a_0 z_0.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["haar_fold", "level_step", "block_minima", "dyadic_minima", "haar_log_p", "brownian_log_p", "richardson",
           "mixture_log_p", "improper_laplace", "highest_feasible"]


def haar_fold(prior, leaves: np.ndarray, node, top: int | None = None) -> list:
    """Each level's values of a pass up ``prior``'s Haar tree from ``leaves``, the children of level ``top`` (j_max by
    default): level j's are ``node(left, right, A_j)`` of its children's ``[:, 0::2]``, ``[:, 1::2]``, j = top..0."""
    levels = [leaves]
    for j in range(prior.j_max if top is None else top, -1, -1):
        levels.append(node(levels[-1][:, 0::2], levels[-1][:, 1::2], level_step(prior, j)))
    return levels


def level_step(prior, j: int) -> np.ndarray:
    """A_j = 2^{j/2} a_j, one per level-j node of ``prior``."""
    return 2.0 ** (j / 2.0) * prior.amplitudes[1 << j : 2 << j]


def block_minima(values: np.ndarray, j_max: int) -> np.ndarray:
    """The minimum of each of the 2**(j_max+1) finest blocks of a series to level ``j_max``, over the last axis."""
    return values.reshape(*values.shape[:-1], 2 << j_max, -1).min(axis=-1)


def dyadic_minima(leaves: np.ndarray) -> list:
    """The minima of ``leaves`` over every dyadic interval of the last axis, one array per level, finest first."""
    levels = [leaves]
    while levels[-1].shape[-1] > 1:
        levels.append(np.minimum(levels[-1][..., 0::2], levels[-1][..., 1::2]))
    return levels


def _mass(dist, lo, hi) -> np.ndarray:
    """P(lo < z <= hi) for z of law ``dist``, 0 where lo >= hi; an interval right of 0 is read in the left tail."""
    return np.maximum(dist.cdf(np.where(lo > 0.0, -lo, hi)) - dist.cdf(np.where(lo > 0.0, -hi, lo)), 0.0)


def haar_log_p(prior, target: np.ndarray, eps: float, cells: int) -> float:
    """log P(sup|X - target| <= eps), wavelet-series prior, by an upward pass over the Haar tree; -inf if P = 0.

    The ball is one window [max_b target - eps, min_b target + eps] per finest block b.  A node with partial sum s
    has message M(s), the probability that its blocks stay in their windows.  At j_max both children are blocks,
    and M is the law's mass on the z both windows allow.  Above, on the lattice s_i = i d, d = 2 eps / cells,
    M(s_i) is sum_t w_t M_L(s_{i+t}) M_R(s_{i-t}), w_t the law's mass on the cell of z = t d / A_j, over every t
    with w_t > 0; the root integrates M_0 against the cell masses of the scaling coefficient.  M is 0 off a node's
    index range [a, b] (at j_max, i d strictly between the means of its children's window ends; above, a = ceil((a_L
    + a_R) / 2), b = floor((b_L + b_R) / 2)).  A level's messages are an (S, nodes) array, row r of a node at
    s_{a+r} and 0 past b, each renormalised by its max, whose log is added to log P; a node is one contraction of
    the taps w_|t| with windows of its children's zero-padded frames, the left one read forwards, the right reversed,
    each child's windows one read-only strided view of its frame (``_windows``), not a copy.

    When every finest block has one window, as for a constant target (every centred ball, and each level of a
    truncated prior's centred mixture), every node of a level has the same range, children and step A_j, so the same
    message: the pass folds the tree on one column, which stands for ``copies`` nodes (2^j at level j) and is its own
    sibling, and adds its log max once per node, summed as the unfolded pass sums it, so log P is the same bits.
    """
    lo, hi = -block_minima(-target, prior.j_max) - eps, block_minima(target, prior.j_max) + eps
    if np.any(lo >= hi):
        return -math.inf
    copies = lo.size // 2 if lo.min() == lo.max() and hi.min() == hi.max() else 1  # nodes per column, at j_max
    lo, hi = lo[: lo.size // copies], hi[: hi.size // copies]
    dist, d = prior.dist, 2.0 * eps / cells
    spans = np.stack([np.floor((lo[0::2] + lo[1::2]) / 2.0 / d), np.ceil((hi[0::2] + hi[1::2]) / 2.0 / d)])
    spans, ceil, log_p = spans.astype(np.int64), np.array([[1], [0]]), 0.0  # [a, b] of each node, from j_max up

    def normalised(msg):
        nonlocal log_p
        peak = msg.max(axis=0)
        log_p += float(np.log(peak).repeat(copies).sum())  # once per node, in the order of the unfolded sum
        return msg / peak

    def node(left, right, a):
        nonlocal spans, copies
        if copies > 1:  # the one column is its own sibling
            right, spans, copies = left, spans.repeat(2, axis=1), copies // 2
        child, spans = spans, (spans[:, 0::2] + spans[:, 1::2] + ceil) // 2  # a = ceil((a_L + a_R) / 2), b = floor
        size = max(1, int((spans[1] - spans[0]).max()) + 1)  # S, the rows of the level
        ends = child.reshape(2, -1, 2) - spans[0][:, None]  # [a or b, node, left or right child], less the node's a
        lows, highs, b_hi = ends[0].min(axis=0).tolist(), ends[0].max(axis=0).tolist(), int(ends[1].max())
        t = np.arange(max(0, (b_hi - min(lows)) // 2) + 1)  # every t that can pair the two ranges
        w = _mass(dist, (t - 0.5) * (d / a[0]), (t + 0.5) * (d / a[0]))
        reach = int(np.flatnonzero(w)[-1])  # up to where the law's mass underflows or ends
        left, right = (_windows(_framed(msg, -reach - (low if low == high else first), size + 2 * reach),
                                2 * reach + 1)  # [row, node, reach + t]: row + t of the frame
                       for msg, first, low, high in zip((left, right), ends[0].T, lows, highs))
        taps = np.concatenate([w[reach:0:-1], w[: reach + 1]])  # w_|t|, t = -reach..reach
        return normalised(np.einsum("int,int,t->in", left, right[..., ::-1], taps))

    a = level_step(prior, prior.j_max)[: spans.shape[1]]
    s = d * (spans[0] + np.arange(max(1, int((spans[1] - spans[0]).max()) + 1))[:, None])
    z_lo = np.maximum(lo[0::2] - s, s - hi[1::2]) / a
    z_hi = np.minimum(hi[0::2] - s, s - lo[1::2]) / a
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero peak: log P = -inf, and nan messages above it
        msg = haar_fold(prior, normalised(_mass(dist, z_lo, z_hi)), node, prior.j_max - 1)[-1]
    s = d * (spans[0] + np.arange(len(msg)))
    root = float(_mass(dist, (s - 0.5 * d) / prior.amplitudes[0], (s + 0.5 * d) / prior.amplitudes[0]) @ msg[:, 0])
    return log_p + math.log(root) if root > 0.0 and log_p > -math.inf else -math.inf


def _framed(msg: np.ndarray, first, size: int) -> np.ndarray:
    """``size`` rows of each node of ``msg``, an (S, nodes) array, from its row ``first`` (an int for every node, or
    one per node), as a new array; 0 off the S rows."""
    if np.ndim(first) == 0:  # one shift for every node: a slice, for the small-ball workload, whose wall_ref_s
        # reads 0.0385 s against 0.0406 s with the gather alone (medians of 5 alternating pairs on a 2-core VM)
        out = np.zeros((size, msg.shape[1]))
        out[max(0, -first) : max(0, len(msg) - first)] = msg[max(0, first) : max(0, first + size)]
        return out
    below = max(0, -int(first.min()))
    padded = np.zeros((below + max(len(msg), int(first.max()) + size), msg.shape[1]))
    padded[below : below + len(msg)] = msg
    return padded.ravel().take((first + below + np.arange(size)[:, None]) * msg.shape[1] + np.arange(msg.shape[1]))


def _windows(frame: np.ndarray, width: int) -> np.ndarray:
    """The read-only view [i, ..., t] = frame[i + t, ...] of a C-contiguous ``frame``'s windows of ``width`` rows,
    no copy: numpy's sliding-window view on axis 0, the same shape, strides and values, without the checks that cost
    a small-ball node as much as its contraction; the ndarray constructor still keeps the view inside ``frame``."""
    step = frame.strides[0]
    view = np.ndarray((len(frame) - width + 1, *frame.shape[1:], width), frame.dtype, buffer=frame, offset=0,
                      strides=(step, *frame.strides[1:], step))
    view.flags.writeable = False
    return view


def brownian_log_p(target: np.ndarray, eps: float, cells: int) -> float:
    """log P(sup|X - target| <= eps), Brownian-start prior, by a transfer operator; -inf if the mass is lost.

    Each bin's window [target_k - eps, target_k + eps] is cut into ``cells`` cells of width d, edge to edge.
    Bin 0 holds the N(0, 1 + 1/m) cell masses; each next bin convolves them, taken at the cell centres, with the
    cell-integrated N(0, 1/m) increment cut at 8 sd, a band set by target_k - target_{k-1}.  Error: smooth O(d^2).
    A run of r >= ``cells`` equal increments, at up to 256 cells, applies its banded transfer matrix as its r-th
    power by repeated squaring, whose reordered sums move log P by rounding only (about 1e-13 relative).  A run of
    zero increments at an even cell count, up to 512, has a centrosymmetric matrix: its even and odd halves are
    squared apart, as two stacked half-size matrices (Cantoni & Butler 1976), and the even half holds the mass;
    the last run, after which w is not read, powers the even half alone, to the same bits (see ``_matrix_power``).
    """
    from scipy.special import ndtr
    m = target.size
    sd, d = 1.0 / math.sqrt(m), 2.0 * eps / cells
    w = np.diff(ndtr((float(target[0]) - eps + d * np.arange(cells + 1)) / math.sqrt(1.0 + 1.0 / m)))
    inc = np.diff(target)
    starts = np.flatnonzero(np.diff(inc, prepend=np.nan))  # the first increment of each run of equal ones
    runs = zip([None] + inc[starts].tolist(), [1] + np.diff(starts, append=m - 1).tolist())
    log_p, lo, kernel = 0.0, 0, np.ones(1)  # bin 0 has no increment: the identity
    for k, (shift, r) in enumerate(runs):  # run k = len(starts) is the last
        if shift is not None:  # cell offsets lo..hi: the 8 sd cut, widened to hold 0
            lo = max(1 - cells, min(0, math.ceil((-8.0 * sd - shift) / d)))
            hi = min(cells - 1, max(0, math.floor((8.0 * sd - shift) / d)))
            kernel = np.diff(ndtr((shift + (np.arange(lo, hi + 2) - 0.5) * d) / sd))
            fold = shift == 0.0 and cells % 2 == 0  # a symmetric Toeplitz matrix: even and odd halves apart
            if r >= cells and cells <= (512 if fold else 256):  # no matrix above 256 x 256, 0.5 MB
                band = np.pad(kernel, (cells - 1 + lo, cells - 1 - hi))  # band[cells - 1 + u]: the mass of offset u
                matrix = _windows(band, cells)[::-1]  # matrix[i, j]: the mass of offset j - i
                if fold:  # matrix [[A, B], [JBJ, JAJ]], w = [t, b]: t + bJ runs under A + BJ, t - bJ under A - BJ
                    h = cells // 2
                    a, bj, t, bj_w = matrix[:h, :h], matrix[:h, : h - 1 : -1], w[:h], w[: h - 1 : -1]
                    if k == len(starts):  # w is not read again: power the even half alone, which sets every scale
                        return _matrix_power((t + bj_w)[None], (a + bj)[None], r, log_p)[1]
                    x, log_p = _matrix_power(np.stack([t + bj_w, t - bj_w]), np.stack([a + bj, a - bj]), r, log_p)
                    w = np.concatenate([x[0] + x[1], (x[0] - x[1])[::-1]]) / 2.0
                else:
                    w, log_p = _matrix_power(w[None], np.ascontiguousarray(matrix)[None], r, log_p)
                    w = w[0]
                continue  # if the mass is lost, log_p is -inf and w is 0, so the next bin returns
        for _ in range(r):
            w = np.convolve(w, kernel)[-lo : cells - lo]
            s = float(w.sum())
            if s <= 0.0:
                return -math.inf
            log_p += math.log(s)
            w /= s
    return log_p


def _matrix_power(w: np.ndarray, matrix: np.ndarray, r: int, log_p: float) -> tuple[np.ndarray, float]:
    """(v, log_p + log c) with w[k] matrix[k]^r = c v[k] for each stacked row k, v[0] summing to 1, by repeated
    squaring; (0, -inf) if row 0's mass is lost.  All stacked matrices share one scale: each square is rescaled by
    its max, whose log is carried, and w takes one product per set bit of r.  For a fold's stack (A + BJ, A - BJ),
    A, B >= 0, |(A - BJ)^k| <= (A + BJ)^k: the even half sets each max, so alone it gives the same row 0 and log_p."""
    log_scale = 0.0  # matrix^(2^b) = exp(log_scale) matrix
    while True:
        if r & 1:
            w = np.matmul(w[:, None], matrix)[:, 0]
            s = float(w[0].sum())
            if s <= 0.0:
                return w, -math.inf
            log_p, w = log_p + log_scale + math.log(s), w / s
        r >>= 1
        if not r:
            return w, log_p
        matrix = matrix @ matrix
        peak = float(matrix.max())
        if peak > 0.0:  # else a zero matrix, which loses the mass at the next product
            log_scale, matrix = 2.0 * log_scale + math.log(peak), matrix / peak


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
        leaves = np.where(np.isfinite(block_minima(mins, level.j_max)), np.inf, 0.0)
        kappa = haar_fold(level, leaves, lambda l, r, a: np.minimum(l + r, 1.0 / (a * s) + 2.0 * np.minimum(l, r)))
        improper |= n * a0 >= 1.0 / s + a0 * kappa[-1][:, 0]
    return improper


def highest_feasible(prior, mins: np.ndarray):
    """The highest feasible state of a uniform wavelet prior at each row of bin minima ``mins``, as its values on
    the ``2**(j_max+1)`` finest blocks, and whether any state is feasible there.

    U, the highest feasible partial sum of a Haar node, is the block minimum on a finest block; a level-j node,
    whose detail moves its children by at most s A_j, takes (U_L + U_R) / 2 if |U_L - U_R| <= 2 s A_j, else
    min(U_L, U_R) + s A_j.  A state is feasible iff U_root >= -s a0; then the root is min(U_root, s a0), and top down
    each step d, clipped to +-s A_j, is the one nearest 0 that keeps the children (node + d, node - d) below their U.
    """
    s, a0 = prior.dist.scale, float(prior.amplitudes[0])
    with np.errstate(invalid="ignore"):  # two empty blocks: inf - inf, where min(U_L, U_R) + s A_j is inf as well
        u = haar_fold(prior, block_minima(mins, prior.j_max), lambda l, r, a: np.where(
            np.abs(l - r) <= 2.0 * s * a, (l + r) / 2.0, np.minimum(l, r) + s * a))[::-1]  # U per level, root first
    v = np.minimum(u[0], s * a0)  # the partial sums of a level
    for j, children in enumerate(u[1:]):
        step = s * level_step(prior, j)
        d = np.clip(np.clip(0.0, v - children[:, 1::2], children[:, 0::2] - v), -step, step)
        v = np.stack([v + d, v - d], axis=2).reshape(len(mins), -1)
    return v, u[0][:, 0] >= -s * a0
