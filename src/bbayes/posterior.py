"""Posterior computation: exact log-weights, prior importance sampling, exact
Gibbs kernels for the latent priors and a closed-form exact sampler for the
gaussian truncated wavelet prior.  Metropolis is used only for finite priors.

The posterior density with respect to the prior is ``e^{n * integral(f)}`` on
the set of functions lying below every data point, and zero elsewhere.  For a
piecewise-constant candidate the constraint is equivalent to lying below the
per-bin minima of the point ordinates, so each sampler reduces the pattern to
them once and its kernels read nothing else.  Every sampler enforces the
constraint exactly; infeasible states are never stored.  Under gaussian
priors every exact move is a one-sided truncated normal, drawn by inversion
in log space with one uniform per value: no rejection loop, accurate
arbitrarily deep in the tail.

Every Markov chain follows one schedule (``_kept``): a fifth of its sweeps is
burn-in, and the stored sweeps are ``max(1, steps // 10_000)`` site updates
apart, set from the total budget.  The Gibbs kernels are generators of
states, which ``_run_chain`` runs for the scheduled sweeps and stores.
``sample_cells``, the one dispatch on the sampler name and prior type, runs
the Gibbs chains of one intensity's cells as blocks on a leading chain axis,
one Brownian block or one per level in a wavelet prior's ``levels()``, and
every other sampler cell by cell, each cell bit for bit as alone;
``sample_posterior`` and the named samplers are its block of one cell.

An ensemble is ``values`` (k x 2**grid_level, read-only, row i = sample i, at
the prior's grid level), ``log_weights`` and ``meta``; every functional is a
row reduction, and ``samples`` is a ``GridFunction`` view of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr, logsumexp, ndtri_exp

from .grid import GridFunction, PointPattern, bin_minima, constraint_satisfied, integral
from .priors import (
    BrownianStartPrior,
    FinitePrior,
    TruncatedWaveletPrior,
    WaveletSeriesPrior,
)

__all__ = [
    "PosteriorEnsemble",
    "DegeneratePosteriorError",
    "log_posterior_weight",
    "reduce_draws",
    "truncated_level_log_evidence",
    "exact_truncated_posterior",
    "importance_posterior",
    "mcmc_posterior",
    "check_sampler",
    "sample_cells",
    "sample_posterior",
    "posterior_mass",
    "mass_outside_l1_ball",
    "mass_lower_excess",
    "mass_upper_excess",
    "posterior_mean",
    "posterior_median_metric",
    "weighted_median",
]

_BURN_IN = 0.2  # fraction of MCMC sweeps discarded before storing
_EVIDENCE_DRAWS = 400  # prior draws per level for a non-gaussian truncated prior's evidence
_BATCH_VALUES = 1 << 16  # grid values per batch of prior draws, which bounds the peak memory
_DEAD_CHAIN = "no feasible start in the uniform support, an improper laplace posterior or an empty conditional"


class DegeneratePosteriorError(RuntimeError):
    """No feasible state was found; the posterior estimate would be degenerate."""


@dataclass(frozen=True)
class PosteriorEnsemble:
    """Weighted feasible boundary functions: row i of ``values`` is sample i (not copied if float64)."""

    grid_level: int
    values: np.ndarray
    log_weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or not len(values) or values.shape[1] != 1 << self.grid_level:
            raise ValueError(f"values must be a nonempty (k, {1 << self.grid_level}) matrix, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        lw = np.array(self.log_weights, dtype=float)
        if lw.shape != (len(values),):
            raise ValueError("values and log_weights must have equal length")
        if np.any(np.isnan(lw)) or np.any(lw == np.inf):
            raise ValueError("log_weights must be finite or -inf")
        if np.all(lw == -np.inf):
            raise ValueError("all log_weights are -inf")
        values.flags.writeable = False
        lw.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "log_weights", lw)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def samples(self):
        """The rows as ``GridFunction``s, built on demand."""
        return (GridFunction(self.grid_level, row) for row in self.values)

    @property
    def normalized_weights(self) -> np.ndarray:
        lw = self.log_weights - self.log_weights.max()
        w = np.exp(lw)
        return w / w.sum()

    @property
    def ess(self) -> float:
        w = self.normalized_weights
        return float(1.0 / np.sum(w**2))

    def validate_against(self, pattern: PointPattern) -> bool:
        return bool(np.all(self.values <= bin_minima(pattern, self.grid_level)))

    def summary_csv(self, f0: GridFunction | None = None) -> str:
        cols = "integral,weight" if f0 is None else "integral,l1_to_f0,weight"
        lines = [f"# ensemble sampler={self.meta.get('sampler', '?')} size={len(self)}", cols]
        l1 = [] if f0 is None else [_errors(self, f0, "l1")]
        columns = [self.values.mean(axis=1), *l1, self.normalized_weights]
        lines.extend(",".join(map(repr, row)) for row in zip(*(c.tolist() for c in columns)))
        return "\n".join(lines) + "\n"

    def to_flat_file(self) -> str:
        """Full ensemble as text, one sample per block."""
        blocks = []
        for i, (lw, row) in enumerate(zip(self.log_weights.tolist(), self.values.tolist())):
            blocks.append(f"# sample={i} log_weight={lw!r} grid_level={self.grid_level}")
            blocks.extend(map(repr, row))
        return "\n".join(blocks) + "\n"


def log_posterior_weight(f: GridFunction, pattern: PointPattern) -> float:
    """Unnormalized log posterior density of f with respect to the prior."""
    if not constraint_satisfied(f, pattern):
        return -math.inf
    return pattern.intensity * integral(f)


def _std_normal_tail(q, alpha):
    """Z ~ N(0, 1) conditioned on Z <= alpha by inversion of uniforms q in [0, 1), in log space.

    ``log_ndtr`` and ``ndtri_exp`` stay accurate arbitrarily far into the
    tail; q = 0 gives alpha (to ``ndtri_exp``'s rounding), never -inf, and
    alpha = +inf gives a plain N(0, 1) draw.  Scalars or arrays.
    """
    return np.minimum(ndtri_exp(np.log1p(-q) + log_ndtr(alpha)), alpha)


def _trunc_std_normal(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Z ~ N(0, 1) conditioned on a <= Z <= b by inversion of uniforms q, in log space.

    Each interval is mirrored into the lower half line, where ``log_ndtr`` and
    ``ndtri_exp`` stay accurate arbitrarily far into the tail.
    """
    flip = a + b > 0.0
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    la, lb = log_ndtr(a), log_ndtr(b)
    z = ndtri_exp(lb + np.log(q + (1.0 - q) * np.exp(la - lb)))
    return np.where(flip, -z, z)


def _exp_segment(q: np.ndarray, u: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """x with density proportional to e^{r x} on [u, w] by inversion of uniforms q."""
    if r == 0.0:
        return u + q * (w - u)
    return (w if r > 0.0 else u) + np.log1p(q * np.expm1(-abs(r) * (w - u))) / r


def _exp_segment_log_mass(u: np.ndarray, w: np.ndarray, r: float) -> np.ndarray:
    """Log of the integral of e^{r x} over [u, w]; -inf where the segment is empty."""
    d = np.maximum(w - u, 0.0)
    if r == 0.0:
        return np.log(d)
    return np.log(-np.expm1(-abs(r) * d)) + (r * (w if r > 0.0 else u) - math.log(abs(r)))


def _sample_coefficients_interval(dist, q: np.ndarray, lo, hi, tilt: float) -> np.ndarray:
    """Exact draws from a coefficient prior restricted to [lo_i, hi_i] and tilted by e^{tilt * z}; NaN where
    that law is empty (a uniform interval off the support).  A laplace law must be proper: see _improper_laplace.

    Each draw inverts one uniform of ``q``; laplace draws invert two, the last axis of ``q`` holding every
    draw's side of zero, then every point.  So a whole vector of conditionals costs a fixed number of numpy calls.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if dist.kind == "gaussian":
            s = dist.scale
            mu = tilt * s * s
            x = mu + s * _trunc_std_normal(q, (lo - mu) / s, (hi - mu) / s)
        elif dist.kind == "uniform":
            lo, hi = np.maximum(lo, -dist.scale), np.minimum(hi, dist.scale)
            x = np.where(hi < lo, np.nan, _exp_segment(q, lo, hi, tilt))
        else:  # laplace: piecewise exponential on either side of zero
            r_neg = tilt + 1.0 / dist.scale
            r_pos = tilt - 1.0 / dist.scale
            neg_hi, pos_lo = np.minimum(hi, 0.0), np.maximum(lo, 0.0)
            log_odds = _exp_segment_log_mass(lo, neg_hi, r_neg) - _exp_segment_log_mass(pos_lo, hi, r_pos)
            side, q = q[..., : q.shape[-1] // 2], q[..., q.shape[-1] // 2 :]
            neg = side * (1.0 + np.exp(-log_odds)) < 1.0  # side < P(z < 0)
            x = np.where(neg, _exp_segment(q, lo, neg_hi, r_neg), _exp_segment(q, pos_lo, hi, r_pos))
    return np.minimum(np.maximum(x, lo), hi)


def truncated_level_log_evidence(
    level: int, mins: np.ndarray, intensity: float, scale: float = 1.0
) -> float:
    """Closed-form log evidence of one truncation level under gaussian coefficients.

    A unit-amplitude Haar series truncated at detail level j has i.i.d.
    N(0, m s^2) values on its m = 2^{j+1} constant blocks (the Haar evaluation
    matrix is orthogonal), and the likelihood tilt e^{n integral(f)} factorizes
    over blocks, so the evidence is a product of one-dimensional tilted
    truncated-gaussian integrals.
    """
    m = 1 << (level + 1)
    if mins.size % m:
        raise ValueError("grid size must be divisible by the block count")
    blocks = mins.reshape(m, -1).min(axis=1)
    s2 = scale * scale
    n = intensity
    return float(np.sum(n * n * s2 / (2.0 * m) + log_ndtr((blocks - n * s2) / (scale * math.sqrt(m)))))


def _level_log_weights(levels: list, mins: np.ndarray, n: float, rngs) -> np.ndarray:
    """The ``(cells, levels)`` posterior log weights log pi_j + log Z_j of a truncated prior's ``levels()`` at each
    row of bin minima ``mins``.  The evidence Z_j is closed-form for gaussian coefficients, else the mean
    likelihood of ``_EVIDENCE_DRAWS`` prior draws of level j on the cell's generator: -inf if none is feasible
    (an empty ``logsumexp``, which raises before scipy 1.15), and rough at large intensity, where feasible draws
    become rare."""
    dist = levels[0][1].dist
    if dist.kind == "gaussian":
        log_z = [[truncated_level_log_evidence(j, row, n, dist.scale) for j in range(len(levels))] for row in mins]
    else:
        lls = [[_feasible_draws(level, row, n, _EVIDENCE_DRAWS, rng)[1] for _, level in levels]
               for row, rng in zip(mins, rngs)]
        log_z = [[logsumexp(ll) - math.log(_EVIDENCE_DRAWS) if ll.size else -math.inf for ll in row] for row in lls]
    return np.array(log_z) + [math.log(p) for p, _ in levels]


def _exact(prior: TruncatedWaveletPrior, mins, n, draws, rng):
    """Exact posterior draws for the truncated wavelet prior with gaussian coefficients.

    Level weights come from the closed-form evidences (``_level_log_weights``);
    given the level, the block values are independent truncated gaussians tilted
    by the likelihood, sampled exactly.  No Monte Carlo error beyond the finite
    draw count.  After the level choice, one call draws one uniform per block value.
    """
    s = prior.dist.scale
    grid_m = 1 << prior.grid_level
    level_log_w = _level_log_weights(prior.levels(), mins[None], n, [rng])[0]
    probs = np.exp(level_log_w - level_log_w.max())
    probs /= probs.sum()
    levels = rng.choice(prior.j_cap + 1, size=draws, p=probs)
    mu = n * s * s
    # per level j: block standard deviation and standardized block bounds
    sds = [s * math.sqrt(2 << j) for j in range(prior.j_cap + 1)]
    alphas = [(mins.reshape(2 << j, -1).min(axis=1) - mu) / sd for j, sd in enumerate(sds)]
    # the 2^{j+1} block uniforms of every draw, in draw order, then one fill per level
    blocks = 2 << levels
    q = rng.random(int(blocks.sum()))
    first = np.cumsum(blocks) - blocks
    values = np.empty((draws, grid_m))
    for j, (sd, alpha) in enumerate(zip(sds, alphas)):
        rows = np.flatnonzero(levels == j)
        v = mu + sd * _std_normal_tail(q[first[rows, None] + np.arange(2 << j)], alpha)
        values[rows] = np.repeat(v, grid_m >> (j + 1), axis=1)
    meta = {
        "sampler": "exact",
        "draws": draws,
        "level_log_weights": list(level_log_w),
        "level_probabilities": list(probs),
    }
    return PosteriorEnsemble(prior.grid_level, values, np.zeros(draws), meta=meta)


def _importance(prior, mins, n, draws, rng):
    """Self-normalized importance sampling with the prior as proposal.

    Infeasible draws carry weight zero and are dropped from storage but counted
    in the reported feasibility rate.  A laplace prior whose posterior is
    improper at any level (``_improper_laplace``) raises, as its Gibbs chains do.
    """
    if getattr(prior, "dist", None) is not None and prior.dist.kind == "laplace":
        if any(_improper_laplace(level, mins[None], n)[0] for _, level in prior.levels()):
            raise DegeneratePosteriorError("an improper laplace posterior, whose importance estimate has no limit")
    values, log_lik = _feasible_draws(prior, mins, n, draws, rng)
    if not len(values):
        raise DegeneratePosteriorError(
            "no feasible prior draw; the importance estimate is degenerate, use mcmc_posterior"
        )
    meta = {"sampler": "importance", "draws": draws, "feasibility_rate": len(values) / draws}
    ens = PosteriorEnsemble(prior.grid_level, values, log_lik, meta=meta)
    ens.meta["ess"] = ens.ess
    return ens


def reduce_draws(prior, draws: int, rng: np.random.Generator, reduce) -> np.ndarray:
    """``reduce`` applied to ``draws`` prior draws in ``(k, m)`` batches of about 2**16 grid values, concatenated.

    The batches bound the peak memory, and the output grows in place by each reduced batch, so the kept rows
    are held once; except for the truncated prior, the batches consume the stream of one ``draws``-row draw.
    """
    batch = max(1, _BATCH_VALUES >> prior.grid_level)
    out = None
    for i in range(0, draws, batch):
        part = reduce(prior.draw(rng, min(batch, draws - i)))
        out = np.empty((0, *part.shape[1:]), part.dtype) if out is None else out
        k = len(out)
        out.resize((k + len(part), *part.shape[1:]), refcheck=False)  # a realloc
        out[k:] = part
    return out


def _feasible_draws(prior, mins, n, draws, rng):
    """The feasible rows of ``draws`` prior draws, filtered in batches, and their log-likelihoods ``n * integral``."""
    values = reduce_draws(prior, draws, rng, lambda v: v[np.all(v <= mins, axis=1)])
    return values, n * values.mean(axis=1)


# ---------------------------------------------------------------------------
# Markov chain samplers: exact Gibbs kernels, Metropolis for finite priors only


def _kept(steps: int, cost: int, budget: int) -> range:
    """The stored sweeps of a chain of ``steps`` site updates at ``cost`` updates per sweep.

    ``stop`` is the sweep count, at least 2; the first fifth of the sweeps is
    burn-in, then every ``max(1, budget // (10_000 cost))``-th sweep, about
    ``budget // 10_000`` site updates apart, is stored, so at least one is.
    """
    sweeps, t = max(2, steps // cost), max(1, budget // (10_000 * cost))
    return range(int(_BURN_IN * sweeps) + t - 1, sweeps, t)


def _run_chain(states, keep: range):
    """The kept states among the first ``keep.stop`` of the iterator ``states`` of ``(c, m)`` chain states,
    copied into one ``(c, kept, m)`` array, and the chains whose last state holds a NaN, the mark of a
    degenerate draw."""
    for t, v in zip(range(keep.stop), states):
        if t == keep.start:
            out = np.empty((len(v), len(keep), v.shape[1]))
        if t in keep:
            out[:, keep.index(t)] = v
    return out, np.isnan(v).any(axis=1)


def _improper_laplace(prior: WaveletSeriesPrior, mins: np.ndarray, n: float) -> np.ndarray:
    """Which rows of bin minima ``mins`` give the laplace wavelet prior an improper posterior at intensity n:
    those where raising z0 by 1 stays feasible at a detail cost sum |d_i| / s = a0 * kappa <= n a0 - 1/s.
    kappa, the cost per unit partial sum, is 0 on a finest block with no point and inf on one with a point;
    a node's is the cheaper of passing the sum on or zeroing one child."""
    s, a0 = prior.dist.scale, float(prior.amplitudes[0])
    kappa = np.where(np.isfinite(mins.reshape(len(mins), 2 << prior.j_max, -1).min(axis=2)), np.inf, 0.0)
    for j in reversed(range(prior.j_max + 1)):
        left, right = kappa[:, 0::2], kappa[:, 1::2]
        a = 2.0 ** (j / 2.0) * prior.amplitudes[1 << j : 2 << j]
        kappa = np.minimum(left + right, 1.0 / (a * s) + 2.0 * np.minimum(left, right))
    return n * a0 >= 1.0 / s + a0 * kappa[:, 0]


def _gibbs_wavelet(prior: WaveletSeriesPrior, mins, n, rngs, skipped):
    """Exact Gibbs over wavelet coefficients, one block draw per level; yields the chains' ``(c, m)`` grid values.

    Every full conditional is the coefficient prior restricted to an interval
    (from the feasibility constraint) and, for the scaling coefficient only,
    tilted by the likelihood factor e^{n a0 z0}; both are sampled exactly, so
    there is no step-size tuning and no rejection of stored states.  The
    detail coefficients of one level have disjoint supports and no tilt, so
    given the other levels they are independent: each sweep draws the scaling
    coefficient, then every level j in one vector draw of its 2^j
    coefficients, which is the coordinate scan's kernel.  A sweep costs
    ``latent_dim`` site updates, and chain i draws them from ``rngs[i]`` in
    one array per sweep.  Updates skipped (coefficient left unchanged) because
    float drift left an empty interval are added to ``skipped[i]``.  A chain
    with no feasible start, an improper (laplace) posterior or an empty
    conditional turns NaN.
    """
    c = len(rngs)
    a0 = float(prior.amplitudes[0])
    w = 2 if prior.dist.kind == "laplace" else 1  # uniforms per coefficient draw
    # per level: coefficient slice and amplitudes, as in synthesize_flat
    levels = [
        (j, slice(1 << j, 2 << j), 2.0 ** (j / 2.0) * prior.amplitudes[1 << j : 2 << j])
        for j in range(prior.j_max + 1)
    ]

    z = np.stack([prior.dist.sample(rng, size=prior.latent_dim) for rng in rngs])
    v = prior.synthesize(z)
    # initialization: lower the scaling coordinate until feasible
    deficit = np.max(v - mins, axis=1)
    shift = np.where(deficit > 0, deficit + 1e-9, 0.0)
    z[:, 0] -= shift / a0
    v -= shift[:, None]
    if prior.dist.kind == "uniform":
        z[z[:, 0] < -prior.dist.scale] = np.nan  # clearing the bin minima left the support: no feasible start
    if prior.dist.kind == "laplace":
        z[_improper_laplace(prior, mins, n)] = np.nan

    sweep, u = 0, np.empty((c, w * prior.latent_dim))
    while True:
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        hi = z[:, :1] + np.min(mins - v, axis=1, keepdims=True) / a0
        z0 = _sample_coefficients_interval(prior.dist, u[:, :w], -math.inf, hi, n * a0)
        v += (z0 - z[:, :1]) * a0
        z[:, :1] = z0
        for j, sl, a in levels:
            # slack on the left (sign +) and right (sign -) half of each support
            slack = (mins - v).reshape(c, 1 << j, 2, -1).min(axis=3)
            hi = z[:, sl] + slack[:, :, 0] / a
            lo = z[:, sl] - slack[:, :, 1] / a
            empty = hi < lo  # guard against accumulated rounding
            if empty.any():
                skipped[:] += empty.sum(axis=1)
                lo, hi = np.where(empty, z[:, sl], lo), np.where(empty, z[:, sl], hi)
            z_new = _sample_coefficients_interval(prior.dist, u[:, w * sl.start : w * sl.stop], lo, hi, 0.0)
            d = ((z_new - z[:, sl]) * a)[:, :, None]
            halves = v.reshape(c, 1 << j, 2, -1)
            halves[:, :, 0] += d
            halves[:, :, 1] -= d
            z[:, sl] = z_new
        sweep += 1
        if sweep % 64 == 0:  # refresh against float drift of incremental updates
            v = prior.synthesize(z)
        yield v


def _suffix_sweep(v: np.ndarray, mins: np.ndarray, n: float, q: np.ndarray) -> None:
    """One scan k = 0..m-1 of exact Gibbs moves v -> v + t 1{b >= k} on each chain (row) of v, in place, in O(m).

    Move k changes only the start value (k = 0) or one increment of the
    Brownian prior, so its conditional is a gaussian tilted by
    e^{n t (m - k) / m} and truncated at the slack of the suffix.  Before move
    k the suffix is shifted by sum(t[:k]), so that slack is the reverse running
    minimum of ``mins - v``, taken once, less the running shift; the shifts are
    added once at the end.  Move k inverts the uniform ``q[:, k]``, as
    ``_std_normal_tail`` does, inlined, and steps every chain at once: m
    vector steps, whatever the chain count, one chain included.
    """
    m = v.shape[1]
    var = np.full(m, 1.0 / m)
    var[0] += 1.0  # the start value's prior variance
    mu = var * n * (m - np.arange(m)) / m - np.diff(v, prepend=0.0)
    sd = np.sqrt(var)
    slack = np.minimum.accumulate((mins - v)[:, ::-1], axis=1)[:, ::-1] - mu
    log_q = np.log1p(-q)
    shifts, shift = np.empty_like(v), np.zeros(len(v))
    for k, (mu_k, sd_k, slack_k, lq) in enumerate(zip(mu.T, sd.tolist(), slack.T, log_q.T)):
        a = (slack_k - shift) / sd_k
        shift = shifts[:, k] = shift + (mu_k + sd_k * np.minimum(ndtri_exp(lq + log_ndtr(a)), a))
    v += shifts


def _gibbs_brownian(prior: BrownianStartPrior, mins, n, rngs):
    """Red-black Gibbs sweeps for the Brownian-start prior; yields the chains' ``(c, m)`` bin values after each sweep.

    The prior is Markov across bins, so the full conditional of one bin given
    its neighbours is a gaussian tilted by e^{(n/m) v} and truncated at the bin
    minimum; those draws are exact, no step-size tuning is involved.  Local
    updates alone relax long-wavelength modes diffusively, so each sweep also
    runs one O(m) scan of directional Gibbs moves along suffix shifts
    v -> v + t 1{b >= k} (``_suffix_sweep``), whose conditionals are again
    exact truncated gaussians.  Each draw inverts one uniform: a sweep costs
    2m site updates, drawn by chain i from ``rngs[i]`` in one array per sweep.
    """
    c, m = mins.shape
    padded = np.zeros((c, m + 2))  # the bins, between two zero neighbours that end bins do not have
    v = padded[:, 1:-1]
    finite = np.isfinite(mins)
    v[:] = np.min(mins, axis=1, initial=0.0, where=finite, keepdims=True) - 0.1
    for i in np.flatnonzero(~finite.any(axis=1)):  # no point at all: start from a prior draw
        v[i] = prior.draw(rngs[i], 1)[0]
    evens, odds = np.arange(0, m, 2), np.arange(1, m, 2)
    lam = np.full(m, 2.0 * m)  # precision of each bin given its neighbours
    lam[0], lam[-1] = 1.0 / (1.0 + 1.0 / m) + m, float(m)
    sd = 1.0 / np.sqrt(lam)

    def half_sweep(idx, q):
        mu = (m * (padded[:, idx] + padded[:, idx + 2]) + n / m) / lam[idx]
        v[:, idx] = mu + sd[idx] * _std_normal_tail(q, (mins[:, idx] - mu) / sd[idx])

    u = np.empty((c, 2 * m))
    while True:
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        half_sweep(evens, u[:, : evens.size])
        half_sweep(odds, u[:, evens.size : m])
        _suffix_sweep(v, mins, n, u[:, m:])
        yield v


def _mcmc_finite(prior: FinitePrior, mins, n, steps, rng):
    """Independence Metropolis over the atoms, one step per sweep of the ``_kept`` schedule."""
    feasible = np.all(prior.values <= mins, axis=1)
    if not feasible.any():
        raise DegeneratePosteriorError("no feasible atom in the finite prior support")
    log_lik = np.where(feasible, n * prior.values.mean(axis=1), -math.inf).tolist()
    state = int(np.argmax(feasible))
    # independence proposals from the prior (the prior ratio cancels) and their uniforms, drawn up front
    cands = prior.draw_indices(rng, steps).tolist()
    log_u = np.log(rng.random(steps)).tolist()
    keep = _kept(steps, 1, steps)
    accepted, stored = 0, []
    for t, (cand, lu) in enumerate(zip(cands, log_u)):
        if lu < log_lik[cand] - log_lik[state]:
            state = cand
            accepted += 1
        if t in keep:
            stored.append(state)
    rate = accepted / steps
    meta = {"sampler": "mcmc", "steps": steps, "acceptance_rate": rate}
    if not 0.05 <= rate <= 0.95:
        meta["warning"] = f"acceptance rate {rate:.3f} outside [0.05, 0.95]"
    return PosteriorEnsemble(prior.grid_level, prior.values[stored], np.zeros(len(stored)), meta=meta)


_VARIANT_NAMES = {  # the PriorSpec variant of each latent prior class, which messages name
    BrownianStartPrior: "brownian_start",
    WaveletSeriesPrior: "wavelet_series",
    TruncatedWaveletPrior: "truncated_wavelet",
}


def check_sampler(prior, sampler: str, budget: int) -> None:
    """ValueError unless ``budget >= 1`` and the named sampler, 'importance', 'mcmc' or 'exact', applies to
    ``prior``; 'exact' needs the truncated wavelet prior with gaussian coefficients."""
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if sampler not in ("importance", "mcmc", "exact"):
        raise ValueError(f"sampler must be 'importance', 'mcmc' or 'exact', got {sampler!r}")
    if sampler == "exact" and not (isinstance(prior, TruncatedWaveletPrior) and prior.dist.kind == "gaussian"):
        dist = getattr(prior, "dist", None)
        got = _VARIANT_NAMES.get(type(prior), "a finite prior") + (f" with {dist.kind} coefficients" if dist else "")
        raise ValueError(f"sampler 'exact' needs truncated_wavelet with gaussian coefficients, got {got}")


def sample_cells(prior, mins: np.ndarray, n: float, sampler: str, budget: int, rngs):
    """Yields, row by row, the ``PosteriorEnsemble`` (or DegeneratePosteriorError) of each cell whose bin minima
    are a row of ``mins``, all at intensity ``n``, after ``check_sampler``; ``budget`` counts draws or site updates.

    'mcmc' on a latent prior runs one Brownian block of chains, or one ``_gibbs_wavelet`` block per level of
    ``prior.levels()`` on a ``budget // len(levels)`` budget, over the cells whose level weight is > 0 and whose
    chains are alive.  Every other sampler runs cell by cell, yielding each ensemble before it draws the next.
    Cell i draws only from ``rngs[i]``, as in its own ``sample_posterior``.
    """
    check_sampler(prior, sampler, budget)
    if sampler != "mcmc" or isinstance(prior, FinitePrior):
        kernel = {"importance": _importance, "exact": _exact, "mcmc": _mcmc_finite}[sampler]
        for row, rng in zip(mins, rngs):
            try:
                yield kernel(prior, row, n, budget, rng)
            except DegeneratePosteriorError as exc:
                yield exc
        return
    if isinstance(prior, BrownianStartPrior):
        keep = _kept(budget, 2 << prior.grid_level, budget)
        values, dead = _run_chain(_gibbs_brownian(prior, mins, n, rngs), keep)
        rows = [[(v, 0.0)] for v in values]
        metas = [{"sampler": "mcmc", "kind": "gibbs", "steps": keep.stop * (2 << prior.grid_level)} for _ in rngs]
    else:
        levels, truncated = prior.levels(), isinstance(prior, TruncatedWaveletPrior)
        log_w = _level_log_weights(levels, mins, n, rngs) if truncated else np.zeros((len(rngs), 1))
        rows, skipped, dead = [[] for _ in rngs], np.zeros(len(rngs), dtype=int), np.zeros(len(rngs), dtype=bool)
        for (_, level), lw in zip(levels, log_w.T):
            cells = np.flatnonzero((lw > -math.inf) & ~dead)
            if cells.size:
                keep = _kept(max(1, budget // len(levels)), level.latent_dim, budget)
                block_skipped = np.zeros(cells.size, dtype=int)
                chains = _gibbs_wavelet(level, mins[cells], n, [rngs[i] for i in cells], block_skipped)
                values, dead[cells] = _run_chain(chains, keep)
                skipped[cells] += block_skipped
                for i, v in zip(cells.tolist(), values):  # a truncated row weighs its level's weight over the rows
                    rows[i].append((v, lw[i] - math.log(len(v)) if truncated else 0.0))
        metas = [{"sampler": "mcmc", "kind": "gibbs", "steps": budget, "skipped_updates": k} for k in skipped.tolist()]
        if truncated:
            for meta, lw in zip(metas, log_w):
                meta["level_log_weights"] = lw.tolist()
    for cell, d, meta in zip(rows, dead, metas):
        if d or not cell:
            yield DegeneratePosteriorError(_DEAD_CHAIN if d else "no level produced feasible states")
        else:
            log_weights = np.concatenate([np.full(len(v), w) for v, w in cell])
            yield PosteriorEnsemble(prior.grid_level, np.concatenate([v for v, _ in cell]), log_weights, meta)


def sample_posterior(prior, pattern: PointPattern, sampler: str, budget: int, rng: np.random.Generator):
    """The ensemble of the named sampler, 'importance', 'mcmc' or 'exact', on one cell: ``sample_cells`` of one
    row, raising a degenerate cell's DegeneratePosteriorError.  ``budget`` counts draws, or steps for 'mcmc'."""
    (ens,) = sample_cells(prior, bin_minima(pattern, prior.grid_level)[None], pattern.intensity, sampler, budget, [rng])
    if isinstance(ens, DegeneratePosteriorError):
        raise ens
    return ens


def importance_posterior(prior, pattern: PointPattern, draws: int, rng: np.random.Generator) -> PosteriorEnsemble:
    """Self-normalized importance sampling with the prior as proposal (``_importance``), one cell."""
    return sample_posterior(prior, pattern, "importance", draws, rng)


def exact_truncated_posterior(
    prior: TruncatedWaveletPrior, pattern: PointPattern, draws: int, rng: np.random.Generator
) -> PosteriorEnsemble:
    """Exact posterior draws for the truncated wavelet prior with gaussian coefficients (``_exact``), one cell."""
    return sample_posterior(prior, pattern, "exact", draws, rng)


def mcmc_posterior(
    prior,
    pattern: PointPattern,
    steps: int,
    step_scale: float = 0.5,  # read by no kernel; perfbench/studies.py passes it positionally
    rng: np.random.Generator | None = None,
) -> PosteriorEnsemble:
    """Markov chain Monte Carlo targeting the constrained posterior: ``sample_posterior`` of 'mcmc'.

    Latent priors use exact Gibbs kernels: every conditional is drawn exactly
    from a truncated, tilted law, so there is no step size and no rejection.
    A truncated wavelet prior runs the one wavelet kernel at each of its levels,
    whose rows it weights by the level's share ``_level_log_weights``.  Only
    finite priors use Metropolis, with an independence proposal from the prior.
    Every chain runs the one ``_kept`` schedule, from the total ``steps``.
    ``step_scale`` is validated but read by no kernel; it stays only for the
    benchmark replay's positional call.
    """
    if not step_scale > 0:
        raise ValueError("step_scale must be positive")
    return sample_posterior(prior, pattern, "mcmc", steps, np.random.default_rng() if rng is None else rng)


# ---------------------------------------------------------------------------
# posterior functionals


def posterior_mass(ens: PosteriorEnsemble, hits) -> float:
    """Posterior mass of the rows of ``ens.values`` where the boolean row mask ``hits`` is true."""
    hits = np.asarray(hits, dtype=bool)
    if hits.shape != (len(ens),):
        raise ValueError(f"hits must be a boolean row mask of shape ({len(ens)},), got shape {hits.shape}")
    return float(ens.normalized_weights[hits].sum())


def _errors(ens: PosteriorEnsemble, f0: GridFunction, metric: str) -> np.ndarray:
    """Per-sample integral of |f - f0|, (f0 - f)_+ or (f - f0)_+ on the finer of the two grids."""
    if metric not in ("l1", "lower_part", "upper_part"):
        raise ValueError(f"unknown error metric {metric!r}")
    lvl = max(ens.grid_level, f0.grid_level)
    ref = f0.refine(lvl).values
    vals, out = ens.values, None
    if lvl > ens.grid_level:  # refine into a copy and reuse it: at most one (k, 2**lvl) temporary
        vals = out = np.repeat(vals, 1 << (lvl - ens.grid_level), axis=1)
    d = np.subtract(ref, vals, out=out) if metric == "lower_part" else np.subtract(vals, ref, out=out)
    if metric == "l1":
        np.abs(d, out=d)
    else:
        np.maximum(d, 0.0, out=d)
    return d.mean(axis=1)


def mass_outside_l1_ball(ens: PosteriorEnsemble, f0: GridFunction, r: float) -> float:
    return float(ens.normalized_weights[_errors(ens, f0, "l1") >= r].sum())


def mass_lower_excess(ens: PosteriorEnsemble, f0: GridFunction, r: float) -> float:
    """Posterior mass of functions with integral of (f0 - f)_+ at least r."""
    return float(ens.normalized_weights[_errors(ens, f0, "lower_part") >= r].sum())


def mass_upper_excess(ens: PosteriorEnsemble, f0: GridFunction, r: float) -> float:
    """Posterior mass of functions with integral of (f - f0)_+ at least r."""
    return float(ens.normalized_weights[_errors(ens, f0, "upper_part") >= r].sum())


def posterior_mean(ens: PosteriorEnsemble) -> GridFunction:
    return GridFunction(ens.grid_level, ens.normalized_weights @ ens.values)


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w) / w.sum()
    return float(v[np.searchsorted(cum, 0.5)])


def posterior_median_metric(ens: PosteriorEnsemble, f0: GridFunction, metric: str = "l1") -> float:
    """Weighted posterior median of an error metric against a reference function."""
    return weighted_median(_errors(ens, f0, metric), ens.normalized_weights)
