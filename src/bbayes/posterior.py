"""Posterior computation: exact log-weights, prior importance sampling, exact
Gibbs kernels for the latent priors, and closed-form exact samplers for the
finite prior and the gaussian truncated wavelet prior.

The posterior density with respect to the prior is ``e^{n * integral(f)}`` on
the set of functions lying below every data point, and zero elsewhere.  For a
piecewise-constant candidate the constraint is equivalent to lying below the
per-bin minima of the point ordinates, so each sampler reduces the pattern to
them once and its kernels read nothing else.  Every sampler enforces the
constraint exactly; infeasible states are never stored.  Under gaussian
priors every exact move is a normal truncated above, drawn by one inversion
in log space (``_std_normal_tail``) with one uniform per value: no rejection
loop, accurate arbitrarily deep in the tail.  ``scipy.special`` is imported by
the functions that read it: a laplace or uniform wavelet series never loads it.

Every Markov chain follows one schedule (``_kept``): a fifth of its sweeps is
burn-in, and the stored sweeps are ``max(1, steps // 10_000)`` site updates
apart, set from the total budget.  The Gibbs kernels are generators of
states from the ``start`` they take, which ``sample_cells`` sets by one rule:
each row flat, 0.1 below the lower of 0 and its lowest finite minimum, with no
draw (``_flat_start``).  ``_run_chain`` runs them for the scheduled sweeps; it
is the one place that stores kept states, each as its ``reduce``.  Both move
along the dyadic tree, coarse to fine, with one fold of the slack per sweep
(``passes.dyadic_minima``): a wavelet sweep draws each level's coefficients, a
Brownian sweep shifts the bins of each dyadic interval.
``sample_cells``, the one dispatch on the sampler name and prior type, runs
the Gibbs chains of cells at any intensities as blocks on a leading chain axis,
one Brownian block or one per level in a wavelet prior's ``levels()``, and
every other sampler cell by cell, each cell bit for bit as alone.  Every
sampler reduces its rows as it draws them by the caller's per-row ``reduce``,
and a cell is its reduced rows, log weights and ``meta``: under a study's
per-row error (``row_errors``) a Gibbs block holds cells x kept floats at any
grid.  ``sample_posterior`` is its block of one cell; the three named samplers
are aliases of it, kept because the benchmark replay calls them.

An ensemble is ``values`` (k x 2**grid_level, read-only, row i = sample i on the
grid's bins), ``log_weights`` and ``meta``: ``sample_posterior``'s one cell, its
rows repeated onto the bins as they are drawn.  ``samples`` is a ``GridFunction``
view of its rows.  The weighted functionals are a per-row error (``_errors``) in
one of ``ERROR_METRICS`` and a weighted reduction of it under
``normalize_log_weights``: ``weighted_median`` (``posterior_median_metric``) or
``mass_at_least`` (``posterior_mass_at_least``).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .grid import GridFunction, PointPattern, bin_minima, constraint_satisfied, integral
from .passes import block_minima, dyadic_minima, highest_feasible, improper_laplace, level_step
from .priors import (
    BrownianStartPrior,
    FinitePrior,
    TruncatedWaveletPrior,
    WaveletSeriesPrior,
)
from .wavelets import synthesize_flat

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
    "posterior_mass_at_least",
    "mass_at_least",
    "normalize_log_weights",
    "posterior_median_metric",
    "row_errors",
    "weighted_median",
]

_BURN_IN = 0.2  # fraction of MCMC sweeps discarded before storing
_EVIDENCE_DRAWS = 400  # prior draws per level for a non-gaussian truncated prior's evidence
_BATCH_VALUES = 1 << 16  # grid values per batch of prior draws, which bounds the peak memory
SAMPLERS = ("importance", "mcmc", "exact")  # the names of ``sample_cells``' samplers
ERROR_METRICS = ("l1", "lower_part", "upper_part")  # of ``posterior_median_metric`` and ``posterior_mass_at_least``


class DegeneratePosteriorError(RuntimeError):
    """No feasible state was found; the posterior estimate would be degenerate."""


@dataclass(frozen=True)
class PosteriorEnsemble:
    """Weighted feasible boundary functions: row i of ``values`` is sample i on the 2**grid_level bins (not copied
    if float64)."""

    grid_level: int
    values: np.ndarray
    log_weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or not len(values) or values.shape[1] != 1 << self.grid_level:
            raise ValueError(f"values must be a nonempty (k, 2**grid_level) matrix, got shape {values.shape}")
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
        return normalize_log_weights(self.log_weights)

    @property
    def ess(self) -> float:
        return _ess(self.log_weights)

    def summary_csv(self, f0: GridFunction | None = None) -> str:
        cols = "integral,weight" if f0 is None else "integral,l1_to_f0,weight"
        lines = [f"# ensemble sampler={self.meta.get('sampler', '?')} size={len(self)}", cols]
        l1 = [] if f0 is None else [_errors(self.values, self.grid_level, f0, "l1")]
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


def normalize_log_weights(log_weights: np.ndarray) -> np.ndarray:
    """The weights ``exp(log_weights)`` scaled to sum to one, as ``PosteriorEnsemble.normalized_weights``."""
    w = np.exp(log_weights - log_weights.max())
    return w / w.sum()


def _ess(log_weights: np.ndarray) -> float:
    """The effective sample size ``1 / sum(w**2)`` of the normalized weights."""
    return float(1.0 / np.sum(normalize_log_weights(log_weights) ** 2))


def log_posterior_weight(f: GridFunction, pattern: PointPattern) -> float:
    """Unnormalized log posterior density of f with respect to the prior."""
    if not constraint_satisfied(f, bin_minima(pattern, f.grid_level)):
        return -math.inf
    return pattern.intensity * integral(f)


def _std_normal_tail(q, alpha):
    """Z ~ N(0, 1) conditioned on Z <= alpha by inversion of uniforms q in [0, 1), in log space: the one inversion
    of every gaussian move.

    ``log_ndtr`` and ``ndtri_exp`` stay accurate arbitrarily far into the tail; q = 0 gives alpha (to
    ``ndtri_exp``'s rounding) and alpha = +inf a plain N(0, 1) draw, never an infinite one: the log-CDF is clamped
    at -2**-54, which binds at q = 0 alone, as every nonzero uniform is at least 2**-53.  Scalars or arrays.
    """
    from scipy.special import log_ndtr, ndtri_exp
    return np.minimum(ndtri_exp(np.minimum(np.log1p(-q) + log_ndtr(alpha), -(2.0**-54))), alpha)


def _trunc_std_normal(q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Z ~ N(0, 1) conditioned on a <= Z <= b: ``_std_normal_tail`` below b of the uniforms q scaled by the
    share of [a, b] in the mass below b, so a = -inf is the one-sided draw bit for bit.  Each interval is first
    mirrored into the lower half line, where ``log_ndtr`` stays accurate arbitrarily far into the tail.
    """
    from scipy.special import log_ndtr
    flip = a + b > 0.0
    a, b = np.where(flip, -b, a), np.where(flip, -a, b)
    z = _std_normal_tail(q * -np.expm1(log_ndtr(a) - log_ndtr(b)), b)
    return np.where(flip, -z, z)


def _exp_segment(q: np.ndarray, u: np.ndarray, w: np.ndarray, r) -> np.ndarray:
    """x with density proportional to e^{r x} on [u, w] by inversion of uniforms q; r is a scalar or an array."""
    if np.ndim(r) == 0:  # one rate, one branch, in the caller's errstate: contraction-laplace 10% faster (CHANGES.md)
        return u + q * (w - u) if r == 0.0 else (w if r > 0.0 else u) + np.log1p(q * np.expm1(-abs(r) * (w - u))) / r
    with np.errstate(divide="ignore", invalid="ignore"):  # each branch is computed on every row
        x = np.where(r > 0.0, w, u) + np.log1p(q * np.expm1(-np.abs(r) * (w - u))) / r
        return np.where(r == 0.0, u + q * (w - u), x)


def _exp_segment_log_mass(u: np.ndarray, w: np.ndarray, r) -> np.ndarray:
    """Log of the integral of e^{r x} over [u, w], r a scalar or an array; -inf where the segment is empty."""
    d = np.maximum(w - u, 0.0)
    if np.ndim(r) == 0:  # one rate, one branch, in the caller's errstate, for contraction-laplace as in _exp_segment
        return np.log(d) if r == 0.0 else np.log(-np.expm1(-abs(r) * d)) + (r * (w if r > 0.0 else u) - np.log(abs(r)))
    with np.errstate(divide="ignore", invalid="ignore"):  # each branch is computed on every row
        tilted = np.log(-np.expm1(-np.abs(r) * d)) + (r * np.where(r > 0.0, w, u) - np.log(np.abs(r)))
        return np.where(r == 0.0, np.log(d), tilted)


def _sample_coefficients_interval(dist, q: np.ndarray, lo, hi, tilt) -> np.ndarray:
    """Exact draws from a coefficient prior restricted to [lo_i, hi_i] and tilted by e^{tilt_i * z}; NaN where
    that law is empty (a uniform interval off the support).  A laplace law must be proper (``improper_laplace``).

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
        else:  # laplace: piecewise exponential on either side of zero; both sides drawn, one kept, which runs
            # contraction-laplace 4% faster than a one-side draw at its few coefficients per call (CHANGES.md)
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
    from scipy.special import log_ndtr
    m = 1 << (level + 1)
    blocks = block_minima(mins, level)  # a ValueError unless the m blocks divide the grid
    s2 = scale * scale
    n = intensity
    return float(np.sum(n * n * s2 / (2.0 * m) + log_ndtr((blocks - n * s2) / (scale * math.sqrt(m)))))


def _level_log_weights(levels: list, mins: np.ndarray, ns, rngs) -> np.ndarray:
    """The ``(cells, levels)`` posterior log weights log pi_j + log Z_j of a truncated prior's ``levels()`` at each
    row of bin minima ``mins`` at its intensity in ``ns``.  The evidence Z_j is closed-form for gaussian
    coefficients, else the mean likelihood of ``_EVIDENCE_DRAWS`` prior draws of level j on the cell's generator:
    -inf if none is feasible (an empty ``logsumexp``, which raises before scipy 1.15), and rough at large
    intensity, where feasible draws become rare."""
    dist = levels[0][1].dist
    if dist.kind == "gaussian":
        log_z = [[truncated_level_log_evidence(j, row, n, dist.scale) for j, _ in enumerate(levels)]
                 for row, n in zip(mins, ns)]
    else:
        from scipy.special import logsumexp
        lls = [[reduce_draws(level, _EVIDENCE_DRAWS, rng, lambda v: n * v[np.all(v <= row, axis=1)].mean(axis=1))
                for _, level in levels] for row, n, rng in zip(mins, ns, rngs)]
        log_z = [[logsumexp(ll) - math.log(_EVIDENCE_DRAWS) if ll.size else -math.inf for ll in row] for row in lls]
    return np.array(log_z) + [math.log(p) for p, _ in levels]


def reads_scipy_special(prior) -> bool:
    """Whether a sampler of ``prior`` may load ``scipy.special``: every gaussian move (``_std_normal_tail``), so
    the Brownian prior and gaussian coefficients, and a truncated prior's level evidence (``_level_log_weights``).
    A laplace or uniform wavelet series and a finite prior never load it."""
    gaussian = getattr(getattr(prior, "dist", None), "kind", None) == "gaussian"
    return gaussian or isinstance(prior, (BrownianStartPrior, TruncatedWaveletPrior))


def _exact(prior: TruncatedWaveletPrior, mins, n, draws, rng, reduce):
    """Exact posterior draws for the truncated wavelet prior with gaussian coefficients, as ``(rows, log_weights)``
    parts and ``meta``: ``reduce`` of each drawn level's rows on its 2^{j+1} blocks, levels in increasing order.

    Level weights come from the closed-form evidences (``_level_log_weights``);
    given the level, the block values are independent truncated gaussians tilted
    by the likelihood, sampled exactly.  No Monte Carlo error beyond the finite
    draw count.  The drawn levels are sorted (the rows are i.i.d., and no functional
    reads their order), so each level's rows are one part and invert the next 2^{j+1}
    uniforms per row in one call.
    """
    s = prior.dist.scale
    level_log_w = _level_log_weights(prior.levels(), mins[None], [n], [rng])[0]
    probs = np.exp(level_log_w - level_log_w.max())
    probs /= probs.sum()
    levels = np.sort(rng.choice(prior.j_cap + 1, size=draws, p=probs))
    mu, parts = n * s * s, []
    for j, k in zip(*(a.tolist() for a in np.unique(levels, return_counts=True))):
        sd = s * math.sqrt(2 << j)
        v = mu + sd * _std_normal_tail(rng.random((k, 2 << j)), (block_minima(mins, j) - mu) / sd)
        parts.append((reduce(v), np.zeros(k)))  # the k rows of level j
    meta = {
        "sampler": "exact",
        "draws": draws,
        "level_log_weights": level_log_w.tolist(),
        "level_probabilities": probs.tolist(),
    }
    return parts, meta


def _importance(prior, mins, n, draws, rng, reduce):
    """Self-normalized importance sampling with the prior as proposal: ``reduce`` of the feasible draws, with
    their log-likelihoods, as one ``(rows, log_weights)`` part, and ``meta``.

    Infeasible draws carry weight zero and are dropped from storage but counted
    in the reported feasibility rate; the draws are filtered and reduced in
    batches (``reduce_draws``).
    """
    log_lik = []

    def feasible(v):
        v = v[np.all(v <= mins, axis=1)]
        log_lik.append(n * v.mean(axis=1))
        return reduce(v)

    rows = reduce_draws(prior, draws, rng, feasible)
    log_lik = np.concatenate(log_lik)
    if not len(rows):
        raise DegeneratePosteriorError(
            "no feasible prior draw; the importance estimate is degenerate, use the 'mcmc' sampler"
        )
    meta = {"sampler": "importance", "draws": draws, "feasibility_rate": len(rows) / draws, "ess": _ess(log_lik)}
    return [(rows, log_lik)], meta


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


# ---------------------------------------------------------------------------
# Markov chain samplers: exact Gibbs kernels, and the finite prior's exact draws


def _kept(steps: int, cost: int, budget: int) -> range:
    """The stored sweeps of a chain of ``steps`` site updates at ``cost`` updates per sweep.

    ``stop`` is the sweep count, at least 2; the first fifth of the sweeps is
    burn-in, then every ``max(1, budget // (10_000 cost))``-th sweep, about
    ``budget // 10_000`` site updates apart, is stored, so at least one is.
    """
    sweeps, t = max(2, steps // cost), max(1, budget // (10_000 * cost))
    return range(int(_BURN_IN * sweeps) + t - 1, sweeps, t)


def _run_chain(states, keep: range, reduce) -> np.ndarray:
    """``reduce`` of each kept state among the first ``keep.stop`` of the iterator ``states`` of ``(c, w)`` chain
    states, at any width w (bins or blocks), copied into one array: ``(c, kept)`` for a per-row error, ``(c, kept,
    2**grid_level)`` for ``sample_posterior``'s rows on the bins.  The one place that stores a chain's states; a
    state is dropped as soon as it is reduced, so a study's block holds chains x kept errors at any w."""
    for t, v in zip(range(keep.stop), states):
        if t in keep:
            r = reduce(v)
            if t == keep.start:
                out = np.empty((len(r), len(keep), *r.shape[1:]))
            out[:, keep.index(t)] = r
    return out


def _flat_start(mins) -> np.ndarray:
    """The level of every chain's flat start, as a ``(c, 1)`` column: 0.1 below the lower of 0 and the lowest finite
    bin minimum of each row of ``mins`` (-0.1 with no point), so the start lies below every minimum."""
    return np.min(mins, axis=1, initial=0.0, where=np.isfinite(mins), keepdims=True) - 0.1


def _wavelet_start(prior: WaveletSeriesPrior, mins) -> np.ndarray:
    """The flat start (``_flat_start``) as latent rows below the block minima ``mins``: all of its level in z0, every
    detail 0, or the highest feasible state where that z0 leaves the uniform support.  It draws nothing."""
    z = np.zeros((len(mins), prior.latent_dim))
    z[:, :1] = _flat_start(mins) / prior.amplitudes[0]
    out = z[:, 0] < -prior.dist.scale
    if prior.dist.kind == "uniform" and out.any():
        z[out] = highest_feasible(prior, mins[out])[0]
    return z


def _gibbs_wavelet(prior: WaveletSeriesPrior, mins, n, rngs, start, skipped):
    """Exact Gibbs over wavelet coefficients from the feasible latent rows ``start`` (``_wavelet_start`` in
    ``sample_cells``), which it moves in place, below the ``(c, 2**(j_max+1))`` block minima ``mins``; yields the
    chains' ``(c, 2**(j_max+1))`` values on the finest blocks after each sweep.

    Every full conditional is the coefficient prior restricted to an interval (from the feasibility constraint) and,
    for the scaling coefficient only, tilted by the likelihood factor e^{n_i a0 z0}, n_i the intensity of chain i in
    the ``(c, 1)`` column n; both are sampled exactly, so there is no step-size tuning and no rejection of stored
    states.  The detail coefficients of one level have disjoint supports and no tilt, so given the other levels they
    are independent: each sweep draws the scaling coefficient, then every level j in one vector draw of its 2^j
    coefficients, which is the coordinate scan's kernel.  A level-j interval is bounded by the slack ``mins - v`` on
    the two halves of each support.  A sweep folds that slack up the Haar tree once (``passes.dyadic_minima``); a
    move shifts each finer node by a constant, so the summed moves ``dv`` are carried down as one shift per node,
    level j's slack is its fold less ``dv``, and ``v`` takes ``dv`` once, at the end of the sweep.  A sweep costs
    ``latent_dim`` site updates, and chain i draws them from ``rngs[i]`` in one array per sweep.  Updates skipped
    (coefficient left unchanged) because float drift left an empty interval are added to ``skipped[i]``.
    """
    z = start
    v = synthesize_flat(prior.amplitudes * z, prior.j_max, prior.j_max + 1)
    c, a0 = len(rngs), float(prior.amplitudes[0])
    w = 2 if prior.dist.kind == "laplace" else 1  # uniforms per coefficient draw
    levels = [(slice(1 << j, 2 << j), level_step(prior, j)) for j in range(prior.j_max + 1)]  # slice, step
    sweep, u = 0, np.empty((c, w * prior.latent_dim))
    while True:
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        root, *folds = dyadic_minima(mins - v)[::-1]  # the slack of the root, then of level j's children
        z0 = _sample_coefficients_interval(prior.dist, u[:, :w], -math.inf, z[:, :1] + root / a0, n * a0)
        dv = (z0 - z[:, :1]) * a0  # the sweep's shift so far, one per node of the level to draw
        z[:, :1] = z0
        for (sl, a), fold in zip(levels, folds):
            # slack on the left (sign +) and right (sign -) half of each support
            slack = fold.reshape(c, -1, 2) - dv[:, :, None]
            hi, lo = z[:, sl] + slack[:, :, 0] / a, z[:, sl] - slack[:, :, 1] / a
            empty = hi < lo  # guard against accumulated rounding
            if empty.any():
                skipped[:] += empty.sum(axis=1)
                lo, hi = np.where(empty, z[:, sl], lo), np.where(empty, z[:, sl], hi)
            z_new = _sample_coefficients_interval(prior.dist, u[:, w * sl.start : w * sl.stop], lo, hi, 0.0)
            d = (z_new - z[:, sl]) * a
            dv = np.stack([dv + d, dv - d], axis=2).reshape(c, -1)
            z[:, sl] = z_new
        v += dv
        sweep += 1
        if sweep % 64 == 0:  # refresh against float drift of incremental updates
            v = synthesize_flat(prior.amplitudes * z, prior.j_max, prior.j_max + 1)
        yield v


def _gibbs_brownian(prior: BrownianStartPrior, mins, n, rngs, start):
    """Exact Gibbs sweeps over dyadic-interval shifts for the Brownian-start prior from the feasible ``(c, m)`` bin
    values ``start`` (flat at ``_flat_start`` in ``sample_cells``), which it moves in place; yields the chains'
    ``(c, m)`` bin values after each sweep.

    A move shifts the bins of a dyadic interval I = [a, b) by t, v -> v + t 1_I.  It changes only the increment at a
    (the start value if a = 0) and the one at b, of prior precisions p_a = 1/(1 + 1/m) at a = 0, else m, and p_b = m
    for b < m, else 0.  So its full conditional is a gaussian of precision p_a + p_b, tilted by e^{n_i t (b - a)/m},
    n_i the intensity of chain i in the ``(c, 1)`` column n, and truncated at the slack of I, the minimum over I of
    ``mins - v``; it is drawn exactly, with no step-size tuning.  The intervals of one level and colour (even or odd)
    share no edge, so a sweep draws each level and colour in one vector draw, coarse to fine: the whole-function
    shift first, the red-black bin update last.  A sweep costs 2m - 1 site updates, drawn by chain i from
    ``rngs[i]`` in one array per sweep.  It holds the m + 1 edge increments ``diff([0, v, 0])``, read at a level
    through a strided view, and folds the slack up the dyadic tree once (``passes.dyadic_minima``); a move shifts
    each finer interval by a constant, so the moves are carried down as one shift per interval, each level's slack
    is its fold less that shift, and ``v`` takes the shift once, at the end of the sweep.
    """
    (c, m), v = mins.shape, start
    p = np.full(m + 1, float(m))  # the prior precision of each edge increment: the start value, bins 1..m-1, none
    p[0], p[m] = 1.0 / (1.0 + 1.0 / m), 0.0
    # per level of k intervals of w bins, coarse to fine: w, and per colour the slices of its intervals (and left
    # edges), right edges and uniforms, and the coefficients of their conditional moments
    levels, used = [], 0
    for k in (1 << j for j in range(prior.grid_level + 1)):
        w, colours = m // k, []
        for first in range(min(k, 2)):  # evens, then odds: interval i spans edges i and i + 1
            left, right = slice(first, k, 2), slice(first + 1, k + 1, 2)
            p_a, p_b = p[::w][left], p[::w][right]
            var = 1.0 / (p_a + p_b)
            q, used = slice(used, used + var.size), used + var.size
            colours.append((left, right, q, var * p_a, var * p_b, n * (var * w / m), np.sqrt(var)))
        levels.append((w, colours))
    u = np.empty((c, 2 * m - 1))
    while True:
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        g, shift = np.zeros((c, m + 1)), np.zeros((c, 1))
        g[:, :-1] = v  # g = diff([0, v, 0]), without diff's padding copies
        g[:, 1:] -= v
        for fold, (w, colours) in zip(dyadic_minima(mins - v)[::-1], levels):
            edges = g[:, ::w]  # a view: moving a level's edges moves g
            for left, right, q, c_a, c_b, tilt, sd in colours:
                g_a, g_b, s = edges[:, left], edges[:, right], shift[:, left]  # views, moved in place
                mu = c_b * g_b - c_a * g_a + tilt
                alpha = (fold[:, left] - s - mu) / sd
                t = mu + sd * _std_normal_tail(u[:, q], alpha)
                g_a += t
                g_b -= t
                s += t
            shift = np.repeat(shift, 2, axis=1) if w > 1 else shift
        v += shift
        yield v


def _mcmc_finite(prior: FinitePrior, mins, n, steps, rng, reduce):
    """I.i.d. draws of the finite prior's exact posterior, weights pi_i e^{n integral f_i} on the feasible atoms,
    in one ``rng.choice``: as many as a chain of ``steps`` one-atom steps on the ``_kept`` schedule stores, as one
    ``(rows, log_weights)`` part of ``reduce`` of the atoms, indexed by the draws, and ``meta``."""
    feasible = np.all(prior.values <= mins, axis=1) & (prior.weights > 0)  # not empty (``_refused``)
    log_w = np.where(feasible, n * prior.values.mean(axis=1), -math.inf)
    w = prior.weights * np.exp(log_w - log_w.max())
    draws = min(steps, len(_kept(steps, 1, steps)))  # a chain runs at least 2 sweeps, but one step is one sweep
    atoms = rng.choice(len(w), size=draws, p=w / w.sum())
    meta = {"sampler": "mcmc", "kind": "exact", "steps": steps}
    return [(reduce(prior.values)[atoms], np.zeros(draws))], meta


def _cell(parts: list, meta: dict):
    """The cell of the ``(rows, log_weights)`` parts its sampler drew, in order: its reduced rows, log weights and
    ``meta``.  The rows of one part stay uncopied."""
    rows, log_weights = (a[0] if len(parts) == 1 else np.concatenate(a) for a in zip(*parts))
    return rows, log_weights, meta


def _refused(prior, mins: np.ndarray, n: np.ndarray):
    """``(refused, cause)``: which rows of bin minima ``mins``, at their intensities n, no sampler can sample, and
    why, decided from the minima alone: no feasible atom of a finite prior, no feasible state in a uniform wavelet
    prior's support (``passes.highest_feasible``; the last of its ``levels()`` holds every other level's states),
    or an improper laplace posterior at some level (``passes.improper_laplace``, no row of any other prior)."""
    if isinstance(prior, FinitePrior):
        feasible = np.all(prior.values <= mins[:, None], axis=2) & (prior.weights > 0)
        return ~feasible.any(axis=1), "no feasible atom in the finite prior support"
    if getattr(prior, "dist", None) is not None and prior.dist.kind == "uniform":
        return ~highest_feasible(prior.levels()[-1][1], mins)[1], "no feasible state in the uniform support"
    return improper_laplace(prior, mins, n), "an improper laplace posterior, which no sampler draws from"


_VARIANT_NAMES = {  # the PriorSpec variant of each latent prior class, which messages name
    BrownianStartPrior: "brownian_start",
    WaveletSeriesPrior: "wavelet_series",
    TruncatedWaveletPrior: "truncated_wavelet",
}


def check_sampler(prior, sampler: str, budget: int) -> None:
    """ValueError unless ``budget`` is an integer >= 1 and the named sampler, one of ``SAMPLERS``, applies to
    ``prior``; 'exact' needs the truncated wavelet prior with gaussian coefficients."""
    if not isinstance(budget, numbers.Integral) or isinstance(budget, bool):
        raise ValueError(f"budget must be an integer, got {budget!r}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if sampler not in SAMPLERS:
        raise ValueError(f"sampler must be one of {SAMPLERS}, got {sampler!r}")
    if sampler == "exact" and not (isinstance(prior, TruncatedWaveletPrior) and prior.dist.kind == "gaussian"):
        dist = getattr(prior, "dist", None)
        got = _VARIANT_NAMES.get(type(prior), "a finite prior") + (f" with {dist.kind} coefficients" if dist else "")
        raise ValueError(f"sampler 'exact' needs truncated_wavelet with gaussian coefficients, got {got}")


def sample_cells(prior, mins: np.ndarray, n, sampler: str, budget: int, rngs, reduce):
    """Yields, row by row, ``(reduce of the rows, log_weights, meta)`` (or DegeneratePosteriorError) of each cell
    whose bin minima are a row of ``mins``, at intensity ``n``, one for all rows or one per row (a whole study may
    be one block), after ``check_sampler``; ``budget`` counts draws or site updates.

    ``reduce`` maps ``(k, w)`` rows on w equal blocks of the prior's grid, at any w, to k results: a study's
    per-row error (``row_errors``), or ``sample_posterior``'s rows repeated onto the grid's bins.  Every sampler reduces its
    rows as it draws them, and a Gibbs block stores ``reduce`` of each chain's kept sweeps (``_run_chain``), so no
    state is held past its sweep.  The draws do not depend on ``reduce``.

    'mcmc' on a latent prior runs one Brownian block of chains, or one ``_gibbs_wavelet`` block per level of
    ``prior.levels()`` on a ``budget // len(levels)`` budget, over the cells whose level weight is > 0; a wavelet
    block's states are its level's finest blocks, and a cell's rows are its levels' in increasing order.
    Every chain starts flat at ``_flat_start`` of its block's minima, drawing nothing before its first sweep.
    A Gibbs cell's ``meta["steps"]`` counts the site updates its chains ran, summed over its levels, and a wavelet
    cell with no level weight > 0 is degenerate.  Every other sampler runs cell by cell, yielding each cell before
    it draws the next.  Before any draw, ``mins`` of any shape but one row per generator on the prior's grid, or an
    n that is not positive and finite, is a ValueError; then, whatever the sampler, one pass over the minima
    (``_refused``) refuses each cell that no sampler can sample, by an error that names its cause, and no draw is
    made for it.  Cell i draws only from ``rngs[i]``, as in its own ``sample_posterior``.
    """
    check_sampler(prior, sampler, budget)
    block = (len(rngs), 1 << prior.grid_level)  # one row per generator, on the prior's grid
    if np.shape(mins) != block:
        raise ValueError(f"minima of shape {np.shape(mins)} are not one row per generator on the prior's grid, "
                         f"shape {block}")
    n = np.broadcast_to(np.asarray(n, dtype=float), (len(mins),))  # one intensity per row
    bad = ~(np.isfinite(n) & (n > 0.0))
    if bad.any():
        raise ValueError(f"n must be positive and finite, got {n[bad][0].item()!r}")
    refused, cause = _refused(prior, mins, n)
    if sampler != "mcmc" or isinstance(prior, FinitePrior):
        kernel = {"importance": _importance, "exact": _exact, "mcmc": _mcmc_finite}[sampler]
        for row, n_i, rng, r in zip(mins, n.tolist(), rngs, refused.tolist()):
            try:
                yield DegeneratePosteriorError(cause) if r else _cell(*kernel(prior, row, n_i, budget, rng, reduce))
            except DegeneratePosteriorError as exc:
                yield exc
        return
    if isinstance(prior, BrownianStartPrior):
        cost = (2 << prior.grid_level) - 1
        keep = _kept(budget, cost, budget)
        start = np.repeat(_flat_start(mins), 1 << prior.grid_level, axis=1)
        chains = _gibbs_brownian(prior, mins, n[:, None], rngs, start)
        rows = [[(v, np.zeros(len(keep)))] for v in _run_chain(chains, keep, reduce)]
        metas = [{"sampler": "mcmc", "kind": "gibbs", "steps": keep.stop * cost} for _ in rngs]
    else:
        levels, truncated = prior.levels(), isinstance(prior, TruncatedWaveletPrior)
        log_w = np.full((len(rngs), len(levels)), -math.inf) if truncated else np.zeros((len(rngs), 1))
        live = np.flatnonzero(~refused)  # a refused row draws no level evidence
        if truncated and live.size:
            log_w[live] = _level_log_weights(levels, mins[live], n[live].tolist(), [rngs[i] for i in live])
        rows, (steps, skipped) = [[] for _ in rngs], np.zeros((2, len(rngs)), dtype=int)  # updates run and skipped
        for (_, level), lw in zip(levels, log_w.T):
            cells = np.flatnonzero((lw > -math.inf) & ~refused)
            if cells.size:
                keep = _kept(max(1, budget // len(levels)), level.latent_dim, budget)
                block_skipped, block_rngs = np.zeros(cells.size, dtype=int), [rngs[i] for i in cells]
                block_mins = block_minima(mins[cells], level.j_max)
                start = _wavelet_start(level, block_mins)
                chains = _gibbs_wavelet(level, block_mins, n[cells, None], block_rngs, start, block_skipped)
                values = _run_chain(chains, keep, reduce)
                steps[cells] += keep.stop * level.latent_dim
                skipped[cells] += block_skipped
                for i, v in zip(cells.tolist(), values):  # a truncated row weighs its level's weight over the rows
                    rows[i].append((v, np.full(len(v), lw[i] - math.log(len(v)) if truncated else 0.0)))
        metas = [{"sampler": "mcmc", "kind": "gibbs", "steps": t, "skipped_updates": k}
                 for t, k in zip(steps.tolist(), skipped.tolist())]
        if truncated:
            for meta, lw in zip(metas, log_w):
                meta["level_log_weights"] = lw.tolist()
    for cell, r, meta in zip(rows, refused.tolist(), metas):
        if r or not cell:
            yield DegeneratePosteriorError(cause if r else "no level produced feasible states")
        else:
            yield _cell(cell, meta)


def sample_posterior(prior, pattern: PointPattern, sampler: str, budget: int, rng: np.random.Generator):
    """The ensemble of the named sampler, 'importance', 'mcmc' or 'exact', on one cell: ``sample_cells`` of one
    row, its rows repeated onto the grid's bins as they are drawn, raising a degenerate cell's
    DegeneratePosteriorError.  ``budget`` counts draws, or steps for 'mcmc'."""
    bins = 1 << prior.grid_level
    (cell,) = sample_cells(prior, bin_minima(pattern, prior.grid_level)[None], pattern.intensity, sampler, budget,
                           [rng], lambda v: np.repeat(v, bins // v.shape[1], axis=1))
    if isinstance(cell, DegeneratePosteriorError):
        raise cell
    return PosteriorEnsemble(prior.grid_level, *cell)


def importance_posterior(prior, pattern: PointPattern, draws: int, rng: np.random.Generator) -> PosteriorEnsemble:
    """``sample_posterior(prior, pattern, "importance", draws, rng)``, kept for the benchmark replay."""
    return sample_posterior(prior, pattern, "importance", draws, rng)


def exact_truncated_posterior(
    prior: TruncatedWaveletPrior, pattern: PointPattern, draws: int, rng: np.random.Generator
) -> PosteriorEnsemble:
    """``sample_posterior(prior, pattern, "exact", draws, rng)``, kept for the benchmark replay."""
    return sample_posterior(prior, pattern, "exact", draws, rng)


def mcmc_posterior(prior, pattern: PointPattern, steps: int, step_scale: float, rng: np.random.Generator):
    """``sample_posterior(prior, pattern, "mcmc", steps, rng)``, kept for the benchmark replay, which passes all
    five arguments positionally.  ``step_scale`` is validated but read by no kernel."""
    if not step_scale > 0:
        raise ValueError("step_scale must be positive")
    return sample_posterior(prior, pattern, "mcmc", steps, rng)


# ---------------------------------------------------------------------------
# posterior functionals


def posterior_mass(ens: PosteriorEnsemble, hits) -> float:
    """Posterior mass of the rows of ``ens`` where the boolean row mask ``hits`` is true."""
    hits = np.asarray(hits, dtype=bool)
    if hits.shape != (len(ens),):
        raise ValueError(f"hits must be a boolean row mask of shape ({len(ens)},), got shape {hits.shape}")
    return float(ens.normalized_weights[hits].sum())


def _errors(rows: np.ndarray, grid_level: int, f0: GridFunction, metric: str) -> np.ndarray:
    """Per-row integral of |f - f0|, (f0 - f)_+ or (f - f0)_+ on the finer of the two grids, from ``(k, w)`` rows
    on w equal blocks of a 2**grid_level grid: an ensemble's ``values``, or a study sampler's rows at any width.
    Each row's error is the same mean over the same refined bins at any w and any k."""
    if metric not in ERROR_METRICS:
        raise ValueError(f"unknown error metric {metric!r}")
    lvl = max(grid_level, f0.grid_level)
    ref = f0.refine(lvl).values
    vals, out = rows, None
    if vals.shape[1] < 1 << lvl:  # refine into a copy and reuse it: at most one (k, 2**lvl) temporary
        vals = out = np.repeat(vals, (1 << lvl) // vals.shape[1], axis=1)
    d = np.subtract(ref, vals, out=out) if metric == "lower_part" else np.subtract(vals, ref, out=out)
    if metric == "l1":
        np.abs(d, out=d)
    else:
        np.maximum(d, 0.0, out=d)
    return d.mean(axis=1)


def row_errors(f0: GridFunction, metric: str, grid_level: int):
    """The per-row ``reduce`` of ``sample_cells`` that a study hands its samplers: ``_errors`` of rows on a
    2**grid_level grid against ``f0`` in ``metric``, one of ``ERROR_METRICS``."""
    return partial(_errors, grid_level=grid_level, f0=f0, metric=metric)


def mass_at_least(errors: np.ndarray, weights: np.ndarray, r: float) -> float:
    """The weight of the rows whose error is at least r."""
    return float(weights[errors >= r].sum())


def posterior_mass_at_least(ens: PosteriorEnsemble, f0: GridFunction, r: float, metric: str = "l1") -> float:
    """Posterior mass of functions whose error against f0 in ``metric``, one of ``ERROR_METRICS``, is at least r:
    the integral of |f - f0|, (f0 - f)_+ or (f - f0)_+."""
    return mass_at_least(_errors(ens.values, ens.grid_level, f0, metric), ens.normalized_weights, r)


def weighted_median(values: np.ndarray, weights: np.ndarray) -> float:
    order = np.argsort(values)
    v = np.asarray(values, dtype=float)[order]
    w = np.asarray(weights, dtype=float)[order]
    cum = np.cumsum(w) / w.sum()
    return float(v[np.searchsorted(cum, 0.5)])


def posterior_median_metric(ens: PosteriorEnsemble, f0: GridFunction, metric: str = "l1") -> float:
    """Weighted posterior median of an error metric against a reference function."""
    return weighted_median(_errors(ens.values, ens.grid_level, f0, metric), ens.normalized_weights)
