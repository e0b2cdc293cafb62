"""Posterior computation: exact log-weights, prior importance sampling, exact
Gibbs kernels for the latent priors and a closed-form exact sampler for the
gaussian truncated wavelet prior.  Metropolis is used only for finite priors.

The posterior density with respect to the prior is ``e^{n * integral(f)}`` on
the set of functions lying below every data point, and zero elsewhere.  For a
piecewise-constant candidate the constraint is equivalent to lying below the
per-bin minima of the point ordinates, which keeps every check O(grid size).
Every sampler enforces the constraint exactly; infeasible states are never
stored.

An ensemble is ``values`` (k x 2**grid_level, read-only, row i = sample i, at
the prior's grid level), ``log_weights`` and ``meta``; every functional is a
row reduction, and ``samples`` is a ``GridFunction`` view of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import log_ndtr

from .grid import GridFunction, PointPattern, constraint_satisfied, integral
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
    "bin_minima",
    "truncated_level_log_evidence",
    "exact_truncated_posterior",
    "importance_posterior",
    "mcmc_posterior",
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


def bin_minima(pattern: PointPattern, grid_level: int) -> np.ndarray:
    """Per-bin minimum point ordinate (+inf on empty bins).

    A piecewise-constant function at this grid level is feasible iff its
    values lie below these minima bin-wise.
    """
    m = 1 << grid_level
    mins = np.full(m, np.inf)
    if len(pattern):
        idx = np.minimum(np.floor(pattern.xs * m).astype(int), m - 1)
        np.minimum.at(mins, idx, pattern.ys)
    return mins


def _sample_std_normal_tail(rng: np.random.Generator, alpha: np.ndarray) -> np.ndarray:
    """Exact draws of Z ~ N(0, 1) conditioned on Z <= alpha_i, elementwise.

    Plain rejection when the constraint keeps reasonable mass; for alpha < -1
    the mirrored exponential rejection sampler of Robert (1995), which stays
    efficient arbitrarily far into the tail.
    """
    alpha = np.asarray(alpha, dtype=float)
    out = np.empty(alpha.size)
    flat = alpha.ravel()
    easy = np.flatnonzero(flat > -1.0)
    while easy.size:
        z = rng.standard_normal(easy.size)
        ok = z <= flat[easy]
        out[easy[ok]] = z[ok]
        easy = easy[~ok]
    hard = np.flatnonzero(flat <= -1.0)
    a = -flat[hard]
    lam = 0.5 * (a + np.sqrt(a * a + 4.0))
    pending = np.arange(hard.size)
    res = np.empty(hard.size)
    while pending.size:
        x = a[pending] - np.log(rng.uniform(size=pending.size)) / lam[pending]
        ok = np.log(rng.uniform(size=pending.size)) < -0.5 * (x - lam[pending]) ** 2
        res[pending[ok]] = x[ok]
        pending = pending[~ok]
    out[hard] = -res
    return out.reshape(alpha.shape)


def _scalar_std_normal_tail(rng: np.random.Generator, alpha: float) -> float:
    """Scalar version of _sample_std_normal_tail, avoiding array overhead."""
    if alpha > -1.0:
        while True:
            z = float(rng.standard_normal())
            if z <= alpha:
                return z
    a = -alpha
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    while True:
        x = a - math.log(rng.uniform()) / lam
        if math.log(rng.uniform()) < -0.5 * (x - lam) ** 2:
            return -x


def _trunc_std_normal(rng: np.random.Generator, a: float, b: float) -> float:
    """Z ~ N(0, 1) conditioned on a <= Z <= b; robust arbitrarily far into a tail."""
    if b < a:
        raise ValueError("empty truncation interval")
    if b <= 0.0:
        return -_trunc_std_normal(rng, -b, -a)
    if a <= 0.0:
        if b - a >= 0.5:
            while True:
                z = float(rng.standard_normal())
                if a <= z <= b:
                    return z
        while True:
            z = float(rng.uniform(a, b))
            if math.log(rng.uniform()) < -0.5 * z * z:
                return z
    # 0 < a <= b: exponential proposal with Robert's rate, truncated to [a, b]
    lam = 0.5 * (a + math.sqrt(a * a + 4.0))
    q = -math.expm1(-lam * (b - a)) if math.isfinite(b) else 1.0
    z_star = min(max(lam, a), b)
    log_m = -0.5 * z_star * z_star + lam * z_star
    while True:
        z = a - math.log1p(-rng.uniform() * q) / lam
        if math.log(rng.uniform()) < -0.5 * z * z + lam * z - log_m:
            return z


def _exp_segment(rng: np.random.Generator, u: float, w: float, r: float) -> float:
    """Draw x with density proportional to e^{r x} on [u, w] by inversion."""
    if r == 0.0:
        return float(rng.uniform(u, w))
    if r < 0.0:
        return -_exp_segment(rng, -w, -u, -r)
    if math.isfinite(u):
        return w + math.log1p(rng.uniform() * math.expm1(-r * (w - u))) / r
    return w + math.log(rng.uniform()) / r


def _exp_segment_log_mass(u: float, w: float, r: float) -> float:
    """Log of the integral of e^{r x} over [u, w]."""
    if u >= w:
        return -math.inf
    if r == 0.0:
        return math.log(w - u)
    if r > 0.0:
        d = w - u
        tail = 0.0 if not math.isfinite(d) else math.log(-math.expm1(-r * d))
        return r * w + tail - math.log(r)
    d = w - u
    tail = 0.0 if not math.isfinite(d) else math.log(-math.expm1(r * d))
    return r * u + tail - math.log(-r)


def _sample_coefficient_interval(dist, rng: np.random.Generator, lo: float, hi: float, tilt: float) -> float:
    """Exact draw from a coefficient prior restricted to [lo, hi] and tilted by e^{tilt * z}."""
    if dist.kind == "gaussian":
        s = dist.scale
        mu = tilt * s * s
        return mu + s * _trunc_std_normal(rng, (lo - mu) / s, (hi - mu) / s)
    if dist.kind == "uniform":
        lo2, hi2 = max(lo, -dist.scale), min(hi, dist.scale)
        if hi2 < lo2:
            raise DegeneratePosteriorError("empty support interval for a uniform coefficient")
        return _exp_segment(rng, lo2, hi2, tilt)
    # laplace: piecewise exponential on either side of zero
    s = dist.scale
    r_neg = tilt + 1.0 / s
    r_pos = tilt - 1.0 / s
    if (not math.isfinite(hi) and r_pos >= 0.0) or (not math.isfinite(lo) and r_neg <= 0.0):
        raise DegeneratePosteriorError("improper tilted laplace conditional (unbounded likelihood)")
    lm_neg = _exp_segment_log_mass(lo, min(hi, 0.0), r_neg)
    lm_pos = _exp_segment_log_mass(max(lo, 0.0), hi, r_pos)
    peak = max(lm_neg, lm_pos)
    p_neg = math.exp(lm_neg - peak) / (math.exp(lm_neg - peak) + math.exp(lm_pos - peak))
    if rng.uniform() < p_neg:
        return _exp_segment(rng, lo, min(hi, 0.0), r_neg)
    return _exp_segment(rng, max(lo, 0.0), hi, r_pos)


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


def exact_truncated_posterior(
    prior: TruncatedWaveletPrior, pattern: PointPattern, draws: int, rng: np.random.Generator
) -> PosteriorEnsemble:
    """Exact posterior draws for the truncated wavelet prior with gaussian coefficients.

    Level weights come from the closed-form evidences; given the level, the
    block values are independent truncated gaussians tilted by the likelihood,
    sampled exactly.  No Monte Carlo error beyond the finite draw count.
    """
    if not isinstance(prior, TruncatedWaveletPrior) or prior.dist.kind != "gaussian":
        raise ValueError("exact sampling needs the truncated wavelet prior with gaussian coefficients")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    n = pattern.intensity
    s = prior.dist.scale
    mins = bin_minima(pattern, prior.grid_level)
    grid_m = 1 << prior.grid_level
    level_log_w = np.array(
        [
            math.log(prior.level_probabilities[j]) + truncated_level_log_evidence(j, mins, n, s)
            for j in range(prior.j_cap + 1)
        ]
    )
    probs = np.exp(level_log_w - level_log_w.max())
    probs /= probs.sum()
    levels = rng.choice(prior.j_cap + 1, size=draws, p=probs)
    values = np.empty((draws, grid_m))
    for i, j in enumerate(levels):
        m = 1 << (j + 1)
        blocks = mins.reshape(m, -1).min(axis=1)
        sd = s * math.sqrt(m)
        mu = n * s * s
        v = mu + sd * _sample_std_normal_tail(rng, (blocks - mu) / sd)
        values[i] = np.repeat(v, grid_m // m)
    meta = {
        "sampler": "exact",
        "draws": draws,
        "level_log_weights": list(level_log_w),
        "level_probabilities": list(probs),
    }
    return PosteriorEnsemble(prior.grid_level, values, np.zeros(draws), meta=meta)


def importance_posterior(
    prior, pattern: PointPattern, draws: int, rng: np.random.Generator
) -> PosteriorEnsemble:
    """Self-normalized importance sampling with the prior as proposal.

    Infeasible draws carry weight zero and are dropped from storage but counted
    in the reported feasibility rate.
    """
    if draws < 1:
        raise ValueError("draws must be >= 1")
    values = np.stack([prior.sample(rng).values for _ in range(draws)])
    values = values[np.all(values <= bin_minima(pattern, prior.grid_level), axis=1)]
    if not len(values):
        raise DegeneratePosteriorError(
            "no feasible prior draw; the importance estimate is degenerate, use mcmc_posterior"
        )
    meta = {"sampler": "importance", "draws": draws, "feasibility_rate": len(values) / draws}
    ens = PosteriorEnsemble(prior.grid_level, values, pattern.intensity * values.mean(axis=1), meta=meta)
    ens.meta["ess"] = ens.ess
    return ens


# ---------------------------------------------------------------------------
# Markov chain samplers: exact Gibbs kernels, Metropolis for finite priors only


def _gibbs_wavelet(prior: WaveletSeriesPrior, pattern, steps, rng, thin):
    """Exact coordinate-wise Gibbs over wavelet coefficients.

    Every full conditional is the coefficient prior restricted to an interval
    (from the feasibility constraint) and, for the scaling coefficient only,
    tilted by the likelihood factor e^{n a0 z0}; both are sampled exactly, so
    there is no step-size tuning and no rejection of stored states.  ``steps``
    counts single-coordinate updates.  Returns the stored grid value rows and the
    count of updates skipped because float drift left an empty interval.
    """
    m = 1 << prior.grid_level
    n = pattern.intensity
    mins = bin_minima(pattern, prior.grid_level)
    dim = prior.latent_dim
    amps = prior.amplitudes
    a0 = float(amps[0])
    # per detail coordinate: support start, half-block length, amplitude
    rows = []
    pos = 1
    for j in range(prior.j_max + 1):
        blk = m >> (j + 1)
        base = 2.0 ** (j / 2.0)
        for k in range(1 << j):
            rows.append((k * 2 * blk, blk, base * float(amps[pos])))
            pos += 1

    z = np.asarray(prior.sample_latent(rng), dtype=float)
    v = prior.synthesize(z)
    # initialization: lower the scaling coordinate until feasible
    deficit = float(np.max(v - mins))
    if deficit > 0:
        z[0] -= (deficit + 1e-9) / a0
        v -= deficit + 1e-9
        if prior.dist.kind == "uniform" and z[0] < -prior.dist.scale:
            raise DegeneratePosteriorError(
                f"no feasible start: clearing the bin minima puts the scaling coefficient at {z[0]:.4g}, "
                f"below the uniform support [-{prior.dist.scale:g}, {prior.dist.scale:g}]"
            )

    sweeps = max(2, steps // dim)
    burn_sweeps = int(_BURN_IN * sweeps)
    thin_sweeps = max(1, thin // dim)
    stored = []
    skipped = 0
    for t in range(sweeps):
        hi = z[0] + float(np.min(mins - v)) / a0
        z_new = _sample_coefficient_interval(prior.dist, rng, -math.inf, hi, n * a0)
        v += (z_new - z[0]) * a0
        z[0] = z_new
        for i, (start, blk, a) in enumerate(rows, start=1):
            sl1 = slice(start, start + blk)
            sl2 = slice(start + blk, start + 2 * blk)
            hi = z[i] + float(np.min(mins[sl1] - v[sl1])) / a
            lo = z[i] - float(np.min(mins[sl2] - v[sl2])) / a
            if hi < lo:  # guard against accumulated rounding
                skipped += 1
                continue
            z_new = _sample_coefficient_interval(prior.dist, rng, lo, hi, 0.0)
            d = (z_new - z[i]) * a
            v[sl1] += d
            v[sl2] -= d
            z[i] = z_new
        if (t + 1) % 64 == 0:  # refresh against float drift of incremental updates
            v = prior.synthesize(z)
        if t >= burn_sweeps and (t - burn_sweeps) % thin_sweeps == thin_sweeps - 1:
            stored.append(v.copy())
    if not stored:
        raise DegeneratePosteriorError("no post-burn-in state stored; increase steps")
    return stored, skipped


def _gibbs_brownian(prior, pattern, steps, rng, thin):
    """Red-black Gibbs sweep over bin values for the Brownian-start prior.

    The prior is Markov across bins, so the full conditional of one bin given
    its neighbours is a gaussian tilted by e^{(n/m) v} and truncated at the bin
    minimum; those draws are exact, no step-size tuning is involved.  Local
    updates alone relax long-wavelength modes diffusively, so each sweep also
    runs directional Gibbs moves along suffix shifts v -> v + t 1{b >= k},
    whose conditionals are again exact truncated gaussians (only the start
    term or one increment changes).  ``steps`` counts single-site updates.
    """
    m = 1 << prior.grid_level
    mins = bin_minima(pattern, prior.grid_level)
    n = pattern.intensity
    sweeps = max(2, steps // (2 * m))
    finite = np.isfinite(mins)
    if finite.any():
        v = np.full(m, min(0.0, float(mins[finite].min())) - 0.1)
    else:
        v = prior.synthesize(prior.sample_latent(rng))

    evens = np.arange(0, m, 2)
    odds = np.arange(1, m, 2)
    sigma0_sq = 1.0 + 1.0 / m
    inc_sd = 1.0 / math.sqrt(m)

    def suffix_sweep():
        for k in range(m):
            bound = float(np.min(mins[k:] - v[k:]))
            if k == 0:
                mu = n * sigma0_sq - v[0]
                sd = math.sqrt(sigma0_sq)
            else:
                mu = -(v[k] - v[k - 1]) + n * (m - k) / (m * m)
                sd = inc_sd
            t = mu + sd * _scalar_std_normal_tail(rng, (bound - mu) / sd)
            v[k:] += t

    def half_sweep(idx):
        lam = np.full(idx.size, 2.0 * m)
        lin = np.zeros(idx.size)
        interior = (idx > 0) & (idx < m - 1)
        lin[interior] = m * (v[idx[interior] - 1] + v[idx[interior] + 1]) + n / m
        if idx[0] == 0:
            lam[0] = 1.0 / (1.0 + 1.0 / m) + m
            lin[0] = m * v[1] + n / m
        if idx[-1] == m - 1:
            lam[-1] = float(m)
            lin[-1] = m * v[m - 2] + n / m
        mu = lin / lam
        sd = 1.0 / np.sqrt(lam)
        v[idx] = mu + sd * _sample_std_normal_tail(rng, (mins[idx] - mu) / sd)

    burn_sweeps = int(_BURN_IN * sweeps)
    thin_sweeps = max(1, thin // (2 * m))
    stored = []
    for t in range(sweeps):
        half_sweep(evens)
        half_sweep(odds)
        suffix_sweep()
        if t >= burn_sweeps and (t - burn_sweeps) % thin_sweeps == thin_sweeps - 1:
            stored.append(v.copy())
    if not stored:
        raise DegeneratePosteriorError("no post-burn-in state stored; increase steps")
    meta = {"sampler": "mcmc", "kind": "gibbs", "steps": sweeps * 2 * m}
    return PosteriorEnsemble(prior.grid_level, np.stack(stored), np.zeros(len(stored)), meta=meta)


def _mcmc_finite(prior: FinitePrior, pattern, steps, rng, thin):
    log_lik = np.array([log_posterior_weight(f, pattern) for f in prior.members])
    feasible = np.flatnonzero(log_lik > -math.inf)
    if feasible.size == 0:
        raise DegeneratePosteriorError("no feasible atom in the finite prior support")
    state = int(feasible[0])
    burn_steps = int(_BURN_IN * steps)
    accepted = 0
    stored = []
    for t in range(steps):
        cand = prior.sample_index(rng)
        # independence proposal from the prior: the prior ratio cancels
        if math.log(rng.uniform()) < log_lik[cand] - log_lik[state]:
            state = cand
            accepted += 1
        if t >= burn_steps and (t - burn_steps) % thin == thin - 1:
            stored.append(state)
    if not stored:
        raise DegeneratePosteriorError("no post-burn-in state stored; increase steps")
    rate = accepted / steps
    meta = {"sampler": "mcmc", "steps": steps, "acceptance_rate": rate}
    if not 0.05 <= rate <= 0.95:
        meta["warning"] = f"acceptance rate {rate:.3f} outside [0.05, 0.95]"
    values = np.stack([f.values for f in prior.members])[stored]
    return PosteriorEnsemble(prior.grid_level, values, np.zeros(len(stored)), meta=meta)


def _mcmc_truncated(prior: TruncatedWaveletPrior, pattern, steps, rng, thin):
    """One constrained chain per level, combined with per-level evidence estimates."""
    n = pattern.intensity
    n_levels = prior.j_cap + 1
    steps_per_level = max(1, steps // n_levels)
    rows: list[np.ndarray] = []
    log_weights: list[float] = []
    level_log_w = []
    skipped = 0
    mins = bin_minima(pattern, prior.grid_level)
    for j in range(n_levels):
        level = prior.level_prior(j)
        if prior.dist.kind == "gaussian":
            # the evidence is available in closed form
            log_z = truncated_level_log_evidence(j, mins, n, prior.dist.scale)
        else:
            # evidence Z_j by prior importance sampling at this level; a rough
            # estimate at large intensity, where feasible draws become rare
            values = level.synthesize(level.dist.sample(rng, size=(_EVIDENCE_DRAWS, level.latent_dim)))
            lws = n * values[np.all(values <= mins, axis=1)].mean(axis=1)
            if not lws.size:
                level_log_w.append(-math.inf)
                continue
            peak = lws.max()
            log_z = peak + math.log(np.exp(lws - peak).sum()) - math.log(_EVIDENCE_DRAWS)
        lw_level = math.log(prior.level_probabilities[j]) + log_z
        stored, level_skipped = _gibbs_wavelet(level, pattern, steps_per_level, rng, thin)
        skipped += level_skipped
        level_log_w.append(lw_level)
        per_sample = lw_level - math.log(len(stored))
        rows.extend(stored)
        log_weights.extend([per_sample] * len(stored))
    if not rows:
        raise DegeneratePosteriorError("no level produced feasible states")
    meta = {
        "sampler": "mcmc",
        "kind": "gibbs",
        "steps": steps,
        "skipped_updates": skipped,
        "level_log_weights": level_log_w,
    }
    return PosteriorEnsemble(prior.grid_level, np.stack(rows), np.array(log_weights), meta=meta)


def mcmc_posterior(
    prior,
    pattern: PointPattern,
    steps: int,
    step_scale: float = 0.5,  # read by no kernel; perfbench/studies.py passes it positionally
    rng: np.random.Generator | None = None,
) -> PosteriorEnsemble:
    """Markov chain Monte Carlo targeting the constrained posterior.

    Latent priors use exact Gibbs kernels: every conditional is drawn exactly
    from a truncated, tilted law, so there is no step size and no rejection.
    The truncated wavelet prior runs one Gibbs chain per level and combines
    them by the level evidences (closed form for gaussian coefficients,
    importance-estimated otherwise).  Only finite priors use Metropolis, with
    an independence proposal from the prior.  A fifth of the sweeps is burn-in.
    ``step_scale`` is validated but read by no kernel; it stays only for the
    benchmark replay's positional call.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not step_scale > 0:
        raise ValueError("step_scale must be positive")
    if rng is None:
        rng = np.random.default_rng()
    thin = max(1, steps // 10_000)
    if isinstance(prior, FinitePrior):
        return _mcmc_finite(prior, pattern, steps, rng, thin)
    if isinstance(prior, TruncatedWaveletPrior):
        return _mcmc_truncated(prior, pattern, steps, rng, thin)
    if isinstance(prior, BrownianStartPrior):
        return _gibbs_brownian(prior, pattern, steps, rng, thin)
    stored, skipped = _gibbs_wavelet(prior, pattern, steps, rng, thin)
    meta = {"sampler": "mcmc", "kind": "gibbs", "steps": steps, "skipped_updates": skipped}
    return PosteriorEnsemble(prior.grid_level, np.stack(stored), np.zeros(len(stored)), meta=meta)


def sample_posterior(prior, pattern: PointPattern, sampler: str, budget: int, rng: np.random.Generator):
    """Posterior ensemble from the named sampler: 'importance', 'mcmc' or 'exact'.

    ``budget`` counts draws, or steps for 'mcmc'.
    """
    if sampler == "importance":
        return importance_posterior(prior, pattern, budget, rng)
    if sampler == "exact":
        return exact_truncated_posterior(prior, pattern, budget, rng)
    if sampler == "mcmc":
        return mcmc_posterior(prior, pattern, budget, rng=rng)
    raise ValueError(f"unknown sampler {sampler!r}")


# ---------------------------------------------------------------------------
# posterior functionals


def posterior_mass(ens: PosteriorEnsemble, predicate) -> float:
    w = ens.normalized_weights
    hits = np.array([bool(predicate(f)) for f in ens.samples])
    return float(w[hits].sum())


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
