"""Studies of posterior contraction rates, small-ball probabilities and
posterior-mass decay, with deterministic CSV/SVG reports.

Theoretical reference exponents are slope targets only; all unspecified
multiplicative constants are absorbed by the log-log fit intercept.  Each
(n, replicate) cell runs on its own generator, seeded from the master seed by
``numpy.random.SeedSequence([seed, n_index, replicate])``.  The cells of one n
simulate their patterns, reduce them to bin minima and go to the posterior
layer's one dispatch (``sample_cells``) as one block, which samples each bit
for bit as alone, so neither the thread count nor the block changes a result.
Small-ball probabilities are quadratures that draw no random numbers: a
transfer operator over the bins for the Brownian-start prior, and an upward
pass over the Haar tree for the wavelet priors, the truncated prior as the
mixture of its level priors.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from .grid import GridFunction, bin_minima, simulate_ppp
from .posterior import (
    PosteriorEnsemble,
    check_sampler,
    mass_lower_excess,
    posterior_median_metric,
    reduce_draws,
    sample_cells,
)
from .priors import (
    CoefficientDistribution,
    PriorSpec,
    build_prior,
    holder_test_function,
)
from .reporting import csv_table, fit_loglog_slope, svg_loglog_plot, write_text

__all__ = [
    "RateStudyConfig",
    "RateStudyReport",
    "SmallBallReport",
    "DecayStudyReport",
    "StudyError",
    "StudyConfigError",
    "theoretical_rate_exponent",
    "theoretical_small_ball_exponent",
    "calibrate_ceiling",
    "run_rate_study",
    "run_small_ball_study",
    "run_posterior_decay_study",
    "emit_report",
]


MAX_EXCLUSION_FRAC = 0.2  # a study refuses when a larger share of its cells is degenerate


class StudyError(RuntimeError):
    """A study failed structurally (for example too many degenerate cells)."""

    def __init__(self, message: str, exclusions: int = 0, total: int = 0):
        super().__init__(message)
        self.exclusions = exclusions
        self.total = total


class StudyConfigError(ValueError):
    """A study config value that the study rejects; raised before any work starts."""


def _check_sampler(sampler: str, budget: int, spec: PriorSpec) -> None:
    """``check_sampler`` on the prior of ``spec``, its ValueError raised as StudyConfigError."""
    try:
        check_sampler(build_prior(spec), sampler, budget)
    except ValueError as exc:
        raise StudyConfigError(str(exc)) from None


def _check_cells(n_grid, replicates: int, min_values: int, min_replicates: int) -> tuple:
    """``n_grid`` as floats; StudyConfigError unless it has at least ``min_values`` positive, strictly
    increasing values and there are at least ``min_replicates`` replicates."""
    n_grid = tuple(float(n) for n in n_grid)
    if len(n_grid) < min_values:
        raise StudyConfigError(f"n_grid needs at least {min_values} values, got {n_grid}")
    if not all(n > 0 for n in n_grid):
        raise StudyConfigError(f"n_grid values must be positive, got {n_grid}")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise StudyConfigError(f"n_grid must be strictly increasing, got {n_grid}")
    if replicates < min_replicates:
        raise StudyConfigError(f"replicates must be >= {min_replicates}, got {replicates}")
    return n_grid


# ---------------------------------------------------------------------------
# reference exponents


def theoretical_rate_exponent(spec: PriorSpec, beta: float) -> float | None:
    """Slope target for log(posterior L1 error) against log(n)."""
    if spec.variant == "brownian_start":
        return -beta / (2.0 - beta) if beta <= 0.5 else -1.0 / 3.0
    if spec.variant == "truncated_wavelet":
        # log factor ignored for slope fitting over one decade of n
        return -beta / (beta + 1.0)
    a = spec.alpha
    if spec.dist.kind == "gaussian":
        return -min(beta, a) / (1.0 + a + max(a - beta, 0.0))
    if spec.dist.kind == "laplace":
        return -min(beta, a) / (1.0 + a)
    return None  # no reference exponent for uniform coefficients


def theoretical_small_ball_exponent(spec: PriorSpec, beta: float) -> float | None:
    """Slope target for log(-log P(sup-ball)) against log(1/eps)."""
    if spec.variant == "brownian_start":
        return 2.0
    if spec.variant == "truncated_wavelet":
        return 1.0 / beta  # up to log factors
    a = spec.alpha
    if spec.dist.kind == "gaussian":
        return max((1.0 + 2.0 * a - 2.0 * beta) / beta, 1.0 / a)
    if spec.dist.kind == "laplace":
        return max((1.0 + a - beta) / beta, 1.0 / a)
    return None


def out_of_hypothesis(spec: PriorSpec) -> bool:
    """True when the configuration sits outside the regime where a reference contraction exponent is available."""
    return spec.variant == "wavelet_series" and spec.alpha is not None and spec.alpha <= 1.0


# ---------------------------------------------------------------------------
# rate study


@dataclass(frozen=True)
class RateStudyConfig:
    prior: PriorSpec
    f0_beta: float
    f0_R: float
    f0_kind: str
    n_grid: tuple
    replicates: int
    sampler: str = "mcmc"
    budget: int = 4000
    error_metric: str = "l1"
    seed: int = 0
    step_scale: float = 0.5  # read by no sampler; perfbench/studies.py passes it to mcmc_posterior
    slope_tol: float = 0.15

    def __post_init__(self) -> None:
        n_grid = _check_cells(self.n_grid, self.replicates, 4, 10)
        _check_sampler(self.sampler, self.budget, self.prior)
        if self.error_metric not in ("l1", "lower_part", "upper_part"):
            raise StudyConfigError(f"unknown error metric {self.error_metric!r}")
        try:
            self.f0()
        except ValueError as exc:
            raise StudyConfigError(f"f0: {exc}") from None
        object.__setattr__(self, "n_grid", n_grid)

    def f0(self) -> GridFunction:
        return holder_test_function(self.f0_beta, self.f0_R, self.f0_kind, self.prior.grid_level)


@dataclass(frozen=True)
class RateStudyReport:
    n_grid: tuple
    medians: tuple
    q25: tuple
    q75: tuple
    slope: float
    intercept: float
    theory: float | None
    margin: float | None
    tol: float
    passed: bool
    exclusions: int
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        header = (
            f"rate study: slope={self.slope!r} theory={self.theory!r} tol={self.tol!r} "
            f"passed={self.passed} exclusions={self.exclusions}"
        )
        return csv_table(
            header,
            {
                "n": list(self.n_grid),
                "median_error": list(self.medians),
                "q25": list(self.q25),
                "q75": list(self.q75),
            },
        )

    def to_svg(self) -> str:
        return svg_loglog_plot(
            self.n_grid,
            self.medians,
            self.slope,
            self.intercept,
            self.theory if self.theory is not None else self.slope,
            "posterior error vs n (log-log)",
        )


_CEILING_DRAWS = 2000
_CEILING_EXCEED_PROB = 1e-3


def calibrate_ceiling(prior, f0: GridFunction, rng: np.random.Generator) -> float:
    """Ceiling = max(f0) + margin such that prior draws rarely exceed it anywhere.

    The margin is the empirical 0.999 quantile of the prior sup over 2000
    draws; candidates above the ceiling escape some killing points, which is
    the documented truncation bias.
    """
    sups = reduce_draws(prior, _CEILING_DRAWS, rng, lambda v: v.max(axis=1))
    return float(max(f0.max() + 0.05, np.quantile(sups, 1.0 - _CEILING_EXCEED_PROB))) + 0.05


def _study_row(spec, f0, ceiling, sampler, budget, functional, replicates, seed, i_n, n):
    """``functional(ensemble, f0)`` of the cells (n, 0), ..., (n, replicates - 1), or None for a degenerate cell.

    Each cell simulates and samples on its own generator, ``default_rng(SeedSequence((seed, i_n, rep)))``.  The
    patterns, reduced at once to bin minima, go to ``sample_cells`` as one block; each ensemble is reduced as it
    is yielded, so a sampler that runs cell by cell holds one ensemble at a time.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, i_n, rep))) for rep in range(replicates)]
    mins = np.stack([bin_minima(simulate_ppp(f0, n, ceiling, rng), spec.grid_level) for rng in rngs])
    ensembles = sample_cells(build_prior(spec), mins, n, sampler, budget, rngs)
    return [functional(ens, f0) if isinstance(ens, PosteriorEnsemble) else None for ens in ensembles]


def _run_cells(row, n_grid, threads: int):
    """``row(i_n, n)``, the replicates of intensity n, for every n of the grid, as an (n, replicate) object array.

    The cells of one n run as one block, each on its own ``SeedSequence`` generator, so neither
    ``threads`` nor the block changes a result.  With ``threads > 1`` each row is one process task, and ``row``
    must be picklable.  Degenerate cells hold None; more than ``MAX_EXCLUSION_FRAC`` of them, or every cell of
    one n, is a StudyError.
    """
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            grid = np.array(list(pool.map(row, range(len(n_grid)), n_grid)), dtype=object)
    else:
        grid = np.array(list(map(row, range(len(n_grid)), n_grid)), dtype=object)
    exclusions = sum(v is None for v in grid.flat)
    empty = [n for n, cells in zip(n_grid, grid) if all(v is None for v in cells)]
    if empty:
        raise StudyError(f"every cell degenerate at n = {empty}", exclusions=exclusions, total=grid.size)
    if exclusions > MAX_EXCLUSION_FRAC * grid.size:
        raise StudyError(
            f"{exclusions}/{grid.size} cells degenerate (limit {MAX_EXCLUSION_FRAC:.0%})",
            exclusions=exclusions,
            total=grid.size,
        )
    return grid, exclusions


def run_rate_study(cfg: RateStudyConfig, threads: int = 1) -> RateStudyReport:
    """Posterior-error slope study over the intensity grid."""
    f0 = cfg.f0()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xCE11)))
    ceiling = calibrate_ceiling(build_prior(cfg.prior), f0, rng)
    metric = partial(posterior_median_metric, metric=cfg.error_metric)
    cells = partial(_study_row, cfg.prior, f0, ceiling, cfg.sampler, cfg.budget, metric, cfg.replicates, cfg.seed)
    grid, exclusions = _run_cells(cells, cfg.n_grid, threads)
    medians, q25, q75 = [], [], []
    for row in grid:
        vals = np.array([v for v in row if v is not None], dtype=float)
        medians.append(float(np.median(vals)))
        q25.append(float(np.quantile(vals, 0.25)))
        q75.append(float(np.quantile(vals, 0.75)))
    slope, intercept = fit_loglog_slope(cfg.n_grid, medians)
    theory = theoretical_rate_exponent(cfg.prior, cfg.f0_beta)
    margin = None if theory is None else abs(slope - theory)
    passed = margin is not None and margin <= cfg.slope_tol
    meta = {"ceiling": ceiling, "sampler": cfg.sampler, "budget": cfg.budget, "seed": cfg.seed}
    if out_of_hypothesis(cfg.prior):
        meta["flag"] = "configuration outside the known contraction regime (alpha <= 1)"
    return RateStudyReport(
        tuple(cfg.n_grid),
        tuple(medians),
        tuple(q25),
        tuple(q75),
        slope,
        intercept,
        theory,
        margin,
        cfg.slope_tol,
        passed,
        exclusions,
        meta,
    )


# ---------------------------------------------------------------------------
# small-ball study


@dataclass(frozen=True)
class SmallBallReport:
    eps_grid: tuple
    probabilities: tuple
    std_errors: tuple
    excluded_eps: tuple
    slope: float
    intercept: float
    theory: float | None
    tol: float
    passed: bool
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        header = (
            f"small-ball study: slope={self.slope!r} theory={self.theory!r} tol={self.tol!r} "
            f"passed={self.passed} excluded={list(self.excluded_eps)}"
        )
        return csv_table(
            header,
            {
                "eps": list(self.eps_grid),
                "probability": list(self.probabilities),
                "std_error": list(self.std_errors),
            },
        )

    def to_svg(self) -> str:
        x = [1.0 / e for e in self.eps_grid]
        y = [-math.log(p) for p in self.probabilities]
        return svg_loglog_plot(
            x,
            y,
            self.slope,
            self.intercept,
            self.theory if self.theory is not None else self.slope,
            "-log P(sup-ball) vs 1/eps (log-log)",
        )


def _mass(dist: CoefficientDistribution, lo, hi) -> np.ndarray:
    """P(lo < z <= hi) for z of law ``dist``, 0 where lo >= hi; an interval right of 0 is read in the left tail."""
    return np.maximum(np.where(lo > 0.0, dist.cdf(-lo) - dist.cdf(-hi), dist.cdf(hi) - dist.cdf(lo)), 0.0)


def _haar_log_p(prior, target: np.ndarray, eps: float, cells: int) -> float:
    """log P(sup|X - target| <= eps), wavelet-series prior, by an upward pass over the Haar tree; -inf if P = 0.

    The ball is one window [max_b target - eps, min_b target + eps] per block b of the prior's 2**(j_max+1).
    Node (j, k) with partial sum s has children s +- A_j z, A_j = 2^{j/2} amplitudes[2^j]; its message M(s) is the
    probability that its blocks stay in their windows.  At j_max both children are blocks, and M is the law's
    mass on the z both windows allow.  Above, on the lattice s_i = i d, d = 2 eps / cells, M(s_i) is
    sum_t w_t M_L(s_{i+t}) M_R(s_{i-t}), w_t the law's mass on the cell of z = t d / A_j, over every t with w_t > 0.
    The root integrates M_0 against the cell masses of the scaling coefficient.  Messages are (nodes, S)
    arrays, one level at a time, each row renormalised by its max, whose log is added to log P.
    """
    dist, amps, top_level = prior.dist, prior.amplitudes, prior.j_max
    blocks = target.reshape(2 << top_level, -1)
    lo, hi = blocks.max(axis=1) - eps, blocks.min(axis=1) + eps
    if np.any(lo >= hi):
        return -math.inf
    d = 2.0 * eps / cells
    s = d * np.arange(math.floor(lo.min() / d), math.ceil(hi.max() / d) + 1)
    n = s.size
    a = 2.0 ** (top_level / 2.0) * amps[1 << top_level]
    z_lo = np.maximum(lo[0::2, None] - s, s - hi[1::2, None]) / a
    z_hi = np.minimum(hi[0::2, None] - s, s - lo[1::2, None]) / a
    msg, log_p = _mass(dist, z_lo, z_hi), 0.0
    for j in range(top_level, -1, -1):  # msg holds level j, one row per node
        peak = msg.max(axis=1, keepdims=True)
        if not peak.all():
            return -math.inf
        log_p += float(np.log(peak).sum())
        msg /= peak
        if j == 0:
            break
        left, right = msg[0::2], msg[1::2]
        step = d / (2.0 ** ((j - 1) / 2.0) * amps[1 << (j - 1)])  # one lattice cell in z
        offsets = np.arange((n + 1) // 2)  # all the lattice holds
        w = _mass(dist, (offsets - 0.5) * step, (offsets + 0.5) * step)
        msg = w[0] * left * right
        for t in range(1, np.flatnonzero(w)[-1] + 1):  # up to where the law's mass underflows or ends
            inner = left[:, 2 * t :] * right[:, : n - 2 * t] + left[:, : n - 2 * t] * right[:, 2 * t :]
            msg[:, t : n - t] += w[t] * inner
    root = float(_mass(dist, (s - 0.5 * d) / amps[0], (s + 0.5 * d) / amps[0]) @ msg[0])
    return log_p + math.log(root) if root > 0.0 else -math.inf


def _brownian_log_p(target: np.ndarray, eps: float, cells: int) -> float:
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


def _richardson(log_p, cells: int) -> tuple[float, float]:
    """(P, std_error) of an O(d^2) quadrature ``log_p(c)`` run at ``cells``, 2 ``cells`` and 4 ``cells`` cells.

    With R(a, b) = (4 log_p(b) - log_p(a)) / 3, P = exp R(2 cells, 4 cells) and std_error is
    P |R(2 cells, 4 cells) - R(cells, 2 cells)|; (0, 0) if a run loses the mass.
    """
    coarse, mid, fine = (log_p(c) for c in (cells, 2 * cells, 4 * cells))
    if min(coarse, mid, fine) == -math.inf:
        return 0.0, 0.0
    r = (4.0 * fine - mid) / 3.0
    return math.exp(r), math.exp(r) * abs(r - (4.0 * mid - coarse) / 3.0)


def _mixture_log_p(levels, target: np.ndarray, eps: float, cells: int) -> float:
    """log sum_j w_j P_j over the weighted wavelet-series priors ``levels``, each P_j by ``_haar_log_p``."""
    return float(np.logaddexp.reduce([math.log(w) + _haar_log_p(prior, target, eps, cells) for w, prior in levels]))


def run_small_ball_study(
    spec: PriorSpec,
    h: GridFunction,
    eps_grid,
    draws: int | None = None,
    rng: np.random.Generator | None = None,
    beta: float | None = None,
    tol: float = 0.3,
) -> SmallBallReport:
    """P(sup|X - h| <= eps) for each eps of the strictly decreasing ``eps_grid``, with a log(-log) slope fit.

    Every prior is a Markov model, across bins or down the Haar tree, so P is a quadrature that draws no random
    numbers: a transfer operator over the bins for the Brownian prior (``_brownian_log_p``, one cell per increment
    sd and up), and an upward pass over the tree for the wavelet priors (``_haar_log_p``, 32 cells per window and
    up).  The truncated prior is the mixture of its level priors, P = sum_j pi_j P_j.  Each quadrature is run at
    three cell widths, and ``std_error`` is the change of its Richardson value (``_richardson``).  An eps whose
    estimate is 0 (an empty window or an underflow) or at least 1 (a ball that holds every draw) is excluded.
    ``draws`` and ``rng`` are read by no estimator; passing either is deprecated.
    """
    if draws is not None or rng is not None:
        warnings.warn("run_small_ball_study ignores draws and rng: every small ball is a quadrature",
                      DeprecationWarning, stacklevel=2)
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(e2 >= e1 for e1, e2 in zip(eps_grid, eps_grid[1:])):
        raise StudyConfigError(f"eps_grid must be strictly decreasing, got {eps_grid}")
    if not all(e > 0 for e in eps_grid):
        raise StudyConfigError(f"eps_grid values must be positive, got {eps_grid}")
    target = h.refine(spec.grid_level).values
    if spec.variant == "brownian_start":
        root_m = math.sqrt(target.size)  # from cells of about one increment sd, 1 / root_m
        runs = [_richardson(partial(_brownian_log_p, target, e), math.ceil(2.0 * e * root_m)) for e in eps_grid]
        meta = {"method": "transfer", "cells_per_sd": (1, 2, 4)}
    else:
        levels = build_prior(spec).levels()
        runs = [_richardson(partial(_mixture_log_p, levels, target, e), 32) for e in eps_grid]
        meta = {"method": "haar-tree", "cells_per_window": (32, 64, 128)}
    p, se = np.array(runs).reshape(-1, 2).T
    hit, eps = (p > 0.0) & (p < 1.0), np.array(eps_grid)
    kept, probs, ses, excluded = (tuple(a.tolist()) for a in (eps[hit], p[hit], se[hit], eps[~hit]))
    if len(kept) < 2:
        raise StudyError(f"fewer than two epsilon values with an estimate strictly inside (0, 1): {excluded} excluded")
    x = [1.0 / e for e in kept]
    y = [-math.log(q) for q in probs]
    slope, intercept = fit_loglog_slope(x, y)
    theory = None if beta is None else theoretical_small_ball_exponent(spec, beta)
    passed = theory is None or abs(slope - theory) <= tol
    if out_of_hypothesis(spec):
        meta["flag"] = "configuration outside the known contraction regime (alpha <= 1)"
    return SmallBallReport(kept, probs, ses, excluded, slope, intercept, theory, tol, passed, meta)


# ---------------------------------------------------------------------------
# posterior-mass decay study


@dataclass(frozen=True)
class DecayStudyReport:
    n_grid: tuple
    median_mass: tuple
    mean_mass: tuple
    passed: bool
    exclusions: int
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        header = f"decay study: passed={self.passed} exclusions={self.exclusions}"
        return csv_table(
            header,
            {
                "n": list(self.n_grid),
                "median_mass": list(self.median_mass),
                "mean_mass": list(self.mean_mass),
            },
        )

    def to_svg(self) -> str | None:
        pts = [(n, m) for n, m in zip(self.n_grid, self.median_mass) if m > 0]
        if len(pts) < 2:
            return None
        x = [p[0] for p in pts]
        y = [p[1] for p in pts]
        slope, intercept = fit_loglog_slope(x, y)
        return svg_loglog_plot(x, y, slope, intercept, slope, "posterior excess mass vs n (log-log)")


def run_posterior_decay_study(
    prior_spec: PriorSpec,
    f0: GridFunction,
    r: float,
    n_grid,
    replicates: int,
    seed: int = 0,
    sampler: str = "mcmc",
    budget: int = 3000,
    threads: int = 1,
) -> DecayStudyReport:
    """Expected posterior mass of {integral((f0 - f)_+) >= r} across the intensity grid.

    Cells are seeded as in :func:`run_rate_study`, so ``threads`` changes no result.
    The medians are compared in grid order, so the grid must increase.
    """
    _check_sampler(sampler, budget, prior_spec)
    n_grid = _check_cells(n_grid, replicates, 2, 1)
    rng0 = np.random.default_rng(np.random.SeedSequence((seed, 0xCE11)))
    ceiling = calibrate_ceiling(build_prior(prior_spec), f0, rng0)
    mass = partial(mass_lower_excess, r=r)
    cells = partial(_study_row, prior_spec, f0, ceiling, sampler, budget, mass, replicates, seed)
    grid, exclusions = _run_cells(cells, n_grid, threads)
    masses = grid.astype(float)  # degenerate cells become nan
    med = tuple(float(np.nanmedian(row)) for row in masses)
    mean = tuple(float(np.nanmean(row)) for row in masses)
    passed = all(b <= a + 1e-12 for a, b in zip(med, med[1:]))
    return DecayStudyReport(n_grid, med, mean, passed, exclusions, {"r": r, "ceiling": ceiling})


# ---------------------------------------------------------------------------
# report emission


def emit_report(report, out_dir) -> int:
    """Write CSV and SVG artifacts; returns the CLI exit code (0 pass, 2 tolerance fail)."""
    out = Path(out_dir)
    stem = {
        RateStudyReport: "rate_study",
        SmallBallReport: "small_ball",
        DecayStudyReport: "decay_study",
    }[type(report)]
    write_text(out / f"{stem}.csv", report.to_csv())
    svg = report.to_svg()
    if svg is not None:
        write_text(out / f"{stem}.svg", svg)
    return 0 if report.passed else 2
