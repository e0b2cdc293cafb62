"""Monte Carlo studies: posterior contraction rates, small-ball probabilities
and posterior-mass decay, with deterministic CSV/SVG reports.

Theoretical reference exponents are slope targets only; all unspecified
multiplicative constants are absorbed by the log-log fit intercept.  Each
(n, replicate) cell runs on its own generator, seeded from the master seed by
``numpy.random.SeedSequence([seed, n_index, replicate])``.  The cells of one n
run together, their Gibbs chains as one block (``mcmc_block``), and bit for bit
as each cell alone, so neither the thread count nor the block changes a result.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np
from scipy.special import erf, log_ndtr

from .grid import GridFunction, simulate_ppp
from .posterior import (
    DegeneratePosteriorError,
    PosteriorEnsemble,
    bin_minima,
    mass_lower_excess,
    mcmc_block,
    posterior_median_metric,
    reduce_draws,
    sample_posterior,
)
from .priors import (
    CoefficientDistribution,
    PriorSpec,
    WaveletSeriesPrior,
    build_prior,
    holder_test_function,
)
from .reporting import csv_table, fit_loglog_slope, svg_loglog_plot, write_text
from .wavelets import synthesize_flat

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
    """StudyConfigError unless the named posterior sampler applies to the prior ``spec`` and ``budget >= 1``."""
    if budget < 1:
        raise StudyConfigError(f"budget must be >= 1, got {budget}")
    if sampler not in ("importance", "mcmc", "exact"):
        raise StudyConfigError(f"sampler must be 'importance', 'mcmc' or 'exact', got {sampler!r}")
    if sampler == "exact" and (spec.variant != "truncated_wavelet" or spec.dist.kind != "gaussian"):
        got = spec.variant if spec.dist is None else f"{spec.variant} with {spec.dist.kind} coefficients"
        raise StudyConfigError(f"sampler 'exact' needs truncated_wavelet with gaussian coefficients, got {got}")


def _check_cells(n_grid, replicates: int, min_values: int, min_replicates: int) -> tuple:
    """``n_grid`` as floats; StudyConfigError unless it has at least ``min_values`` strictly
    increasing values and there are at least ``min_replicates`` replicates."""
    n_grid = tuple(float(n) for n in n_grid)
    if len(n_grid) < min_values:
        raise StudyConfigError(f"n_grid needs at least {min_values} values, got {n_grid}")
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
    ceiling: float | None = None  # None: calibrated from the prior

    def __post_init__(self) -> None:
        n_grid = _check_cells(self.n_grid, self.replicates, 4, 10)
        _check_sampler(self.sampler, self.budget, self.prior)
        if self.error_metric not in ("l1", "lower_part", "upper_part"):
            raise StudyConfigError(f"unknown error metric {self.error_metric!r}")
        try:
            top = self.f0().max()
        except ValueError as exc:
            raise StudyConfigError(f"f0: {exc}") from None
        if self.ceiling is not None and not self.ceiling > top:  # else no point is ever drawn near the top of f0
            raise StudyConfigError(f"ceiling must exceed max(f0) = {top!r}, got {self.ceiling!r}")
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

    Each cell simulates and samples on its own generator, ``default_rng(SeedSequence((seed, i_n, rep)))``.  For
    'mcmc' the patterns are reduced at once to bin minima and run as one ``mcmc_block``, else cell by cell.
    """
    prior = build_prior(spec)
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, i_n, rep))) for rep in range(replicates)]
    if sampler != "mcmc":
        return list(map(partial(_study_cell, prior, f0, ceiling, n, sampler, budget, functional), rngs))
    mins = np.stack([bin_minima(simulate_ppp(f0, n, ceiling, rng), spec.grid_level) for rng in rngs])
    ensembles = mcmc_block(prior, mins, n, budget, rngs)
    return [functional(ens, f0) if isinstance(ens, PosteriorEnsemble) else None for ens in ensembles]


def _study_cell(prior, f0, ceiling, n, sampler, budget, functional, rng):
    """One cell alone: simulate, sample the posterior, reduce it; None if degenerate."""
    pattern = simulate_ppp(f0, n, ceiling, rng)
    try:
        ens = sample_posterior(prior, pattern, sampler, budget, rng)
    except DegeneratePosteriorError:
        return None
    return functional(ens, f0)


def _run_cells(row, n_grid, threads: int):
    """``row(i_n, n)``, the replicates of intensity n, for every n of the grid, as an (n, replicate) object array.

    The cells of one n run as one block of chains, each on its own ``SeedSequence`` generator, so neither
    ``threads`` nor the block changes a result.  With ``threads > 1`` each row is one process task, and ``row``
    must be picklable.  Degenerate cells hold None; more than ``MAX_EXCLUSION_FRAC`` of them is a StudyError.
    """
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            grid = np.array(list(pool.map(row, range(len(n_grid)), n_grid)), dtype=object)
    else:
        grid = np.array(list(map(row, range(len(n_grid)), n_grid)), dtype=object)
    exclusions = sum(v is None for v in grid.flat)
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
    if cfg.ceiling is None:
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xCE11)))
        cfg = replace(cfg, ceiling=calibrate_ceiling(build_prior(cfg.prior), f0, rng))
    metric = partial(posterior_median_metric, metric=cfg.error_metric)
    cells = partial(_study_row, cfg.prior, f0, cfg.ceiling, cfg.sampler, cfg.budget, metric, cfg.replicates, cfg.seed)
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
    meta = {"ceiling": cfg.ceiling, "sampler": cfg.sampler, "budget": cfg.budget, "seed": cfg.seed}
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


def _prior_sups(spec: PriorSpec, h: GridFunction, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Sup-norm distances of plain prior draws to h."""
    target = h.refine(spec.grid_level).values
    return reduce_draws(build_prior(spec), draws, rng, lambda v: np.abs(v - target).max(axis=1))


def _latent_from_gaussian(dist: CoefficientDistribution, g: np.ndarray) -> np.ndarray:
    """Coefficients of law ``dist`` from standard gaussians: ``F^{-1}(Phi(g))`` in closed form, finite for finite g."""
    s = dist.scale
    if dist.kind == "gaussian":
        return s * g
    if dist.kind == "laplace":
        # the tail quantile -s log(2 Phi(-|g|)), signed like g
        return np.copysign(-s * (math.log(2.0) + log_ndtr(-np.abs(g))), g)
    return s * erf(g / math.sqrt(2.0))


def _sup_to_target(prior: WaveletSeriesPrior, target: np.ndarray):
    """``z -> sup|prior.synthesize(z) - target|`` for latent batches, bit for bit: draws are constant on
    2**(j_max+1) blocks and rounded subtraction is monotone, so only each block's target range matters."""
    blocks = target.reshape(1 << (prior.j_max + 1), -1)
    lo, hi = blocks.min(axis=1), blocks.max(axis=1)

    def sup(z: np.ndarray) -> np.ndarray:
        v = synthesize_flat(prior.amplitudes * z, prior.j_max, prior.j_max + 1)
        return np.maximum(v - lo, hi - v).max(axis=1)

    return sup


def _wavelet_small_ball(
    spec: PriorSpec, h: GridFunction, eps_grid: tuple, particles: int, rng: np.random.Generator
) -> np.ndarray:
    """P(sup|X - h| <= eps), wavelet-series prior, for every eps of the decreasing ``eps_grid`` from one descent.

    Subset simulation.  The latent coefficients are closed-form monotone maps of standard gaussians
    (``s g``, the signed laplace tail quantile via ``log_ndtr``, ``s erf(g/sqrt 2)``),
    so a preconditioned Crank-Nicolson move leaves the prior invariant for every
    coefficient law and only the sup-distance constraint, taken block by block
    against h's range on each of the prior's 2**(j_max+1) blocks, enters the
    accept step.  Levels are lowered to the empirical 25% quantile; each eps is
    read at the first level at or below it, as the product of the per-stage
    survival fractions, or is 0 if 60 stages do not reach it.  Up to that stage
    the descent is the one of eps alone, so each estimate keeps its law, but
    one descent's estimates are correlated across eps.
    """
    prior = build_prior(spec)
    sup = _sup_to_target(prior, h.refine(spec.grid_level).values)
    g = rng.standard_normal((particles, prior.latent_dim))
    s = sup(_latent_from_gaussian(prior.dist, g))
    out, done = np.zeros(len(eps_grid)), 0  # eps_grid[:done] are read
    log_p = 0.0
    rho = 0.8  # pCN autocorrelation, adapted to keep acceptance moderate
    for _ in range(60):
        level = float(np.quantile(s, 0.25))
        while done < len(eps_grid) and level <= eps_grid[done]:
            out[done] = math.exp(log_p) * (int(np.count_nonzero(s <= eps_grid[done])) / particles)
            done += 1
        if done == len(eps_grid):
            break
        keep = np.flatnonzero(s <= level)
        log_p += math.log(keep.size / particles)
        idx = keep[rng.integers(0, keep.size, size=particles)]
        g, s = g[idx], s[idx]
        for _ in range(6):
            cand = rho * g + math.sqrt(1.0 - rho * rho) * rng.standard_normal(g.shape)
            s_cand = sup(_latent_from_gaussian(prior.dist, cand))
            accept = s_cand <= level
            g[accept] = cand[accept]
            s[accept] = s_cand[accept]
            acc = np.count_nonzero(accept) / particles
            if acc < 0.3:
                rho = math.sqrt(rho)
            elif acc > 0.6:
                rho = max(0.5, rho * rho)
    return out


def _brownian_small_ball(spec: PriorSpec, h: GridFunction, eps: float, particles: int, rng: np.random.Generator):
    """P(sup |X - h| <= eps) for the Brownian-start prior by sequential splitting.

    The prior is Markov across bins, so surviving particles are resampled at
    every bin and the probability is the product of per-bin survival
    fractions; this reaches probabilities far below 1/particles.
    """
    m = 1 << spec.grid_level
    target = h.refine(spec.grid_level).values
    sd = 1.0 / math.sqrt(m)
    x = rng.normal(0.0, math.sqrt(1.0 + 1.0 / m), size=particles)
    log_p = 0.0
    for k in range(m):
        if k > 0:
            x = x + rng.normal(0.0, sd, size=particles)
        survivors = x[np.abs(x - target[k]) <= eps]
        if survivors.size == 0:
            return 0.0
        log_p += math.log(survivors.size / particles)
        x = survivors[rng.integers(0, survivors.size, size=particles)]
    return math.exp(log_p)


def run_small_ball_study(
    spec: PriorSpec,
    h: GridFunction,
    eps_grid,
    draws: int,
    rng: np.random.Generator,
    beta: float | None = None,
    tol: float = 0.3,
) -> SmallBallReport:
    """Monte Carlo estimate of P(sup|X - h| <= eps) with a log(-log) slope fit.

    Wavelet-series priors use subset simulation with preconditioned
    Crank-Nicolson moves, one descent per run serving the whole grid; the
    Brownian prior uses sequential splitting across bins, one run per epsilon.
    Both average 4 independent runs per epsilon, whose spread gives the
    standard error, and reach probabilities far below 1/draws.  The truncated
    wavelet prior uses plain Monte Carlo over ``draws`` prior draws.
    """
    if draws < 1:
        raise StudyConfigError(f"draws must be >= 1, got {draws}")
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(e2 >= e1 for e1, e2 in zip(eps_grid, eps_grid[1:])):
        raise StudyConfigError(f"eps_grid must be strictly decreasing, got {eps_grid}")
    runs = 4
    if spec.variant == "truncated_wavelet":
        sups = _prior_sups(spec, h, draws, rng)
        p = np.array([np.count_nonzero(sups <= e) for e in eps_grid]) / draws
        se = np.sqrt(p * (1.0 - p) / draws)
    else:  # est: (n_eps, runs) estimates
        if spec.variant == "brownian_start":
            particles = max(1000, draws // runs)
            est = np.array([[_brownian_small_ball(spec, h, e, particles, rng) for _ in range(runs)] for e in eps_grid])
        else:
            particles = max(500, draws // (runs * len(eps_grid)))
            est = np.array([_wavelet_small_ball(spec, h, eps_grid, particles, rng) for _ in range(runs)]).T
        p, se = est.mean(axis=1), est.std(axis=1) / math.sqrt(runs)
    hit, eps = p > 0.0, np.array(eps_grid)
    kept, probs, ses, excluded = (tuple(a.tolist()) for a in (eps[hit], p[hit], se[hit], eps[~hit]))
    if len(kept) < 2:
        raise StudyError("fewer than two epsilon values with hits; enlarge eps_grid or draws")
    x = [1.0 / e for e in kept]
    y = [-math.log(q) for q in probs]
    slope, intercept = fit_loglog_slope(x, y)
    theory = None if beta is None else theoretical_small_ball_exponent(spec, beta)
    passed = theory is None or abs(slope - theory) <= tol
    meta = {"draws": draws}
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
