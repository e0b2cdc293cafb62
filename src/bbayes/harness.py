"""Studies of posterior contraction rates, small-ball probabilities and
posterior-mass decay, with deterministic CSV/SVG reports.

Theoretical reference exponents are slope targets only; all unspecified
multiplicative constants are absorbed by the log-log fit intercept.  Each
(n, replicate) cell runs on its own generator, seeded from the master seed by
``numpy.random.SeedSequence([seed, n_index, replicate])``.  Every cell's bin
minima (``grid.simulate_minima``), the first arrivals of the untruncated model
with no ceiling, go to the posterior layer's one dispatch
(``sample_cells``) as one block at their own n's (a block per process with
``threads > 1``), each bit for bit as alone, so neither changes a result.  The
study hands the samplers its per-row error (``posterior.row_errors``) and keeps
only the weighted reduction of each cell's errors: a block holds cells x kept
floats at any grid, and no study builds an ensemble.
Small-ball probabilities are quadratures that draw no random numbers: a
transfer operator over the bins for the Brownian-start prior, and an upward
pass over the Haar tree for the wavelet priors, the truncated prior as the
mixture of its level priors.
"""

from __future__ import annotations

import importlib
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .grid import GridFunction, simulate_minima
from .passes import brownian_log_p, mixture_log_p, richardson
from .posterior import (
    ERROR_METRICS,
    DegeneratePosteriorError,
    check_sampler,
    mass_at_least,
    normalize_log_weights,
    reads_scipy_special,
    reduce_draws,
    row_errors,
    sample_cells,
    weighted_median,
)
from .priors import PriorSpec, build_prior, holder_test_function, is_integer
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


def _check_cells(replicates: int, least: int, sampler: str, budget: int, spec: PriorSpec, seed: int) -> None:
    """StudyConfigError unless ``replicates`` is an integer >= ``least`` and ``seed`` an integer >= 0, or if
    ``check_sampler`` on the prior of ``spec`` raises a ValueError."""
    if not (is_integer(seed) and seed >= 0):
        raise StudyConfigError(f"seed must be a nonnegative integer, got {seed!r}")
    if not is_integer(replicates):
        raise StudyConfigError(f"replicates must be an integer, got {replicates!r}")
    if replicates < least:
        raise StudyConfigError(f"replicates must be >= {least}, got {replicates}")
    try:
        check_sampler(build_prior(spec), sampler, budget)
    except ValueError as exc:
        raise StudyConfigError(str(exc)) from None


def _check_grid(name: str, values, min_values: int, decreasing: bool) -> tuple:
    """``values`` as floats; StudyConfigError unless ``min_values`` or more, positive, finite and strictly monotone."""
    values = tuple(float(v) for v in values)
    if len(values) < min_values:
        raise StudyConfigError(f"{name} needs at least {min_values} values, got {values}")
    if not all(0.0 < v < math.inf for v in values):
        raise StudyConfigError(f"{name} values must be positive and finite, got {values}")
    if any(b >= a if decreasing else b <= a for a, b in zip(values, values[1:])):
        raise StudyConfigError(f"{name} must be strictly {'de' if decreasing else 'in'}creasing, got {values}")
    return values


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
    step_scale: float = 0.5  # read by no sampler; only the benchmark replay (perfbench/studies.py) passes it on
    slope_tol: float = 0.15

    def __post_init__(self) -> None:
        n_grid = _check_grid("n_grid", self.n_grid, 4, False)
        _check_cells(self.replicates, 10, self.sampler, self.budget, self.prior, self.seed)
        if self.error_metric not in ERROR_METRICS:
            raise StudyConfigError(f"unknown error metric {self.error_metric!r}")
        if not 0.0 <= self.slope_tol < math.inf:
            raise StudyConfigError(f"slope_tol must be nonnegative and finite, got {self.slope_tol!r}")
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
    """Ceiling = max(f0) + margin such that prior draws rarely exceed it anywhere; kept for the benchmark replay, no
    study calls it.

    The margin is the empirical 0.999 quantile of the prior sup over 2000 draws.
    """
    sups = reduce_draws(prior, _CEILING_DRAWS, rng, lambda v: v.max(axis=1))
    return float(max(f0.max() + 0.05, np.quantile(sups, 1.0 - _CEILING_EXCEED_PROB))) + 0.05


def _study_cells(spec, f0, sampler, budget, metric, reduction, seed, cells):
    """``reduction(errors, weights)`` of each ``(i_n, n, rep)`` cell of ``cells``, its rows' ``metric`` errors
    against f0 and their normalized weights, or the cause (a str) of its refusal.

    Each cell draws its bin minima with no points, m exponentials and one integer at any n (``simulate_minima``),
    the untruncated model's first arrivals, so no bin is empty, on its own generator, ``default_rng(SeedSequence((
    seed, i_n, rep)))``.  The minima go to ``sample_cells`` as one block, each cell at its own n, with the per-row
    error (``row_errors``) as its ``reduce``: a Gibbs block stores one error per chain and kept sweep, cells x kept
    floats at any grid, every other sampler reduces a cell's rows as it draws them, and no ensemble is built.  Each
    error is the one that the ensemble's functional (``posterior_median_metric``, ``posterior_mass_at_least``)
    reads, bit for bit.
    """
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, i_n, rep))) for i_n, _, rep in cells]
    ns = [n for _, n, _ in cells]
    mins = np.stack([simulate_minima(f0, n, spec.grid_level, rng) for n, rng in zip(ns, rngs)])
    errors = row_errors(f0, metric, spec.grid_level)
    reduced = sample_cells(build_prior(spec), mins, ns, sampler, budget, rngs, errors)
    return [str(cell) if isinstance(cell, DegeneratePosteriorError) else
            reduction(cell[0], normalize_log_weights(cell[1])) for cell in reduced]


def _run_cells(spec, f0, sampler, budget, metric, reduction, seed, n_grid, replicates: int, threads: int):
    """``reduction(errors, weights)`` of every (i_n, n, rep) cell, its rows' ``metric`` errors and their normalized
    weights, as an (n, replicate) float array with NaN at an excluded cell.

    Each cell runs on its own ``SeedSequence`` generator, so neither ``threads`` nor the block changes a result.
    ``threads``, an integer >= 1 (else a StudyConfigError before any work), cuts the cell list into
    ``min(threads, cells)`` contiguous blocks, one process task each, on as many workers when there are two or
    more.  Only then does it load ``concurrent.futures`` (so ``import bbayes`` loads no process pool), and
    ``scipy.special`` before the fork when ``posterior.reads_scipy_special`` says the prior's kernels read it.
    More than ``MAX_EXCLUSION_FRAC`` excluded cells, or every cell of one n, is a StudyError that names
    each cause, in single quotes, with its count.
    """
    if not (is_integer(threads) and threads >= 1):
        raise StudyConfigError(f"threads must be an integer >= 1, got {threads!r}")
    block = partial(_study_cells, spec, f0, sampler, budget, metric, reduction, seed)
    cells = [(i_n, n, rep) for i_n, n in enumerate(n_grid) for rep in range(replicates)]
    workers = min(threads, len(cells))
    if workers > 1:
        # function-local: concurrent.futures loads 32 modules (multiprocessing, socket, subprocess, ...) that only a
        # forking study reads; at module top they cost every `import bbayes` 0.5-1.5 MB and a tenth of its start-up
        from concurrent.futures import ProcessPoolExecutor

        blocks = [cells[len(cells) * i // workers : len(cells) * (i + 1) // workers] for i in range(workers)]
        if reads_scipy_special(build_prior(spec)):  # once, before the fork, not once per worker
            importlib.import_module("scipy.special")
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = [v for part in pool.map(block, blocks) for v in part]
    else:
        values = block(cells)
    causes = Counter(v for v in values if isinstance(v, str))
    why = ", ".join(f"{count} x '{cause}'" for cause, count in causes.items())
    grid = np.array([math.nan if isinstance(v, str) else v for v in values]).reshape(len(n_grid), -1)
    exclusions = causes.total()
    empty = [n for n, row in zip(n_grid, grid) if np.isnan(row).all()]
    if empty:
        raise StudyError(f"every cell degenerate at n = {empty}: {why}", exclusions=exclusions, total=grid.size)
    if exclusions > MAX_EXCLUSION_FRAC * grid.size:
        raise StudyError(
            f"{exclusions}/{grid.size} cells degenerate (limit {MAX_EXCLUSION_FRAC:.0%}): {why}",
            exclusions=exclusions,
            total=grid.size,
        )
    return grid


def run_rate_study(cfg: RateStudyConfig, threads: int = 1) -> RateStudyReport:
    """Posterior-error slope study over the intensity grid: each cell's weighted median of its rows' errors, as
    ``posterior_median_metric`` of its ensemble.  ``threads`` is an integer >= 1 (see ``_run_cells``)."""
    grid = _run_cells(cfg.prior, cfg.f0(), cfg.sampler, cfg.budget, cfg.error_metric, weighted_median, cfg.seed,
                      cfg.n_grid, cfg.replicates, threads)
    rows = [row[~np.isnan(row)] for row in grid]
    medians = [float(np.median(vals)) for vals in rows]
    q25, q75 = ([float(np.quantile(vals, q)) for vals in rows] for q in (0.25, 0.75))
    slope, intercept = fit_loglog_slope(cfg.n_grid, medians)
    theory = theoretical_rate_exponent(cfg.prior, cfg.f0_beta)
    margin = None if theory is None else abs(slope - theory)
    passed = margin is not None and margin <= cfg.slope_tol
    meta = {"sampler": cfg.sampler, "budget": cfg.budget, "seed": cfg.seed}
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
        int(np.isnan(grid).sum()),
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


def run_small_ball_study(
    spec: PriorSpec,
    h: GridFunction,
    eps_grid,
    draws: int | None = None,
    rng: np.random.Generator | None = None,
    beta: float | None = None,
    tol: float = 0.3,
) -> SmallBallReport:
    """P(sup|X - h| <= eps) for each eps of ``eps_grid`` (two or more, positive, finite, strictly decreasing), with
    a log(-log) slope fit, checked against the target at smoothness ``beta`` in (0, 1] when it is given.

    Every prior is a Markov model, across bins or down the Haar tree, so P is a quadrature of ``passes`` that draws
    no random numbers: ``brownian_log_p`` over the bins for the Brownian prior (one cell per increment sd and up),
    ``haar_log_p`` up the tree for the wavelet priors (32 cells per window and up), and ``mixture_log_p`` over the
    truncated prior's level priors, P = sum_j pi_j P_j.  Each runs at three cell widths, and ``std_error`` is the
    change of its Richardson value (``passes.richardson``).  An eps whose
    estimate is 0 (an empty window or an underflow) or at least 1 (a ball that holds every draw) is excluded.
    ``draws`` and ``rng`` are read by no estimator; passing either is deprecated.
    """
    if draws is not None or rng is not None:
        warnings.warn("run_small_ball_study ignores draws and rng: every small ball is a quadrature",
                      DeprecationWarning, stacklevel=2)
    eps_grid = _check_grid("eps_grid", eps_grid, 2, True)
    if not 0.0 <= tol < math.inf:
        raise StudyConfigError(f"tol must be nonnegative and finite, got {tol!r}")
    if beta is not None and not 0.0 < beta <= 1.0:  # the range of holder_test_function's beta
        raise StudyConfigError(f"beta must lie in (0, 1], got {beta!r}")
    if h.grid_level > spec.grid_level:
        raise StudyConfigError(f"h is on grid level {h.grid_level}, finer than the prior's {spec.grid_level}")
    target = h.refine(spec.grid_level).values
    if spec.variant == "brownian_start":
        root_m = math.sqrt(target.size)  # from cells of about one increment sd, 1 / root_m
        runs = [richardson(partial(brownian_log_p, target, e), math.ceil(2.0 * e * root_m)) for e in eps_grid]
        meta = {"method": "transfer", "cells_per_sd": (1, 2, 4)}
    else:
        levels = build_prior(spec).levels()
        runs = [richardson(partial(mixture_log_p, levels, target, e), 32) for e in eps_grid]
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

    Cells are seeded as in :func:`run_rate_study`, so ``threads`` changes no result.  Each cell's mass is the
    weight of its rows whose lower-part error is at least r, as ``posterior_mass_at_least(ens, f0, r,
    "lower_part")`` of its ensemble.
    The medians are compared in grid order, so the grid must increase.
    """
    _check_cells(replicates, 1, sampler, budget, prior_spec, seed)
    n_grid = _check_grid("n_grid", n_grid, 2, False)
    if not 0.0 < r < math.inf:
        raise StudyConfigError(f"r must be positive and finite, got {r!r}")
    mass = partial(mass_at_least, r=r)
    grid = _run_cells(prior_spec, f0, sampler, budget, "lower_part", mass, seed, n_grid, replicates, threads)
    med = tuple(float(np.nanmedian(row)) for row in grid)
    mean = tuple(float(np.nanmean(row)) for row in grid)
    passed = all(b <= a + 1e-12 for a, b in zip(med, med[1:]))
    return DecayStudyReport(n_grid, med, mean, passed, int(np.isnan(grid).sum()), {"r": r})


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
