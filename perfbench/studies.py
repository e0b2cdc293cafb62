"""Study calls, the seeded per-cell replay, and the correctness checks.

The replay re-runs every cell of a rate study through the public layer
functions of ``bbayes`` with the study's own seeds, so its per-n medians must
equal the study report bit for bit.  It is the only place the benchmark sees
the posterior ensembles, from which it takes the ESS and the feasibility check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bbayes import (
    DegeneratePosteriorError,
    exact_truncated_posterior,
    importance_posterior,
    integral,
    mcmc_posterior,
    run_rate_study,
    run_small_ball_study,
    simulate_ppp,
)
from bbayes.harness import StudyError, calibrate_ceiling
from bbayes.posterior import bin_minima, posterior_median_metric
from bbayes.priors import BrownianStartPrior, build_prior

# Spans that time a layer of bbayes; everything else in the replay is harness overhead.
LAYER_SPANS = (
    "harness.calibrate_ceiling",
    "grid.simulate_ppp",
    "posterior.bin_minima",
    "posterior.sampler",
    "posterior.functional",
)
CHECK_SPAN = "bench.check"


class Checks:
    """Counts correctness operations; each failed one is kept with its detail."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self) -> int:
        return len(self.failures)


def geyer_ess(trace) -> float:
    """Effective sample size of a scalar chain by Geyer's initial positive sequence."""
    x = np.asarray(trace, dtype=float)
    n = x.size
    x = x - x.mean()
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec), 2 * n)[:n] / n
    if not acov[0] > 0.0:
        return 1.0  # a constant trace carries one effective sample
    tau = -acov[0]
    for k in range(0, n - 1, 2):
        pair = acov[k] + acov[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return float(n * acov[0] / tau)


# ---------------------------------------------------------------------------
# contraction workloads


def contraction_study(cfg):
    """The timed unit: one single-process rate study; None if the study refuses."""
    try:
        return run_rate_study(cfg, threads=1)
    except StudyError:
        return None


@dataclass
class Cell:
    i_n: int
    rep: int
    error: float | None  # None: degenerate cell
    points: int
    sweeps: int = 0
    stored: int = 0
    feasible: int = 0
    ess: float = 0.0


def _sample(cfg, prior, pattern, rng):
    # the same calls, in the same order, as the rate-study cell runner
    if cfg.sampler == "importance":
        return importance_posterior(prior, pattern, cfg.budget, rng)
    if cfg.sampler == "exact":
        return exact_truncated_posterior(prior, pattern, cfg.budget, rng)
    return mcmc_posterior(prior, pattern, cfg.budget, cfg.step_scale, rng)


def _sweeps(cfg, prior, ens) -> int:
    """Kernel sweeps as each sampler defines them; draws for the exact sampler."""
    if cfg.sampler == "exact":
        return int(ens.meta["draws"])
    m = 1 << cfg.prior.grid_level
    if isinstance(prior, BrownianStartPrior):
        return int(ens.meta["steps"]) // (2 * m)
    return max(2, cfg.budget // prior.latent_dim)


def replay_cells(cfg, tracer) -> list[Cell]:
    """Every cell of ``run_rate_study(cfg)`` again, with spans around each layer call."""
    prior = build_prior(cfg.prior)
    f0 = cfg.f0()
    cells = []
    with tracer.span("harness.replay"):
        with tracer.span("harness.calibrate_ceiling"):
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 0xCE11)))
            ceiling = calibrate_ceiling(prior, f0, rng)
        for i_n, n in enumerate(cfg.n_grid):
            for rep in range(cfg.replicates):
                cell_id = len(cells)
                with tracer.span("harness.cell", cell=cell_id):
                    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, i_n, rep)))
                    with tracer.span("grid.simulate_ppp"):
                        pattern = simulate_ppp(f0, n, ceiling, rng)
                    with tracer.span("posterior.bin_minima"):
                        mins = bin_minima(pattern, cfg.prior.grid_level)
                    try:
                        with tracer.span("posterior.sampler"):
                            ens = _sample(cfg, prior, pattern, rng)
                    except DegeneratePosteriorError:
                        cells.append(Cell(i_n, rep, None, len(pattern)))
                        continue
                    with tracer.span("posterior.functional"):
                        error = posterior_median_metric(ens, f0, cfg.error_metric)
                with tracer.span(CHECK_SPAN, cell=cell_id):
                    values = np.stack([f.values for f in ens.samples])
                    if cfg.sampler == "exact":
                        ess = ens.ess
                    else:
                        ess = geyer_ess([integral(f) for f in ens.samples])
                    cells.append(
                        Cell(
                            i_n,
                            rep,
                            error,
                            len(pattern),
                            _sweeps(cfg, prior, ens),
                            len(ens),
                            int(np.all(values <= mins, axis=1).sum()),
                            ess,
                        )
                    )
    return cells


def replay_quantiles(cfg, cells: list[Cell]):
    """Per-n median, q25 and q75 of the replayed errors, computed as the study does."""
    medians, q25, q75 = [], [], []
    for i_n in range(len(cfg.n_grid)):
        vals = np.array([c.error for c in cells if c.i_n == i_n and c.error is not None], dtype=float)
        if vals.size == 0:
            return None
        medians.append(float(np.median(vals)))
        q25.append(float(np.quantile(vals, 0.25)))
        q75.append(float(np.quantile(vals, 0.75)))
    return tuple(medians), tuple(q25), tuple(q75)


def check_contraction(cfg, reports, cells, checks: Checks, gate_slope: bool) -> dict:
    """Correctness of one workload's study reports and replayed cells; returns the outputs."""
    for c in cells:
        where = f"cell n={cfg.n_grid[c.i_n]:g} rep={c.rep}"
        if checks.check(c.error is not None, f"{where}: degenerate posterior"):
            checks.check(c.feasible == c.stored, f"{where}: {c.stored - c.feasible} samples above bin_minima")
    report = reports[0]
    checks.check(report is not None, "rate study refused (too many degenerate cells)")
    for i, other in enumerate(reports[1:], start=2):
        checks.check(other == report, f"study pass {i} differs from pass 1")
    replay = replay_quantiles(cfg, cells)
    matches = report is not None and replay == (report.medians, report.q25, report.q75)
    checks.check(matches, "replayed per-n quantiles differ from the study report")
    outputs = {"replay_matches": matches}
    if report is not None:
        outputs.update(slope=report.slope, theory=report.theory, margin=report.margin, tol=report.tol)
        if gate_slope:
            checks.check(report.passed, f"slope {report.slope!r} outside tolerance of {report.theory!r}")
    return outputs


# ---------------------------------------------------------------------------
# small-ball workload


def small_ball_pass(parts, tracer) -> dict:
    """One run of every small-ball part, one span each; None for a part that refuses."""
    reports = {}
    for part in parts:
        with tracer.span(f"harness.small_ball.{part.name}"):
            rng = np.random.default_rng(np.random.SeedSequence(part.seed))
            try:
                reports[part.name] = run_small_ball_study(
                    part.spec, part.h, part.eps_grid, part.draws, rng, beta=part.beta, tol=part.tol
                )
            except StudyError:
                reports[part.name] = None
    return reports


def rel_se(report) -> float:
    """Median relative standard error over the kept eps values."""
    if report is None:
        return 0.0
    return float(np.median([se / p for se, p in zip(report.std_errors, report.probabilities)]))


def check_small_ball(parts, passes, checks: Checks, gate_slope: bool) -> dict:
    """Correctness of the small-ball passes; returns the fitted slopes and margins."""
    reports = passes[0]
    for i, other in enumerate(passes[1:], start=2):
        checks.check(other == reports, f"small-ball pass {i} differs from pass 1")
    outputs = {}
    for part in parts:
        report = reports[part.name]
        kept = () if report is None else report.eps_grid
        for eps in part.eps_grid:
            checks.check(eps in kept, f"{part.name}: eps={eps!r} excluded (no hits)")
        if report is None:
            continue
        margin = None if report.theory is None else abs(report.slope - report.theory)
        outputs[part.name] = {"slope": report.slope, "theory": report.theory, "margin": margin}
        if gate_slope and report.theory is not None:
            checks.check(report.passed, f"{part.name}: slope {report.slope!r} outside tolerance")
    g, lp = reports["gauss_decentred"], reports["laplace_decentred"]
    if g is not None and lp is not None:
        outputs["laplace_minus_gaussian_slope"] = lp.slope - g.slope
    if gate_slope:
        ordered = g is not None and lp is not None and lp.slope < g.slope
        checks.check(ordered, "laplace decentred slope is not below the gaussian one")
    return outputs


def kept_estimates(reports) -> int:
    return sum(0 if r is None else len(r.eps_grid) for r in reports.values())

