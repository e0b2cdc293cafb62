"""Study harness: reference exponents, slope fitting, deterministic studies,
rare-event estimators against plain Monte Carlo, and report emission."""

import concurrent.futures
import hashlib
import math
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy import stats

from bbayes import (
    CoefficientDistribution,
    GridFunction,
    PriorSpec,
    RateStudyConfig,
    build_prior,
    holder_test_function,
    run_posterior_decay_study,
    run_rate_study,
    run_small_ball_study,
)
from bbayes import grid, harness
from bbayes.harness import (
    StudyConfigError,
    StudyError,
    calibrate_ceiling,
    emit_report,
    theoretical_rate_exponent,
    theoretical_small_ball_exponent,
)
from bbayes.posterior import DegeneratePosteriorError, PosteriorEnsemble, reduce_draws
from bbayes.reporting import fit_loglog_slope


def _spec(variant="brownian_start", kind="gaussian", alpha=1.0, grid_level=4, j=2):
    if variant == "brownian_start":
        return PriorSpec(variant=variant, grid_level=grid_level)
    if variant == "truncated_wavelet":
        return PriorSpec(variant=variant, dist=CoefficientDistribution(kind), j_cap=j, grid_level=grid_level)
    return PriorSpec(
        variant=variant, alpha=alpha, dist=CoefficientDistribution(kind), j_max=j, grid_level=grid_level
    )


# ---------------------------------------------------------------------------
# reference exponents and slope fitting


def test_rate_exponent_values():
    assert theoretical_rate_exponent(_spec("brownian_start"), 1.0) == pytest.approx(-1.0 / 3.0)
    assert theoretical_rate_exponent(_spec("brownian_start"), 0.4) == pytest.approx(-0.25)
    assert theoretical_rate_exponent(_spec("truncated_wavelet"), 1.0) == pytest.approx(-0.5)
    assert theoretical_rate_exponent(_spec("wavelet_series", alpha=1.0), 1.0) == pytest.approx(-0.5)
    assert theoretical_rate_exponent(_spec("wavelet_series", alpha=2.0), 1.0) == pytest.approx(-0.25)
    assert theoretical_rate_exponent(_spec("wavelet_series", "laplace", alpha=2.0), 1.0) == pytest.approx(-1.0 / 3.0)
    assert theoretical_rate_exponent(_spec("wavelet_series", "uniform"), 1.0) is None


def test_small_ball_exponent_values():
    assert theoretical_small_ball_exponent(_spec("brownian_start"), 1.0) == pytest.approx(2.0)
    assert theoretical_small_ball_exponent(_spec("truncated_wavelet"), 0.5) == pytest.approx(2.0)
    assert theoretical_small_ball_exponent(_spec("wavelet_series", alpha=1.0), 1.0) == pytest.approx(1.0)
    assert theoretical_small_ball_exponent(_spec("wavelet_series", alpha=1.0), 0.5) == pytest.approx(4.0)
    assert theoretical_small_ball_exponent(_spec("wavelet_series", "laplace", alpha=1.0), 0.5) == pytest.approx(3.0)
    # the laplace exponent never exceeds the gaussian one at matching (alpha, beta)
    for a in (0.5, 1.0, 2.0):
        for b in (0.25, 0.5, 1.0, 2.0):
            g = theoretical_small_ball_exponent(_spec("wavelet_series", alpha=a), b)
            l = theoretical_small_ball_exponent(_spec("wavelet_series", "laplace", alpha=a), b)
            assert l <= g + 1e-12


def test_fit_loglog_slope_recovers_power_law():
    x = np.array([10.0, 20.0, 40.0, 80.0])
    y = 3.5 * x**-0.42
    slope, intercept = fit_loglog_slope(x, y)
    assert slope == pytest.approx(-0.42, abs=1e-12)
    assert intercept == pytest.approx(math.log(3.5), abs=1e-12)


def test_calibrate_ceiling_clears_truth_and_prior_sups():
    spec = _spec("brownian_start")
    prior = build_prior(spec)
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    rng = np.random.default_rng(0)
    ceiling = calibrate_ceiling(prior, f0, rng)
    assert ceiling > f0.max()
    sups = prior.draw(np.random.default_rng(1), 500).max(axis=1)
    assert np.mean(sups > ceiling) <= 0.01


# ---------------------------------------------------------------------------
# rate study


def _tiny_rate_cfg(**kw):
    base = dict(
        prior=_spec("brownian_start"),
        f0_beta=1.0,
        f0_R=1.0,
        f0_kind="cusp",
        n_grid=(5.0, 10.0, 20.0, 40.0),
        replicates=10,
        sampler="mcmc",
        budget=800,
        seed=7,
    )
    base.update(kw)
    return RateStudyConfig(**base)


def test_rate_study_config_validation():
    with pytest.raises(ValueError):
        _tiny_rate_cfg(n_grid=(5.0, 10.0, 20.0))
    with pytest.raises(ValueError):
        _tiny_rate_cfg(n_grid=(5.0, 10.0, 10.0, 20.0))
    with pytest.raises(ValueError):
        _tiny_rate_cfg(replicates=5)
    with pytest.raises(ValueError):
        _tiny_rate_cfg(sampler="rejection")
    with pytest.raises(ValueError):
        _tiny_rate_cfg(sampler="exact")  # only for the truncated prior
    with pytest.raises(ValueError, match="laplace"):
        _tiny_rate_cfg(prior=_spec("truncated_wavelet", "laplace"), sampler="exact")  # and gaussian coefficients
    with pytest.raises(ValueError):
        _tiny_rate_cfg(error_metric="l2")
    with pytest.raises(ValueError, match="f0: kind must be one of"):
        _tiny_rate_cfg(f0_kind="spike")  # checked before any work, not when the study builds f0
    with pytest.raises(ValueError, match="budget must be >= 1, got 0"):
        _tiny_rate_cfg(budget=0)  # rejected before the ceiling is calibrated
    for budget in (800.5, True):  # not a TypeError once the ceiling is calibrated, nor a budget of 1
        with pytest.raises(ValueError, match=f"budget must be an integer, got {budget}"):
            _tiny_rate_cfg(budget=budget)
    with pytest.raises(ValueError, match="replicates must be an integer, got 10.5"):
        _tiny_rate_cfg(replicates=10.5)
    for seed in (1.5, -1, True):  # not a TypeError or ValueError from SeedSequence once the ceiling is calibrated
        with pytest.raises(StudyConfigError, match=f"seed must be a nonnegative integer, got {seed}"):
            _tiny_rate_cfg(seed=seed)


def test_decay_study_config_validation(monkeypatch):
    # each bad value is refused before any work: the ceiling is never calibrated
    monkeypatch.setattr(harness, "calibrate_ceiling", None)
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    for kw, message in [
        ({"replicates": 2.5}, "replicates must be an integer, got 2.5"),
        ({"replicates": True}, "replicates must be an integer, got True"),
        ({"replicates": 0}, "replicates must be >= 1, got 0"),
        ({"budget": 600.5}, "budget must be an integer, got 600.5"),
        ({"sampler": "rejection"}, "sampler must be one of"),
        ({"r": 0.0}, "r must be positive and finite"),
        ({"seed": 1.5}, "seed must be a nonnegative integer, got 1.5"),
        ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
        ({"seed": True}, "seed must be a nonnegative integer, got True"),
        ({"budget": True}, "budget must be an integer, got True"),
    ]:
        args = {"prior_spec": _spec(), "f0": f0, "r": 0.3, "n_grid": (5.0, 20.0), "replicates": 4, "budget": 600} | kw
        with pytest.raises(StudyConfigError, match=message):
            run_posterior_decay_study(**args)


def test_rate_study_report_structure_and_decrease():
    report = run_rate_study(_tiny_rate_cfg())
    assert len(report.medians) == 4
    assert all(m > 0 for m in report.medians)
    assert all(a <= b for a, b in zip(report.q25, report.medians))
    assert all(m <= b for m, b in zip(report.medians, report.q75))
    # over a factor 8 in n the posterior error must shrink
    assert report.medians[-1] < report.medians[0]
    assert report.slope < 0
    assert report.theory == pytest.approx(-1.0 / 3.0)
    assert report.margin == pytest.approx(abs(report.slope - report.theory))
    csv = report.to_csv()
    assert csv.startswith("# rate study:")
    assert report.to_svg().startswith("<svg")


def test_only_a_wavelet_series_with_alpha_at_most_1_is_flagged():
    # both studies flag a configuration outside the known contraction regime, a wavelet series with alpha <= 1,
    # and no other: not a larger alpha, nor a prior with no alpha
    flag = "configuration outside the known contraction regime (alpha <= 1)"
    h = GridFunction.constant(0.0, 4)
    for spec, flagged in [
        (_spec("wavelet_series", alpha=1.0), True),
        (_spec("wavelet_series", alpha=0.5), True),
        (_spec("wavelet_series", alpha=2.0), False),
        (_spec("truncated_wavelet"), False),
        (_spec("brownian_start"), False),
    ]:
        rate = run_rate_study(_tiny_rate_cfg(prior=spec, budget=200)).meta
        small_ball = run_small_ball_study(spec, h, (1.2, 0.9)).meta
        for meta in (rate, small_ball):
            assert meta.get("flag") == (flag if flagged else None), spec


def test_rate_study_deterministic_across_threads():
    # each n row runs as one block through the one sampler dispatch; both Gibbs kernels, and the exact and
    # importance samplers that run cell by cell, must give the same report at any thread count
    laplace, truncated = _spec("wavelet_series", "laplace", alpha=2.0), _spec("truncated_wavelet", j=3)
    configs = (
        _tiny_rate_cfg(),
        _tiny_rate_cfg(prior=laplace, f0_R=2.0, budget=400),
        _tiny_rate_cfg(prior=truncated, sampler="exact", budget=300),
        _tiny_rate_cfg(prior=truncated, sampler="importance", budget=2000),
    )
    # the 40 cells of a rate study and the decay study's 8 split evenly in 2 blocks, not in 3
    for cfg in configs:
        a, *others = (run_rate_study(cfg, threads=t) for t in (1, 2, 3))
        for b in others:
            assert a.medians == b.medians
            assert a.slope == b.slope
            assert a.to_csv() == b.to_csv()
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    decay = [
        run_posterior_decay_study(_spec(), f0, 0.3, (5.0, 20.0), 4, seed=4, budget=600, threads=t)
        for t in (1, 2, 3)
    ]
    assert decay[0] == decay[1] == decay[2]


def test_threads_is_an_integer_of_at_least_one_and_starts_no_more_workers_than_cells(monkeypatch):
    # a study cuts its cells into min(threads, cells) blocks, one worker each; the pool that it looks up in
    # concurrent.futures when it forks is replaced by one that records the workers asked for and maps in this
    # process, so no process starts at any thread count
    workers = []

    class InProcess:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcess)
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    decay = partial(run_posterior_decay_study, _spec(), f0, 0.3, (5.0, 20.0), 1, seed=4, budget=600)
    cfg = _tiny_rate_cfg(budget=200)  # 40 cells
    alone = decay(threads=1), run_rate_study(cfg)
    assert workers == []
    assert (decay(threads=64), run_rate_study(cfg, threads=64)) == alone
    assert (decay(threads=2), run_rate_study(cfg, threads=3)) == alone
    assert workers == [2, 40, 2, 3]
    # a thread count that is not an integer >= 1 is refused before any work: the ceiling is never calibrated
    monkeypatch.setattr(harness, "calibrate_ceiling", None)
    for threads in (0, -3, 2.5, "2", None, True):
        message = re.escape(f"threads must be an integer >= 1, got {threads!r}")
        with pytest.raises(StudyConfigError, match=message):
            decay(threads=threads)
        with pytest.raises(StudyConfigError, match=message):
            run_rate_study(cfg, threads=threads)
    assert workers == [2, 40, 2, 3]


def test_a_grid_10_rate_study_holds_one_error_per_kept_state():
    # criterion 7b's Brownian prior at grid 10 on 40 cells of 63 sweeps, 51 kept: the chains keep one error per
    # kept sweep, 40 x 51 floats, where the states would be 40 x 51 x 1,024 floats (16 MiB); numpy's buffers
    # are traced.  The slope and the median at n = 5000 are pinned from a study that reduced whole ensembles.
    cfg = RateStudyConfig(
        prior=PriorSpec(variant="brownian_start", grid_level=10),
        f0_beta=1.0,
        f0_R=1.0,
        f0_kind="hat",
        n_grid=(200.0, 1000.0, 2000.0, 5000.0),
        replicates=10,
        sampler="mcmc",
        budget=128_961,
        seed=102,
    )
    tracemalloc.start()
    try:
        report = run_rate_study(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert report.slope == -0.3173928000091984
    assert report.medians[-1] == 0.03359632349599447


def test_rate_studies_never_build_an_ensemble(monkeypatch):
    # every cell reduces its draws to one L1 error read from the rows at the sampler's width, and builds no
    # ensemble; the reports are pinned by the sha256 of their csv, from cells that draw each bin's lowest point first
    def build(ens):
        raise AssertionError("the study built a PosteriorEnsemble")

    monkeypatch.setattr(PosteriorEnsemble, "__post_init__", build)
    for cfg, digest in [
        (_tiny_rate_cfg(prior=_spec("truncated_wavelet", j=3), sampler="exact", budget=300),
         "e1f614c594328bb33b32022857a53670532e8fa55c4ceef2d08e49ed6f8997e4"),
        (_tiny_rate_cfg(prior=_spec("wavelet_series", "laplace", alpha=2.0), f0_R=2.0, budget=400),
         "0d0380f727d01df938bc3d81486c0594e2709b4b3101ae9bee4bc8df71ca74fb"),
    ]:
        assert hashlib.sha256(run_rate_study(cfg).to_csv().encode()).hexdigest() == digest


def test_rate_study_exclusion_limit():
    # a one-draw importance budget at moderate intensity leaves most cells
    # degenerate, which must surface as a StudyError rather than a bad fit
    cfg = _tiny_rate_cfg(
        sampler="importance", budget=1, n_grid=(50.0, 60.0, 70.0, 80.0), replicates=10
    )
    with pytest.raises(StudyError) as err:
        run_rate_study(cfg)
    assert err.value.exclusions > 0.2 * err.value.total
    cause = "no feasible prior draw; the importance estimate is degenerate, use the 'mcmc' sampler"
    assert str(err.value) == f"24/40 cells degenerate (limit 20%): 24 x '{cause}'"


@pytest.mark.parametrize(
    "level,n_grid,message,counts",
    [
        (12.0, (1.0, 2.0, 3.0, 4.0), r"5/20 cells degenerate \(limit 20%\)", (5, 20)),
        (15.5, (0.5, 8.0), r"every cell degenerate at n = \[8.0\]", (5, 10)),
    ],
)
def test_a_refused_study_names_the_cause_of_its_excluded_cells(level, n_grid, message, counts):
    # a real refusal, no stub: the truncated prior's unit laplace amplitudes give a cell an improper posterior
    # once its pattern leaves enough eighths of [0, 1] empty (one suffices at n >= 5.4), and an f0 close to the
    # calibrated ceiling leaves eighths empty; the StudyError names the cause and how many cells it excluded
    spec = _spec("truncated_wavelet", "laplace", j=2)
    with pytest.raises(StudyError, match=message) as err:
        run_posterior_decay_study(spec, GridFunction.constant(level, 4), 0.3, n_grid, 5, seed=3, budget=300)
    assert (err.value.exclusions, err.value.total) == counts
    assert f"{counts[0]} x 'an improper laplace posterior, which no sampler draws from'" in str(err.value)


def test_an_intensity_whose_every_cell_is_degenerate_refuses_the_study(monkeypatch):
    # one whole row of 5 is 20% of the cells, within the exclusion budget, but leaves that n without a value:
    # the study must refuse and name it, not fail in np.quantile (rate) or report a nan median (decay)
    real = harness.sample_cells

    def degenerate_at_20(prior, mins, n, sampler, budget, rngs, reduce):
        # the study's cells come as one block, one n per row: the rows at n = 20 are degenerate, the others real
        ok = np.asarray(n) != 20.0
        rngs = [r for r, k in zip(rngs, ok) if k]
        cells = iter(real(prior, mins[ok], np.asarray(n)[ok], sampler, budget, rngs, reduce))
        return [next(cells) if k else DegeneratePosteriorError("stub") for k in ok]

    monkeypatch.setattr(harness, "sample_cells", degenerate_at_20)
    n_grid = (5.0, 10.0, 20.0, 40.0, 80.0)
    with pytest.raises(StudyError, match=r"every cell degenerate at n = \[20.0\]") as err:
        run_rate_study(_tiny_rate_cfg(n_grid=n_grid, budget=200))
    assert (err.value.exclusions, err.value.total) == (10, 50)
    assert "10 x 'stub'" in str(err.value)
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    with pytest.raises(StudyError, match=r"every cell degenerate at n = \[20.0\]") as err:
        run_posterior_decay_study(_spec("brownian_start"), f0, 0.25, n_grid, replicates=1, seed=2, budget=200)
    assert (err.value.exclusions, err.value.total) == (1, 5)


# ---------------------------------------------------------------------------
# small-ball study


def _prior_sups(spec: PriorSpec, h: GridFunction, draws: int, rng: np.random.Generator) -> np.ndarray:
    """Sup-norm distances of plain prior draws to h: the Monte Carlo reference of the small-ball quadratures."""
    target = h.refine(spec.grid_level).values
    return reduce_draws(build_prior(spec), draws, rng, lambda v: np.abs(v - target).max(axis=1))


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "uniform"])
def test_wavelet_small_ball_matches_plain_monte_carlo(kind):
    spec = _spec("wavelet_series", kind, grid_level=5, j=3)
    for h in (GridFunction.constant(0.0, 5), holder_test_function(0.5, 1.0, "cusp", 5)):
        sups = _prior_sups(spec, h, 200_000, np.random.default_rng(2))
        report = run_small_ball_study(spec, h, (1.2, 0.8, 0.6))
        assert report.eps_grid == (1.2, 0.8, 0.6)
        for eps, p, se in zip(report.eps_grid, report.probabilities, report.std_errors):
            p_mc = float(np.mean(sups <= eps))
            se_mc = math.sqrt(p_mc * (1 - p_mc) / sups.size)
            assert abs(p - p_mc) <= 4.0 * math.hypot(se_mc, se), (eps, p, p_mc)


_TRUNCATED_H = {
    "zero": lambda g: GridFunction.constant(0.0, g),
    "hat": lambda g: holder_test_function(1.0, 1.0, "hat", g),
    "cusp": lambda g: holder_test_function(0.5, 1.0, "cusp", g),
}


@pytest.mark.parametrize("grid_level,j_cap", [(4, 2), (8, 5)])
@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("shape", list(_TRUNCATED_H))
def test_truncated_small_ball_matches_gaussian_closed_form(grid_level, j_cap, scale, shape):
    # given J = j the 2^{j+1} block values are i.i.d. N(0, s^2 2^{j+1}), as truncated_level_log_evidence uses,
    # so P = sum_j pi_j prod_b [Phi(hi_b / sd_j) - Phi(lo_b / sd_j)] over the windows [lo_b, hi_b] of h's blocks
    spec = PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("gaussian", scale), j_cap=j_cap,
                     grid_level=grid_level)
    h = _TRUNCATED_H[shape](grid_level)
    eps_grid = (2.0, 1.0, 0.5, 0.25, 0.1)
    report = run_small_ball_study(spec, h, eps_grid)
    assert report.eps_grid == eps_grid
    for eps, p, se in zip(eps_grid, report.probabilities, report.std_errors):
        exact = 0.0
        for j, w in enumerate(build_prior(spec).level_probabilities):
            blocks, sd = h.values.reshape(2 << j, -1), scale * math.sqrt(2 << j)
            lo, hi = (blocks.max(axis=1) - eps) / sd, (blocks.min(axis=1) + eps) / sd
            exact += w * np.prod(np.maximum(stats.norm.cdf(hi) - stats.norm.cdf(lo), 0.0))  # 0 for an empty window
        assert abs(p - exact) <= max(2.0 * se, 1e-3 * p), (eps, p, se, exact)


@pytest.mark.parametrize("kind", ["laplace", "uniform"])
@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_truncated_small_ball_matches_plain_monte_carlo(kind, scale):
    spec = PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution(kind, scale), j_cap=2, grid_level=4)
    for h in (GridFunction.constant(0.0, 4), holder_test_function(1.0, 1.0, "hat", 4)):
        sups = _prior_sups(spec, h, 200_000, np.random.default_rng(8))
        report = run_small_ball_study(spec, h, (2.0, 1.5, 1.0, 0.5))
        for eps, p, se in zip(report.eps_grid, report.probabilities, report.std_errors):
            p_mc = float(np.mean(sups <= eps))
            se_mc = math.sqrt(p_mc * (1 - p_mc) / sups.size)
            assert abs(p - p_mc) <= 4.0 * math.hypot(se_mc, se), (eps, p, p_mc)


def _wavelet_box_neg_log_p(spec, values, eps):
    # gaussian coefficients make the prior's block values gaussian, so P is a box probability
    prior = build_prior(spec)
    basis = prior.synthesize(np.eye(prior.latent_dim))[:, :: 1 << (spec.grid_level - spec.j_max - 1)]
    cov = spec.dist.scale**2 * basis.T @ basis
    blocks = values.reshape(basis.shape[1], -1)
    gauss = stats.multivariate_normal(np.zeros(basis.shape[1]), cov, abseps=1e-300, releps=1e-3, maxpts=20_000, seed=0)
    return -math.log(gauss.cdf(blocks.min(axis=1) + eps, lower_limit=blocks.max(axis=1) - eps))


@pytest.mark.parametrize(
    "grid_level,j_max,shape,eps_grid",
    [
        (2, 1, "constant", (1.0, 0.5, 0.3)),
        (2, 1, "wavy", (1.0, 0.5, 0.3)),
        (3, 2, "constant", (1.0, 0.5, 0.3)),
        (3, 2, "wavy", (1.0, 0.5, 0.3)),
        (3, 1, "wavy", (1.0, 0.7, 0.5)),  # two bins per block: each window narrows by h's range in its block
        (2, 1, "far", (1.0, 0.5, 0.3)),  # the level-0 coefficient must reach about 11 sd: P is about e^-60
    ],
    ids=["constant-2-1", "wavy-2-1", "constant-3-2", "wavy-3-2", "wavy-3-1", "far-2-1"],
)
def test_haar_tree_matches_gaussian_box_probability(grid_level, j_max, shape, eps_grid):
    spec = PriorSpec(
        variant="wavelet_series", alpha=0.7, dist=CoefficientDistribution("gaussian", 0.8), j_max=j_max,
        grid_level=grid_level,
    )
    m = 1 << grid_level
    values = {
        "constant": np.zeros(m),
        "wavy": 0.6 * np.sin(1.7 * np.arange(m)),
        "far": np.where(np.arange(m) < m // 2, 9.0, -9.0),
    }[shape]
    report = run_small_ball_study(spec, GridFunction(grid_level, values), eps_grid)
    assert report.eps_grid == eps_grid
    for eps, p in zip(eps_grid, report.probabilities):
        exact = _wavelet_box_neg_log_p(spec, values, eps)
        assert -math.log(p) == pytest.approx(exact, rel=5e-3), (eps, -math.log(p), exact)


def _brownian_box_neg_log_p(values, eps):
    # the Brownian-start grid values are gaussian, so P is a box probability of N(0, 1 + min(i, j)/m)
    m = values.size
    cov = 1.0 + np.minimum.outer(np.arange(1, m + 1), np.arange(1, m + 1)) / m
    gauss = stats.multivariate_normal(np.zeros(m), cov, abseps=1e-300, releps=1e-3, maxpts=20_000, seed=0)
    return -math.log(gauss.cdf(values + eps, lower_limit=values - eps))


@pytest.mark.parametrize(
    "grid_level,shape,eps_grid",
    [
        (2, "constant", (1.0, 0.5, 0.3)),
        (3, "constant", (1.0, 0.5, 0.3)),
        (2, "wavy", (1.0, 0.5, 0.3)),
        (3, "wavy", (1.0, 0.5, 0.3)),
        (2, "jumps", (2.5, 2.0)),  # jumps of 9 increment sd, beyond the kernel's 8 sd cut, up and down
    ],
    ids=["constant-2", "constant-3", "wavy-2", "wavy-3", "jumps-2"],
)
def test_brownian_small_ball_matches_gaussian_box_probability(grid_level, shape, eps_grid):
    m = 1 << grid_level
    values = {
        "constant": np.zeros(m),
        "wavy": 0.6 * np.sin(1.7 * np.arange(m)),
        "jumps": 4.5 * (np.arange(m) % 2),
    }[shape]
    spec = _spec("brownian_start", grid_level=grid_level)
    report = run_small_ball_study(spec, GridFunction(grid_level, values), eps_grid)
    assert report.eps_grid == eps_grid
    for eps, p in zip(eps_grid, report.probabilities):
        exact = _brownian_box_neg_log_p(values, eps)
        assert -math.log(p) == pytest.approx(exact, rel=5e-3), (eps, -math.log(p), exact)


def test_brownian_small_ball_matches_plain_monte_carlo():
    spec = _spec("brownian_start", grid_level=5)
    h = holder_test_function(0.5, 1.0, "cusp", 5)
    sups = _prior_sups(spec, h, 200_000, np.random.default_rng(4))
    report = run_small_ball_study(spec, h, (1.0, 0.8))
    for eps, p, se in zip(report.eps_grid, report.probabilities, report.std_errors):
        p_mc = float(np.mean(sups <= eps))
        se_mc = math.sqrt(p_mc * (1 - p_mc) / sups.size)
        assert abs(p - p_mc) <= 4.0 * math.hypot(se_mc, se), (eps, p, p_mc)


def test_brownian_small_ball_report_is_deterministic_and_excludes_underflow():
    spec, h = _spec("brownian_start", grid_level=12), GridFunction.constant(0.0, 12)
    report = run_small_ball_study(spec, h, (1.0, 0.5, 1e-3), beta=1.0)
    # no random numbers: a generator, which is deprecated, changes nothing
    with pytest.warns(DeprecationWarning, match="ignores draws and rng"):
        assert run_small_ball_study(spec, h, (1.0, 0.5, 1e-3), 1, np.random.default_rng(1), beta=1.0) == report
    assert report.excluded_eps == (1e-3,)  # -log P is about 12,000: P underflows to 0
    assert report.eps_grid == (1.0, 0.5) and all(se > 0.0 for se in report.std_errors)
    assert report.meta == {"method": "transfer", "cells_per_sd": (1, 2, 4)}
    with pytest.raises(StudyError):
        run_small_ball_study(spec, h, (1.0, 1e-3))


def test_small_ball_probabilities_decrease_with_eps():
    spec = _spec("wavelet_series", grid_level=5, j=3)
    h = GridFunction.constant(0.0, 5)
    report = run_small_ball_study(spec, h, (1.2, 0.9, 0.7), beta=1.0)
    assert len(report.probabilities) == 3
    assert all(a > b for a, b in zip(report.probabilities, report.probabilities[1:]))
    assert report.slope > 0
    assert report.theory == pytest.approx(1.0)
    assert report.to_csv().startswith("# small-ball study:")


def test_small_ball_exclusion_and_degenerate_grid():
    h = GridFunction.constant(0.0, 4)
    # a wavelet window is empty where h's range inside one prior block exceeds 2 eps: P = 0, and only that eps goes
    wavelet = _spec("wavelet_series", grid_level=5, j=3)  # 16 blocks of 2 bins
    for jumps in (np.arange(32) == 0, np.arange(32) % 2):  # in block 0, or in every block
        report = run_small_ball_study(wavelet, GridFunction(5, jumps.astype(float)), (1.2, 0.8, 0.4))
        assert report.excluded_eps == (0.4,)
        assert report.eps_grid == (1.2, 0.8) and all(p > 0.0 for p in report.probabilities)
    # a tiny eps keeps its tiny true probability instead
    report = run_small_ball_study(wavelet, h.refine(5), (1.2, 0.8, 1e-9))
    assert report.excluded_eps == () and 0.0 < report.probabilities[-1] < 1e-100
    with pytest.raises(ValueError):
        run_small_ball_study(_spec("truncated_wavelet", grid_level=4), h, (0.5, 0.5))


def test_small_ball_excludes_an_eps_whose_ball_holds_every_draw():
    # a uniform series with alpha = 1 stays within 1 + sum_j 2^-j < 3 of 0, so P = 1 at eps = 8, 6 and 4
    spec = _spec("wavelet_series", "uniform", grid_level=5, j=3)
    h = GridFunction.constant(0.0, 5)
    report = run_small_ball_study(spec, h, (8.0, 6.0, 4.0, 1.0, 0.5))
    assert report.excluded_eps == (8.0, 6.0, 4.0)
    assert report.eps_grid == (1.0, 0.5) and all(0.0 < p < 1.0 for p in report.probabilities)
    assert math.isfinite(report.slope)
    with pytest.raises(StudyError, match=r"strictly inside \(0, 1\)"):
        run_small_ball_study(spec, h, (8.0, 6.0, 4.0))


# ---------------------------------------------------------------------------
# decay study


def test_decay_study_huge_radius_gives_zero_mass():
    spec = _spec("brownian_start")
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    report = run_posterior_decay_study(
        spec, f0, r=50.0, n_grid=(5.0, 20.0), replicates=4, seed=1, budget=600
    )
    assert report.median_mass == (0.0, 0.0)
    assert report.passed
    assert report.to_svg() is None  # nothing positive to plot


def test_decay_study_mass_decreases_with_n():
    spec = _spec("brownian_start")
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    report = run_posterior_decay_study(
        spec, f0, r=0.25, n_grid=(2.0, 200.0), replicates=6, seed=2, budget=1500
    )
    assert report.median_mass[1] <= report.median_mass[0]
    assert report.to_csv().startswith("# decay study:")


@pytest.mark.parametrize(
    "f0_level,median,mean",
    [
        (2, (0.59375, 0.21875), (0.625, 0.265625)),
        (6, (0.4375, 0.15625), (0.453125, 0.171875)),
    ],
)
def test_decay_study_keeps_its_values_for_an_f0_off_the_prior_grid(f0_level, median, mean):
    # the cells of an f0 coarser than the prior's grid 4 draw the first arrivals of f0 refined to the grid; a finer
    # one folds its own bins' minima to the grid.  Values pinned from the draw order that takes each bin's lowest
    # point first, and the Brownian sweep over dyadic-interval shifts.
    f0 = holder_test_function(1.0, 1.0, "cusp", f0_level)
    report = run_posterior_decay_study(_spec(), f0, r=0.1, n_grid=(5.0, 40.0), replicates=4, seed=3, budget=600)
    assert (report.median_mass, report.mean_mass, report.exclusions) == (median, mean, 0)
    assert report.meta == {"r": 0.1, "ceiling": 4.450495339631054}


def test_a_study_reports_the_same_whatever_grid_carries_f0(monkeypatch):
    # f0 on grid 2 and the same f0 refined to the prior's grid 4 are one function, so their studies draw the same
    # first arrivals and report the same; and no rate or decay study builds a point pattern
    def no_pattern(*args):
        raise AssertionError("the study simulated a point pattern")

    monkeypatch.setattr(grid, "simulate_ppp", no_pattern)
    f0 = holder_test_function(1.0, 1.0, "cusp", 2)
    coarse, refined = (run_posterior_decay_study(_spec(), g, r=0.1, n_grid=(5.0, 40.0), replicates=4, seed=3,
                                                 budget=600) for g in (f0, f0.refine(4)))
    assert coarse == refined
    assert coarse.exclusions == 0
    run_rate_study(_tiny_rate_cfg(budget=200))


# ---------------------------------------------------------------------------
# report emission


def test_emit_report_writes_artifacts_and_exit_codes(tmp_path):
    report = run_rate_study(_tiny_rate_cfg())
    code = emit_report(report, tmp_path)
    assert code in (0, 2)
    assert (tmp_path / "rate_study.csv").read_text() == report.to_csv()
    assert (tmp_path / "rate_study.svg").read_text() == report.to_svg()
    forced_fail = run_rate_study(_tiny_rate_cfg(slope_tol=1e-9))
    assert emit_report(forced_fail, tmp_path / "forced") == 2
    assert (tmp_path / "forced" / "rate_study.csv").read_text() == forced_fail.to_csv()
