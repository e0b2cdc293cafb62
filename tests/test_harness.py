"""Study harness: reference exponents, slope fitting, deterministic studies,
rare-event estimators against plain Monte Carlo, and report emission."""

import math

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
from bbayes.harness import (
    StudyError,
    _brownian_small_ball,
    _latent_from_gaussian,
    _prior_sups,
    _sup_to_target,
    _wavelet_small_ball,
    calibrate_ceiling,
    emit_report,
    theoretical_rate_exponent,
    theoretical_small_ball_exponent,
)
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
    with pytest.raises(ValueError, match="ceiling must exceed max"):
        _tiny_rate_cfg(ceiling=0.1)  # max(f0) = 0.469: no point would reach the top of f0
    assert _tiny_rate_cfg(ceiling=0.5).ceiling == 0.5


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


def test_rate_study_deterministic_across_threads():
    # each n row runs as one block of chains; both Gibbs kernels must give the same report at any thread count
    laplace = _spec("wavelet_series", "laplace", alpha=2.0)
    for cfg in (_tiny_rate_cfg(), _tiny_rate_cfg(prior=laplace, f0_R=2.0, budget=400)):
        a = run_rate_study(cfg, threads=1)
        b = run_rate_study(cfg, threads=2)
        assert a.medians == b.medians
        assert a.slope == b.slope
        assert a.to_csv() == b.to_csv()
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    decay = [
        run_posterior_decay_study(_spec(), f0, 0.3, (5.0, 20.0), 4, seed=4, budget=600, threads=t)
        for t in (1, 2)
    ]
    assert decay[0] == decay[1]


def test_rate_study_exclusion_limit():
    # a one-draw importance budget at moderate intensity leaves most cells
    # degenerate, which must surface as a StudyError rather than a bad fit
    cfg = _tiny_rate_cfg(
        sampler="importance", budget=1, n_grid=(50.0, 60.0, 70.0, 80.0), replicates=10
    )
    with pytest.raises(StudyError) as err:
        run_rate_study(cfg)
    assert err.value.exclusions > 0.2 * err.value.total


# ---------------------------------------------------------------------------
# small-ball study


@pytest.mark.parametrize(
    "kind, law",
    [
        ("gaussian", stats.norm(0.0, 0.7)),
        ("laplace", stats.laplace(0.0, 0.7)),
        ("uniform", stats.uniform(-0.7, 1.4)),
    ],
)
def test_latent_from_gaussian_matches_scipy_quantile_transform(kind, law):
    dist = CoefficientDistribution(kind, scale=0.7)
    g = np.linspace(-8.0, 8.0, 3201)
    # ppf(norm.cdf(g)) itself is only ~1e-3 accurate near g = 8, where the cdf
    # rounds towards 1, so the oracle takes each half in its accurate tail
    oracle = np.where(g <= 0.0, law.ppf(stats.norm.cdf(g)), law.isf(stats.norm.sf(g)))
    np.testing.assert_allclose(_latent_from_gaussian(dist, g), oracle, rtol=1e-12, atol=0.0)
    wide = np.linspace(-38.0, 38.0, 20001)
    z = _latent_from_gaussian(dist, wide)
    assert np.all(np.isfinite(z))
    assert np.all(np.diff(z) >= 0.0)


@pytest.mark.parametrize("kind", ["gaussian", "laplace"])
def test_sup_to_target_matches_grid_sup_bit_for_bit(kind):
    # the target lives on 64 bins, the prior's draws on 8 blocks
    spec = _spec("wavelet_series", kind, grid_level=6, j=2)
    prior = build_prior(spec)
    rng = np.random.default_rng(6)
    z = prior.dist.sample(rng, size=(2000, prior.latent_dim))
    for target in (holder_test_function(0.5, 1.0, "cusp", 6).values, rng.normal(size=64)):
        grid_sup = np.abs(prior.synthesize(z) - target).max(axis=1)
        assert np.array_equal(_sup_to_target(prior, target)(z), grid_sup)


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "uniform"])
def test_wavelet_small_ball_matches_plain_monte_carlo(kind):
    # one descent per run serves the whole grid; every eps must agree with plain Monte Carlo
    spec = _spec("wavelet_series", kind, grid_level=5, j=3)
    h = GridFunction.constant(0.0, 5)
    eps_grid = (1.2, 0.8, 0.6)
    sups = _prior_sups(spec, h, 200_000, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    runs = np.array([_wavelet_small_ball(spec, h, eps_grid, 2000, rng) for _ in range(6)])
    for eps, col in zip(eps_grid, runs.T):
        p_mc = float(np.mean(sups <= eps))
        se_mc = math.sqrt(p_mc * (1 - p_mc) / sups.size)
        p_ss = float(np.mean(col))
        se_ss = float(np.std(col) / math.sqrt(len(col)))
        assert abs(p_ss - p_mc) <= 4.0 * math.hypot(se_mc, se_ss), (eps, p_ss, p_mc)


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "uniform"])
def test_wavelet_small_ball_descent_prefix_identity(kind):
    # the estimate of eps_i is the one a descent stopped at eps_i would give, bit for bit
    spec = _spec("wavelet_series", kind, grid_level=5, j=3)
    h = GridFunction.constant(0.0, 5)
    eps_grid = (1.2, 0.9, 0.7, 0.5)
    full = _wavelet_small_ball(spec, h, eps_grid, 500, np.random.default_rng(11))
    assert full.shape == (len(eps_grid),) and np.all(full > 0.0)
    for i in range(len(eps_grid)):
        prefix = _wavelet_small_ball(spec, h, eps_grid[: i + 1], 500, np.random.default_rng(11))
        assert prefix[i] == full[i], (i, prefix[i], full[i])


def test_brownian_small_ball_matches_plain_monte_carlo():
    spec = _spec("brownian_start", grid_level=5)
    h = GridFunction.constant(0.0, 5)
    eps = 1.0
    sups = _prior_sups(spec, h, 200_000, np.random.default_rng(4))
    p_mc = float(np.mean(sups <= eps))
    se_mc = math.sqrt(p_mc * (1 - p_mc) / sups.size)
    rng = np.random.default_rng(5)
    runs = [_brownian_small_ball(spec, h, eps, 4000, rng) for _ in range(6)]
    p_sm = float(np.mean(runs))
    se_sm = float(np.std(runs) / math.sqrt(len(runs)))
    assert abs(p_sm - p_mc) <= 4.0 * math.hypot(se_mc, se_sm)


def test_small_ball_probabilities_decrease_with_eps():
    spec = _spec("wavelet_series", grid_level=5, j=3)
    h = GridFunction.constant(0.0, 5)
    report = run_small_ball_study(
        spec, h, (1.2, 0.9, 0.7), 24_000, np.random.default_rng(6), beta=1.0
    )
    assert len(report.probabilities) == 3
    assert all(a > b for a, b in zip(report.probabilities, report.probabilities[1:]))
    assert report.slope > 0
    assert report.theory == pytest.approx(1.0)
    assert report.to_csv().startswith("# small-ball study:")


def test_small_ball_exclusion_and_degenerate_grid():
    spec = _spec("truncated_wavelet", grid_level=4)
    h = GridFunction.constant(0.0, 4)
    rng = np.random.default_rng(7)
    report = run_small_ball_study(spec, h, (2.0, 1.5, 1e-9), 4000, rng)
    assert report.excluded_eps == (1e-9,)
    assert len(report.probabilities) == 2
    with pytest.raises(StudyError):
        run_small_ball_study(spec, h, (1e-9, 1e-10), 2000, rng)
    # a wavelet descent that cannot reach the last eps in 60 stages excludes only that eps
    report = run_small_ball_study(_spec("wavelet_series", grid_level=5, j=3), h, (1.2, 0.8, 1e-9), 6000, rng)
    assert report.excluded_eps == (1e-9,)
    assert report.eps_grid == (1.2, 0.8) and all(p > 0.0 for p in report.probabilities)
    with pytest.raises(ValueError):
        run_small_ball_study(spec, h, (0.5, 0.5), 2000, rng)


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
