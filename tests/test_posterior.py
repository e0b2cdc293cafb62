"""Posterior machinery: exact weights, feasibility reduction, the truncated
sampling primitives against scipy oracles, evidence identities, and agreement
between independent samplers."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from bbayes import (
    CoefficientDistribution,
    DegeneratePosteriorError,
    FinitePrior,
    GridFunction,
    PointPattern,
    PosteriorEnsemble,
    PriorSpec,
    build_prior,
    exact_truncated_posterior,
    holder_test_function,
    importance_posterior,
    l1_distance,
    log_posterior_weight,
    mass_lower_excess,
    mass_outside_l1_ball,
    mass_upper_excess,
    mcmc_posterior,
    posterior_mass,
    posterior_mean,
    positive_part_integral,
    simulate_ppp,
)
from bbayes.grid import integral
from bbayes.posterior import (
    _exp_segment,
    _exp_segment_log_mass,
    _sample_coefficient_interval,
    _sample_std_normal_tail,
    _trunc_std_normal,
    bin_minima,
    posterior_median_metric,
    truncated_level_log_evidence,
    weighted_median,
)


def _pattern(n=10.0, ceiling=2.0, seed=0, grid_level=4, beta=1.0):
    f0 = holder_test_function(beta, 1.0, "cusp", grid_level)
    rng = np.random.default_rng(seed)
    return f0, simulate_ppp(f0, n, ceiling, rng)


# ---------------------------------------------------------------------------
# weights and feasibility


def test_log_posterior_weight_matches_definition():
    f0, pattern = _pattern()
    below = f0.shift(-0.2)
    assert log_posterior_weight(below, pattern) == pytest.approx(
        pattern.intensity * float(below.values.mean())
    )
    above = f0.shift(5.0)
    assert log_posterior_weight(above, pattern) == -math.inf


def test_bin_minima_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(0, 30))
        xs = rng.uniform(size=k)
        ys = rng.uniform(0, 3, size=k)
        pattern = PointPattern(5.0, 3.0, xs, ys)
        level = int(rng.integers(0, 5))
        m = 1 << level
        expected = np.full(m, np.inf)
        for x, y in zip(xs, ys):
            b = min(int(x * m), m - 1)
            expected[b] = min(expected[b], y)
        assert np.array_equal(bin_minima(pattern, level), expected)


def test_bin_minima_is_the_feasibility_frontier():
    f0, pattern = _pattern(n=30.0)
    mins = bin_minima(pattern, 4)
    rng = np.random.default_rng(2)
    for _ in range(50):
        f = GridFunction(4, rng.uniform(-1, 2, size=16))
        assert (log_posterior_weight(f, pattern) > -math.inf) == bool(np.all(f.values <= mins))


# ---------------------------------------------------------------------------
# ensemble container


def test_ensemble_validation_and_weights():
    f = GridFunction.constant(0.0)
    with pytest.raises(ValueError):
        PosteriorEnsemble(0, np.empty((0, 1)), np.empty(0))
    with pytest.raises(ValueError):
        PosteriorEnsemble(0, [f.values], np.array([np.nan]))
    with pytest.raises(ValueError):
        PosteriorEnsemble(0, [f.values] * 2, np.array([-np.inf, -np.inf]))
    ens = PosteriorEnsemble(0, [f.values] * 3, np.log([1.0, 2.0, 1.0]))
    assert np.allclose(ens.normalized_weights, [0.25, 0.5, 0.25])
    assert ens.ess == pytest.approx(1.0 / (0.25**2 + 0.5**2 + 0.25**2))
    uniform = PosteriorEnsemble(0, [f.values] * 3, np.zeros(3))
    assert uniform.ess == pytest.approx(3.0)


def test_ensemble_validate_against():
    f0, pattern = _pattern()
    good = PosteriorEnsemble(f0.grid_level, [f0.shift(-0.1).values], np.zeros(1))
    bad = PosteriorEnsemble(f0.grid_level, [f0.shift(5.0).values], np.zeros(1))
    assert good.validate_against(pattern)
    assert not bad.validate_against(pattern)


def test_ensemble_serialization_round_trip_is_byte_stable():
    f0, pattern = _pattern()
    ens = importance_posterior(
        build_prior(PriorSpec(variant="brownian_start", grid_level=4)),
        pattern,
        200,
        np.random.default_rng(3),
    )
    assert ens.summary_csv() == ens.summary_csv()
    assert ens.summary_csv(f0) == ens.summary_csv(f0)
    text = ens.to_flat_file()
    # every stored value survives a parse at full precision
    vals = [float(ln) for ln in text.splitlines() if not ln.startswith("#")]
    flat = np.concatenate([f.values for f in ens.samples])
    assert np.array_equal(np.array(vals), flat)


# ---------------------------------------------------------------------------
# truncated sampling primitives against scipy


@pytest.mark.parametrize("a,b", [(-1.5, 0.5), (0.0, 0.7), (2.0, 2.3), (6.0, 8.0), (-9.0, -8.5)])
def test_trunc_std_normal_matches_truncnorm(a, b):
    rng = np.random.default_rng(4)
    draws = np.array([_trunc_std_normal(rng, a, b) for _ in range(8000)])
    assert draws.min() >= a and draws.max() <= b
    dist = stats.truncnorm(a, b)
    assert draws.mean() == pytest.approx(dist.mean(), abs=4.0 * dist.std() / math.sqrt(draws.size))
    assert draws.std() == pytest.approx(dist.std(), rel=0.1)


@pytest.mark.parametrize("alpha", [1.2, -0.3, -4.0, -12.0])
def test_std_normal_tail_sampler(alpha):
    rng = np.random.default_rng(5)
    draws = _sample_std_normal_tail(rng, np.full(8000, alpha))
    assert draws.max() <= alpha
    dist = stats.truncnorm(-np.inf, alpha)
    assert draws.mean() == pytest.approx(dist.mean(), abs=4.0 * dist.std() / math.sqrt(draws.size))
    assert draws.std() == pytest.approx(dist.std(), rel=0.1)


@pytest.mark.parametrize("u,w,r", [(0.0, 1.0, 2.0), (-2.0, 0.5, -3.0), (1.0, 4.0, 0.0), (-np.inf, 0.0, 1.5)])
def test_exp_segment_sampler_and_mass(u, w, r):
    rng = np.random.default_rng(6)
    draws = np.array([_exp_segment(rng, u, w, r) for _ in range(8000)])
    assert draws.max() <= w and (not math.isfinite(u) or draws.min() >= u)
    lo = w - 40.0 if not math.isfinite(u) else u
    mass, _ = integrate.quad(lambda x: math.exp(r * x), lo, w)
    mean, _ = integrate.quad(lambda x: x * math.exp(r * x), lo, w)
    assert _exp_segment_log_mass(u, w, r) == pytest.approx(math.log(mass), abs=1e-9)
    assert draws.mean() == pytest.approx(mean / mass, abs=4.0 * draws.std() / math.sqrt(draws.size))


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "uniform"])
@pytest.mark.parametrize("lo,hi,tilt", [(-0.8, 0.6, 0.0), (-2.0, -0.5, 3.0), (0.2, np.inf, -2.0)])
def test_coefficient_interval_sampler_matches_quadrature(kind, lo, hi, tilt):
    dist = CoefficientDistribution(kind, scale=0.9)
    if kind == "uniform" and (lo > dist.scale or hi < -dist.scale):
        pytest.skip("empty overlap for this case")
    rng = np.random.default_rng(7)
    draws = np.array([_sample_coefficient_interval(dist, rng, lo, hi, tilt) for _ in range(8000)])
    assert draws.min() >= lo - 1e-12 and draws.max() <= hi + 1e-12
    a = max(lo, -dist.scale) if kind == "uniform" else lo
    b = min(hi, dist.scale) if kind == "uniform" else min(hi, 40.0)
    dens = lambda x: dist.density(x) * math.exp(tilt * x)
    mass, _ = integrate.quad(dens, a, b, points=[0.0] if a < 0 < b else None)
    mean, _ = integrate.quad(lambda x: x * dens(x), a, b, points=[0.0] if a < 0 < b else None)
    assert draws.mean() == pytest.approx(mean / mass, abs=4.0 * draws.std() / math.sqrt(draws.size))


def test_coefficient_interval_degenerate_cases():
    rng = np.random.default_rng(8)
    with pytest.raises(DegeneratePosteriorError):
        _sample_coefficient_interval(CoefficientDistribution("uniform"), rng, 2.0, 3.0, 0.0)
    with pytest.raises(DegeneratePosteriorError):
        # tilt beats the laplace tail: unnormalizable conditional
        _sample_coefficient_interval(CoefficientDistribution("laplace"), rng, 0.0, np.inf, 5.0)


# ---------------------------------------------------------------------------
# level evidence identity


def test_truncated_level_log_evidence_against_quadrature():
    rng = np.random.default_rng(9)
    mins = rng.uniform(0.5, 2.0, size=16)
    n, scale = 3.0, 0.8
    for level in (0, 1, 2):
        m = 1 << (level + 1)
        blocks = mins.reshape(m, -1).min(axis=1)
        # evidence = prod over blocks of E[e^{(n/m) v} 1(v <= b)], v ~ N(0, m s^2)
        total = 0.0
        sd = scale * math.sqrt(m)
        for b in blocks:
            val, _ = integrate.quad(
                lambda v: math.exp(n * v / m) * stats.norm.pdf(v, scale=sd), -12 * sd, b
            )
            total += math.log(val)
        assert truncated_level_log_evidence(level, mins, n, scale) == pytest.approx(total, abs=1e-8)


def test_truncated_level_log_evidence_against_monte_carlo():
    f0, pattern = _pattern(n=5.0, grid_level=4)
    mins = bin_minima(pattern, 4)
    prior = build_prior(
        PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=2, grid_level=4)
    )
    rng = np.random.default_rng(10)
    for j in (0, 1):
        level = prior.level_prior(j)
        vals = np.empty(40_000)
        for i in range(vals.size):
            f = level.sample(rng)
            vals[i] = math.exp(5.0 * f.values.mean()) if np.all(f.values <= mins) else 0.0
        se = vals.std() / math.sqrt(vals.size)
        target = math.exp(truncated_level_log_evidence(j, mins, 5.0, 1.0))
        assert abs(vals.mean() - target) <= 4.0 * se


# ---------------------------------------------------------------------------
# samplers agree with each other and respect the constraint


def _mean_integral_and_se(ens):
    """Weighted mean of integral(f) with a standard-error estimate.

    For weighted ensembles the SE comes from the importance-weighted variance;
    for uniformly weighted chains it comes from 20 batch means, which absorbs
    autocorrelation.
    """
    from bbayes.grid import integral

    x = np.array([integral(f) for f in ens.samples])
    w = ens.normalized_weights
    if np.ptp(w) > 1e-15 * w.max():
        m = float(w @ x)
        return m, math.sqrt(float(np.sum(w * w * (x - m) ** 2)))
    k = min(20, x.size)
    batches = np.array([b.mean() for b in np.array_split(x, k)])
    return float(x.mean()), float(batches.std(ddof=1) / math.sqrt(k))


def _analytic_truncated_mean(prior, pattern):
    """Posterior mean function from closed-form level weights and per-block
    tilted truncated-gaussian means (the v ~ N(0, m s^2), tilt e^{(n/m)v} case)."""
    n = pattern.intensity
    s = prior.dist.scale
    mins = bin_minima(pattern, prior.grid_level)
    grid_m = mins.size
    lw = np.array(
        [
            math.log(prior.level_probabilities[j]) + truncated_level_log_evidence(j, mins, n, s)
            for j in range(prior.j_cap + 1)
        ]
    )
    probs = np.exp(lw - lw.max())
    probs /= probs.sum()
    acc = np.zeros(grid_m)
    for j, p in enumerate(probs):
        m = 1 << (j + 1)
        blocks = mins.reshape(m, -1).min(axis=1)
        loc, sd = n * s * s, s * math.sqrt(m)
        means = np.array([stats.truncnorm(-np.inf, (b - loc) / sd, loc=loc, scale=sd).mean() for b in blocks])
        acc += p * np.repeat(means, grid_m // m)
    return GridFunction(prior.grid_level, acc)


def test_exact_truncated_sampler_matches_analytic_moments():
    f0, pattern = _pattern(n=5.0, grid_level=4)
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=2, grid_level=4
    )
    prior = build_prior(spec)
    exact = exact_truncated_posterior(prior, pattern, 20_000, np.random.default_rng(11))
    assert exact.validate_against(pattern)
    oracle = _analytic_truncated_mean(prior, pattern)
    assert l1_distance(posterior_mean(exact), oracle) <= 0.05


def test_importance_truncated_sampler_matches_analytic_moments():
    f0, pattern = _pattern(n=2.0, grid_level=4)
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=2, grid_level=4
    )
    prior = build_prior(spec)
    approx = importance_posterior(prior, pattern, 60_000, np.random.default_rng(12))
    assert approx.validate_against(pattern)
    from bbayes.grid import integral

    m_is, se = _mean_integral_and_se(approx)
    assert abs(m_is - integral(_analytic_truncated_mean(prior, pattern))) <= 4.0 * se


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "uniform"])
def test_gibbs_wavelet_agrees_with_importance(kind):
    # low intensity keeps the importance weights well conditioned, so the
    # plug-in standard error is trustworthy
    f0, pattern = _pattern(n=2.0, grid_level=4)
    spec = PriorSpec(
        variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution(kind), j_max=2, grid_level=4
    )
    prior = build_prior(spec)
    approx = importance_posterior(prior, pattern, 60_000, np.random.default_rng(13))
    chain = mcmc_posterior(prior, pattern, steps=100_000, rng=np.random.default_rng(14))
    assert chain.validate_against(pattern)
    assert chain.meta["skipped_updates"] == 0
    m_is, se_is = _mean_integral_and_se(approx)
    m_ch, se_ch = _mean_integral_and_se(chain)
    assert abs(m_is - m_ch) <= 4.0 * math.hypot(se_is, se_ch)


def test_gibbs_brownian_agrees_with_importance():
    f0, pattern = _pattern(n=2.0, grid_level=4)
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=4))
    approx = importance_posterior(prior, pattern, 60_000, np.random.default_rng(15))
    chain = mcmc_posterior(prior, pattern, steps=150_000, rng=np.random.default_rng(16))
    assert chain.validate_against(pattern)
    m_is, se_is = _mean_integral_and_se(approx)
    m_ch, se_ch = _mean_integral_and_se(chain)
    assert abs(m_is - m_ch) <= 4.0 * math.hypot(se_is, se_ch)


def test_mcmc_truncated_agrees_with_analytic_moments():
    f0, pattern = _pattern(n=5.0, grid_level=4)
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=2, grid_level=4
    )
    prior = build_prior(spec)
    chain = mcmc_posterior(prior, pattern, steps=100_000, rng=np.random.default_rng(17))
    assert chain.validate_against(pattern)
    from bbayes.grid import integral

    m_ch, se_ch = _mean_integral_and_se(chain)
    assert abs(m_ch - integral(_analytic_truncated_mean(prior, pattern))) <= 6.0 * se_ch


def test_finite_prior_posterior_matches_enumeration():
    f0, pattern = _pattern(n=20.0)
    members = [f0.shift(-0.5), f0.shift(-0.2), f0.shift(3.0)]
    prior = FinitePrior(members)
    log_w = np.array([log_posterior_weight(f, pattern) for f in members])
    w = np.exp(log_w - log_w[np.isfinite(log_w)].max())
    w[~np.isfinite(log_w)] = 0.0
    w /= w.sum()
    ens = mcmc_posterior(prior, pattern, steps=40_000, rng=np.random.default_rng(18))
    hit = posterior_mass(ens, lambda f: f == members[1])
    assert hit == pytest.approx(w[1], abs=0.02)
    assert posterior_mass(ens, lambda f: f == members[2]) == 0.0


def test_sampler_determinism():
    f0, pattern = _pattern(n=6.0, grid_level=4)
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=4))
    a = mcmc_posterior(prior, pattern, steps=5000, rng=np.random.default_rng(19))
    b = mcmc_posterior(prior, pattern, steps=5000, rng=np.random.default_rng(19))
    assert all(x == y for x, y in zip(a.samples, b.samples))
    c = importance_posterior(prior, pattern, 2000, np.random.default_rng(20))
    d = importance_posterior(prior, pattern, 2000, np.random.default_rng(20))
    assert np.array_equal(c.log_weights, d.log_weights)


# ---------------------------------------------------------------------------
# error paths


def test_degenerate_and_invalid_inputs():
    f0, pattern = _pattern(n=20.0)
    prior = FinitePrior([f0.shift(5.0)])
    with pytest.raises(DegeneratePosteriorError):
        importance_posterior(prior, pattern, 100, np.random.default_rng(21))
    with pytest.raises(DegeneratePosteriorError):
        mcmc_posterior(prior, pattern, steps=100, rng=np.random.default_rng(22))
    good = build_prior(PriorSpec(variant="brownian_start", grid_level=4))
    with pytest.raises(ValueError):
        importance_posterior(good, pattern, 0, np.random.default_rng(23))
    with pytest.raises(ValueError):
        mcmc_posterior(good, pattern, steps=0)
    with pytest.raises(ValueError):
        mcmc_posterior(good, pattern, steps=10, step_scale=0.0)
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("laplace"), j_cap=2, grid_level=4
    )
    with pytest.raises(ValueError):
        exact_truncated_posterior(build_prior(spec), pattern, 10, np.random.default_rng(24))


def test_gibbs_wavelet_uniform_start_outside_support_raises():
    # a point at y = -5 sits below every draw of this prior (|f| < 3), so
    # lowering the scaling coefficient to clear it leaves [-1, 1]
    pattern = PointPattern(5.0, 3.0, [0.3], [-5.0])
    spec = PriorSpec(
        variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution("uniform"), j_max=2, grid_level=4
    )
    with pytest.raises(DegeneratePosteriorError, match="no feasible start"):
        mcmc_posterior(build_prior(spec), pattern, steps=1000, rng=np.random.default_rng(25))


# ---------------------------------------------------------------------------
# functionals


def test_posterior_functionals_hand_case():
    flat = GridFunction.constant(0.0, 2)
    high = GridFunction.constant(1.0, 2)
    half = GridFunction(2, np.array([1.0, 1.0, 0.0, 0.0]))
    ens = PosteriorEnsemble(2, [flat.values, high.values, half.values], np.log([0.5, 0.25, 0.25]))
    f0 = flat
    assert mass_outside_l1_ball(ens, f0, 0.4) == pytest.approx(0.5)  # high (1.0) + half (0.5)
    assert mass_outside_l1_ball(ens, f0, 0.75) == pytest.approx(0.25)
    assert mass_upper_excess(ens, f0, 0.5) == pytest.approx(0.5)
    assert mass_lower_excess(ens, high, 0.4) == pytest.approx(0.75)  # flat and half
    mean = posterior_mean(ens)
    assert np.allclose(mean.values, [0.5, 0.5, 0.25, 0.25])
    # the flat sample holds exactly half the mass, so 0 is a valid median of l1
    assert posterior_median_metric(ens, f0, "l1") in (0.0, 0.5)
    assert posterior_median_metric(ens, high, "upper_part") == 0.0
    assert weighted_median(np.array([3.0, 1.0, 2.0]), np.array([0.2, 0.6, 0.2])) == 1.0
    assert weighted_median(np.array([3.0, 1.0, 2.0]), np.array([0.2, 0.3, 0.5])) == 2.0


@pytest.mark.parametrize("f0_level", [4, 6])
@pytest.mark.parametrize("sampler", ["exact", "gibbs"])
def test_functionals_equal_per_sample_references_bit_for_bit(sampler, f0_level):
    _, pattern = _pattern(n=40.0, seed=12)
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=3, grid_level=4
    )
    prior = build_prior(spec)
    if sampler == "exact":
        ens = exact_truncated_posterior(prior, pattern, 300, np.random.default_rng(31))
    else:  # one Gibbs chain per level, so the log weights differ across rows
        ens = mcmc_posterior(prior, pattern, 4000, rng=np.random.default_rng(32))
    f0 = holder_test_function(1.0, 1.0, "hat", f0_level)
    samples = list(ens.samples)
    w = ens.normalized_weights
    refs = {
        "l1": np.array([l1_distance(f, f0) for f in samples]),
        "lower_part": np.array([positive_part_integral(f0, f) for f in samples]),
        "upper_part": np.array([positive_part_integral(f, f0) for f in samples]),
    }
    masses = {"l1": mass_outside_l1_ball, "lower_part": mass_lower_excess, "upper_part": mass_upper_excess}
    for metric, ref in refs.items():
        assert posterior_median_metric(ens, f0, metric) == weighted_median(ref, w)
        r = float(np.sort(ref)[len(ref) // 2])  # a radius that rows sit exactly on
        assert masses[metric](ens, f0, r) == float(w[ref >= r].sum())
    lines = [f"# ensemble sampler={ens.meta['sampler']} size={len(ens)}", "integral,l1_to_f0,weight"]
    lines += [f"{integral(f)!r},{l1_distance(f, f0)!r},{float(wi)!r}" for f, wi in zip(samples, w)]
    assert ens.summary_csv(f0) == "\n".join(lines) + "\n"
