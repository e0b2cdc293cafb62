"""Posterior machinery: exact weights, feasibility reduction, the truncated
sampling primitives against scipy oracles, evidence identities, and agreement
between independent samplers."""

import math
import tracemalloc

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
import bbayes.posterior as posterior_module
from bbayes.grid import integral
from bbayes.posterior import (
    _exp_segment_log_mass,
    _improper_laplace,
    _kept,
    _sample_coefficients_interval,
    _std_normal_tail,
    _suffix_sweep,
    bin_minima,
    posterior_median_metric,
    sample_cells,
    sample_posterior,
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
    lo, hi = np.full(8000, a), np.full(8000, b)
    draws = _sample_coefficients_interval(CoefficientDistribution("gaussian"), rng.random(8000), lo, hi, 0.0)
    assert draws.min() >= a and draws.max() <= b
    dist = stats.truncnorm(a, b)
    assert draws.mean() == pytest.approx(dist.mean(), abs=4.0 * dist.std() / math.sqrt(draws.size))
    assert draws.std() == pytest.approx(dist.std(), rel=0.1)


@pytest.mark.parametrize("alpha", [1.2, -0.3, -4.0, -12.0])
def test_std_normal_tail_sampler(alpha):
    rng = np.random.default_rng(5)
    draws = _std_normal_tail(rng.random(8000), np.full(8000, alpha))
    assert draws.max() <= alpha
    dist = stats.truncnorm(-np.inf, alpha)
    assert draws.mean() == pytest.approx(dist.mean(), abs=4.0 * dist.std() / math.sqrt(draws.size))
    assert draws.std() == pytest.approx(dist.std(), rel=0.1)


def test_std_normal_tail_inversion_deep_tail_and_endpoints():
    rng = np.random.default_rng(27)
    for alpha in (-300.0, -40.0):
        draws = _std_normal_tail(rng.random(8000), np.full(8000, alpha))
        assert np.all(np.isfinite(draws)) and draws.max() <= alpha
        # deep in the tail |alpha| (alpha - Z) is Exp(1) up to O(alpha^-2)
        gap = abs(alpha) * (alpha - draws)
        assert abs(gap.mean() - 1.0) <= 4.0 * gap.std() / math.sqrt(gap.size)
    draws = _std_normal_tail(rng.random(8000), np.full(8000, np.inf))  # an empty bin: no truncation
    assert abs(draws.mean()) <= 4.0 / math.sqrt(draws.size)
    assert abs(draws.std() - 1.0) <= 4.0 / math.sqrt(2.0 * draws.size)
    # q = 0 gives alpha, never -inf: never above it, and below it by no more
    # than the rounding of the log-space round trip (9e-11 at alpha = -300)
    for alpha in (-300.0, -40.0, -5.0, -1.0, 0.0, 1.2, 5.0):
        z = float(_std_normal_tail(0.0, alpha))
        assert alpha - 1e-12 * max(1.0, abs(alpha)) <= z <= alpha, alpha


@pytest.mark.parametrize("u,w,r", [(0.0, 1.0, 2.0), (-2.0, 0.5, -3.0), (1.0, 4.0, 0.0), (-np.inf, 0.0, 1.5)])
def test_exp_segment_sampler_and_mass(u, w, r):
    # a uniform coefficient tilted by e^{r z} is the exponential segment on
    # [u, w]; at this half-width [-inf, 0] and [-1000, 0] differ by e^{-1500}
    rng = np.random.default_rng(6)
    lo, hi = np.full(8000, u), np.full(8000, w)
    draws = _sample_coefficients_interval(CoefficientDistribution("uniform", scale=1e3), rng.random(8000), lo, hi, r)
    assert draws.max() <= w and (not math.isfinite(u) or draws.min() >= u)
    lo = w - 40.0 if not math.isfinite(u) else u
    mass, _ = integrate.quad(lambda x: math.exp(r * x), lo, w)
    mean, _ = integrate.quad(lambda x: x * math.exp(r * x), lo, w)
    with np.errstate(divide="ignore"):  # the reversed segment is empty: log 0
        log_mass = _exp_segment_log_mass(np.array([u, w]), np.array([w, u]), r)
    assert log_mass[0] == pytest.approx(math.log(mass), abs=1e-9) and log_mass[1] == -np.inf
    assert draws.mean() == pytest.approx(mean / mass, abs=4.0 * draws.std() / math.sqrt(draws.size))


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "uniform"])
@pytest.mark.parametrize("lo,hi,tilt", [(-0.8, 0.6, 0.0), (-2.0, -0.5, 3.0), (0.2, np.inf, -2.0)])
def test_coefficient_interval_sampler_matches_quadrature(kind, lo, hi, tilt):
    dist = CoefficientDistribution(kind, scale=0.9)
    if kind == "uniform" and (lo > dist.scale or hi < -dist.scale):
        pytest.skip("empty overlap for this case")
    q = np.random.default_rng(7).random(16_000 if kind == "laplace" else 8000)  # laplace: sides, then points
    draws = _sample_coefficients_interval(dist, q, np.full(8000, lo), np.full(8000, hi), tilt)
    assert draws.min() >= lo - 1e-12 and draws.max() <= hi + 1e-12
    a = max(lo, -dist.scale) if kind == "uniform" else lo
    b = min(hi, dist.scale) if kind == "uniform" else min(hi, 40.0)
    dens = lambda x: dist.density(x) * math.exp(tilt * x)
    mass, _ = integrate.quad(dens, a, b, points=[0.0] if a < 0 < b else None)
    mean, _ = integrate.quad(lambda x: x * dens(x), a, b, points=[0.0] if a < 0 < b else None)
    assert draws.mean() == pytest.approx(mean / mass, abs=4.0 * draws.std() / math.sqrt(draws.size))


def test_coefficient_interval_degenerate_cases():
    rng = np.random.default_rng(8)
    # one interval of three misses the uniform support [-1, 1]: that draw alone is NaN
    draws = _sample_coefficients_interval(
        CoefficientDistribution("uniform"), rng.random(3), [0.0, 2.0, -1.0], [0.5, 3.0, 1.0], 0.0
    )
    assert np.isnan(draws).tolist() == [False, True, False]
    # a point interval returns the point, for every law
    for kind in ("gaussian", "laplace", "uniform"):
        q = rng.random(4 if kind == "laplace" else 2)
        point = _sample_coefficients_interval(CoefficientDistribution(kind), q, [0.3, -0.2], [0.3, -0.2], 1.0)
        assert point.tolist() == [0.3, -0.2]


def test_suffix_sweep_matches_quadratic_reference():
    # the O(m^2) scan: recompute every suffix slack from the shifted state
    def reference(v, mins, n, rng):
        m = v.size
        for k in range(m):
            bound = float(np.min(mins[k:] - v[k:]))
            if k == 0:
                mu, sd = n * (1.0 + 1.0 / m) - v[0], math.sqrt(1.0 + 1.0 / m)
            else:
                mu, sd = -(v[k] - v[k - 1]) + n * (m - k) / (m * m), 1.0 / math.sqrt(m)
            v[k:] += mu + sd * _std_normal_tail(rng.random(), (bound - mu) / sd)

    _, pattern = _pattern(n=6.0, grid_level=4)
    mins = bin_minima(pattern, 4)
    assert np.isinf(mins).any() and np.isfinite(mins).any()
    start = np.minimum(mins, 0.0) - np.random.default_rng(40).uniform(0.1, 1.0, size=16)
    fast, slow, pair = start.copy(), start.copy(), np.stack([start, start - 0.3])
    rng_fast, rng_slow, rng_pair = np.random.default_rng(41), np.random.default_rng(41), np.random.default_rng(42)
    for _ in range(50):
        q = rng_fast.random((1, 16))
        _suffix_sweep(fast[None], mins[None], 6.0, q)
        reference(slow, mins, 6.0, rng_slow)
        # two chains step at once, the first on the uniforms of the single chain
        _suffix_sweep(pair, np.stack([mins, mins]), 6.0, np.concatenate([q, rng_pair.random((1, 16))]))
        assert np.all(fast <= mins) and np.all(pair <= mins)
    assert np.max(np.abs(fast - slow)) <= 1e-12
    assert np.array_equal(pair[0], fast)  # the block steps each chain bit for bit as alone
    assert rng_fast.random() == rng_slow.random()  # same number of draws consumed


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
        v = prior.level_prior(j).draw(rng, 40_000)
        vals = np.where(np.all(v <= mins, axis=1), np.exp(5.0 * v.mean(axis=1)), 0.0)
        se = vals.std() / math.sqrt(vals.size)
        target = math.exp(truncated_level_log_evidence(j, mins, 5.0, 1.0))
        assert abs(vals.mean() - target) <= 4.0 * se


# ---------------------------------------------------------------------------
# samplers agree with each other and respect the constraint


def _mean_integral_and_se(ens):
    """Weighted mean of integral(f) with a standard-error estimate."""
    return _weighted_mean_and_se(ens, np.array([integral(f) for f in ens.samples]))


def _weighted_mean_and_se(ens, x):
    """Weighted mean of the per-sample statistic x with a standard-error estimate.

    For weighted ensembles the SE comes from the importance-weighted variance;
    for uniformly weighted chains it comes from 20 batch means, which absorbs
    autocorrelation.
    """
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


def test_exact_truncated_sampler_equals_per_draw_reference_bit_for_bit():
    # the per-draw loop that recomputes the level's blocks for every draw
    _, pattern = _pattern(n=5.0, seed=3, grid_level=5)
    prior = build_prior(
        PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=3, grid_level=5)
    )
    ens = exact_truncated_posterior(prior, pattern, 400, np.random.default_rng(26))
    rng = np.random.default_rng(26)
    n, s, mins = pattern.intensity, prior.dist.scale, bin_minima(pattern, 5)
    lw = np.array(ens.meta["level_log_weights"])
    probs = np.exp(lw - lw.max())
    probs /= probs.sum()
    levels = rng.choice(4, size=400, p=probs)
    assert len(set(levels.tolist())) == 4  # the draws switch between levels
    ref = []
    for j in levels:
        m = 1 << (j + 1)
        blocks = mins.reshape(m, -1).min(axis=1)
        sd, mu = s * math.sqrt(m), n * s * s
        ref.append(np.repeat(mu + sd * _std_normal_tail(rng.random(m), (blocks - mu) / sd), 32 // m))
    assert np.array_equal(ens.values, np.stack(ref))


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
    # contrasts across one support at each detail level are blind to the
    # scaling coefficient, so a wrong per-level bound, tilt or update shows
    # here even when the mean of integral(f) agrees; the pattern has points in
    # bins 0 and 12, inside every support contrasted
    for left, right in [(0, 2), (12, 14), (0, 4), (8, 12), (0, 8)]:
        m_is, se_is = _weighted_mean_and_se(approx, approx.values[:, left] - approx.values[:, right])
        m_ch, se_ch = _weighted_mean_and_se(chain, chain.values[:, left] - chain.values[:, right])
        assert abs(m_is - m_ch) <= 4.0 * math.hypot(se_is, se_ch), (left, right)


def test_gibbs_brownian_agrees_with_importance():
    f0, pattern = _pattern(n=2.0, grid_level=4)
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=4))
    approx = importance_posterior(prior, pattern, 60_000, np.random.default_rng(15))
    chain = mcmc_posterior(prior, pattern, steps=150_000, rng=np.random.default_rng(16))
    assert chain.validate_against(pattern)
    m_is, se_is = _mean_integral_and_se(approx)
    m_ch, se_ch = _mean_integral_and_se(chain)
    assert abs(m_is - m_ch) <= 4.0 * math.hypot(se_is, se_ch)
    # contrasts are blind to the start value, so they see the increments that
    # the suffix scan moves even when the mean of integral(f) agrees
    for left, right in [(0, 15), (0, 8), (4, 12), (8, 15)]:
        m_is, se_is = _weighted_mean_and_se(approx, approx.values[:, left] - approx.values[:, right])
        m_ch, se_ch = _weighted_mean_and_se(chain, chain.values[:, left] - chain.values[:, right])
        assert abs(m_is - m_ch) <= 4.0 * math.hypot(se_is, se_ch), (left, right)


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
    hit = posterior_mass(ens, np.all(ens.values == members[1].values, axis=1))
    assert hit == pytest.approx(w[1], abs=0.02)
    assert posterior_mass(ens, np.all(ens.values == members[2].values, axis=1)) == 0.0
    with pytest.raises(ValueError, match="row mask"):
        posterior_mass(ens, lambda f: f == members[1])  # a predicate is not a row mask


def test_mcmc_stores_the_scheduled_states():
    # a fifth of the sweeps is burn-in and stored sweeps are max(1, budget // 10_000) site updates apart,
    # from the total budget also for the truncated prior's per-level chains
    f0, pattern = _pattern(n=2.0, grid_level=4)
    gaussian = CoefficientDistribution("gaussian")
    priors = {
        "brownian": build_prior(PriorSpec(variant="brownian_start", grid_level=4)),
        "wavelet": build_prior(PriorSpec(variant="wavelet_series", alpha=1.0, dist=gaussian, j_max=2, grid_level=4)),
        "truncated": build_prior(PriorSpec(variant="truncated_wavelet", dist=gaussian, j_cap=2, grid_level=4)),
        "finite": FinitePrior([f0.shift(-0.5), f0.shift(-0.2), f0.shift(3.0)]),
    }
    expected = {  # rows stored at budgets 1, 5,000 and 100,000
        "brownian": (2, 125, 2_500),
        "wavelet": (2, 500, 10_000),
        "truncated": (6, 1_167, 9_332),
        "finite": (1, 4_000, 8_000),
    }
    for name, prior in priors.items():
        for budget, rows in zip((1, 5_000, 100_000), expected[name]):
            ens = mcmc_posterior(prior, pattern, steps=budget, rng=np.random.default_rng(budget))
            assert len(ens) == rows, (name, budget)
            assert ens.validate_against(pattern)
            # a Brownian sweep costs 2m = 32 site updates, and at least 2 sweeps run
            steps = {1: 64, 5_000: 4_992}.get(budget, budget) if name == "brownian" else budget
            assert ens.meta["steps"] == steps, (name, budget)


def test_sample_cells_equals_each_cell_alone():
    # the cells of one n, each on its own generator, go to the one dispatch as one block; for every sampler and
    # prior, each cell must equal its own sample_posterior bit for bit, and a degenerate cell comes back as its
    # error without moving the others
    n = 8.0
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    patterns = [simulate_ppp(f0, n, 2.0, np.random.default_rng(seed)) for seed in range(4)]
    wavelet = lambda kind: build_prior(
        PriorSpec(variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution(kind), j_max=2, grid_level=4)
    )
    truncated = lambda kind, scale=1.0: build_prior(
        PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution(kind, scale), j_cap=2, grid_level=4)
    )
    priors = {
        "brownian": build_prior(PriorSpec(variant="brownian_start", grid_level=4)),
        "gaussian": wavelet("gaussian"),
        "laplace": wavelet("laplace"),
        "uniform": wavelet("uniform"),
        "truncated": truncated("laplace"),
        "truncated gaussian": truncated("gaussian"),
        # scale 0.25: on these patterns the start of every chain, lowered below the data, stays in the support
        "truncated uniform": truncated("uniform", 0.25),
        "finite": FinitePrior([f0.shift(-0.5), f0.shift(-0.2), f0.shift(3.0)]),
    }
    below_all = PointPattern(n, 3.0, [0.3], [-5.0])  # below every finite atom and outside the uniform support
    runs = {  # (sampler, prior): (budget, the degenerate cell or None)
        ("importance", "brownian"): (2000, None),
        ("importance", "gaussian"): (2000, None),
        ("importance", "truncated"): (2000, None),
        ("importance", "finite"): (200, below_all),  # no feasible prior draw
        ("exact", "truncated gaussian"): (300, None),
        ("mcmc", "brownian"): (3000, None),
        ("mcmc", "gaussian"): (3000, None),
        ("mcmc", "laplace"): (3000, PointPattern(n, 2.0)),  # every bin empty: the scaling conditional is improper
        ("mcmc", "uniform"): (3000, below_all),  # no feasible start inside the uniform support
        ("mcmc", "truncated"): (3000, None),
        ("mcmc", "truncated gaussian"): (3000, None),
        ("mcmc", "truncated uniform"): (3000, below_all),  # no level with a feasible evidence draw
        ("mcmc", "finite"): (3000, below_all),  # no feasible atom
    }
    # unit laplace amplitudes: raising one empty eighth of [0, 1] by h costs 0.68 h of coefficient mass against
    # a tilt of n h / 8, so at n = 8 a pattern with an empty eighth has an improper truncated-laplace posterior,
    # which importance sampling and mcmc both refuse
    improper = [not np.isfinite(bin_minima(p, 3)).all() for p in patterns]
    assert any(improper) and not all(improper)
    for (sampler, name), (budget, degenerate) in runs.items():
        prior, where = priors[name], (sampler, name)
        cells = patterns if degenerate is None else patterns[:1] + [degenerate] + patterns[1:]
        rngs = [np.random.default_rng(20 + i) for i in range(len(cells))]
        block = list(sample_cells(prior, np.stack([bin_minima(p, 4) for p in cells]), n, sampler, budget, rngs))
        assert len(block) == len(cells), where
        for i, (pattern, ens) in enumerate(zip(cells, block)):
            rng = np.random.default_rng(20 + i)
            expect = pattern is degenerate or (name == "truncated" and improper[i])
            assert isinstance(ens, DegeneratePosteriorError) == expect, (where, i)
            if expect:
                with pytest.raises(DegeneratePosteriorError):
                    sample_posterior(prior, pattern, sampler, budget, rng)
            else:
                single = sample_posterior(prior, pattern, sampler, budget, rng)
                assert ens.values.tobytes() == single.values.tobytes(), (where, i)
                assert ens.log_weights.tobytes() == single.log_weights.tobytes(), (where, i)
                assert ens.meta == single.meta, (where, i)
            assert rngs[i].random() == rng.random(), (where, i)  # the same draws consumed
    # a sampler that runs cell by cell draws a cell only when it is asked for it
    rngs = [np.random.default_rng(20 + i) for i in range(2)]
    mins = np.stack([bin_minima(p, 4) for p in patterns[:2]])
    next(sample_cells(priors["truncated gaussian"], mins, n, "exact", 300, rngs))
    assert rngs[1].random() == np.random.default_rng(21).random()


def test_truncated_mcmc_runs_no_chain_at_a_level_without_a_feasible_evidence_draw(monkeypatch):
    # one block of three cells, unit laplace coefficients, one point each, at n = 0.5 (a proper posterior): at
    # y = 1 every level is feasible; y = -7 is out of reach of all 400 evidence draws of level 0 on this seed, so
    # level 0 weighs -inf there, adds no rows and runs no chain; y = -40 is out of reach of every level
    spec = PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("laplace"), j_cap=2, grid_level=4)
    prior = build_prior(spec)
    patterns = [PointPattern(0.5, 3.0, [0.3], [y]) for y in (1.0, -7.0, -40.0)]
    blocks, gibbs = [], posterior_module._gibbs_wavelet  # (level, chain count) of each block of chains run

    def spy(level, mins, *args):
        blocks.append((level.j_max, len(mins)))
        return gibbs(level, mins, *args)

    monkeypatch.setattr(posterior_module, "_gibbs_wavelet", spy)
    rngs = [np.random.default_rng(seed) for seed in (0, 1, 2)]
    every, skip, none = sample_cells(prior, np.stack([bin_minima(p, 4) for p in patterns]), 0.5, "mcmc", 3000, rngs)
    assert blocks == [(0, 1), (1, 2), (2, 2)]
    assert np.isfinite(every.meta["level_log_weights"]).all()
    lw = skip.meta["level_log_weights"]
    assert lw[0] == -math.inf and np.isfinite(lw[1:]).all()
    kept = [len(_kept(3000 // 3, 2 << j, 3000)) for j in range(3)]  # the rows of one chain at each level
    assert len(every) == sum(kept) and len(skip) == kept[1] + kept[2]
    level_weights = [lw[j] - math.log(kept[j]) for j in (1, 2)]
    assert skip.log_weights.tolist() == np.repeat(level_weights, kept[1:]).tolist()
    assert skip.validate_against(patterns[1])
    assert isinstance(none, DegeneratePosteriorError)
    assert "no level produced feasible states" in str(none)


def test_sampler_determinism():
    f0, pattern = _pattern(n=6.0, grid_level=4)
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=4))
    a = mcmc_posterior(prior, pattern, steps=5000, rng=np.random.default_rng(19))
    b = mcmc_posterior(prior, pattern, steps=5000, rng=np.random.default_rng(19))
    assert all(x == y for x, y in zip(a.samples, b.samples))
    c = importance_posterior(prior, pattern, 2000, np.random.default_rng(20))
    d = importance_posterior(prior, pattern, 2000, np.random.default_rng(20))
    assert np.array_equal(c.log_weights, d.log_weights)


def test_importance_draws_are_filtered_in_bounded_batches():
    # the prior is drawn and filtered in batches of about 2**16 grid values into one output
    # grown in place, so the peak holds the kept rows once plus one batch
    f0, pattern = _pattern(n=2.0, grid_level=8)
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=8))
    tracemalloc.start()
    try:
        ens = importance_posterior(prior, pattern, 40_000, np.random.default_rng(24))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < len(ens.values) < 40_000
    assert peak < 1.25 * ens.values.nbytes + 4 * 2**20, (peak, ens.values.nbytes)


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


@pytest.mark.parametrize(
    "variant,n,improper",
    [("wavelet_series", 2.0, True), ("wavelet_series", 2.5, True), ("wavelet_series", 1.5, False),
     ("truncated_wavelet", 2.0, True)],
)
def test_improper_laplace_posterior_raises(variant, n, improper):
    # every point lies in [0, 1/2), so z0 = t, z1 = -t keeps the left half in place and raises the empty right
    # half: its density e^{n t - 2t} under unit laplace coefficients is flat at n = 2, so the posterior is
    # improper iff n >= 2, although every bin holding a point bounds the finest details
    pattern = PointPattern(n, 2.0, [0.4374, 0.4158, 0.0147, 0.0272], [0.3, 0.35, 0.2, 0.25])
    levels = {"alpha": 1.0, "j_max": 2} if variant == "wavelet_series" else {"j_cap": 2}
    prior = build_prior(PriorSpec(variant=variant, dist=CoefficientDistribution("laplace"), grid_level=4, **levels))
    # the propriety test itself flags the cell: level 0 of the truncated prior is where its chain dies
    series = prior if variant == "wavelet_series" else prior.level_prior(0)
    assert _improper_laplace(series, bin_minima(pattern, 4)[None], n).tolist() == [improper]
    for sampler in ("mcmc", "importance"):
        if improper:
            with pytest.raises(DegeneratePosteriorError, match="improper laplace posterior"):
                sample_posterior(prior, pattern, sampler, 3000, np.random.default_rng(26))
        else:
            assert sample_posterior(prior, pattern, sampler, 3000, np.random.default_rng(26)).validate_against(pattern)


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
