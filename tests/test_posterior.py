"""Posterior machinery: exact weights, feasibility reduction, the truncated
sampling primitives against scipy oracles, evidence identities, and agreement
between independent samplers."""

import hashlib
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import logsumexp

from bbayes import (
    CoefficientDistribution,
    DegeneratePosteriorError,
    FinitePrior,
    GridFunction,
    PointPattern,
    PosteriorEnsemble,
    PriorSpec,
    RateStudyConfig,
    build_prior,
    exact_truncated_posterior,
    holder_test_function,
    importance_posterior,
    log_posterior_weight,
    mcmc_posterior,
    posterior_mass,
    posterior_mass_at_least,
    positive_part_integral,
    run_rate_study,
    simulate_ppp,
)
import bbayes.posterior as posterior_module
from bbayes.grid import integral
from bbayes.passes import block_minima, improper_laplace
from bbayes.posterior import (
    _exp_segment_log_mass,
    _kept,
    _sample_coefficients_interval,
    _std_normal_tail,
    _trunc_std_normal,
    bin_minima,
    mass_at_least,
    normalize_log_weights,
    posterior_median_metric,
    row_errors,
    sample_cells,
    sample_posterior,
    truncated_level_log_evidence,
    weighted_median,
)


def _pattern(n=10.0, ceiling=2.0, seed=0, grid_level=4, beta=1.0):
    f0 = holder_test_function(beta, 1.0, "cusp", grid_level)
    rng = np.random.default_rng(seed)
    return f0, simulate_ppp(f0, n, ceiling, rng)


def _below_minima(ens, pattern) -> bool:
    # every row of the ensemble at or below the pattern's bin minima: each is a feasible state
    return bool(np.all(ens.values <= bin_minima(pattern, ens.grid_level)))


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


def test_ensemble_values_must_span_the_grid():
    for width in (0, 3, 4, 6, 32):  # every row width but the 16 bins of grid level 4
        with pytest.raises(ValueError, match=rf"\(k, 2\*\*grid_level\) matrix, got shape \(2, {width}\)"):
            PosteriorEnsemble(4, np.zeros((2, width)), np.zeros(2))
    rows = np.array([[0.5, -1.0, 2.0, 0.25], [1.0, 1.5, -0.5, 3.0]])
    ens = PosteriorEnsemble(4, np.repeat(rows, 4, axis=1), np.zeros(2))
    assert len(ens) == 2
    assert np.array_equal(ens.values, np.repeat(rows, 4, axis=1))
    assert ens.values is ens.values and not ens.values.flags.writeable  # held once, read-only
    assert [f.grid_level for f in ens.samples] == [4, 4]


def test_ensemble_serialization_round_trip_is_byte_stable():
    f0, pattern = _pattern()
    ens = sample_posterior(
        build_prior(PriorSpec(variant="brownian_start", grid_level=4)),
        pattern,
        "importance",
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


def test_a_zero_uniform_gives_a_finite_draw_inside_its_interval():
    # rng.random returns 0.0 with probability 2**-53: an untruncated tail draw (a Brownian interval or an exact
    # block with no point) and a gaussian draw with no lower bound (every z0 move) must stay finite and in [a, b]
    assert math.isfinite(float(_std_normal_tail(0.0, np.inf)))
    gaussian = CoefficientDistribution("gaussian")
    for hi, tilt in [(0.3, 2.0), (np.inf, 2.0), (np.inf, 0.0), (-5.0, 0.0), (2.0, -40.0)]:
        x = float(_sample_coefficients_interval(gaussian, np.zeros(1), -np.inf, np.array([hi]), tilt)[0])
        assert math.isfinite(x) and x <= hi, (hi, tilt)


def test_the_two_sided_draw_is_the_one_sided_draw_below_its_upper_end():
    # one inversion: with no lower end the two-sided draw is the one-sided draw bit for bit, and a lower end
    # keeps every draw inside [a, b]
    q = np.random.default_rng(8).random(4000)
    b = np.linspace(-40.0, 8.0, 4000)
    assert np.array_equal(_trunc_std_normal(q, np.full(4000, -np.inf), b), _std_normal_tail(q, b))
    z = _trunc_std_normal(np.append(q, 0.0), np.full(4001, -1.0), np.full(4001, 0.5))
    assert np.all(np.isfinite(z)) and z.min() >= -1.0 - 1e-12 and z.max() <= 0.5


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


def _dyadic_shift_sweep(v, mins, n, q):
    # one Brownian sweep, interval by interval: every dyadic interval [a, b), coarse to fine, evens then odds, takes
    # its conditional from the full state, its edge increments and its slack recomputed, and inverts the next uniform
    m, q = v.size, iter(q.tolist())
    for k in (1 << level for level in range(m.bit_length())):
        w = m // k
        for i in [*range(0, k, 2), *range(1, k, 2)]:
            a, b = i * w, (i + 1) * w
            p_a, g_a = (1.0 / (1.0 + 1.0 / m), v[0]) if a == 0 else (m, v[a] - v[a - 1])
            p_b, g_b = (m, v[b] - v[b - 1]) if b < m else (0.0, 0.0)
            mu, sd = (p_b * g_b - p_a * g_a + n * w / m) / (p_a + p_b), 1.0 / math.sqrt(p_a + p_b)
            v[a:b] += mu + sd * _std_normal_tail(next(q), (float(np.min(mins[a:b] - v[a:b])) - mu) / sd)


@pytest.mark.parametrize("grid_level", [1, 3, 6])
def test_gibbs_brownian_matches_the_interval_by_interval_reference(grid_level):
    m, n, rng = 1 << grid_level, 6.0, np.random.default_rng(40 + grid_level)
    mins = rng.uniform(-0.5, 1.0, size=m)
    mins[rng.random(m) < 0.4] = np.inf
    mins[0], mins[-1] = 0.3, np.inf  # a row with a point and an empty bin at every grid
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=grid_level))
    rng_alone, rng_ref, rng_pair = np.random.default_rng(41), np.random.default_rng(41), np.random.default_rng(41)
    ref = np.full(m, np.min(mins[np.isfinite(mins)]) - 0.1)  # the dispatch's flat start
    alone = posterior_module._gibbs_brownian(prior, mins[None], np.array([[n]]), [rng_alone], ref[None].copy())
    # two chains step at once, the first on the uniforms of the single chain
    pair = posterior_module._gibbs_brownian(prior, np.stack([mins, mins]), np.array([[n], [n]]),
                                            [rng_pair, np.random.default_rng(42)], np.stack([ref, ref]))
    for sweep, state, pair_state in zip(range(40), alone, pair):
        _dyadic_shift_sweep(ref, mins, n, rng_ref.random(2 * m - 1))
        assert np.all(state <= mins) and np.all(pair_state <= mins), sweep
        assert np.max(np.abs(state[0] - ref)) <= 1e-12, sweep
        assert np.array_equal(pair_state[0], state[0]), sweep  # the block steps each chain bit for bit as alone
    assert rng_alone.random() == rng_ref.random() == rng_pair.random()  # same number of draws consumed


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
    exact = sample_posterior(prior, pattern, "exact", 20_000, np.random.default_rng(11))
    assert _below_minima(exact, pattern)
    oracle = _analytic_truncated_mean(prior, pattern)
    assert np.abs(exact.normalized_weights @ exact.values - oracle.values).mean() <= 0.05


def _exact_reference(pattern, seed):
    # the exact sampler's 400 draws at j_cap 3 on grid 5, its levels and the per-draw loop that recomputes the
    # level's blocks for every draw, on the grid's 32 bins
    prior = build_prior(
        PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=3, grid_level=5)
    )
    ens = sample_posterior(prior, pattern, "exact", 400, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    n, s, mins = pattern.intensity, prior.dist.scale, bin_minima(pattern, 5)
    lw = np.array(ens.meta["level_log_weights"])
    probs = np.exp(lw - lw.max())
    probs /= probs.sum()
    levels = np.sort(rng.choice(4, size=400, p=probs))  # level-sorted rows: each level's uniforms are contiguous
    ref = []
    for j in levels:
        m = 1 << (j + 1)
        blocks = mins.reshape(m, -1).min(axis=1)
        sd, mu = s * math.sqrt(m), n * s * s
        ref.append(np.repeat(mu + sd * _std_normal_tail(rng.random(m), (blocks - mu) / sd), 32 // m))
    return ens, levels, np.stack(ref)


def test_exact_truncated_sampler_equals_per_draw_reference_bit_for_bit():
    _, pattern = _pattern(n=5.0, seed=3, grid_level=5)
    ens, levels, ref = _exact_reference(pattern, 26)
    assert len(set(levels.tolist())) == 4  # the draws switch between levels
    assert np.array_equal(ens.values, ref)


@pytest.mark.parametrize(
    "f0, n, seed, drawn",
    [
        (GridFunction.constant(0.0, 5), 1000.0, 0, {0}),  # every draw on level 0
        (holder_test_function(1.0, 1.0, "cusp", 5), 50.0, 1, {0, 1}),  # mixed, below the cap
        (holder_test_function(1.0, 1.0, "cusp", 5), 5.0, 3, {0, 1, 2, 3}),  # mixed, up to the cap
    ],
    ids=["one level", "mixed below the cap", "mixed up to the cap"],
)
def test_exact_sampler_equals_the_per_level_reference(f0, n, seed, drawn):
    ens, levels, ref = _exact_reference(simulate_ppp(f0, n, 2.0, np.random.default_rng(seed)), 26)
    assert set(levels.tolist()) == drawn
    assert np.array_equal(ens.values, ref)


# per sampler cell: the sha256 of ``ens.values.tobytes()`` on the pattern drawn lowest point first; the exact and
# wavelet samplers draw rows on 2**(J+1) blocks at level J, which the ensemble holds repeated onto the 2**4 bins
_PINNED_CELLS = {
    "exact": ("truncated_wavelet", "gaussian", "exact", 200,
              "c3be6373241ddfb27e0b280fbf97528c5b5540791af1186d62d775db5822931f"),
    "truncated gaussian": ("truncated_wavelet", "gaussian", "mcmc", 3000,
                           "ccda39c4e04deff62e79f031ebcc7b2816ac5d79b46948f2481117946e15302a"),
    "truncated laplace": ("truncated_wavelet", "laplace", "mcmc", 3000,
                          "35f18a3c332f0108ea645814438951ab7c3c706f0c926cb76a73231e7ce16be6"),
    "wavelet series": ("wavelet_series", "gaussian", "mcmc", 2000,
                       "7cf4b809deaa78b85dc173768711e12e7d93682ea33f96fda35431be401ed265"),
    "brownian": ("brownian_start", None, "mcmc", 2000,
                 "7e96b10a41be4bb331f1554fa4577cbeb36d7c38667e796d73dffc51a3002b64"),
}


@pytest.mark.parametrize("name", list(_PINNED_CELLS))
def test_sampler_cells_match_their_pinned_digests(name):
    variant, kind, sampler, budget, digest = _PINNED_CELLS[name]
    levels = {"truncated_wavelet": {"j_cap": 2}, "wavelet_series": {"alpha": 1.0, "j_max": 2}}.get(variant, {})
    dist = {"dist": CoefficientDistribution(kind)} if kind else {}
    prior = build_prior(PriorSpec(variant=variant, grid_level=4, **levels, **dist))
    _, pattern = _pattern(n=20.0, seed=5)
    ens = sample_posterior(prior, pattern, sampler, budget, np.random.default_rng(41))
    assert hashlib.sha256(ens.values.tobytes()).hexdigest() == digest
    assert _below_minima(ens, pattern)


@pytest.mark.parametrize("metric", ["l1", "lower_part", "upper_part"])
def test_errors_on_narrow_rows_equal_the_grid_width_rows_bit_for_bit(metric):
    # rows on 4 blocks of a level-4 grid, as a study's reduce reads them, against f0 coarser than the blocks, between
    # them and the grid, on the grid and finer than it; the ensemble holds the same rows repeated to the 16 bins, and
    # its functionals equal the study's weighted reductions of the narrow rows' errors
    rng = np.random.default_rng(43)
    rows = rng.normal(size=(300, 4)) * np.array([1.0, 1e-3, 10.0, 0.1])
    ens = PosteriorEnsemble(4, np.repeat(rows, 4, axis=1), rng.normal(size=300))
    weights = normalize_log_weights(ens.log_weights)
    for f0_level in (1, 3, 4, 6):
        f0 = GridFunction(f0_level, rng.normal(size=1 << f0_level))
        errors = posterior_module._errors(rows, 4, f0, metric)
        wide_errors = posterior_module._errors(ens.values, ens.grid_level, f0, metric)
        assert errors.tobytes() == wide_errors.tobytes(), f0_level
        assert weighted_median(errors, weights) == posterior_median_metric(ens, f0, metric)
        r = float(np.median(errors))
        assert mass_at_least(errors, weights, r) == posterior_mass_at_least(ens, f0, r, metric)
    _, pattern = _pattern(n=40.0)
    low = np.minimum(rows, block_minima(bin_minima(pattern, 4), 1))  # feasible rows, then one row above its block
    verdicts = [_below_minima(PosteriorEnsemble(4, np.repeat(c, 4, axis=1), np.zeros(len(c))), pattern)
                for c in (low, np.vstack([low, low[:1] + 10.0]))]
    assert verdicts == [True, False]


def test_importance_truncated_sampler_matches_analytic_moments():
    f0, pattern = _pattern(n=2.0, grid_level=4)
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=2, grid_level=4
    )
    prior = build_prior(spec)
    approx = sample_posterior(prior, pattern, "importance", 60_000, np.random.default_rng(12))
    assert _below_minima(approx, pattern)
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
    approx = sample_posterior(prior, pattern, "importance", 60_000, np.random.default_rng(13))
    chain = sample_posterior(prior, pattern, "mcmc", 100_000, np.random.default_rng(14))
    assert _below_minima(chain, pattern)
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


def _per_bin_gibbs_wavelet(prior, mins, n, rngs, start, skipped):
    """Reference: the wavelet Gibbs sweep on every bin of the grid, each level's slack re-read from ``mins - v``."""
    z, v = start
    c, a0, w = len(rngs), float(prior.amplitudes[0]), 2 if prior.dist.kind == "laplace" else 1
    levels = [(j, slice(1 << j, 2 << j), 2.0 ** (j / 2.0) * prior.amplitudes[1 << j : 2 << j])
              for j in range(prior.j_max + 1)]
    sweep, u = 0, np.empty((c, w * prior.latent_dim))
    while True:
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        hi = z[:, :1] + np.min(mins - v, axis=1, keepdims=True) / a0
        z0 = _sample_coefficients_interval(prior.dist, u[:, :w], -math.inf, hi, n * a0)
        v += (z0 - z[:, :1]) * a0
        z[:, :1] = z0
        for j, sl, a in levels:
            slack = (mins - v).reshape(c, 1 << j, 2, -1).min(axis=3)
            hi, lo = z[:, sl] + slack[:, :, 0] / a, z[:, sl] - slack[:, :, 1] / a
            empty = hi < lo
            skipped[:] += empty.sum(axis=1)
            lo, hi = np.where(empty, z[:, sl], lo), np.where(empty, z[:, sl], hi)
            z_new = _sample_coefficients_interval(prior.dist, u[:, w * sl.start : w * sl.stop], lo, hi, 0.0)
            halves = v.reshape(c, 1 << j, 2, -1)
            halves[:, :, 0] += ((z_new - z[:, sl]) * a)[:, :, None]
            halves[:, :, 1] -= ((z_new - z[:, sl]) * a)[:, :, None]
            z[:, sl] = z_new
        sweep += 1
        if sweep % 64 == 0:
            v = prior.synthesize(z)
        yield v


@pytest.mark.parametrize(
    "kind,j_max,grid_level",
    [(kind, j_max, level) for kind in ("gaussian", "laplace", "uniform") for j_max, level in ((2, 5), (3, 4))]
    + [("truncated", 1, 4)],
)
def test_block_kernel_tracks_the_per_bin_level_loop(kind, j_max, grid_level):
    # the kernel on the finest blocks, with one slack fold per sweep and each level's moves carried down as a
    # shift, against the per-bin loop from one start and one set of generators: 130 sweeps cross two refreshes,
    # both draw the same uniforms in the same order, and the states differ only by rounding
    if kind == "truncated":
        spec = PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("laplace"), j_cap=3,
                         grid_level=grid_level)
        prior = build_prior(spec).level_prior(j_max)
    else:
        spec = PriorSpec(variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution(kind), j_max=j_max,
                         grid_level=grid_level)
        prior = build_prior(spec)
    f0, ns = holder_test_function(1.0, 1.0, "cusp", grid_level), np.array([[0.5], [20.0], [60.0]])
    mins = np.stack([bin_minima(simulate_ppp(f0, n, 2.0, np.random.default_rng(50 + i)), grid_level)
                     for i, n in enumerate(ns[:, 0])])
    assert not improper_laplace(prior, mins, ns[:, 0]).any()
    block_mins, width = block_minima(mins, j_max), 1 << (grid_level - j_max - 1)  # width: bins per block
    rngs = [np.random.default_rng(60 + i) for i in range(len(mins))]
    z = posterior_module._wavelet_start(prior, block_mins)
    ref_rngs = [np.random.default_rng() for _ in rngs]
    for ref, rng in zip(ref_rngs, rngs):
        ref.bit_generator.state = rng.bit_generator.state
    skipped, ref_skipped = np.zeros(len(mins), dtype=int), np.zeros(len(mins), dtype=int)
    blocks = posterior_module._gibbs_wavelet(prior, block_mins, ns, rngs, z.copy(), skipped)
    bins = _per_bin_gibbs_wavelet(prior, mins, ns, ref_rngs, (z.copy(), prior.synthesize(z)), ref_skipped)
    for sweep, state, ref in zip(range(130), blocks, bins):
        assert state.shape == (len(mins), 2 << j_max)
        assert np.all(state <= block_mins), sweep
        assert np.max(np.abs(np.repeat(state, width, axis=1) - ref)) <= 1e-10, sweep
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]
    assert skipped.tolist() == ref_skipped.tolist()


_INVARIANCE_PRIORS = {
    "brownian": PriorSpec(variant="brownian_start", grid_level=3),
    **{kind: PriorSpec(variant="wavelet_series", alpha=2.0, dist=CoefficientDistribution(kind), j_max=2, grid_level=3)
       for kind in ("gaussian", "laplace", "uniform")},
}


@pytest.mark.parametrize("n", [20.0, 200.0])
@pytest.mark.parametrize("name", list(_INVARIANCE_PRIORS))
def test_a_gibbs_sweep_leaves_its_posterior_invariant(name, n):
    # Geweke's (2004) successive-conditional test, with no oracle: 4,000 chains start at exact prior draws f, then
    # 60 times draw the m bin minima given f, f + Exp(n / m) each (the law of a bin's lowest point), and run one
    # kernel sweep from f given them.  That is a Gibbs chain on the joint law of (f, minima), so if each sweep leaves
    # its posterior invariant f stays prior-distributed, however slowly the kernel mixes; its integral, bin 0 and
    # the contrast of bin 0 with bin m/2 are compared with fresh prior draws.  A wavelet state (grid j_max + 1, a
    # value per block) starts from its coefficients, read back through the invertible synthesis
    prior, chains = build_prior(_INVARIANCE_PRIORS[name]), 4000
    m, rng = 1 << prior.grid_level, np.random.default_rng(80)
    rngs = [np.random.default_rng(seed) for seed in np.random.SeedSequence(81).spawn(chains)]
    if name == "brownian":
        kernel, latent, extra = posterior_module._gibbs_brownian, np.eye(m), {}
    else:
        kernel, latent = posterior_module._gibbs_wavelet, np.linalg.inv(prior.synthesize(np.eye(m)))
        extra = {"skipped": np.zeros(chains, dtype=int)}
    f = prior.draw(rng, chains)
    for _ in range(60):
        mins = f + rng.exponential(m / n, size=f.shape)
        f = next(kernel(prior, mins, np.full((chains, 1), n), rngs, start=f @ latent, **extra))
        assert np.all(f <= mins)
    fresh = prior.draw(np.random.default_rng(82), chains)
    for stat in ("integral", "bin 0", "contrast"):
        a, b = ({"integral": v.mean(axis=1), "bin 0": v[:, 0], "contrast": v[:, 0] - v[:, m // 2]}[stat]
                for v in (f, fresh))
        z = (a.mean() - b.mean()) / math.sqrt((a.var(ddof=1) + b.var(ddof=1)) / chains)
        assert abs(z) < 4.0, (stat, z)
        assert 0.9 <= a.std(ddof=1) / b.std(ddof=1) <= 1.1, (stat, a.std(ddof=1) / b.std(ddof=1))


def test_gibbs_brownian_agrees_with_importance():
    f0, pattern = _pattern(n=2.0, grid_level=4)
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=4))
    approx = sample_posterior(prior, pattern, "importance", 60_000, np.random.default_rng(15))
    chain = sample_posterior(prior, pattern, "mcmc", 150_000, np.random.default_rng(16))
    assert _below_minima(chain, pattern)
    m_is, se_is = _mean_integral_and_se(approx)
    m_ch, se_ch = _mean_integral_and_se(chain)
    assert abs(m_is - m_ch) <= 4.0 * math.hypot(se_is, se_ch)
    # contrasts are blind to the start value, so they see the increments, which
    # every interval shift but the whole-function one moves, even when the mean of integral(f) agrees
    for left, right in [(0, 15), (0, 8), (4, 12), (8, 15)]:
        m_is, se_is = _weighted_mean_and_se(approx, approx.values[:, left] - approx.values[:, right])
        m_ch, se_ch = _weighted_mean_and_se(chain, chain.values[:, left] - chain.values[:, right])
        assert abs(m_is - m_ch) <= 4.0 * math.hypot(se_is, se_ch), (left, right)


def test_brownian_chains_converge_at_grid_10_within_the_sweeps_of_criterion_7b():
    # criterion 7b's study at grid 10, on a budget of its 117 sweeps: 1,024 bins, where a bin update alone relaxes
    # the long-wavelength modes too slowly, so the slope and the error at the largest n read the kernel's mixing
    cfg = RateStudyConfig(
        prior=PriorSpec(variant="brownian_start", grid_level=10),
        f0_beta=1.0,
        f0_R=1.0,
        f0_kind="hat",
        n_grid=(200.0, 500.0, 1000.0, 2000.0, 5000.0),
        replicates=20,
        sampler="mcmc",
        budget=240_000,
        seed=102,
    )
    report = run_rate_study(cfg, threads=2)
    assert abs(report.slope + 1.0 / 3.0) <= 0.05, report.slope
    assert report.medians[-1] < 0.04, report.medians


def test_mcmc_truncated_agrees_with_analytic_moments():
    f0, pattern = _pattern(n=5.0, grid_level=4)
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=2, grid_level=4
    )
    prior = build_prior(spec)
    chain = sample_posterior(prior, pattern, "mcmc", 100_000, np.random.default_rng(17))
    assert _below_minima(chain, pattern)
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
    ens = sample_posterior(prior, pattern, "mcmc", 40_000, np.random.default_rng(18))
    hit = posterior_mass(ens, np.all(ens.values == members[1].values, axis=1))
    assert hit == pytest.approx(w[1], abs=0.02)
    assert posterior_mass(ens, np.all(ens.values == members[2].values, axis=1)) == 0.0
    with pytest.raises(ValueError, match="row mask"):
        posterior_mass(ens, lambda f: f == members[1])  # a predicate is not a row mask


def test_finite_prior_mcmc_draws_the_exact_posterior_under_unequal_weights():
    # mcmc on a finite prior draws its posterior pi_i e^{n integral f_i} i.i.d., so an atom's row frequency is
    # binomial around its exact probability, and there is no acceptance rate to report
    f0, pattern = _pattern(n=2.0)
    members = [f0.shift(-0.5), f0.shift(-0.2)]
    log_w = np.log([1.0, 3.0]) + [log_posterior_weight(f, pattern) for f in members]
    p = math.exp(log_w[1] - logsumexp(log_w))
    ens = sample_posterior(FinitePrior(members, [1.0, 3.0]), pattern, "mcmc", 40_000, np.random.default_rng(27))
    assert "acceptance_rate" not in ens.meta and "warning" not in ens.meta
    freq = np.all(ens.values == members[1].values, axis=1).mean()
    assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / len(ens)), (freq, p)


def test_mcmc_stores_the_scheduled_states(monkeypatch):
    # a fifth of the sweeps is burn-in and stored sweeps are max(1, budget // 10_000) site updates apart,
    # from the total budget also for the truncated prior's per-level chains; a Brownian kernel yields its states
    # on the 16 bins, a wavelet kernel on its level's 2**(j_max+1) finest blocks, never on the bins
    f0, pattern = _pattern(n=2.0, grid_level=4)
    stored, run_chain = [], posterior_module._run_chain  # per block: chains, kept states and the states' widths

    def spy(states, keep, reduce):
        widths = set()
        values = run_chain(states, keep, lambda v: widths.add(v.shape[1]) or reduce(v))
        stored.append((*values.shape[:2], *widths))
        return values

    monkeypatch.setattr(posterior_module, "_run_chain", spy)
    gaussian = CoefficientDistribution("gaussian")
    priors = {
        "brownian": build_prior(PriorSpec(variant="brownian_start", grid_level=4)),
        "wavelet": build_prior(PriorSpec(variant="wavelet_series", alpha=1.0, dist=gaussian, j_max=2, grid_level=4)),
        "truncated": build_prior(PriorSpec(variant="truncated_wavelet", dist=gaussian, j_cap=2, grid_level=4)),
        "finite": FinitePrior([f0.shift(-0.5), f0.shift(-0.2), f0.shift(3.0)]),
    }
    expected = {  # rows stored at budgets 1, 5,000 and 100,000
        "brownian": (2, 129, 2_580),
        "wavelet": (2, 500, 10_000),
        "truncated": (6, 1_167, 9_332),
        "finite": (1, 4_000, 8_000),
    }
    # site updates run at those budgets: at least 2 sweeps of 2m - 1 = 31 for a Brownian chain, of latent_dim 8
    # for the wavelet chain at j_max 2, and on each truncated level of 2, 4 and 8 at a third of the budget; the
    # finite prior's one-atom steps are its budget
    steps = {
        "brownian": (62, 4_991, 99_975),
        "wavelet": (16, 5_000, 100_000),
        "truncated": (28, 4_994, 99_992),
        "finite": (1, 5_000, 100_000),
    }
    widths = {"brownian": [16], "wavelet": [8], "truncated": [2, 4, 8], "finite": []}
    for name, prior in priors.items():
        for budget, rows, updates in zip((1, 5_000, 100_000), expected[name], steps[name]):
            stored.clear()
            ens = sample_posterior(prior, pattern, "mcmc", budget, np.random.default_rng(budget))
            assert len(ens) == rows, (name, budget)
            assert [width for _, _, width in stored] == widths[name], (name, budget)
            assert sum(kept for _, kept, _ in stored) == (rows if stored else 0), (name, budget)
            assert _below_minima(ens, pattern)
            assert ens.meta["steps"] == updates, (name, budget)


def _grid_rows(v):
    """The reduce of ``sample_posterior`` on a level-4 grid: rows on w equal blocks repeated onto the 16 bins."""
    return np.repeat(v, 16 // v.shape[1], axis=1)


def _ensembles(cells) -> list:
    """Each cell that ``sample_cells`` yields under ``_grid_rows`` as the ensemble that ``sample_posterior`` builds
    of it, and a refused cell as its error."""
    return [c if isinstance(c, DegeneratePosteriorError) else PosteriorEnsemble(4, *c) for c in cells]


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
        # scale 0.25: on these patterns the start of every chain, lowered below the data, stays in the support;
        # at scale 1 it leaves the support on two of them, which start at the highest feasible state instead
        "truncated uniform": truncated("uniform", 0.25),
        "truncated uniform 1": truncated("uniform"),
        "finite": FinitePrior([f0.shift(-0.5), f0.shift(-0.2), f0.shift(3.0)]),
    }
    below_all = PointPattern(n, 3.0, [0.3], [-5.0])  # below every finite atom and outside the uniform support
    runs = {  # (sampler, prior): (budget, the degenerate cell or None)
        ("importance", "brownian"): (2000, None),
        ("importance", "gaussian"): (2000, None),
        ("importance", "truncated"): (2000, None),
        ("importance", "finite"): (200, below_all),  # no feasible atom
        ("exact", "truncated gaussian"): (300, None),
        ("mcmc", "brownian"): (3000, None),
        ("mcmc", "gaussian"): (3000, None),
        ("mcmc", "laplace"): (3000, PointPattern(n, 2.0)),  # every bin empty: the scaling conditional is improper
        ("mcmc", "uniform"): (3000, below_all),  # no feasible state in the uniform support
        ("mcmc", "truncated"): (3000, None),
        ("mcmc", "truncated gaussian"): (3000, None),
        ("mcmc", "truncated uniform"): (3000, below_all),  # no feasible state in the uniform support
        ("mcmc", "truncated uniform 1"): (3000, below_all),
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
        mins = np.stack([bin_minima(p, 4) for p in cells])
        block = _ensembles(sample_cells(prior, mins, n, sampler, budget, rngs, _grid_rows))
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
    next(sample_cells(priors["truncated gaussian"], mins, n, "exact", 300, rngs, _grid_rows))
    assert rngs[1].random() == np.random.default_rng(21).random()


def test_a_mixed_intensity_block_equals_each_cell_alone():
    # a study sends all its cells as one block, each row at its own n: every cell must equal its own
    # sample_posterior at that n bit for bit, refused or not, and leave its generator in the same state
    ns = (4.0, 8.0, 16.0, 32.0, 32.0)
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    patterns = [simulate_ppp(f0, n, 2.0, np.random.default_rng(seed)) for seed, n in enumerate(ns[:4])]
    # the last eighth of [0, 1] empty: an improper truncated-laplace posterior at n = 32, a proper one at n = 4
    patterns.append(PointPattern(32.0, 2.0, [(k + 0.5) / 8.0 for k in range(7)], [0.0] * 7))
    mins = np.stack([bin_minima(p, 4) for p in patterns])
    wavelet = lambda kind: build_prior(
        PriorSpec(variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution(kind), j_max=2, grid_level=4)
    )
    truncated = lambda kind: build_prior(
        PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution(kind), j_cap=2, grid_level=4)
    )
    runs = [  # (sampler, prior, budget)
        ("mcmc", build_prior(PriorSpec(variant="brownian_start", grid_level=4)), 3000),
        ("mcmc", wavelet("gaussian"), 3000),
        ("mcmc", wavelet("laplace"), 3000),
        ("mcmc", wavelet("uniform"), 3000),
        ("mcmc", truncated("gaussian"), 3000),
        ("mcmc", truncated("laplace"), 3000),
        ("exact", truncated("gaussian"), 300),
        ("importance", wavelet("gaussian"), 2000),
        ("importance", truncated("laplace"), 2000),
    ]
    for sampler, prior, budget in runs:
        rngs = [np.random.default_rng(40 + i) for i in range(len(ns))]
        block = _ensembles(sample_cells(prior, mins, ns, sampler, budget, rngs, _grid_rows))
        assert any(isinstance(ens, PosteriorEnsemble) for ens in block), (sampler, prior)
        for i, (pattern, ens) in enumerate(zip(patterns, block)):
            where, rng = (sampler, prior, ns[i]), np.random.default_rng(40 + i)
            if isinstance(ens, DegeneratePosteriorError):
                with pytest.raises(DegeneratePosteriorError) as err:
                    sample_posterior(prior, pattern, sampler, budget, rng)
                assert str(err.value) == str(ens), where
            else:
                single = sample_posterior(prior, pattern, sampler, budget, rng)
                assert ens.values.tobytes() == single.values.tobytes(), where
                assert ens.log_weights.tobytes() == single.log_weights.tobytes(), where
                assert ens.meta == single.meta, where
            assert rngs[i].bit_generator.state == rng.bit_generator.state, where


@pytest.mark.parametrize("grid_level, n", [(4, 2.0), (6, 8.0)])
def test_brownian_chains_with_no_point_draw_the_tilted_prior(grid_level, n):
    # with no point nothing truncates the prior tilted by e^{n integral(f)}, a gaussian under which integral(f) has
    # mean n Var(integral(f)), Var under the prior; 32 chains, each started flat at -0.1, are checked against it
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=grid_level))
    a = prior.synthesize(np.eye(prior.latent_dim)).mean(axis=1)  # integral(f) = a . z of the standard normal z
    m, chains = 1 << grid_level, 32
    rngs = [np.random.default_rng(np.random.SeedSequence((60, grid_level, i))) for i in range(chains)]
    cells = sample_cells(prior, np.full((chains, m), np.inf), n, "mcmc", 400 * (2 * m - 1), rngs,
                         lambda v: v.mean(axis=1))
    means = np.array([rows.mean() for rows, _, _ in cells])
    z = (means.mean() - n * (a @ a)) / (means.std(ddof=1) / math.sqrt(chains))
    assert abs(z) <= 3.0, z


@pytest.mark.parametrize("kind", ["brownian", "laplace"])
def test_a_brownian_row_with_no_point_starts_flat_and_equals_its_cell_alone(monkeypatch, kind):
    # the dispatch hands the kernel its start: a row with no point starts flat at -0.1, every other row flat 0.1 below
    # its lowest minimum, and draws nothing before its first sweep, whose uniforms (2m - 1 per Brownian sweep, two
    # per laplace coefficient) are its first draws; in a block beside rows that hold points, each cell equals its
    # own sample_posterior bit for bit (laplace scale 0.1 keeps the row with no point proper at n = 8)
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    patterns = [simulate_ppp(f0, 8.0, 2.0, np.random.default_rng(seed)) for seed in range(2)]
    patterns.insert(1, PointPattern(8.0, 2.0))
    spec = {"brownian": PriorSpec(variant="brownian_start", grid_level=4),
            "laplace": PriorSpec(variant="wavelet_series", alpha=2.0, dist=CoefficientDistribution("laplace", 0.1),
                                 j_max=2, grid_level=4)}[kind]
    prior = build_prior(spec)
    name, uniforms, skipped = (("_gibbs_brownian", 31, ()) if kind == "brownian"
                               else ("_gibbs_wavelet", 2 * prior.latent_dim, (np.zeros(3, dtype=int),)))
    starts, kernel = [], getattr(posterior_module, name)

    def spy(level, mins, n, rngs, start, *rest):
        starts.append((mins, start.copy()))
        return kernel(level, mins, n, rngs, start, *rest)

    monkeypatch.setattr(posterior_module, name, spy)
    mins = np.stack([bin_minima(p, 4) for p in patterns])
    rngs = [np.random.default_rng(70 + i) for i in range(len(patterns))]
    block = _ensembles(sample_cells(prior, mins, 8.0, "mcmc", 3000, rngs, _grid_rows))
    ((block_mins, start),) = starts
    flat = start if kind == "brownian" else prior.synthesize(start)
    assert flat[1].tolist() == [-0.1] * 16
    assert np.array_equal(flat, np.repeat(np.min(mins, axis=1, initial=0.0, keepdims=True) - 0.1, 16, axis=1))
    first = [np.random.default_rng(70 + i) for i in range(len(patterns))]
    chains = kernel(prior, block_mins, np.full((len(mins), 1), 8.0), first, start, *skipped)
    assert np.all(next(chains) <= block_mins)
    for i, rng in enumerate(first):
        fresh = np.random.default_rng(70 + i)
        fresh.random(uniforms)
        assert rng.bit_generator.state == fresh.bit_generator.state, i
    for i, (pattern, ens) in enumerate(zip(patterns, block)):
        rng = np.random.default_rng(70 + i)
        single = sample_posterior(prior, pattern, "mcmc", 3000, rng)
        assert ens.values.tobytes() == single.values.tobytes(), i
        assert ens.meta == single.meta, i
        assert rngs[i].bit_generator.state == rng.bit_generator.state, i


def test_a_block_that_does_not_match_its_generators_or_its_grid_is_refused_before_any_draw():
    # a block with more rows than generators, minima on a coarser grid than the prior's, or an intensity that is not
    # positive and finite, is a ValueError before any draw, whatever the sampler
    f0 = holder_test_function(1.0, 1.0, "cusp", 3)
    mins = np.stack([bin_minima(simulate_ppp(f0, 8.0, 2.0, np.random.default_rng(seed)), 3) for seed in range(3)])
    brownian = lambda level: build_prior(PriorSpec(variant="brownian_start", grid_level=level))
    wavelet = build_prior(
        PriorSpec(variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution("gaussian"), j_max=2, grid_level=4)
    )
    cases = [  # (prior, generators, sampler, the block's shape it needs) for the (3, 8) minima
        *((brownian(3), 1, sampler, "(1, 8)") for sampler in ("mcmc", "importance")),
        (brownian(4), 3, "mcmc", "(3, 16)"),
        *((wavelet, 3, sampler, "(3, 16)") for sampler in ("mcmc", "importance")),
    ]
    for prior, k, sampler, want in cases:
        rngs = [np.random.default_rng(80 + i) for i in range(k)]
        message = re.escape(f"minima of shape (3, 8) are not one row per generator on the prior's grid, shape {want}")
        with pytest.raises(ValueError, match=message):
            next(sample_cells(prior, mins, 8.0, sampler, 2000, rngs, lambda v: v))
        assert [r.bit_generator.state for r in rngs] == [np.random.default_rng(80 + i).bit_generator.state
                                                          for i in range(k)]
    for n, bad in [(x, x) for x in (math.nan, math.inf, -5.0, 0.0)] + [([8.0, math.inf, 2.0], math.inf)]:
        for sampler in ("mcmc", "importance"):
            rngs = [np.random.default_rng(80 + i) for i in range(3)]
            with pytest.raises(ValueError, match=re.escape(f"n must be positive and finite, got {bad!r}")):
                next(sample_cells(brownian(3), mins, n, sampler, 2000, rngs, lambda v: v))
            assert rngs[0].bit_generator.state == np.random.default_rng(80).bit_generator.state


def test_a_reduced_block_equals_the_ensemble_block_cell_by_cell():
    # one block sampled twice on identically seeded generators, once with a study's per-row error as reduce: each
    # reduced cell holds _errors of its ensemble's rows, in their order, and its log weights bit for bit, with its
    # meta; a refused cell is the same error; each generator ends in the same state; and a study's weighted
    # reductions equal the public functionals of the ensemble, against f0 on, finer than and coarser than the grid
    n = 8.0
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    patterns = [simulate_ppp(f0, n, 2.0, np.random.default_rng(seed)) for seed in range(3)]
    refs = [(holder_test_function(1.0, 1.0, "hat", level), metric)
            for level, metric in [(4, "l1"), (6, "lower_part"), (2, "upper_part")]]
    spec = lambda variant, kind, **kw: PriorSpec(variant=variant, dist=CoefficientDistribution(kind), grid_level=4, **kw)
    truncated_gaussian = build_prior(spec("truncated_wavelet", "gaussian", j_cap=2))
    laplace = build_prior(spec("wavelet_series", "laplace", alpha=1.0, j_max=2))
    improper = PointPattern(n, 2.0)  # every bin empty: the scaling conditional of a laplace prior is improper
    runs = [  # (sampler, prior, budget, cells)
        ("mcmc", build_prior(PriorSpec(variant="brownian_start", grid_level=4)), 3000, patterns),
        ("mcmc", laplace, 3000, patterns[:1] + [improper] + patterns[1:]),
        ("mcmc", truncated_gaussian, 3000, patterns),
        ("exact", truncated_gaussian, 300, patterns),
        ("importance", laplace, 2000, patterns[:1] + [improper] + patterns[1:]),
        ("mcmc", FinitePrior([f0.shift(-0.5), f0.shift(-0.2), f0.shift(3.0)]), 3000, patterns),
    ]
    for sampler, prior, budget, cells in runs:
        mins = np.stack([bin_minima(p, 4) for p in cells])

        def block(reduce):
            rngs = [np.random.default_rng(60 + i) for i in range(len(cells))]
            return list(sample_cells(prior, mins, n, sampler, budget, rngs, reduce)), rngs

        grid_cells, rngs = block(_grid_rows)
        ensembles = _ensembles(grid_cells)
        assert sum(isinstance(ens, DegeneratePosteriorError) for ens in ensembles) == any(p is improper for p in cells)
        for ref, metric in refs:
            reduced, reduced_rngs = block(row_errors(ref, metric, 4))
            for i, (ens, cell) in enumerate(zip(ensembles, reduced)):
                where = (sampler, type(prior).__name__, metric, i)
                assert rngs[i].bit_generator.state == reduced_rngs[i].bit_generator.state, where
                if isinstance(ens, DegeneratePosteriorError):
                    assert isinstance(cell, DegeneratePosteriorError) and str(cell) == str(ens), where
                    continue
                errors, log_weights, meta = cell
                assert errors.tobytes() == posterior_module._errors(ens.values, 4, ref, metric).tobytes(), where
                assert log_weights.tobytes() == ens.log_weights.tobytes(), where
                assert meta == ens.meta, where
                weights = normalize_log_weights(log_weights)
                assert weights.tobytes() == ens.normalized_weights.tobytes(), where
                assert weighted_median(errors, weights) == posterior_median_metric(ens, ref, metric), where
                r = float(np.median(errors))
                assert mass_at_least(errors, weights, r) == posterior_mass_at_least(ens, ref, r, metric), where
        if prior is truncated_gaussian and sampler == "mcmc":  # rows of every level, each with its level weight
            assert all(len(np.unique(ens.log_weights)) == 3 for ens in ensembles)


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
    mins = np.stack([bin_minima(p, 4) for p in patterns])
    every, skip, none = _ensembles(sample_cells(prior, mins, 0.5, "mcmc", 3000, rngs, _grid_rows))
    assert blocks == [(0, 1), (1, 2), (2, 2)]
    assert np.isfinite(every.meta["level_log_weights"]).all()
    lw = skip.meta["level_log_weights"]
    assert lw[0] == -math.inf and np.isfinite(lw[1:]).all()
    kept = [len(_kept(3000 // 3, 2 << j, 3000)) for j in range(3)]  # the rows of one chain at each level
    assert len(every) == sum(kept) and len(skip) == kept[1] + kept[2]
    level_weights = [lw[j] - math.log(kept[j]) for j in (1, 2)]
    assert skip.log_weights.tolist() == np.repeat(level_weights, kept[1:]).tolist()
    assert _below_minima(skip, patterns[1])
    assert isinstance(none, DegeneratePosteriorError)
    assert "no level produced feasible states" in str(none)


@pytest.mark.parametrize("kind", ["laplace", "uniform"])
def test_a_refused_cell_names_its_cause_and_runs_no_chain(monkeypatch, kind):
    # one seeded block: two healthy cells around one that no chain can sample, an improper laplace posterior (no
    # point at all) or no feasible state in the uniform support (a point below every state of the prior); the
    # refusal is read off the bin minima, so no chain runs for that cell, and the others are as alone
    n = 8.0
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    spec = PriorSpec(variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution(kind), j_max=2, grid_level=4)
    prior = build_prior(spec)
    refused = PointPattern(n, 2.0) if kind == "laplace" else PointPattern(n, 3.0, [0.3], [-5.0])
    healthy = [simulate_ppp(f0, n, 2.0, np.random.default_rng(seed)) for seed in (0, 1)]
    cells = [healthy[0], refused, healthy[1]]
    chains, gibbs = [], posterior_module._gibbs_wavelet  # the chain count of each block run

    def spy(level, mins, *args):
        chains.append(len(mins))
        return gibbs(level, mins, *args)

    monkeypatch.setattr(posterior_module, "_gibbs_wavelet", spy)
    rngs = [np.random.default_rng(30 + i) for i in range(3)]
    mins = np.stack([bin_minima(p, 4) for p in cells])
    block = _ensembles(sample_cells(prior, mins, n, "mcmc", 3000, rngs, _grid_rows))
    assert chains == [2]
    cause, other = {"laplace": ("an improper laplace posterior", "uniform"),
                    "uniform": ("no feasible state in the uniform support", "laplace")}[kind]
    assert isinstance(block[1], DegeneratePosteriorError)
    assert cause in str(block[1]) and other not in str(block[1])
    for i in (0, 2):
        single = sample_posterior(prior, cells[i], "mcmc", 3000, np.random.default_rng(30 + i))
        assert block[i].values.tobytes() == single.values.tobytes() and block[i].meta == single.meta, i


def test_sampler_determinism():
    f0, pattern = _pattern(n=6.0, grid_level=4)
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=4))
    a = sample_posterior(prior, pattern, "mcmc", 5000, np.random.default_rng(19))
    b = sample_posterior(prior, pattern, "mcmc", 5000, np.random.default_rng(19))
    assert all(x == y for x, y in zip(a.samples, b.samples))
    c = sample_posterior(prior, pattern, "importance", 2000, np.random.default_rng(20))
    d = sample_posterior(prior, pattern, "importance", 2000, np.random.default_rng(20))
    assert np.array_equal(c.log_weights, d.log_weights)


def test_importance_draws_are_filtered_in_bounded_batches():
    # the prior is drawn and filtered in batches of about 2**16 grid values into one output
    # grown in place, so the peak holds the kept rows once plus one batch
    f0, pattern = _pattern(n=2.0, grid_level=8)
    prior = build_prior(PriorSpec(variant="brownian_start", grid_level=8))
    tracemalloc.start()
    try:
        ens = sample_posterior(prior, pattern, "importance", 40_000, np.random.default_rng(24))
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
        sample_posterior(prior, pattern, "importance", 100, np.random.default_rng(21))
    with pytest.raises(DegeneratePosteriorError):
        sample_posterior(prior, pattern, "mcmc", 100, np.random.default_rng(22))
    good = build_prior(PriorSpec(variant="brownian_start", grid_level=4))
    with pytest.raises(ValueError):
        sample_posterior(good, pattern, "importance", 0, np.random.default_rng(23))
    with pytest.raises(ValueError):
        sample_posterior(good, pattern, "mcmc", 0, np.random.default_rng(22))
    for budget in (100.5, True):  # a bool is not a budget of 1
        with pytest.raises(ValueError, match=f"budget must be an integer, got {budget}"):
            sample_posterior(good, pattern, "mcmc", budget, np.random.default_rng(22))
    with pytest.raises(ValueError):
        mcmc_posterior(good, pattern, 10, 0.0, np.random.default_rng(22))
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("laplace"), j_cap=2, grid_level=4
    )
    with pytest.raises(ValueError):
        sample_posterior(build_prior(spec), pattern, "exact", 10, np.random.default_rng(24))


@pytest.mark.parametrize("case", ["uniform", "finite"])
def test_a_cell_that_no_sampler_can_sample_is_refused_alike_before_any_draw(case):
    # a point below every state of a uniform series, or below every finite atom: importance and mcmc name the
    # same cause, and neither draws (importance once drew its whole budget and then pointed at mcmc)
    if case == "uniform":
        spec = PriorSpec(variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution("uniform", 0.25), j_max=2,
                         grid_level=4)
        prior, pattern = build_prior(spec), PointPattern(5.0, 3.0, [0.3], [-5.0])
        cause = "no feasible state in the uniform support"
    else:
        prior = FinitePrior([GridFunction.constant(1.0, 2), GridFunction.constant(2.0, 2)])
        pattern, cause = PointPattern(5.0, 3.0, [0.3], [0.0]), "no feasible atom in the finite prior support"
    for sampler in ("importance", "mcmc"):
        rng = np.random.default_rng(34)
        with pytest.raises(DegeneratePosteriorError) as err:
            sample_posterior(prior, pattern, sampler, 1000, rng)
        assert str(err.value) == cause, sampler
        assert rng.random() == np.random.default_rng(34).random(), sampler


def test_a_refused_truncated_cell_draws_no_level_evidence():
    # a truncated laplace cell with no point has an improper posterior: sample_cells refuses it before the level
    # evidence, whose 400 prior draws per level would otherwise advance its generator
    prior = build_prior(
        PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("laplace"), j_cap=2, grid_level=4)
    )
    rng = np.random.default_rng(35)
    (cell,) = sample_cells(prior, bin_minima(PointPattern(8.0, 2.0), 4)[None], 8.0, "mcmc", 3000, [rng], _grid_rows)
    assert isinstance(cell, DegeneratePosteriorError)
    assert "improper laplace" in str(cell)
    assert rng.bit_generator.state == np.random.default_rng(35).bit_generator.state


@pytest.mark.parametrize("sampler", ["importance", "mcmc", "exact"])
def test_the_named_samplers_equal_sample_posterior_bit_for_bit(sampler):
    # the benchmark replay calls the three aliases, so each must be sample_posterior of its sampler: the same
    # rows, log weights and meta, and the generator left in the same state
    _, pattern = _pattern(n=40.0, seed=12)
    prior = build_prior(
        PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=3, grid_level=4)
    )
    alias = {
        "importance": lambda rng: importance_posterior(prior, pattern, 2000, rng),
        "mcmc": lambda rng: mcmc_posterior(prior, pattern, 2000, 0.5, rng),
        "exact": lambda rng: exact_truncated_posterior(prior, pattern, 2000, rng),
    }[sampler]
    rng, ref_rng = np.random.default_rng(35), np.random.default_rng(35)
    ens, ref = alias(rng), sample_posterior(prior, pattern, sampler, 2000, ref_rng)
    assert ens.values.tobytes() == ref.values.tobytes()
    assert ens.log_weights.tobytes() == ref.log_weights.tobytes()
    assert ens.meta == ref.meta
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_gibbs_wavelet_uniform_start_outside_support_raises():
    # a point at y = -5 sits below every draw of this prior (|f| < 3), so
    # lowering the scaling coefficient to clear it leaves [-1, 1]
    pattern = PointPattern(5.0, 3.0, [0.3], [-5.0])
    spec = PriorSpec(
        variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution("uniform"), j_max=2, grid_level=4
    )
    with pytest.raises(DegeneratePosteriorError, match="no feasible state"):
        sample_posterior(build_prior(spec), pattern, "mcmc", 1000, np.random.default_rng(25))


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
    # the propriety test itself flags the cell, at some level of the truncated prior
    assert improper_laplace(prior, bin_minima(pattern, 4)[None], n).tolist() == [improper]
    for sampler in ("mcmc", "importance"):
        if improper:
            with pytest.raises(DegeneratePosteriorError, match="improper laplace posterior"):
                sample_posterior(prior, pattern, sampler, 3000, np.random.default_rng(26))
        else:
            ens = sample_posterior(prior, pattern, sampler, 3000, np.random.default_rng(26))
            assert _below_minima(ens, pattern)


# ---------------------------------------------------------------------------
# functionals


def test_posterior_functionals_hand_case():
    flat = GridFunction.constant(0.0, 2)
    high = GridFunction.constant(1.0, 2)
    half = GridFunction(2, np.array([1.0, 1.0, 0.0, 0.0]))
    ens = PosteriorEnsemble(2, [flat.values, high.values, half.values], np.log([0.5, 0.25, 0.25]))
    f0 = flat
    assert posterior_mass_at_least(ens, f0, 0.4) == pytest.approx(0.5)  # high (1.0) + half (0.5)
    assert posterior_mass_at_least(ens, f0, 0.75, "l1") == pytest.approx(0.25)
    assert posterior_mass_at_least(ens, f0, 0.5, "upper_part") == pytest.approx(0.5)
    assert posterior_mass_at_least(ens, high, 0.4, "lower_part") == pytest.approx(0.75)  # flat and half
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
        ens = sample_posterior(prior, pattern, "exact", 300, np.random.default_rng(31))
    else:  # one Gibbs chain per level, so the log weights differ across rows
        ens = sample_posterior(prior, pattern, "mcmc", 4000, np.random.default_rng(32))
    f0 = holder_test_function(1.0, 1.0, "hat", f0_level)
    samples, lvl = list(ens.samples), max(ens.grid_level, f0_level)
    w = ens.normalized_weights
    refs = {
        "l1": np.array([np.abs(f.refine(lvl).values - f0.refine(lvl).values).mean() for f in samples]),
        "lower_part": np.array([positive_part_integral(f0, f) for f in samples]),
        "upper_part": np.array([positive_part_integral(f, f0) for f in samples]),
    }
    for metric, ref in refs.items():
        assert posterior_median_metric(ens, f0, metric) == weighted_median(ref, w)
        r = float(np.sort(ref)[len(ref) // 2])  # a radius that rows sit exactly on
        assert posterior_mass_at_least(ens, f0, r, metric) == float(w[ref >= r].sum())
    lines = [f"# ensemble sampler={ens.meta['sampler']} size={len(ens)}", "integral,l1_to_f0,weight"]
    lines += [f"{integral(f)!r},{l1!r},{float(wi)!r}" for f, l1, wi in zip(samples, refs["l1"].tolist(), w)]
    assert ens.summary_csv(f0) == "\n".join(lines) + "\n"
