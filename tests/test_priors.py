"""Prior families: coefficient laws, construction identities, tail envelopes,
test functions and the small-ball lower-bound inequality."""

import math

import numpy as np
import pytest
from scipy import integrate

from bbayes import (
    CoefficientDistribution,
    FinitePrior,
    GridFunction,
    PriorSpec,
    WaveletCoefficients,
    build_prior,
    haar_analysis,
    haar_synthesis,
    holder_test_function,
    sample_brownian_prior,
    sample_truncated_prior,
    sample_wavelet_prior,
)
from bbayes.priors import (
    format_prior_config,
    parse_prior_config,
    wavelet_amplitudes,
)


# ---------------------------------------------------------------------------
# coefficient laws


@pytest.mark.parametrize("kind,var", [("gaussian", 1.0), ("laplace", 2.0), ("uniform", 1.0 / 3.0)])
def test_coefficient_law_moments(kind, var):
    dist = CoefficientDistribution(kind)
    rng = np.random.default_rng(0)
    draws = dist.sample(rng, size=20_000)
    se_mean = math.sqrt(var / draws.size)
    assert abs(draws.mean()) <= 3.0 * se_mean  # symmetry
    kurt = {"gaussian": 3.0, "laplace": 6.0, "uniform": 1.8}[kind]
    se_var = math.sqrt((kurt - 1.0) * var * var / draws.size)
    assert abs(draws.var() - var) <= 3.0 * se_var


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "uniform"])
def test_coefficient_density_normalized(kind):
    dist = CoefficientDistribution(kind, scale=0.7)
    total, _ = integrate.quad(dist.density, -30, 30, points=[-dist.scale, 0.0, dist.scale], limit=200)
    assert total == pytest.approx(1.0, abs=1e-8)
    x = np.linspace(-3, 3, 11)
    dens = dist.density(x)
    logs = dist.log_density(x)
    assert np.allclose(np.log(dens[dens > 0]), logs[dens > 0])
    assert np.all(np.isneginf(logs[dens == 0]))


@pytest.mark.parametrize("kind", ["gaussian", "laplace"])
def test_exponential_tail_envelope(kind):
    # density(x) <= tail_rate^-1 * exp(-tail_rate |x|) on a wide grid
    for scale in (0.5, 1.0, 2.0):
        dist = CoefficientDistribution(kind, scale=scale)
        g = dist.tail_rate
        assert g is not None and g > 0
        x = np.linspace(-25 * scale, 25 * scale, 2001)
        assert np.all(dist.density(x) <= np.exp(-g * np.abs(x)) / g + 1e-15)


def test_coefficient_law_validation():
    with pytest.raises(ValueError):
        CoefficientDistribution("cauchy")
    with pytest.raises(ValueError):
        CoefficientDistribution("gaussian", scale=0.0)
    assert CoefficientDistribution("uniform").tail_rate is None


# ---------------------------------------------------------------------------
# prior spec


def test_prior_spec_validation():
    gauss = CoefficientDistribution("gaussian")
    with pytest.raises(ValueError):
        PriorSpec(variant="unknown")
    with pytest.raises(ValueError):
        PriorSpec(variant="wavelet_series", dist=gauss, j_max=3)  # no alpha
    with pytest.raises(ValueError):
        PriorSpec(variant="wavelet_series", alpha=1.0, j_max=3)  # no dist
    with pytest.raises(ValueError):
        # j_max must stay below grid_level for exact synthesis
        PriorSpec(variant="wavelet_series", alpha=1.0, dist=gauss, j_max=8, grid_level=8)
    with pytest.raises(ValueError):
        PriorSpec(variant="truncated_wavelet", dist=gauss, j_cap=8, grid_level=8)
    PriorSpec(variant="brownian_start", grid_level=4)  # valid


def test_prior_config_round_trip():
    spec = PriorSpec(
        variant="wavelet_series",
        alpha=1.5,
        dist=CoefficientDistribution("laplace", scale=0.5),
        j_max=4,
        grid_level=7,
    )
    back = parse_prior_config(format_prior_config(spec))
    assert back == spec
    with pytest.raises(ValueError):
        parse_prior_config("variant = brownian_start\nbogus = 1\n")


# ---------------------------------------------------------------------------
# construction identities


def test_wavelet_amplitude_profile():
    amps = wavelet_amplitudes(1.0, 2)
    assert amps[0] == 1.0
    assert amps[1] == pytest.approx(1.0)  # level 0
    assert amps[2] == pytest.approx(2.0 ** (-1.5))  # level 1: 2^{-(1/2)(2a+1)}
    assert amps.size == 8  # scaling slot + 1 + 2 + 4 detail entries


def test_wavelet_prior_coefficient_variance():
    # empirical variance of a level-j detail coefficient = 2^{-j(2a+1)} Var(xi), within 5%
    alpha = 1.0
    spec = PriorSpec(
        variant="wavelet_series",
        alpha=alpha,
        dist=CoefficientDistribution("gaussian"),
        j_max=3,
        grid_level=5,
    )
    rng = np.random.default_rng(1)
    draws = 10_000
    j, k = 2, 1
    coefs = np.empty(draws)
    for i in range(draws):
        f = sample_wavelet_prior(spec, rng)
        coefs[i] = haar_analysis(f).detail[j][k]
    assert coefs.var() == pytest.approx(2.0 ** (-j * (2 * alpha + 1)), rel=0.05)


def test_brownian_prior_start_and_increments():
    grid_level = 5
    m = 1 << grid_level
    rng = np.random.default_rng(2)
    draws = 10_000
    first = np.empty(draws)
    incs = np.empty((draws, m - 1))
    for i in range(draws):
        v = sample_brownian_prior(grid_level, rng).values
        first[i] = v[0]
        incs[i] = np.diff(v)
    assert first.var() == pytest.approx(1.0 + 1.0 / m, rel=0.05)
    assert incs.var() == pytest.approx(1.0 / m, rel=0.05)
    assert abs(incs.mean()) <= 3.0 * math.sqrt(1.0 / m / incs.size)


def test_synthesize_matches_per_draw_synthesis():
    # the batched latent -> grid map equals the per-draw map bit for bit, for 1-D and 2-D input
    brownian = build_prior(PriorSpec(variant="brownian_start", grid_level=5))
    cases = [(brownian, lambda z: z[0] + np.cumsum(z[1:]) / math.sqrt(32))]
    wavelet = build_prior(
        PriorSpec(
            variant="wavelet_series", alpha=2.0, dist=CoefficientDistribution("laplace"), j_max=6, grid_level=8
        )
    )
    truncated = build_prior(
        PriorSpec(variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=3, grid_level=6)
    )
    for prior in [wavelet] + [truncated.level_prior(j) for j in range(4)]:
        cases.append(
            (
                prior,
                lambda z, p=prior: haar_synthesis(
                    WaveletCoefficients.from_flat(p.amplitudes * z, p.j_max), p.grid_level
                ).values,
            )
        )
    rng = np.random.default_rng(12)
    for prior, per_draw in cases:
        z = rng.standard_normal((7, prior.latent_dim))
        assert np.array_equal(prior.synthesize(z), np.stack([per_draw(row) for row in z]))
        assert np.array_equal(prior.synthesize(z[0]), per_draw(z[0]))


def test_truncated_prior_level_distribution_and_unit_amplitudes():
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=3, grid_level=6
    )
    rng = np.random.default_rng(3)
    draws = 8000
    levels = np.array([sample_truncated_prior(spec, rng)[0] for _ in range(draws)])
    target = 2.0 ** (-np.arange(4.0))
    target /= target.sum()
    for j in range(4):
        p_hat = float(np.mean(levels == j))
        se = math.sqrt(target[j] * (1 - target[j]) / draws)
        assert abs(p_hat - target[j]) <= 3.5 * se
    # unit amplitudes: the level-j coefficients of a draw have variance ~ 1
    rng = np.random.default_rng(4)
    top = [haar_analysis(f).detail[3] for j, f in
           (sample_truncated_prior(spec, rng) for _ in range(4000)) if j == 3]
    assert np.var(np.concatenate(top)) == pytest.approx(1.0, rel=0.1)


def test_prior_draw_determinism():
    spec = PriorSpec(
        variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution("laplace"),
        j_max=4, grid_level=6,
    )
    a = sample_wavelet_prior(spec, np.random.default_rng(11))
    b = sample_wavelet_prior(spec, np.random.default_rng(11))
    assert a == b


def test_finite_prior_weights():
    f = GridFunction.constant(0.0)
    g = GridFunction.constant(1.0)
    prior = FinitePrior([f, g], weights=[1.0, 3.0])
    assert np.allclose(prior.weights, [0.25, 0.75])
    with pytest.raises(ValueError):
        FinitePrior([f, g], weights=[1.0])
    with pytest.raises(ValueError):
        FinitePrior([])
    with pytest.raises(ValueError, match="one grid level"):
        FinitePrior([f, GridFunction.constant(1.0, 2)])


# ---------------------------------------------------------------------------
# Hoelder test functions


def test_holder_test_functions_shapes_and_bounds():
    for kind in ("cusp", "hat", "smooth"):
        f = holder_test_function(1.0, 2.0, kind, 7)
        x = (np.arange(128) + 0.5) / 128
        # beta = 1: |f(x) - f(y)| <= R |x - y| on bin midpoints
        diffs = np.abs(np.diff(f.values))
        assert np.all(diffs <= 2.0 / 128 + 1e-12)
    cusp = holder_test_function(0.5, 1.0, "cusp", 6)
    mid = (np.arange(64) + 0.5) / 64
    assert np.allclose(cusp.values, np.abs(mid - 0.5) ** 0.5)
    with pytest.raises(ValueError):
        holder_test_function(1.5, 1.0, "cusp", 5)
    with pytest.raises(ValueError):
        holder_test_function(0.5, 1.0, "smooth", 5)
    with pytest.raises(ValueError):
        holder_test_function(1.0, -1.0, "hat", 5)
    with pytest.raises(ValueError):
        holder_test_function(1.0, 1.0, "spike", 5)


# ---------------------------------------------------------------------------
# small-ball scaling (the checkable form of the lower-bound exponent)


def test_wavelet_small_ball_exponent_scale():
    # -log P(||X - h||_inf <= eps) scales like eps^{-1/(alpha ^ beta)} up to a
    # bounded constant: the normalized exponents across the eps grid agree
    # within a factor of two.
    alpha = beta = 1.0
    dist = CoefficientDistribution("gaussian")
    spec = PriorSpec(variant="wavelet_series", alpha=alpha, dist=dist, j_max=4, grid_level=6)
    h = holder_test_function(beta, 0.5, "cusp", 6)
    target = h.values
    prior = build_prior(spec)
    rng = np.random.default_rng(5)
    draws = 60_000
    sups = np.empty(draws)
    for i in range(draws):
        sups[i] = float(np.abs(prior.sample(rng).values - target).max())
    eps_grid = (1.0, 0.8, 0.65)
    p_hat = {e: float(np.mean(sups <= e)) for e in eps_grid}
    assert all(p_hat[e] > 0 for e in eps_grid)
    ratios = [-math.log(p_hat[e]) * e ** (1.0 / min(alpha, beta)) for e in eps_grid]
    assert max(ratios) <= 2.0 * min(ratios)
