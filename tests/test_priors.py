"""Prior families: coefficient laws, construction identities, tail envelopes,
test functions and the small-ball lower-bound inequality."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

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
)
from bbayes.priors import (
    parse_prior_config,
    wavelet_amplitudes,
)
from test_harness import _prior_sups


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
    # the cdf is the integral of the density, and keeps its relative precision deep in the left tail
    for x in (-2.0, -0.5, 0.0, 0.3, 1.1):
        kinks = [k for k in (-dist.scale, 0.0, dist.scale) if k < x]
        part, _ = integrate.quad(dist.density, -30, x, points=kinks or None, limit=200)
        assert dist.cdf(x) == pytest.approx(part, abs=1e-10)
    tail = {"gaussian": stats.norm.cdf(-6.0, scale=0.7), "laplace": stats.laplace.cdf(-6.0, scale=0.7), "uniform": 0.0}
    assert dist.cdf(-6.0) == pytest.approx(tail[kind], rel=1e-12, abs=0.0)
    assert np.array_equal(dist.cdf(np.array([-6.0, 1.1])), [dist.cdf(-6.0), dist.cdf(1.1)])


def test_coefficient_law_validation():
    with pytest.raises(ValueError):
        CoefficientDistribution("cauchy")
    with pytest.raises(ValueError):
        CoefficientDistribution("gaussian", scale=0.0)


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
    # a field the variant does not read is rejected by name, not ignored
    with pytest.raises(ValueError, match="brownian_start does not read alpha"):
        PriorSpec(variant="brownian_start", alpha=2.0)
    with pytest.raises(ValueError, match="wavelet_series does not read j_cap"):
        PriorSpec(variant="wavelet_series", alpha=1.0, dist=gauss, j_max=3, j_cap=3)
    with pytest.raises(ValueError, match="truncated_wavelet does not read alpha, j_max"):
        PriorSpec(variant="truncated_wavelet", alpha=1.0, dist=gauss, j_max=3, j_cap=3)
    PriorSpec(variant="brownian_start", grid_level=4)  # valid


def test_prior_config_round_trip():
    spec = PriorSpec(
        variant="wavelet_series",
        alpha=1.5,
        dist=CoefficientDistribution("laplace", scale=0.5),
        j_max=4,
        grid_level=7,
    )
    text = (
        "variant = wavelet_series\ngrid_level = 7\nalpha = 1.5  # a comment\n\n"
        "dist.kind = laplace\ndist.scale = 0.5\nj_max = 4\n"
    )
    assert parse_prior_config(text) == spec
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
    rows = build_prior(spec).draw(rng, draws)
    coefs = np.array([haar_analysis(GridFunction(spec.grid_level, row)).detail[j][k] for row in rows])
    assert coefs.var() == pytest.approx(2.0 ** (-j * (2 * alpha + 1)), rel=0.05)


def test_brownian_prior_start_and_increments():
    grid_level = 5
    m = 1 << grid_level
    rng = np.random.default_rng(2)
    draws = 10_000
    v = build_prior(PriorSpec(variant="brownian_start", grid_level=grid_level)).draw(rng, draws)
    first = v[:, 0]
    incs = np.diff(v, axis=1)
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
                    WaveletCoefficients(
                        float(p.amplitudes[0] * z[0]),
                        tuple(p.amplitudes[1 << j : 2 << j] * z[1 << j : 2 << j] for j in range(p.j_max + 1)),
                    ),
                    p.grid_level,
                ).values,
            )
        )
    rng = np.random.default_rng(12)
    for prior, per_draw in cases:
        z = rng.standard_normal((7, prior.latent_dim))
        assert np.array_equal(prior.synthesize(z), np.stack([per_draw(row) for row in z]))
        assert np.array_equal(prior.synthesize(z[0]), per_draw(z[0]))


def _haar_details(rows, grid_level):
    """Per row of grid values: its Haar detail coefficients, level by level."""
    return [haar_analysis(GridFunction(grid_level, row)).detail for row in rows]


def test_truncated_prior_level_distribution_and_unit_amplitudes():
    spec = PriorSpec(
        variant="truncated_wavelet", dist=CoefficientDistribution("gaussian"), j_cap=3, grid_level=6
    )
    prior = build_prior(spec)
    draws = 8000
    # a row's level is its finest nonzero Haar level: the zeroed details are exactly
    # zero, a drawn one is nonzero almost surely
    details = _haar_details(prior.draw(np.random.default_rng(3), draws), 6)
    levels = np.array([max(j for j, d in enumerate(ds) if np.any(d != 0.0)) for ds in details])
    target = 2.0 ** (-np.arange(4.0))
    target /= target.sum()
    for j in range(4):
        p_hat = float(np.mean(levels == j))
        se = math.sqrt(target[j] * (1 - target[j]) / draws)
        assert abs(p_hat - target[j]) <= 3.5 * se
    # unit amplitudes: the level-j coefficients of a draw have variance ~ 1
    details = _haar_details(prior.draw(np.random.default_rng(4), 4000), 6)
    top = [ds[3] for ds in details if np.any(ds[3] != 0.0)]
    assert np.var(np.concatenate(top)) == pytest.approx(1.0, rel=0.1)
    # levels() is a new list of the (P(J = j), level prior) pairs built once with the prior
    levels = prior.levels()
    assert levels is not prior.levels() and all(a is b for (_, a), (_, b) in zip(levels, prior.levels()))
    assert [p for p, _ in levels] == pytest.approx(target.tolist(), rel=1e-15)
    assert [(level.j_max, level.amplitudes.tolist()) for _, level in levels] == [
        (j, [1.0] * (2 << j)) for j in range(4)]


@pytest.mark.parametrize(
    "prior,per_draw",
    [
        (
            build_prior(PriorSpec(variant="brownian_start", grid_level=5)),
            lambda p, rng: p.synthesize(rng.standard_normal(p.latent_dim)),
        )
    ]
    + [
        (
            build_prior(
                PriorSpec(
                    variant="wavelet_series", alpha=1.5, dist=CoefficientDistribution(kind), j_max=4, grid_level=6
                )
            ),
            lambda p, rng: p.synthesize(p.dist.sample(rng, size=p.latent_dim)),
        )
        for kind in ("gaussian", "laplace", "uniform")
    ]
    + [
        (
            FinitePrior([GridFunction.constant(c, 3) for c in (0.0, -1.0, 2.5)], weights=[1.0, 3.0, 2.0]),
            lambda p, rng: p.values[rng.choice(len(p.values), p=p.weights)],
        )
    ],
    ids=["brownian", "wavelet-gaussian", "wavelet-laplace", "wavelet-uniform", "finite"],
)
def test_draw_equals_per_draw_recipe_bit_for_bit(prior, per_draw):
    # one (k, m) draw consumes the stream of k per-draw calls, row by row
    k = 50
    rows = prior.draw(np.random.default_rng(21), k)
    rng = np.random.default_rng(21)
    assert rows.shape == (k, 1 << prior.grid_level)
    assert np.array_equal(rows, np.stack([per_draw(prior, rng) for _ in range(k)]))
    if isinstance(prior, FinitePrior):
        rng = np.random.default_rng(21)
        indices = [rng.choice(len(prior.values), p=prior.weights) for _ in range(k)]
        assert np.array_equal(prior.draw_indices(np.random.default_rng(21), k), indices)


def test_prior_draw_determinism():
    spec = PriorSpec(
        variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution("laplace"),
        j_max=4, grid_level=6,
    )
    a = build_prior(spec).draw(np.random.default_rng(11), 3)
    b = build_prior(spec).draw(np.random.default_rng(11), 3)
    assert np.array_equal(a, b)


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
    for bad in ([math.nan, 1.0], [math.inf, 1.0], [-1.0, 2.0]):
        with pytest.raises(ValueError, match="invalid weights"):
            FinitePrior([f, g], weights=bad)
    assert np.array_equal(prior.values, [f.values, g.values])


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
    rng = np.random.default_rng(5)
    sups = _prior_sups(spec, h, 60_000, rng)
    eps_grid = (1.0, 0.8, 0.65)
    p_hat = {e: float(np.mean(sups <= e)) for e in eps_grid}
    assert all(p_hat[e] > 0 for e in eps_grid)
    ratios = [-math.log(p_hat[e]) * e ** (1.0 / min(alpha, beta)) for e in eps_grid]
    assert max(ratios) <= 2.0 * min(ratios)
