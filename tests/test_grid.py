"""Grid functions, point patterns and the observation-model identities."""

import math

import numpy as np
import pytest
from scipy import stats

from bbayes import (
    DominationError,
    GridFunction,
    PointPattern,
    constraint_satisfied,
    h_statistic,
    hellinger_affinity,
    hellinger_distance_sq,
    integral,
    kl_divergence,
    l1_distance,
    log_likelihood_ratio,
    positive_part_integral,
    simulate_ppp,
)


def test_grid_function_validation():
    with pytest.raises(ValueError):
        GridFunction(2, np.zeros(3))  # wrong length
    with pytest.raises(ValueError):
        GridFunction(1, np.array([0.0, np.inf]))
    with pytest.raises(ValueError):
        GridFunction(-1, np.zeros(1))


def test_grid_function_evaluation_and_refine():
    f = GridFunction(2, np.array([1.0, 2.0, 3.0, 4.0]))
    assert f(0.0) == 1.0
    assert f(0.25) == 2.0
    assert f(0.999) == 4.0
    assert f(1.0) == 4.0  # x = 1 maps to the last bin
    g = f.refine(4)
    assert g.num_bins == 16
    assert np.array_equal(g.values, np.repeat(f.values, 4))
    assert integral(g) == integral(f)
    with pytest.raises(ValueError):
        g.refine(2)  # cannot coarsen


def test_pointwise_lattice_ops_and_equality():
    f = GridFunction(1, np.array([0.0, 2.0]))
    g = GridFunction(2, np.array([1.0, -1.0, 1.0, 3.0]))
    mx = f.pointwise_max(g)
    mn = f.pointwise_min(g)
    assert np.array_equal(mx.values, [1.0, 0.0, 2.0, 3.0])
    assert np.array_equal(mn.values, [0.0, -1.0, 1.0, 2.0])
    # refinement-invariant equality
    assert f == f.refine(5)
    assert f != g


def test_grid_function_csv_round_trip():
    rng = np.random.default_rng(0)
    f = GridFunction(3, rng.standard_normal(8))
    text = f.to_csv()
    g = GridFunction.from_csv(text)
    assert g == f
    assert g.to_csv() == text  # byte stable
    with pytest.raises(ValueError):
        GridFunction.from_csv("no header\n1.0\n")


def test_pattern_validation_and_round_trip():
    with pytest.raises(ValueError):
        PointPattern(0.0, 1.0)
    with pytest.raises(ValueError):
        PointPattern(1.0, 1.0, np.array([2.0]), np.array([0.5]))  # x outside [0,1]
    with pytest.raises(ValueError):
        PointPattern(1.0, 1.0, np.array([0.5]), np.array([2.0]))  # above ceiling
    p = PointPattern(5.0, 2.0, np.array([0.1, 0.9]), np.array([0.5, 1.5]))
    q = PointPattern.from_csv(p.to_csv())
    assert q.intensity == p.intensity and q.ceiling == p.ceiling
    assert np.array_equal(q.xs, p.xs) and np.array_equal(q.ys, p.ys)
    assert q.to_csv() == p.to_csv()


def test_integral_and_distances_exact():
    f = GridFunction(1, np.array([1.0, 3.0]))
    g = GridFunction(1, np.array([2.0, 1.0]))
    assert integral(f) == 2.0
    assert l1_distance(f, g) == 1.5
    assert positive_part_integral(f, g) == 1.0
    assert positive_part_integral(g, f) == 0.5
    n = 4.0
    assert hellinger_affinity(f, g, n) == pytest.approx(math.exp(-0.5 * n * 1.5))
    assert hellinger_distance_sq(f, g, n) == pytest.approx(2.0 - 2.0 * math.exp(-3.0))


def test_kl_divergence_strict_domination():
    f0 = GridFunction(1, np.array([1.0, 1.0]))
    below = GridFunction(1, np.array([0.5, 1.0]))
    crossing = GridFunction(1, np.array([0.5, 1.5]))
    assert kl_divergence(f0, below, 10.0) == pytest.approx(10.0 * 0.25)
    assert kl_divergence(f0, crossing, 10.0) == math.inf


def test_simulate_ppp_points_above_boundary_exactly():
    f = GridFunction(3, np.linspace(0.0, 1.0, 8))
    rng = np.random.default_rng(1)
    for _ in range(50):
        pattern = simulate_ppp(f, 30.0, 2.0, rng)
        assert constraint_satisfied(f, pattern)
        assert len(pattern) == 0 or pattern.ys.max() <= 2.0


def test_simulate_ppp_count_matches_poisson_moments():
    # bin k's count ~ Poisson(n * (ceiling - f_k)_+ / m), independently of the other bins, so the total is
    # Poisson(n * integral (ceiling - f)_+): means, variances and a covariance within 3 SE
    f = GridFunction(2, np.array([0.0, 0.5, 0.25, 0.75]))
    n, ceiling = 40.0, 1.5
    lams = n * (ceiling - f.values) / f.num_bins
    rng = np.random.default_rng(2)
    reps = 4000
    counts = np.array([np.bincount((simulate_ppp(f, n, ceiling, rng).xs * 4).astype(int), minlength=4)
                       for _ in range(reps)])
    for c, lam in zip([*counts.T, counts.sum(axis=1)], [*lams, lams.sum()]):
        assert abs(c.mean() - lam) <= 3.0 * math.sqrt(lam / reps)
        # var of the sample variance of a Poisson is approx (2 lam^2 + lam) / reps
        assert abs(c.var(ddof=1) - lam) <= 3.0 * math.sqrt((2.0 * lam * lam + lam) / reps)
    # the sample covariance of two independent counts has variance lam_0 lam_1 / reps
    assert abs(np.cov(counts[:, 0], counts[:, 1])[0, 1]) <= 3.0 * math.sqrt(lams[0] * lams[1] / reps)


def test_simulate_ppp_points_are_uniform_in_their_bin():
    # given its bin k, a point has x uniform on [k/m, (k+1)/m) and y uniform on [f_k, ceiling]
    f = GridFunction(3, np.array([0.0, 0.5, 0.25, 0.75, 1.0, 0.1, 0.6, 0.3]))
    ceiling = 1.5
    pattern = simulate_ppp(f, 500.0, ceiling, np.random.default_rng(9))
    bins = np.minimum((pattern.xs * 8).astype(int), 7)
    assert stats.kstest(pattern.xs * 8 - bins, "uniform").pvalue > 0.01
    lower = f.values[bins]
    assert stats.kstest((pattern.ys - lower) / (ceiling - lower), "uniform").pvalue > 0.01


def test_simulate_ppp_empty_window_and_determinism():
    f = GridFunction(1, np.array([1.0, 1.0]))
    rng = np.random.default_rng(3)
    assert len(simulate_ppp(f, 10.0, 1.0, rng)) == 0  # ceiling touches f
    with pytest.raises(ValueError, match="ceiling 0.5 is below max f = 1.0"):
        simulate_ppp(f, 10.0, 0.5, rng)  # it would empty the bins where f is above it
    a = simulate_ppp(f, 50.0, 2.0, np.random.default_rng(7))
    b = simulate_ppp(f, 50.0, 2.0, np.random.default_rng(7))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def test_void_probability_identity_single_config():
    # P(no point below g) = exp(-n * integral(g - f)) for g >= f
    f = GridFunction(2, np.zeros(4))
    g = GridFunction(2, np.array([0.1, 0.0, 0.2, 0.1]))
    n, ceiling = 20.0, 1.0
    target = math.exp(-n * positive_part_integral(g, f))
    rng = np.random.default_rng(4)
    reps = 3000
    hits = sum(constraint_satisfied(g, simulate_ppp(f, n, ceiling, rng)) for _ in range(reps))
    p_hat = hits / reps
    se = math.sqrt(target * (1.0 - target) / reps)
    assert abs(p_hat - target) <= 3.0 * se


def test_log_likelihood_ratio_value_and_errors():
    f = GridFunction(1, np.array([0.5, 0.5]))
    g = GridFunction(1, np.array([0.0, 0.0]))
    pattern = PointPattern(10.0, 2.0, np.array([0.2]), np.array([1.0]))
    assert log_likelihood_ratio(f, g, pattern, 10.0) == pytest.approx(10.0 * 0.5)
    with pytest.raises(DominationError):
        log_likelihood_ratio(g, f, pattern, 10.0)
    low = PointPattern(10.0, 2.0, np.array([0.2]), np.array([0.1]))
    assert log_likelihood_ratio(f, g, low, 10.0) == -math.inf


def test_h_statistic_zero_when_infeasible():
    f0 = GridFunction(0, np.array([0.0]))
    f = GridFunction(0, np.array([0.4]))
    feasible = PointPattern(5.0, 2.0, np.array([0.5]), np.array([1.0]))
    blocked = PointPattern(5.0, 2.0, np.array([0.5]), np.array([0.2]))
    assert h_statistic(f, f0, feasible, 5.0) == pytest.approx(math.exp(5.0 * 0.4))
    assert h_statistic(f, f0, blocked, 5.0) == 0.0


def test_h_statistic_martingale_identity_single_config():
    # E[H(f)] = exp(-n * integral (f0 - f)_+), crossing case
    f0 = GridFunction(1, np.array([0.5, 0.5]))
    f = GridFunction(1, np.array([0.2, 0.7]))
    n, ceiling = 15.0, 1.5
    target = math.exp(-n * positive_part_integral(f0, f))
    rng = np.random.default_rng(5)
    reps = 3000
    vals = np.array([h_statistic(f, f0, simulate_ppp(f0, n, ceiling, rng), n) for _ in range(reps)])
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) <= 3.0 * se
