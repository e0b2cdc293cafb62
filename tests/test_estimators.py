"""Boundary MLEs, the one-sided test and the domination check."""

import numpy as np
import pytest

from bbayes import (
    GridFunction,
    PointPattern,
    PosteriorEnsemble,
    check_posterior_below_mle,
    constraint_satisfied,
    mle_lipschitz,
    mle_piecewise_constant,
    np_test,
    simulate_ppp,
)
from bbayes.estimators import lipschitz_envelope_at
from bbayes.posterior import bin_minima


def _random_pattern(rng, k=15, ceiling=2.0):
    xs = rng.uniform(size=k)
    ys = rng.uniform(0, ceiling, size=k)
    return PointPattern(10.0, ceiling, xs, ys)


# ---------------------------------------------------------------------------
# Lipschitz envelope


def test_lipschitz_envelope_hand_case():
    pattern = PointPattern(1.0, 3.0, np.array([0.5]), np.array([1.0]))
    x = np.array([0.0, 0.25, 0.5, 0.9])
    out = lipschitz_envelope_at(pattern, 2.0, 3.0, x)
    assert np.allclose(out, np.minimum(3.0, 1.0 + 2.0 * np.abs(x - 0.5)))
    assert np.allclose(lipschitz_envelope_at(pattern, 100.0, 1.5, np.array([0.0])), [1.5])


def test_lipschitz_envelope_properties():
    rng = np.random.default_rng(0)
    for _ in range(10):
        pattern = _random_pattern(rng)
        lip, cap = 3.0, 2.5
        x = np.linspace(0, 1, 257)
        env = lipschitz_envelope_at(pattern, lip, cap, x)
        # interpolates below the data and respects the cap
        assert np.all(lipschitz_envelope_at(pattern, lip, cap, pattern.xs) <= pattern.ys + 1e-12)
        assert env.max() <= cap + 1e-12
        # lip-Lipschitz along the evaluation grid
        assert np.abs(np.diff(env)).max() <= lip / 256 + 1e-12
        # maximality: any Lipschitz function below the data stays below the envelope
        anchor = rng.uniform(0, 2)
        candidate = np.minimum.reduce(
            [anchor + lip * np.abs(x - 0.3), *(y + lip * np.abs(x - xx) for xx, y in pattern.points)]
        )
        assert np.all(candidate <= env + 1e-12)


def test_mle_lipschitz_empty_pattern_and_errors():
    empty = PointPattern(5.0, 2.0)
    mle = mle_lipschitz(empty, 1.0, 1.5, grid_level=3)
    assert np.allclose(mle.values, 1.5)
    pattern = PointPattern(5.0, 2.0, np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        mle_lipschitz(pattern, 0.0, 2.0)
    with pytest.raises(ValueError):
        mle_lipschitz(pattern, 1.0, 0.5)  # cap below the data point


# ---------------------------------------------------------------------------
# piecewise-constant MLE


def test_mle_piecewise_constant_is_bin_minima_with_cap():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pattern = _random_pattern(rng, k=int(rng.integers(0, 25)))
        mle = mle_piecewise_constant(pattern, 8, cap=5.0)
        mins = bin_minima(pattern, 3)
        assert np.array_equal(mle.values, np.minimum(mins, 5.0))
        assert constraint_satisfied(mle, mins)


def test_mle_piecewise_constant_maximality():
    # any feasible piecewise-constant function lies below the MLE bin-wise
    rng = np.random.default_rng(2)
    f0 = GridFunction(3, rng.uniform(0, 1, size=8))
    pattern = simulate_ppp(f0, 50.0, 2.0, rng)
    mle = mle_piecewise_constant(pattern, 8, cap=10.0)
    mins = bin_minima(pattern, 3)
    for _ in range(50):
        g = GridFunction(3, rng.uniform(-1, 3, size=8))
        if constraint_satisfied(g, mins):
            assert np.all(g.values <= mle.values)


def test_mle_piecewise_constant_rejects_bad_bins():
    pattern = PointPattern(5.0, 2.0)
    for bins in (0, 3, 12):
        with pytest.raises(ValueError):
            mle_piecewise_constant(pattern, bins, cap=1.0)


# ---------------------------------------------------------------------------
# one-sided test and domination check


def test_np_test_indicator():
    g = GridFunction.constant(1.0, 2)
    below = PointPattern(5.0, 3.0, np.array([0.1, 0.6]), np.array([1.2, 2.0]))
    crossing = PointPattern(5.0, 3.0, np.array([0.1, 0.6]), np.array([0.8, 2.0]))
    assert np_test(g, bin_minima(below, 2)) == 1
    assert np_test(g, bin_minima(crossing, 2)) == 0
    assert np_test(g, np.full(4, np.inf)) == 1  # an empty pattern, all-inf minima, rejects nothing


def test_check_posterior_below_mle():
    mle = GridFunction(2, np.array([1.0, 1.0, 0.5, 0.5]))
    ok_sample = GridFunction(2, np.array([0.9, 0.2, 0.5, 0.4]))
    bad_sample = GridFunction(2, np.array([0.9, 1.2, 0.5, 0.7]))
    ens = PosteriorEnsemble(2, [ok_sample.values, bad_sample.values], np.zeros(2))
    ok, violations = check_posterior_below_mle(ens, mle)
    assert not ok
    assert violations == [(1, 1, pytest.approx(0.2)), (1, 3, pytest.approx(0.2))]
    ok, violations = check_posterior_below_mle(PosteriorEnsemble(2, [ok_sample.values], np.zeros(1)), mle)
    assert ok and violations == []
