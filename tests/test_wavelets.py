"""Haar analysis/synthesis: exactness, orthonormality, error paths."""

import numpy as np
import pytest

from bbayes import GridFunction, WaveletCoefficients, haar_analysis, haar_synthesis
from bbayes.wavelets import LevelOverflowError, coefficient_count, synthesize_flat


def _random_coeffs(rng, max_level):
    detail = tuple(rng.standard_normal(1 << j) for j in range(max_level + 1))
    return WaveletCoefficients(float(rng.standard_normal()), detail)


def test_round_trip_synthesis_then_analysis():
    rng = np.random.default_rng(0)
    for _ in range(20):
        c = _random_coeffs(rng, 4)
        f = haar_synthesis(c, 6)
        back = haar_analysis(f, max_level=4)
        assert back.scaling == pytest.approx(c.scaling, abs=1e-12)
        for a, b in zip(back.detail, c.detail):
            assert np.allclose(a, b, atol=1e-12)


def test_round_trip_analysis_then_synthesis_is_exact():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = GridFunction(5, rng.standard_normal(32))
        c = haar_analysis(f)  # default max_level = grid_level - 1 captures f exactly
        g = haar_synthesis(c, 5)
        assert np.allclose(g.values, f.values, atol=1e-12)


def test_parseval_identity():
    # orthonormal basis: integral of f^2 equals the sum of squared coefficients
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = GridFunction(5, rng.standard_normal(32))
        c = haar_analysis(f)
        sq = c.scaling**2 + sum(float(np.sum(d**2)) for d in c.detail)
        assert sq == pytest.approx(float(np.mean(f.values**2)), abs=1e-10)


def test_flat_round_trip_and_errors():
    rng = np.random.default_rng(3)
    c = _random_coeffs(rng, 3)
    flat = c.flatten()
    assert flat.size == coefficient_count(3) == 16
    assert flat.tolist() == [c.scaling, *np.concatenate(c.detail).tolist()]  # the scaling slot, then level by level
    with pytest.raises(ValueError):
        WaveletCoefficients(0.0, (np.zeros(3),))  # level 0 must hold one entry


def test_level_overflow():
    c = WaveletCoefficients(0.0, (np.ones(1), np.ones(2)))
    with pytest.raises(LevelOverflowError):
        haar_synthesis(c, 1)  # level-1 detail needs 4 bins
    f = GridFunction(2, np.arange(4.0))
    with pytest.raises(LevelOverflowError):
        haar_analysis(f, max_level=2)


def test_haar_sign_convention():
    # detail (0,0): +1 on [0, 1/2), -1 on [1/2, 1)
    c = WaveletCoefficients(0.0, (np.array([1.0]),))
    f = haar_synthesis(c, 1)
    assert np.array_equal(f.values, [1.0, -1.0])


def _synthesize_by_repeat(flat, max_level, grid_level):
    # per level: the coarse values repeated and the detail repeated with alternating signs
    m = 1 << grid_level
    v = np.repeat(flat[..., :1], m, axis=-1)
    for j in range(max_level + 1):
        c = 2.0 ** (j / 2.0) * flat[..., 1 << j : 2 << j]
        signs = np.tile(np.repeat([1.0, -1.0], m >> (j + 1)), 1 << j)
        v = v + np.repeat(c, m >> j, axis=-1) * signs
    return v


@pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
def test_synthesize_flat_equals_per_level_repeat(shape):
    rng = np.random.default_rng(4)
    for max_level in range(8):
        for grid_level in (max_level + 1, max_level + 3):  # repeat factor 1, then 4
            flat = rng.standard_normal(shape + (coefficient_count(max_level),))
            got = synthesize_flat(flat, max_level, grid_level)
            assert got.shape == shape + (1 << grid_level,)
            assert got.tobytes() == _synthesize_by_repeat(flat, max_level, grid_level).tobytes()
