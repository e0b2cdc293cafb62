"""The exact passes over a prior's bins and Haar tree: the Haar-tree walk against synthesis, the small-ball
quadratures' convergence in the cell width, and the highest feasible state of a uniform prior."""

import math
from functools import partial

import numpy as np
import pytest

from bbayes import (
    CoefficientDistribution,
    GridFunction,
    PointPattern,
    PriorSpec,
    build_prior,
    holder_test_function,
    run_small_ball_study,
    simulate_ppp,
)
from bbayes.grid import bin_minima
from bbayes.passes import brownian_log_p, haar_fold, haar_log_p, highest_feasible, richardson


@pytest.mark.parametrize("variant", ["wavelet_series", "truncated_level"])
def test_haar_fold_inverts_synthesis(variant):
    # folding the finest block values with (l + r) / 2 and reading (l - r) / (2 A_j) at each level gives back the
    # latent vector: this pins the child order and A_j that every pass over the tree reads
    gaussian = CoefficientDistribution("gaussian")
    if variant == "wavelet_series":
        prior = build_prior(PriorSpec(variant=variant, alpha=0.7, dist=gaussian, j_max=3, grid_level=6))
    else:
        prior = build_prior(PriorSpec(variant="truncated_wavelet", dist=gaussian, j_cap=3, grid_level=6)).level_prior(2)
    z = np.random.default_rng(31).standard_normal((5, prior.latent_dim))
    details = []

    def node(left, right, a):
        details.append((left - right) / (2.0 * a))
        return (left + right) / 2.0

    root = haar_fold(prior, prior.synthesize(z)[:, :: 1 << (prior.grid_level - prior.j_max - 1)], node)[-1]
    back = np.concatenate([root / prior.amplitudes[0]] + details[::-1], axis=1)
    assert np.max(np.abs(back - z)) <= 1e-12


@pytest.mark.parametrize("kind", ["gaussian", "laplace", "uniform"])
def test_haar_tree_converges_in_the_cell_width(kind):
    spec = PriorSpec(variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution(kind), j_max=3, grid_level=6)
    target, eps = holder_test_function(0.5, 1.0, "cusp", 6).values, 0.6
    log_p = partial(haar_log_p, build_prior(spec), target, eps)
    neg_log_p = [-log_p(c) for c in (64, 128, 256)]
    assert abs(neg_log_p[1] - neg_log_p[0]) < 0.01 * neg_log_p[0]
    assert abs(neg_log_p[2] - neg_log_p[1]) < 0.01 * neg_log_p[1]
    # the estimate, the Richardson value over 64 and 128 cells, moves by at most std_error at the next two widths
    p, se = richardson(log_p, 32)
    assert -math.log(p) == pytest.approx((4.0 * neg_log_p[1] - neg_log_p[0]) / 3.0, rel=1e-12)
    assert 0.0 < abs(p - math.exp(-(4.0 * neg_log_p[2] - neg_log_p[1]) / 3.0)) <= se


def test_brownian_transfer_operator_converges_as_the_square_of_the_cell_width():
    spec, h = PriorSpec(variant="brownian_start", grid_level=12), GridFunction.constant(0.0, 12)
    target, eps = h.values, 0.25
    cells = math.ceil(2.0 * eps * 64)  # 1 cell per increment sd, as run_small_ball_study starts
    neg_log_p = [-brownian_log_p(target, eps, c) for c in (cells, 2 * cells, 4 * cells, 8 * cells)]
    # from 4 to 8 cells per sd -log P moves by under 1%, and each halving of d moves it 4 times less: O(d^2)
    assert abs(neg_log_p[3] - neg_log_p[2]) < 0.01 * neg_log_p[2]
    assert 3.5 < (neg_log_p[1] - neg_log_p[2]) / (neg_log_p[2] - neg_log_p[3]) < 4.5, neg_log_p
    # so the estimate, the Richardson value over 2 and 4 cells per sd, moves by under 1% at the next two widths
    report = run_small_ball_study(spec, h, (0.3, eps))
    p, se = report.probabilities[1], report.std_errors[1]
    assert -math.log(p) == pytest.approx((4.0 * neg_log_p[2] - neg_log_p[1]) / 3.0, rel=1e-12)
    assert -math.log(p) == pytest.approx((4.0 * neg_log_p[3] - neg_log_p[2]) / 3.0, rel=1e-2)
    # std_error is the change of the Richardson value from 1 and 2 cells per sd
    assert se == pytest.approx(p * abs(math.log(p) + (4.0 * neg_log_p[1] - neg_log_p[0]) / 3.0), rel=1e-12)


def test_highest_feasible_uniform_state():
    # the Haar-tree pass gives a feasible state inside the uniform support whose mean a0 z0 no feasible prior
    # draw exceeds, and flags the pattern that no state fits
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    uniform = CoefficientDistribution("uniform")
    prior = build_prior(PriorSpec(variant="wavelet_series", alpha=0.5, dist=uniform, j_max=2, grid_level=4))
    patterns = [simulate_ppp(f0, 30.0, 2.0, np.random.default_rng(seed)) for seed in range(4)]
    patterns += [PointPattern(30.0, 2.0), PointPattern(30.0, 3.0, [0.3], [-5.0])]
    mins = np.stack([bin_minima(p, 4) for p in patterns])
    z, feasible = highest_feasible(prior, mins)
    assert feasible.tolist() == [True] * 5 + [False]
    v = prior.synthesize(z[:5])
    assert np.all(np.abs(z[:5]) <= 1.0) and np.all(v <= mins[:5] + 1e-12)
    draws = prior.draw(np.random.default_rng(28), 100_000)
    for row, top in zip(mins[:5], v.mean(axis=1)):
        fits = np.all(draws <= row, axis=1)
        assert fits.any() and draws[fits].mean(axis=1).max() <= top + 1e-12


