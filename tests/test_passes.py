"""The exact passes over a prior's bins and Haar tree: the Haar-tree walk against synthesis, the small-ball
quadratures against the per-bin walk and pinned values and in the cell width, and the highest feasible state of a
uniform prior."""

import math
from functools import partial

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import ndtr

from bbayes import (
    CoefficientDistribution,
    GridFunction,
    PointPattern,
    PriorSpec,
    WaveletCoefficients,
    build_prior,
    haar_synthesis,
    holder_test_function,
    run_small_ball_study,
    simulate_ppp,
)
from bbayes import passes
from bbayes.grid import bin_minima
from bbayes.passes import _matrix_power, brownian_log_p, haar_fold, haar_log_p, highest_feasible, richardson


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


def _per_bin_log_p(target, eps, cells):
    # brownian_log_p as one convolution per bin, the walk that its runs of equal increments square
    m, t = target.size, target.tolist()
    sd, d = 1.0 / math.sqrt(m), 2.0 * eps / cells
    w = np.diff(ndtr((t[0] - eps + d * np.arange(cells + 1)) / math.sqrt(1.0 + 1.0 / m)))
    log_p, shift = 0.0, None
    for k in range(m):
        if k:
            if t[k] - t[k - 1] != shift:
                shift = t[k] - t[k - 1]
                lo = max(1 - cells, min(0, math.ceil((-8.0 * sd - shift) / d)))
                hi = min(cells - 1, max(0, math.floor((8.0 * sd - shift) / d)))
                kernel = np.diff(ndtr((shift + (np.arange(lo, hi + 2) - 0.5) * d) / sd))
            w = np.convolve(w, kernel)[-lo : cells - lo]
        s = float(w.sum())
        if s <= 0.0:
            return -math.inf
        log_p += math.log(s)
        w /= s
    return log_p


def _refined(values):
    return GridFunction(int(math.log2(len(values))), np.array(values)).refine(12).values


@pytest.mark.parametrize("target,eps,cells", [
    *((np.zeros(4096), e, c) for e, c in [(1.0, 128), (1.0, 256), (1.0, 512), (0.25, 32), (0.25, 64), (0.25, 128)]),
    (holder_test_function(1.0, 1.0, "hat", 12).values, 0.5, 64),  # 3 runs: up, one bin of 0, down
    (holder_test_function(1.0, 1.0, "cusp", 12).values, 0.5, 256),
    (_refined(np.random.default_rng(3).uniform(-0.2, 0.2, 16)), 0.5, 64),  # 16 runs of 255 bins at 0, 15 jumps
    (_refined(np.random.default_rng(3).uniform(-0.2, 0.2, 16)), 0.5, 256),  # the same runs, too short to square
    (holder_test_function(1.0, 1.0, "smooth", 12).values, 0.5, 64),  # no two increments equal
    (10.0 * np.arange(4096), 0.25, 64),  # each window far above the last: a run that loses the mass
    (_refined([0.0, 5.0]), 0.25, 64),  # one jump that loses it
    (_refined([0.0, 0.3, -0.2, 0.1]), 1.0, 512),  # runs of 1023 bins at 0 between off-centre jumps: odd parts carry
    (np.full(4096, 0.4), 1.0, 512),  # an off-centre first window: w_0 has an odd part
    (np.zeros(4096), 0.7, 360),  # folded above the 256 cells of an unfolded square
    (np.zeros(4096), 0.7, 361),  # an odd cell count walks
], ids=["zero-1-128", "zero-1-256", "zero-1-512", "zero-.25-32", "zero-.25-64", "zero-.25-128", "hat", "cusp",
        "grid4-64", "grid4-256", "smooth", "ramp", "jump", "grid2-512", "const-.4-512", "zero-.7-360", "zero-.7-361"])
def test_brownian_runs_match_the_per_bin_walk(target, eps, cells):
    # a run of equal increments is the power of one transfer matrix, squared up (a run of zero increments at an even
    # cell count as its even and odd halves): the same log P to rounding
    expected, log_p = _per_bin_log_p(target, eps, cells), brownian_log_p(target, eps, cells)
    if np.all(np.diff(target, 2) != 0.0) or expected == -math.inf:
        assert log_p == expected  # no run to square, or no mass: the same bits
    else:
        assert log_p == pytest.approx(expected, rel=1e-12, abs=0.0)


_BROWNIAN_PINNED = {  # brownian_log_p on criterion 8's centred ball at grid 12, each eps at ceil(2 eps 64) cells (1 per
    # increment sd), twice and 4 times as many; pinned before any fold, when 512 cells at eps 1 and 360 at 0.7 walked
    # every bin and the rest squared the whole matrix
    1.0: [-1.8245438722449805, -1.7531991453219717, -1.735323349727585],
    0.7: [-3.467127550315197, -3.326287570144915, -3.290962275042294],
    0.5: [-6.253808853259754, -5.984674363202152, -5.917073195925282],
    0.35: [-11.727100112015123, -11.211093899311997, -11.081224988659091],
    0.25: [-21.43353822819493, -20.485902222680934, -20.24674923171436],
}


@pytest.mark.parametrize("eps", list(_BROWNIAN_PINNED))
def test_brownian_log_p_keeps_its_values(eps):
    # the squared and the folded runs move the quadrature of criterion 8's Brownian part by rounding only
    cells = math.ceil(2.0 * eps * 64)
    log_p = [brownian_log_p(np.zeros(4096), eps, c) for c in (cells, 2 * cells, 4 * cells)]
    assert log_p == pytest.approx(_BROWNIAN_PINNED[eps], rel=1e-12, abs=0.0)


def _folded_halves(eps, cells):
    # the stacked even and odd halves of w_0, from a window centred at 0.4, and of a zero-increment run's transfer
    # matrix at grid 12, built as brownian_log_p builds them
    m = 4096
    sd, d, h = 1.0 / math.sqrt(m), 2.0 * eps / cells, cells // 2
    w = np.diff(ndtr((0.4 - eps + d * np.arange(cells + 1)) / math.sqrt(1.0 + 1.0 / m)))
    lo, hi = max(1 - cells, math.ceil(-8.0 * sd / d)), min(cells - 1, math.floor(8.0 * sd / d))
    kernel = np.diff(ndtr((np.arange(lo, hi + 2) - 0.5) * d / sd))
    matrix = sliding_window_view(np.pad(kernel, (cells - 1 + lo, cells - 1 - hi)), cells)[::-1]
    a, bj, t, bj_w = matrix[:h, :h], matrix[:h, : h - 1 : -1], w[:h], w[: h - 1 : -1]
    return np.stack([t + bj_w, t - bj_w]), np.stack([a + bj, a - bj])


@pytest.mark.parametrize("r", [1, 2, 255, 4095])
@pytest.mark.parametrize("eps,cells", [(0.25, 32), (0.25, 64), (0.25, 128), (1.0, 256), (0.7, 360), (1.0, 512)])
def test_matrix_power_scales_a_fold_by_its_even_half(eps, cells, r):
    # |(A - BJ)^k| <= (A + BJ)^k entrywise, so the stack's shared max is the even half's: powered alone, the even
    # half gives row 0 and log P bit for bit, as the last folded run of brownian_log_p does
    w, matrix = _folded_halves(eps, cells)
    stacked, log_p = _matrix_power(w, matrix, r, -1.5)
    even, even_log_p = _matrix_power(w[:1], matrix[:1], r, -1.5)
    assert even_log_p == log_p > -math.inf
    assert np.array_equal(even[0], stacked[0])
    assert np.any(w[1] != 0.0) and np.any(stacked[1] != 0.0)  # an odd half that the stack does power


def _weierstrass(j_max, grid_level):
    # the decentred small-ball target of the benchmark: detail 1.4 * 2^-j at every node of level j
    return haar_synthesis(WaveletCoefficients(0.0, tuple(np.full(1 << j, 1.4 * 2.0**-j) for j in range(j_max + 1))),
                          grid_level).values


_PINNED = {  # haar_log_p with one lattice over the whole range of h at every node; zero and hat with per-offset row
    # bounds on each node's own range
    ("gaussian", "weierstrass"): [-12.500524473913611, -12.522632487882221, -12.528166962646328,
                                  -32.30101771795741, -32.363656287481255, -32.37940700011713],
    ("laplace", "weierstrass"): [-12.13190652520656, -12.14250137717342, -12.143944585408187,
                                 -27.89909183542231, -27.91327023883217, -27.917417428167223],
    ("gaussian", "cusp"): [-14.770620495141756, -7.3012528283140625],
    ("laplace", "cusp"): [-15.462941036229878, -8.011631365445409],
    ("uniform", "cusp"): [-10.988776276475322, -4.830513805045698],
    ("gaussian", "zero"): [-6.5315034350800385, -6.449865202224102, -6.429182438904066,
                           -17.37010178689124, -17.290710976969223, -17.269384518965836],
    ("laplace", "zero"): [-7.274566850553933, -7.198688279501242, -7.175078864108658,
                          -18.781763609951565, -18.69057721889991, -18.665888155191933],
    ("uniform", "zero"): [-3.965249902443427, -3.8663076160733065, -3.8587277379148412,
                          -11.61879709362902, -11.604644678008231, -11.58205136465376],
    ("gaussian", "constant"): [-6.562135070638293, -6.507583809951254, -6.501306260498293,
                               -17.35867063838316, -17.346789976373245, -17.343296297609676],
    ("gaussian", "hat"): [-148.11906433656364, -148.11834146713605, -148.11522657811634,
                          -237.7965152158084, -237.82104522042272, -237.82513594861717],
}


@pytest.mark.parametrize("kind,target", list(_PINNED))
def test_haar_log_p_keeps_its_values(kind, target):
    # each node holds its message on its own lattice range, 0 in its zero-padded frame off it: the same log P to
    # rounding; the zero target shifts every node of a level alike (_framed's slice), the others mostly by node
    dist = CoefficientDistribution(kind)
    if target == "weierstrass":
        prior = build_prior(PriorSpec(variant="wavelet_series", alpha=1.0, dist=dist, j_max=4, grid_level=8))
        h, runs = _weierstrass(4, 8), [(e, c) for e in (1.7, 1.0) for c in (32, 64, 128)]
    elif target in ("zero", "constant"):  # the benchmark's gauss_centred part, and a ball about h = 0.4
        prior = build_prior(PriorSpec(variant="wavelet_series", alpha=1.0, dist=dist, j_max=6, grid_level=8))
        h = np.full(256, 0.4 if target == "constant" else 0.0)
        runs = [(e, c) for e in (0.7, 0.3) for c in (32, 64, 128)]
    elif target == "hat":  # one level of a truncated prior: unit amplitudes to level 5
        prior = build_prior(PriorSpec(variant="truncated_wavelet", dist=dist, j_cap=5, grid_level=8)).level_prior(5)
        h, runs = holder_test_function(1.0, 1.0, "hat", 8).values, [(e, c) for e in (1.0, 0.25) for c in (32, 64, 128)]
    else:
        prior = build_prior(PriorSpec(variant="wavelet_series", alpha=1.0, dist=dist, j_max=3, grid_level=6))
        h, runs = holder_test_function(0.5, 1.0, "cusp", 6).values, [(0.3, 64), (0.6, 64)]
    log_p = [haar_log_p(prior, h, eps, cells) for eps, cells in runs]
    assert log_p == pytest.approx(_PINNED[kind, target], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("target", ["constant", "one block off"])
def test_a_constant_target_contracts_one_node_per_level(target, monkeypatch):
    # every finest block of a constant target has one window, so every node of a level one message: the pass
    # folds the tree on one column, from the leaves (one node's step) up; one block off unfolds every level
    prior = build_prior(PriorSpec(variant="wavelet_series", alpha=1.0, dist=CoefficientDistribution("gaussian"),
                                  j_max=6, grid_level=8))
    h = np.full(256, 0.4)
    if target == "one block off":
        h[:2] = 0.5
    columns, leaves, einsum, mass = [], [], np.einsum, passes._mass

    def spy_einsum(subscripts, left, *rest):
        columns.append(left.shape[1])
        return einsum(subscripts, left, *rest)

    def spy_mass(dist, lo, hi):
        if np.ndim(lo) == 2 and not leaves:  # the j_max level's z bounds, one column per node
            leaves.append(lo.shape[1])
        return mass(dist, lo, hi)

    monkeypatch.setattr(np, "einsum", spy_einsum)
    monkeypatch.setattr(passes, "_mass", spy_mass)
    assert math.isfinite(haar_log_p(prior, h, 0.7, 64))
    assert (leaves, columns) == (([1], [1] * 6) if target == "constant" else ([64], [32, 16, 8, 4, 2, 1]))


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


