"""Grid functions, point patterns and the observation-model identities."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from bbayes import (
    GridFunction,
    PointPattern,
    constraint_satisfied,
    h_statistic,
    holder_test_function,
    integral,
    np_test,
    positive_part_integral,
    simulate_minima,
    simulate_ppp,
)
from bbayes.grid import bin_minima


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


def test_grid_function_evaluation_outside_the_unit_interval_raises():
    # a negative x would index the bins from the end, f(-0.6) the bin of 0.4
    f = GridFunction(2, [1.0, 2.0, 3.0, 4.0])
    for x in (-0.1, -0.6, 1.5, math.nan, [0.5, -0.1]):
        with pytest.raises(ValueError, match=r"x must lie in \[0, 1\]"):
            f(x)
    assert f([0.0, 1.0]).tolist() == [1.0, 4.0]


def test_pointwise_lattice_ops_and_equality():
    f = GridFunction(1, np.array([0.0, 2.0]))
    g = GridFunction(2, np.array([1.0, -1.0, 1.0, 3.0]))
    mn = f.pointwise_min(g)
    assert np.array_equal(mn.values, [0.0, -1.0, 1.0, 2.0])
    # refinement-invariant equality
    assert f == f.refine(5)
    assert f != g


def test_equal_grid_functions_hash_alike():
    # __eq__ compares on the finer grid and -0.0 == 0.0, so a set holds one of each equal pair
    pairs = [
        (GridFunction(0, [1.0]), GridFunction(1, [1.0, 1.0])),
        (GridFunction(0, [0.0]), GridFunction(0, [-0.0])),
        (GridFunction(1, [-0.0, 2.0]), GridFunction(3, [0.0, 0.0, -0.0, 0.0, 2.0, 2.0, 2.0, 2.0])),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert len({GridFunction(1, [1.0, 2.0]), GridFunction(1, [2.0, 1.0]), GridFunction(0, [1.0])}) == 3


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
    with pytest.raises(ValueError, match="xs and ys must be 1-d arrays of equal length"):
        PointPattern(1.0, 1.0, np.array([0.5, 0.6]), np.array([0.5]))
    with pytest.raises(ValueError, match="missing '# intensity=<n> ceiling=<y_max>' header"):
        PointPattern.from_csv("x,y\n0.5,0.5\n")
    # a non-finite number is rejected wherever it enters: a NaN x would index no bin, and a NaN y or ceiling
    # would make every comparison with it false
    for args in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, 1.0, [math.nan], [0.5]),
                 (1.0, 1.0, [0.5], [math.nan]), (1.0, 1.0, [0.5], [-math.inf])]:
        with pytest.raises(ValueError):
            PointPattern(*args)
    p = PointPattern(5.0, 2.0, np.array([0.1, 0.9]), np.array([0.5, 1.5]))
    q = PointPattern.from_csv(p.to_csv())
    assert q.intensity == p.intensity and q.ceiling == p.ceiling
    assert np.array_equal(q.xs, p.xs) and np.array_equal(q.ys, p.ys)
    assert q.to_csv() == p.to_csv()


def test_integral_and_distances_exact():
    f = GridFunction(1, np.array([1.0, 3.0]))
    g = GridFunction(1, np.array([2.0, 1.0]))
    assert integral(f) == 2.0
    assert positive_part_integral(f, g) == 1.0
    assert positive_part_integral(g, f) == 0.5


def test_simulate_ppp_points_above_boundary_exactly():
    f = GridFunction(3, np.linspace(0.0, 1.0, 8))
    rng = np.random.default_rng(1)
    for _ in range(50):
        pattern = simulate_ppp(f, 30.0, 2.0, rng)
        assert constraint_satisfied(f, bin_minima(pattern, 3))
        # every bin holds its lowest point, and the ceiling rises to the highest of them
        assert pattern.ys.max() <= pattern.ceiling == max(2.0, bin_minima(pattern, 3).max())


def test_simulate_ppp_count_matches_poisson_moments():
    # bin k's count ~ Poisson(n * (ceiling - f_k)_+ / m), independently of the other bins, so the total is
    # Poisson(n * integral (ceiling - f)_+): means, variances and a covariance within 3 SE; a lowest point above the
    # ceiling, which would raise it, has probability below e^{-7.5} per bin here
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
    # a ceiling that touches f is raised to the highest lowest point, so each bin keeps its lowest point
    touching = simulate_ppp(f, 10.0, 1.0, rng)
    assert np.isfinite(bin_minima(touching, 1)).all() and touching.ceiling == touching.ys.max() > 1.0
    with pytest.raises(ValueError, match="ceiling 0.5 is below max f = 1.0"):
        simulate_ppp(f, 10.0, 0.5, rng)  # it would empty the bins where f is above it
    a = simulate_ppp(f, 50.0, 2.0, np.random.default_rng(7))
    b = simulate_ppp(f, 50.0, 2.0, np.random.default_rng(7))
    assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)


def _buffered_pcg64(seed):
    rng = np.random.default_rng(seed)
    rng.integers(2**32, dtype=np.uint32)  # PCG64 keeps the other 32 bits of its 64-bit draw
    return rng


# every numpy bit generator, and a PCG64 that holds a buffered 32-bit half
_GENERATORS = [np.random.default_rng, _buffered_pcg64] + [
    lambda seed, bit_generator=bit_generator: np.random.Generator(bit_generator(seed))
    for bit_generator in (np.random.MT19937, np.random.SFC64, np.random.Philox, np.random.PCG64DXSM)
]


def _same_state(a, b):
    """Generator states equal key by key (MT19937 and Philox states hold arrays)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("level", [4, 8])
@pytest.mark.parametrize("kind", ["hat", "smooth", "cusp"])
def test_simulate_minima_is_bin_minima_of_simulate_ppp(kind, level):
    # the same draws, reduced with no points: equal minima and equal generator states after, at n with bins whose
    # lowest point lies above the ceiling and with dense ones, at a ceiling that touches max f and one above it, on
    # grids coarser than f, at f's level and finer (a pattern of f refined to that grid, the same law), on every bit
    # generator
    f = holder_test_function(1.0, 1.0, kind, level)
    for make in _GENERATORS:
        for n in (0.5, 30.0, 5000.0):
            for ceiling in (f.max(), f.max() + 0.5):
                for grid_level in (level - 2, level, level + 1):
                    for seed in range(5):
                        a, b = make(seed), make(seed)
                        pattern = simulate_ppp(f.refine(max(grid_level, level)), n, ceiling, a)
                        assert np.array_equal(simulate_minima(f, n, grid_level, b), bin_minima(pattern, grid_level))
                        assert _same_state(a.bit_generator.state, b.bit_generator.state)
    flat = GridFunction.constant(0.5, 3)  # a ceiling at max f: every bin's lowest point lies above it
    a, b = np.random.default_rng(0), np.random.default_rng(0)
    mins = simulate_minima(flat, 30.0, 2, b)
    assert np.array_equal(mins, bin_minima(simulate_ppp(flat, 30.0, 0.5, a), 2)) and np.all(np.isfinite(mins))
    assert a.bit_generator.state == b.bit_generator.state


# simulate_ppp's (xs, ys) digests from the draws that truncated each bin at the ceiling, at n where every bin's
# lowest point lies below the ceiling max f + 0.5: (kind, level, n, seed, sha256 of xs then ys)
_PPP_PINNED = [
    ("cusp", 4, 400.0, 0, "6a480c43a8e631c26fd8100de2da938a523fe6dae0502936b874159267dddcea"),
    ("hat", 5, 1000.0, 1, "5741c060d685a981da36c165c689bbd552b90c68fc9fa6d8dd0960bcfb104788"),
    ("smooth", 3, 200.0, 2, "c60c877290ed52cd7ede10700823449f7465acfe287b23d194c7f40f580fef8a"),
]


@pytest.mark.parametrize("kind, level, n, seed, digest", _PPP_PINNED)
def test_simulate_ppp_keeps_its_points_where_no_lowest_point_passes_the_ceiling(kind, level, n, seed, digest):
    # the ceiling is raised only above a lowest point; below it the draws and the points are the truncated ones
    f = holder_test_function(1.0, 1.0, kind, level)
    pattern = simulate_ppp(f, n, f.max() + 0.5, np.random.default_rng(seed))
    assert pattern.ceiling == f.max() + 0.5 and np.isfinite(bin_minima(pattern, level)).all()
    assert hashlib.sha256(pattern.xs.tobytes() + pattern.ys.tobytes()).hexdigest() == digest


class _StubRng(np.random.Generator):
    """Returns the given exponentials, then itself as the child generator (``default_rng`` passes a Generator
    through), then the given counts of the points above each bin's lowest point and the given x- and y-uniforms, in
    the simulators' draw order."""

    def __init__(self, exponentials, counts, ux, uy):
        super().__init__(np.random.PCG64(0))
        self.draws = [np.array(exponentials, dtype=float), self, np.array(counts), np.array(ux), np.array(uy)]

    def exponential(self, scale, size):
        draw = self.draws.pop(0)
        assert len(self.draws) == 4 and draw.size == size
        return draw

    def integers(self, high):
        assert len(self.draws) == 4
        return self.draws.pop(0)

    def poisson(self, lam):
        assert len(self.draws) == 3
        return self.draws.pop(0)

    def random(self, size):
        draw = self.draws.pop(0)
        assert draw.size == size
        return draw


def test_simulate_ppp_keeps_each_point_in_the_bin_it_was_drawn_in():
    # b + u rounds to b + 1 for u = 1 - 2**-53 (b >= 1): the point would land in bin b + 1, below f there
    f = GridFunction(3, np.array([0.0, 0.0, 1.5, 0.0, 0.0, 0.0, 0.0, 0.0]))
    u = 1.0 - 2.0**-53
    # lowest points at y = 0 in bins 1 and 3 (the others above the ceiling 2, which rises to 4.5 in bin 2), one
    # more point in bin 1
    draws = ([3.0, 0.0, 3.0, 0.0, 3.0, 3.0, 3.0, 3.0], [0, 1, 0, 0, 0, 0, 0, 0], [0.5, u, 0.5, u] + [0.5] * 5, [0.5])
    pattern = simulate_ppp(f, 1.0, 2.0, _StubRng(*draws))
    assert np.floor(pattern.xs * 8).tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 1] and pattern.ceiling == 4.5
    assert pattern.ys.tolist() == [3.0, 0.0, 4.5, 0.0, 3.0, 3.0, 3.0, 3.0, 2.25]
    assert np.all(pattern.ys >= f(pattern.xs)) and constraint_satisfied(f, bin_minima(pattern, 3))
    for grid_level in (1, 3):
        expected = bin_minima(simulate_ppp(f, 1.0, 2.0, _StubRng(*draws)), grid_level)
        assert np.array_equal(simulate_minima(f, 1.0, grid_level, _StubRng(*draws)), expected)


@pytest.mark.parametrize("n, ceiling, bad", [(math.inf, 2.0, "n"), (math.nan, 2.0, "n"), (10.0, math.inf, "ceiling"),
                                             (10.0, math.nan, "ceiling"), (10.0, -math.inf, "ceiling")])
def test_simulators_name_a_non_finite_n_or_ceiling(n, ceiling, bad):
    f = GridFunction(2, np.array([0.0, 0.5, 0.25, 0.75]))
    message = f"{bad} must be (positive and )?finite, got {(n if bad == 'n' else ceiling)!r}"
    with pytest.raises(ValueError, match=message):
        simulate_ppp(f, n, ceiling, np.random.default_rng(0))
    for grid_level in (1, 2, 3) if bad == "n" else ():  # coarser than f, f's level, and finer; no ceiling here
        with pytest.raises(ValueError, match=message):
            simulate_minima(f, n, grid_level, np.random.default_rng(0))


class _RecordingRng:
    """A real generator that records the name and output size of each call made on it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def record(*args, **kwargs):
            out = method(*args, **kwargs)
            self.calls.append((name, np.size(out)))
            return out

        return record


def test_simulate_minima_draws_m_exponentials_and_one_integer_at_any_n():
    # the minima read the lowest points alone: no Poisson count and no uniform, so a cell costs O(m) even at an n
    # whose pattern would hold about 1e15 points; on a grid finer than f's, one exponential per bin of that grid
    f = holder_test_function(1.0, 1.0, "cusp", 8)
    for n in (0.5, 5000.0, 1e15):
        for grid_level, bins in ((4, 256), (8, 256), (9, 512)):
            rng = _RecordingRng(0)
            mins = simulate_minima(f, n, grid_level, rng)
            assert rng.calls == [("exponential", bins), ("integers", 1)], (n, grid_level)
    # the last call, at n = 1e15 on the grid finer than f's: every bin's lowest point is finite, within about m / n
    # of f there
    fine = f.refine(9).values
    assert np.all((fine <= mins) & (mins <= fine + 1e-9))


def test_lowest_point_is_an_exponential_above_f():
    # on bin k, (lowest - f_k) * n / m is Exp(1), with no truncation: the lowest point lies above a height c with
    # probability e^{-T_k}, T_k = (c - f_k) * n / m, and is never +inf
    f = GridFunction(3, np.array([0.0, 0.5, 0.25, 0.75, 1.0, 0.1, 0.6, 0.3]))
    n, ceiling, m, reps = 20.0, 1.5, 8, 4000
    rng = np.random.default_rng(11)
    mins = np.array([simulate_minima(f, n, 3, rng) for _ in range(reps)])
    assert np.isfinite(mins).all()
    t = (mins - f.values) * n / m
    cap = (ceiling - f.values) * n / m
    above = mins > ceiling
    for k in range(m):
        p = math.exp(-cap[k])
        assert abs(above[:, k].mean() - p) <= 3.0 * math.sqrt(p * (1.0 - p) / reps), k
    # the CDF 1 - e^{-t} maps each lowest point to a uniform
    assert stats.kstest(-np.expm1(-t.ravel()), "uniform").pvalue > 0.01


def test_void_probability_identity_single_config():
    # P(no point below g) = exp(-n * integral(g - f)) for g >= f
    f = GridFunction(2, np.zeros(4))
    g = GridFunction(2, np.array([0.1, 0.0, 0.2, 0.1]))
    n = 20.0
    target = math.exp(-n * positive_part_integral(g, f))
    rng = np.random.default_rng(4)
    reps = 3000
    hits = sum(constraint_satisfied(g, simulate_minima(f, n, f.grid_level, rng)) for _ in range(reps))
    p_hat = hits / reps
    se = math.sqrt(target * (1.0 - target) / reps)
    assert abs(p_hat - target) <= 3.0 * se


def test_h_statistic_zero_when_infeasible():
    f0 = GridFunction(0, np.array([0.0]))
    f = GridFunction(0, np.array([0.4]))
    feasible = PointPattern(5.0, 2.0, np.array([0.5]), np.array([1.0]))
    blocked = PointPattern(5.0, 2.0, np.array([0.5]), np.array([0.2]))
    assert h_statistic(f, f0, bin_minima(feasible, 0), 5.0) == pytest.approx(math.exp(5.0 * 0.4))
    assert h_statistic(f, f0, bin_minima(blocked, 0), 5.0) == 0.0


def test_h_statistic_martingale_identity_single_config():
    # E[H(f)] = exp(-n * integral (f0 - f)_+), crossing case
    f0 = GridFunction(1, np.array([0.5, 0.5]))
    f = GridFunction(1, np.array([0.2, 0.7]))
    n = 15.0
    target = math.exp(-n * positive_part_integral(f0, f))
    rng = np.random.default_rng(5)
    reps = 3000
    vals = np.array([h_statistic(f, f0, simulate_minima(f0, n, f0.grid_level, rng), n) for _ in range(reps)])
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - target) <= 3.0 * se


@pytest.mark.parametrize("n", [math.inf, math.nan, 0.0, -1.0])
def test_h_statistic_rejects_a_non_finite_or_nonpositive_n(n):
    f = GridFunction(1, np.array([0.2, 0.7]))
    with pytest.raises(ValueError, match=f"n must be positive and finite, got {n!r}"):
        h_statistic(f, f, np.full(2, np.inf), n)


def test_minima_off_the_function_grid_are_refused():
    # a one-element array would broadcast and pass every f below it; a coarser or finer one is on another grid
    f = GridFunction(2, np.array([0.0, 0.5, 0.25, 0.75]))
    for mins in (np.array([9.0]), np.full(2, 9.0), np.full(8, 9.0)):
        message = rf"minima of shape \({mins.size},\) are not on f's grid, shape \(4,\)"
        for check in (constraint_satisfied, np_test, lambda g, mins: h_statistic(g, g, mins, 5.0)):
            with pytest.raises(ValueError, match=message):
                check(f, mins)
    # f v f0 lies on the finer of the two grids, so H reads the minima there
    coarse, fine = GridFunction(1, np.array([0.2, 0.7])), GridFunction(3, np.zeros(8))
    assert h_statistic(coarse, fine, np.full(8, 1.0), 5.0) == pytest.approx(math.exp(5.0 * 0.45))
    with pytest.raises(ValueError, match=r"minima of shape \(2,\) are not on f's grid, shape \(8,\)"):
        h_statistic(coarse, fine, np.full(2, 1.0), 5.0)
