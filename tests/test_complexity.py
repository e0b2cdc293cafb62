"""Covering, one-sided bracketing and separation functionals, checked against
hand cases, brute-force subset enumeration and the Dijkstra oracle of
``cover_oracle``."""

import itertools
import math
import time

import cover_oracle
import numpy as np
import pytest

from bbayes import (
    FunctionDictionary,
    GridFunction,
    covering_number,
    default_bracket_pool,
    one_sided_bracketing_number,
    positive_part_integral,
    separation_quantity,
)
from bbayes.complexity import (
    UncoverableMemberError,
    covering_number_detailed,
    one_sided_bracketing_number_detailed,
    separation_quantity_detailed,
)


def _const(c):
    return GridFunction.constant(c, 2)


def _random_dict(rng, size, level=2):
    vals = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5], size=(size, 1 << level))
    return FunctionDictionary(tuple(GridFunction(level, v) for v in vals))


def _sup(f, g):
    return float(np.abs(f.values - g.values).max())


# ---------------------------------------------------------------------------
# brute-force oracles


def _brute_covering(dict_, eps):
    members = dict_.members
    n = len(members)
    for size in range(1, n + 1):
        for centers in itertools.combinations(members, size):
            if all(any(_sup(c, f) <= eps for c in centers) for f in members):
                return size
    raise AssertionError("unreachable")


def _admissible(ell, f, delta):
    return bool(np.all(ell.values <= f.values)) and float((f.values - ell.values).mean()) <= delta


def _brute_bracketing(dict_, delta, pool):
    n = len(pool.members)
    for size in range(1, n + 1):
        for sel in itertools.combinations(pool.members, size):
            if all(any(_admissible(ell, f, delta) for ell in sel) for f in dict_.members):
                return size
    return None


def _brute_separation(dict_, f0, n, pool):
    # every nonempty subset of the pool, one bitmask row each, against the (pool, member) coverage matrix
    f = np.stack([g.values for g in dict_.members])
    ell = np.stack([g.values for g in pool.members])
    covers = np.all(ell[:, None, :] <= f[None, :, :], axis=2)
    weights = np.exp(-n * np.maximum(ell - f0.values, 0.0).mean(axis=1))
    subsets = np.arange(1, 1 << len(ell))[:, None] >> np.arange(len(ell)) & 1
    covered = np.all(subsets @ covers > 0, axis=1)
    return float((subsets[covered] @ weights).min()) if covered.any() else math.inf


# ---------------------------------------------------------------------------
# hand cases


def test_covering_number_hand_case():
    d = FunctionDictionary((_const(0.0), _const(0.5), _const(2.0)))
    assert covering_number(d, 0.6) == 2
    assert covering_number(d, 2.0) == 1
    assert covering_number(d, 0.1) == 3


def test_bracketing_number_hand_case():
    d = FunctionDictionary((_const(0.0), _const(1.0)))
    pool = d
    assert one_sided_bracketing_number(d, 0.0, pool) == 2
    assert one_sided_bracketing_number(d, 1.0, pool) == 1


def test_separation_quantity_hand_case():
    d = FunctionDictionary((_const(-1.0), _const(-0.2)))
    pool = default_bracket_pool(d)
    n = 3.0
    # below f0 = 0 both candidate brackets carry weight one; a single bracket suffices
    assert separation_quantity(d, _const(0.0), n, pool) == pytest.approx(1.0)
    # f0 = -2: the cheapest cover is the single bracket at -1
    assert separation_quantity(d, _const(-2.0), n, pool) == pytest.approx(math.exp(-n * 1.0))


# ---------------------------------------------------------------------------
# the solver against brute force and the oracle


def test_exact_covering_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(25):
        d = _random_dict(rng, int(rng.integers(2, 8)))
        eps = float(rng.uniform(0.2, 1.5))
        res = covering_number_detailed(d, eps)
        assert int(res.value) == _brute_covering(d, eps)
        # the reported selection really is a cover of the stated size
        centers = [d.members[i] for i in res.selection]
        assert len(centers) == int(res.value)
        assert all(any(_sup(c, f) <= eps for c in centers) for f in d.members)


def test_exact_bracketing_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(25):
        d = _random_dict(rng, int(rng.integers(2, 7)))
        pool = default_bracket_pool(d)
        delta = float(rng.uniform(0.0, 1.0))
        expected = _brute_bracketing(d, delta, pool)
        if expected is None:
            with pytest.raises(UncoverableMemberError):
                one_sided_bracketing_number(d, delta, pool)
        else:
            res = one_sided_bracketing_number_detailed(d, delta, pool)
            assert int(res.value) == expected


def test_exact_separation_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(15):
        d = _random_dict(rng, int(rng.integers(2, 6)))
        pool = default_bracket_pool(d)
        f0 = GridFunction(2, rng.choice([-0.5, 0.0, 0.5], size=4))
        n = float(rng.uniform(0.5, 4.0))
        res = separation_quantity_detailed(d, f0, n, pool)
        assert res.value == pytest.approx(_brute_separation(d, f0, n, pool))


def test_unit_spaced_constants_need_a_ball_each():
    members = tuple(_const(float(c)) for c in range(21))
    res = covering_number_detailed(FunctionDictionary(members), 0.5)
    assert res.value == 21.0 and res.selection == tuple(range(21))


def test_twenty_member_covering_matches_the_oracle():
    rng = np.random.default_rng(20)
    d = FunctionDictionary(tuple(GridFunction(2, v) for v in rng.uniform(-1.0, 1.0, size=(20, 4))))
    eps = 0.4
    res = covering_number_detailed(d, eps)
    assert res.value == cover_oracle.covering(d, eps)
    centers = [d.members[i] for i in res.selection]
    assert len(centers) == int(res.value)
    assert all(any(_sup(c, f) <= eps for c in centers) for f in d.members)


def test_sixty_members_are_covered_optimally_and_fast():
    # too large for the oracle: 60 members, a 1,803-row pool
    d = FunctionDictionary(
        tuple(GridFunction(3, v) for v in np.random.default_rng(0).uniform(-1, 1, (60, 8)).round(1))
    )
    pool = default_bracket_pool(d)
    start = time.perf_counter()
    res = one_sided_bracketing_number_detailed(d, 0.3, pool)
    assert time.perf_counter() - start < 1.0
    assert res.value == 29.0 and len(res.selection) == 29
    brackets = [pool.members[i] for i in res.selection]
    assert all(any(_admissible(ell, f, 0.3) for ell in brackets) for f in d.members)
    f0 = GridFunction.constant(0.0, 3)
    sep = separation_quantity_detailed(d, f0, 3.0, pool)
    brackets = [pool.members[i] for i in sep.selection]
    assert all(any(bool(np.all(ell.values <= f.values)) for ell in brackets) for f in d.members)
    assert sep.value == pytest.approx(sum(math.exp(-3.0 * positive_part_integral(ell, f0)) for ell in brackets))
    assert sep.value <= 7.8228


def test_separation_at_large_n_matches_the_oracle():
    # weights exp(-n * excess) span many orders of magnitude at n = 25..100; a solve scaled by the largest weight
    # stops above the optimum on about a third of these instances
    rng = np.random.default_rng(25)
    for _ in range(40):
        d = _random_dict(rng, int(rng.integers(2, 9)))
        pool = default_bracket_pool(d)
        f0 = GridFunction(2, rng.choice([-0.5, 0.0, 0.5], size=4))
        n = float(rng.uniform(25.0, 100.0))
        assert separation_quantity(d, f0, n, pool) == pytest.approx(cover_oracle.separation(d, f0, n, pool))


# ---------------------------------------------------------------------------
# validation and error paths


def test_dictionary_validation():
    with pytest.raises(ValueError):
        FunctionDictionary(())
    with pytest.raises(ValueError):
        FunctionDictionary((GridFunction.constant(0.0, 1), GridFunction.constant(0.0, 2)))


def test_argument_validation():
    d = FunctionDictionary((_const(0.0),))
    with pytest.raises(ValueError):
        covering_number(d, 0.0)
    with pytest.raises(ValueError):
        one_sided_bracketing_number(d, -0.1, d)
    with pytest.raises(ValueError, match="delta must be nonnegative"):
        one_sided_bracketing_number(d, math.nan, d)
    with pytest.raises(ValueError):
        separation_quantity(d, _const(0.0), 0.0, d)
    for n in (math.inf, math.nan):
        with pytest.raises(ValueError, match="n must be positive and finite"):
            separation_quantity(d, _const(0.0), n, d)


def test_uncoverable_member():
    d = FunctionDictionary((_const(0.0),))
    pool = FunctionDictionary((_const(1.0),))  # strictly above: no lower bracket
    with pytest.raises(UncoverableMemberError):
        one_sided_bracketing_number(d, 5.0, pool)
    with pytest.raises(UncoverableMemberError):
        separation_quantity(d, _const(0.0), 1.0, pool)


def test_default_bracket_pool_contents():
    a = GridFunction(1, np.array([0.0, 1.0]))
    b = GridFunction(1, np.array([1.0, 0.0]))
    pool = default_bracket_pool(FunctionDictionary((a, b)))
    assert len(pool) == 3
    assert GridFunction(1, np.array([0.0, 0.0])) in pool.members
    # duplicates collapse: min of comparable members adds nothing
    c = GridFunction(1, np.array([0.0, 0.5]))
    assert len(default_bracket_pool(FunctionDictionary((a, c)))) == 2
