"""Acceptance gate: nine end-to-end criteria, one test (and one pass/fail
line under ``pytest -v``) per criterion, and the bin-minima MLE's rate on
criterion 7's own cells.

Identity checks are exact Monte Carlo comparisons at 3 standard errors;
exponent checks compare fitted log-log slopes to their references at the
stated tolerances.  All runs are seeded and deterministic.
"""

import math

import cover_oracle
import numpy as np
import pytest
from click.testing import CliRunner

from bbayes import (
    CoefficientDistribution,
    FinitePrior,
    FunctionDictionary,
    GridFunction,
    PriorSpec,
    RateStudyConfig,
    WaveletCoefficients,
    build_prior,
    check_posterior_below_mle,
    default_bracket_pool,
    h_statistic,
    haar_synthesis,
    holder_test_function,
    integral,
    mle_piecewise_constant,
    np_test,
    positive_part_integral,
    posterior_mass,
    run_rate_study,
    run_small_ball_study,
    simulate_minima,
    simulate_ppp,
)
from bbayes.cli import main as cli_main
from bbayes.complexity import (
    covering_number,
    one_sided_bracketing_number,
    separation_quantity,
)
from bbayes.grid import bin_minima
from bbayes.harness import calibrate_ceiling
from bbayes.reporting import fit_loglog_slope
from bbayes.posterior import log_posterior_weight, sample_posterior

REPS = 10_000


def _report(name: str, detail: str) -> None:
    print(f"{name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# 1. void-probability identity


def test_criterion_1_void_probability_identity():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(10):
        level = int(rng.integers(2, 5))
        m = 1 << level
        f = GridFunction(level, rng.uniform(0.0, 1.0, size=m))
        n = float(rng.uniform(5.0, 200.0))
        # scale the gap so the target probability stays in a testable range
        gap = rng.uniform(0.2, 1.0, size=m)
        gap *= rng.uniform(0.1, 2.5) / (n * gap.mean())
        g = GridFunction(level, f.values + gap)
        target = math.exp(-n * (integral(g) - integral(f)))
        ceiling = g.max() + 0.3
        hits = sum(np_test(g, simulate_minima(f, n, ceiling, f.grid_level, rng)) for _ in range(REPS))
        freq = hits / REPS
        se = math.sqrt(target * (1.0 - target) / REPS)
        worst = max(worst, abs(freq - target) / se)
        assert abs(freq - target) <= 3.0 * se
    _report("criterion 1 (void-probability identity)", f"10 configs, worst deviation {worst:.2f} SE")


# ---------------------------------------------------------------------------
# 2. martingale identity of the H statistic


def test_criterion_2_martingale_identity():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for case in range(10):
        level = int(rng.integers(2, 5))
        m = 1 << level
        f0 = GridFunction(level, rng.uniform(0.0, 1.0, size=m))
        n = float(rng.uniform(5.0, 100.0))
        # five strictly-below cases, five crossing cases; sized so that both
        # the target and the MC variance stay in a testable range
        shift = rng.uniform(0.3, 1.5) / n
        if case < 5:
            delta = -rng.uniform(0.2, 1.0, size=m)
        else:
            delta = rng.uniform(-1.0, 1.0, size=m)
        f = GridFunction(level, f0.values + delta * shift / np.abs(delta).mean())
        target = math.exp(-n * positive_part_integral(f0, f))
        ceiling = max(f.max(), f0.max()) + 0.3
        vals = np.array(
            [h_statistic(f, f0, simulate_minima(f0, n, ceiling, f0.grid_level, rng), n) for _ in range(REPS)]
        )
        # f strictly below f0 makes H deterministic: allow float noise there
        se = max(float(vals.std(ddof=1) / math.sqrt(REPS)), 1e-13)
        worst = max(worst, abs(vals.mean() - target) / se)
        assert abs(vals.mean() - target) <= 3.0 * se
    _report("criterion 2 (martingale identity)", f"10 configs, worst deviation {worst:.2f} SE")


# ---------------------------------------------------------------------------
# 3. two-atom posterior closed form


def test_criterion_3_two_atom_posterior():
    f0 = holder_test_function(1.0, 1.0, "cusp", 3)
    members = [f0, f0.shift(-0.1)]
    prior = FinitePrior(members)
    reps = 20
    lines = []
    for n in (10.0, 50.0, 100.0):
        target = 1.0 / (1.0 + math.exp(-0.1 * n))
        for sampler in ("importance", "mcmc"):
            estimates = np.empty(reps)
            for rep in range(reps):
                rng = np.random.default_rng(np.random.SeedSequence((1003, int(n), rep)))
                pattern = simulate_ppp(f0, n, f0.max() + 1.0, rng)
                ens = sample_posterior(prior, pattern, sampler, 4000, rng)
                estimates[rep] = posterior_mass(ens, np.all(ens.values == members[0].values, axis=1))
            se = float(estimates.std(ddof=1) / math.sqrt(reps))
            dev = abs(float(estimates.mean()) - target)
            assert dev <= 3.0 * max(se, 1e-4), (n, sampler, estimates.mean(), target, se)
            lines.append(f"n={n:.0f}/{sampler}: {dev / max(se, 1e-4):.2f} SE")
    _report("criterion 3 (two-atom posterior)", "; ".join(lines))


# ---------------------------------------------------------------------------
# 4. feasibility and MLE domination


def test_criterion_4_feasibility_and_mle_domination():
    n = 200.0
    spec = PriorSpec(
        variant="wavelet_series",
        alpha=1.0,
        dist=CoefficientDistribution("gaussian"),
        j_max=3,
        grid_level=4,  # 16 bins: the matching piecewise-constant class
    )
    prior = build_prior(spec)
    f0 = holder_test_function(1.0, 1.0, "cusp", 4)
    ceiling = 5.0
    total_samples = 0
    for rep in range(100):
        rng = np.random.default_rng(np.random.SeedSequence((1004, rep)))
        pattern = simulate_ppp(f0, n, ceiling, rng)
        ens = sample_posterior(prior, pattern, "mcmc", 2000, rng)
        assert np.all(ens.values <= bin_minima(pattern, 4)), f"replicate {rep}: infeasible posterior sample"
        mle = mle_piecewise_constant(pattern, 16, cap=ceiling)
        ok, violations = check_posterior_below_mle(ens, mle)
        assert ok, f"replicate {rep}: {violations[:3]}"
        total_samples += len(ens)
    _report(
        "criterion 4 (feasibility and MLE domination)",
        f"100 replicates, {total_samples} posterior samples, zero violations",
    )


# ---------------------------------------------------------------------------
# 5. one-sided test errors


def test_criterion_5_np_test_errors():
    rng = np.random.default_rng(1005)
    lines = []
    for _ in range(3):
        level = int(rng.integers(2, 4))
        m = 1 << level
        f = GridFunction(level, rng.uniform(0.0, 0.8, size=m))
        n = float(rng.uniform(10.0, 150.0))
        gap = rng.uniform(0.2, 1.0, size=m)
        gap *= rng.uniform(0.3, 2.0) / (n * gap.mean())
        g = GridFunction(level, f.values + gap)
        h = GridFunction(level, g.values + rng.uniform(0.0, 0.5, size=m))
        ceiling = h.max() + 0.3
        # type I: truth f <= g, acceptance frequency must match the void probability
        target = math.exp(-n * (integral(g) - integral(f)))
        accept = sum(np_test(g, simulate_minima(f, n, ceiling, f.grid_level, rng)) for _ in range(REPS))
        se = math.sqrt(target * (1.0 - target) / REPS)
        assert abs(accept / REPS - target) <= 3.0 * se
        # type II against h >= g is exactly zero
        missed = sum(1 - np_test(g, simulate_minima(h, n, ceiling, h.grid_level, rng)) for _ in range(REPS))
        assert missed == 0
        lines.append(f"typeI dev {abs(accept / REPS - target) / se:.2f} SE, typeII 0/{REPS}")
    _report("criterion 5 (one-sided test errors)", "; ".join(lines))


# ---------------------------------------------------------------------------
# 6. complexity oracles and the separation bound


def _random_dictionary(rng):
    level = 2
    size = int(rng.integers(2, 13))
    vals = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5], size=(size, 1 << level))
    return FunctionDictionary(tuple(GridFunction(level, v) for v in vals))


ORACLE_POOL_LIMIT = 20  # the Dijkstra oracle's states grow as 2**members; larger pools are drawn and skipped


def test_criterion_6_complexity_oracles_and_separation_bound():
    rng = np.random.default_rng(1006)
    trials = 50
    done = 0
    while done < trials:
        d = _random_dictionary(rng)
        pool = default_bracket_pool(d)
        if len(pool) > ORACLE_POOL_LIMIT:
            continue
        eps = float(rng.uniform(0.3, 1.5))
        delta = float(rng.uniform(0.2, 1.5))
        n = float(rng.uniform(0.5, 5.0))
        f0 = GridFunction(2, rng.choice([-0.5, 0.0, 0.5], size=4))
        got = {
            "covering": covering_number(d, eps).value,
            "bracketing": one_sided_bracketing_number(d, delta, pool).value,
            "separation": separation_quantity(d, f0, n, pool).value,
        }
        want = {
            "covering": cover_oracle.covering(d, eps),
            "bracketing": cover_oracle.bracketing(d, delta, pool),
            "separation": cover_oracle.separation(d, f0, n, pool),
        }
        assert got["covering"] == want["covering"], (got, want)
        assert got["bracketing"] == want["bracketing"], (got, want)
        assert got["separation"] == pytest.approx(want["separation"]), (got, want)
        done += 1

    # expected posterior mass of a member subset is bounded by the separation
    # quantity of that subset (prior-free), checked by exact enumeration
    worst = -math.inf
    for config in range(20):
        crng = np.random.default_rng(np.random.SeedSequence((1006, config)))
        level = 2
        f0 = GridFunction(level, crng.uniform(0.2, 0.8, size=4))
        size = int(crng.integers(3, 7))
        members = [GridFunction(level, f0.values + crng.uniform(-0.6, 0.4, size=4)) for _ in range(size)]
        members.append(f0.shift(-0.3))  # guarantees prior mass below f0
        n = float(crng.uniform(2.0, 25.0))
        picks = crng.uniform(size=len(members)) < 0.5
        if not picks.any():
            picks[0] = True
        subset = [m for m, take in zip(members, picks) if take]
        sub_dict = FunctionDictionary(tuple(subset))
        s_value = separation_quantity(
            sub_dict, f0, n, default_bracket_pool(sub_dict)
        ).value
        ceiling = max(f.max() for f in members + [f0]) + 0.3
        reps = 200
        masses = np.empty(reps)
        for rep in range(reps):
            pattern = simulate_ppp(f0, n, ceiling, crng)
            lw = np.array([log_posterior_weight(f, pattern) for f in members])
            w = np.exp(lw - lw[np.isfinite(lw)].max())
            w[~np.isfinite(lw)] = 0.0
            w /= w.sum()
            masses[rep] = float(w[picks].sum())
        se = float(masses.std(ddof=1) / math.sqrt(reps))
        slack = (float(masses.mean()) - s_value) / max(se, 1e-12)
        worst = max(worst, slack)
        assert masses.mean() <= s_value + 3.0 * max(se, 1e-12), (config, masses.mean(), s_value)
    _report(
        "criterion 6 (complexity oracles)",
        f"{trials} trials equal the oracle; separation bound worst normalized slack {worst:.2f}",
    )


# ---------------------------------------------------------------------------
# 7. contraction exponents


N_GRID = (200.0, 500.0, 1000.0, 2000.0, 5000.0)


_CRITERION_7 = [
    (
        "truncated beta=1",
        RateStudyConfig(
            prior=PriorSpec(
                variant="truncated_wavelet",
                dist=CoefficientDistribution("gaussian"),
                j_cap=5,
                grid_level=8,
            ),
            f0_beta=1.0,
            f0_R=1.0,
            f0_kind="smooth",
            n_grid=N_GRID,
            replicates=20,
            sampler="exact",
            budget=1000,
            seed=101,
        ),
    ),
    (
        "brownian beta=1",
        RateStudyConfig(
            prior=PriorSpec(variant="brownian_start", grid_level=8),
            f0_beta=1.0,
            f0_R=1.0,
            f0_kind="hat",
            n_grid=N_GRID,
            replicates=20,
            sampler="mcmc",
            budget=60_000,
            seed=102,
        ),
    ),
    (
        "laplace wavelet alpha=2 beta=1",
        RateStudyConfig(
            prior=PriorSpec(
                variant="wavelet_series",
                alpha=2.0,
                dist=CoefficientDistribution("laplace"),
                j_max=6,
                grid_level=8,
            ),
            f0_beta=1.0,
            f0_R=2.0,
            f0_kind="hat",
            n_grid=N_GRID,
            replicates=20,
            sampler="mcmc",
            budget=40_000,
            seed=103,
        ),
    ),
]


@pytest.mark.parametrize("label,cfg", _CRITERION_7)
def test_criterion_7_contraction_exponents(label, cfg):
    report = run_rate_study(cfg, threads=4)
    assert report.passed, (label, report.slope, report.theory)
    _report(
        f"criterion 7 ({label})",
        f"slope {report.slope:.3f} vs theory {report.theory:.3f} (tol {report.tol})",
    )


def _best_mle_errors(cfg):
    # criterion 7's own cells with no sampler: each cell's minima drawn as its rate study draws them, folded to every
    # level l <= grid and capped at the ceiling (mle_piecewise_constant's MLE_l); per n, the best level's median
    # over the replicates of the integral of |MLE_l - f0|
    f0, grid, seed = cfg.f0(), cfg.prior.grid_level, cfg.seed
    ceiling_rng = np.random.default_rng(np.random.SeedSequence((seed, 0xCE11)))  # the study's own, as _run_cells
    ceiling = calibrate_ceiling(build_prior(cfg.prior), f0, ceiling_rng)
    best = []
    for i_n, n in enumerate(cfg.n_grid):
        rngs = [np.random.default_rng(np.random.SeedSequence((seed, i_n, rep))) for rep in range(cfg.replicates)]
        mins = np.stack([simulate_minima(f0, n, ceiling, grid, rng) for rng in rngs])
        mle = [np.minimum(mins.reshape(len(mins), 1 << l, -1).min(axis=2), ceiling) for l in range(grid + 1)]
        best.append(min(np.median(np.abs(np.repeat(v, 1 << (grid - l), axis=1) - f0.values).mean(axis=1))
                        for l, v in enumerate(mle)))
    return best


@pytest.mark.parametrize("label,cfg", _CRITERION_7)
def test_criterion_7_cells_give_the_best_mle_the_minimax_rate(label, cfg):
    # the frequentist reference on the slope gate's own cells: the bin-minima MLE at its best level reaches
    # n^{-1/2}, so the simulator and the f0 kinds carry the rate that the posteriors are gated against
    slope, _ = fit_loglog_slope(cfg.n_grid, _best_mle_errors(cfg))
    assert abs(slope + 0.5) <= 0.1, (label, slope)


# ---------------------------------------------------------------------------
# 8. small-ball exponents


def _weierstrass_target(c, beta, j_max, grid_level):
    detail = tuple(np.full(1 << j, c * 2.0 ** (-j * (beta + 0.5))) for j in range(j_max + 1))
    return haar_synthesis(WaveletCoefficients(0.0, detail), grid_level)


def test_criterion_8_small_ball_exponents():
    # gaussian wavelet alpha = beta = 1, centered ball: slope 1 +- 0.3
    spec = PriorSpec(
        variant="wavelet_series",
        alpha=1.0,
        dist=CoefficientDistribution("gaussian"),
        j_max=6,
        grid_level=8,
    )
    report = run_small_ball_study(
        spec,
        GridFunction.constant(0.0, 8),
        (0.7, 0.6, 0.5, 0.42, 0.36, 0.3),
        beta=1.0,
        tol=0.3,
    )
    assert report.passed, (report.slope, report.theory)

    # heavy-tail ordering at alpha = 1, beta = 1/2: laplace decenters cheaper
    # than gaussian against a target that is rough at every level
    target = _weierstrass_target(1.4, 0.5, 4, 8)
    slopes = {}
    for kind in ("gaussian", "laplace"):
        spec_k = PriorSpec(
            variant="wavelet_series",
            alpha=1.0,
            dist=CoefficientDistribution(kind),
            j_max=4,
            grid_level=8,
        )
        slopes[kind] = run_small_ball_study(
            spec_k,
            target,
            (1.7, 1.5, 1.3, 1.15, 1.0),
        ).slope
    assert slopes["laplace"] < slopes["gaussian"], slopes

    # Brownian motion: slope 2 +- 0.3 on a fine grid
    brownian = run_small_ball_study(
        PriorSpec(variant="brownian_start", grid_level=12),
        GridFunction.constant(0.0, 12),
        (1.0, 0.7, 0.5, 0.35, 0.25),
        beta=1.0,
        tol=0.3,
    )
    assert brownian.passed, (brownian.slope, brownian.theory)
    _report(
        "criterion 8 (small-ball exponents)",
        f"gaussian {report.slope:.3f} vs 1; laplace {slopes['laplace']:.3f} < gaussian "
        f"{slopes['gaussian']:.3f}; brownian {brownian.slope:.3f} vs 2",
    )


# ---------------------------------------------------------------------------
# 9. CLI determinism


RATE_CFG = """
prior.variant = brownian_start
prior.grid_level = 4
f0.kind = cusp
n_grid = 5,10,20,40
replicates = 10
budget = 800
seed = 4
slope_tol = 0.9
"""

SMALL_BALL_CFG = """
prior.variant = truncated_wavelet
prior.grid_level = 4
prior.j_cap = 2
prior.dist.kind = gaussian
eps_grid = 2.0,1.5,1.0
"""

DECAY_CFG = """
prior.variant = brownian_start
prior.grid_level = 4
f0.kind = cusp
r = 0.3
n_grid = 5,20
replicates = 4
budget = 600
seed = 4
"""


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    prior_file = tmp_path / "prior.cfg"
    prior_file.write_text("variant = brownian_start\ngrid_level = 4\n")
    for name, text in (("rate.cfg", RATE_CFG), ("sb.cfg", SMALL_BALL_CFG), ("dc.cfg", DECAY_CFG)):
        (tmp_path / name).write_text(text)
    dict_file = tmp_path / "dict.csv"
    dict_file.write_text("".join(GridFunction.constant(c, 2).to_csv() for c in (0.0, 0.5, 2.0)))
    sim = tmp_path / "sim0"
    runner.invoke(
        cli_main,
        ["simulate", "--n", "30", "--kind", "cusp", "--grid-level", "4", "--seed", "1", "--out", str(sim)],
        catch_exceptions=False,
    )
    commands = {
        "simulate": ["simulate", "--n", "30", "--kind", "cusp", "--grid-level", "4", "--seed", "6"],
        "posterior": ["posterior", "--prior", str(prior_file), "--pattern", str(sim / "pattern.csv"),
                      "--sampler", "mcmc", "--budget", "2000", "--seed", "6"],
        "mle": ["mle", "--pattern", str(sim / "pattern.csv"), "--bins", "8"],
        "complexity": ["complexity", "--dict", str(dict_file), "--quantity", "covering", "--eps", "0.6"],
        "rate-study": ["rate-study", "--config", str(tmp_path / "rate.cfg")],
        "small-ball": ["small-ball", "--config", str(tmp_path / "sb.cfg")],
        "decay-study": ["decay-study", "--config", str(tmp_path / "dc.cfg")],
    }
    checked = 0
    for name, args in commands.items():
        outputs = []
        for run in ("x", "y"):
            out = tmp_path / f"{name}-{run}"
            res = runner.invoke(cli_main, args + ["--out", str(out)])
            assert res.exit_code in (0, 2), (name, res.output)
            outputs.append(out)
        first, second = outputs
        files = sorted(p.name for p in first.iterdir())
        assert files, name
        for fname in files:
            assert (first / fname).read_bytes() == (second / fname).read_bytes(), (name, fname)
            checked += 1
    _report("criterion 9 (CLI determinism)", f"{len(commands)} commands, {checked} byte-identical artifacts")
