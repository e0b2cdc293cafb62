"""End-to-end command-line checks: the simulate/posterior/mle chain, study
subcommands from flat config files, byte-identical reruns and exit codes."""

import ast
import json

import numpy as np
import pytest
from click.testing import CliRunner

from bbayes import (
    FunctionDictionary,
    GridFunction,
    PointPattern,
    build_prior,
    covering_number,
    mle_lipschitz,
)
from bbayes.cli import main
from bbayes.posterior import sample_posterior
from bbayes.priors import parse_prior_config


@pytest.fixture
def runner():
    return CliRunner()


def _run(runner, args):
    return runner.invoke(main, args, catch_exceptions=False)


def test_simulate_outputs_and_rerun_identical(runner, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = _run(runner, ["simulate", "--n", "50", "--kind", "cusp", "--grid-level", "4",
                            "--seed", "3", "--out", str(out)])
        assert res.exit_code == 0
    assert (a / "pattern.csv").read_bytes() == (b / "pattern.csv").read_bytes()
    assert (a / "f0.csv").read_bytes() == (b / "f0.csv").read_bytes()
    pattern = PointPattern.from_csv((a / "pattern.csv").read_text())
    f0 = GridFunction.from_csv((a / "f0.csv").read_text())
    assert pattern.intensity == 50.0
    assert np.all(f0(pattern.xs) <= pattern.ys)


def test_posterior_and_mle_chain(runner, tmp_path):
    sim = tmp_path / "sim"
    res = _run(runner, ["simulate", "--n", "30", "--kind", "cusp", "--grid-level", "4",
                        "--seed", "1", "--out", str(sim)])
    assert res.exit_code == 0
    prior_file = tmp_path / "prior.cfg"
    prior_file.write_text("variant = brownian_start\ngrid_level = 4\n")
    for sampler in ("importance", "mcmc"):
        out = tmp_path / sampler
        res = _run(runner, ["posterior", "--prior", str(prior_file), "--pattern", str(sim / "pattern.csv"),
                            "--sampler", sampler, "--budget", "2000", "--f0", str(sim / "f0.csv"),
                            "--seed", "2", "--out", str(out)])
        assert res.exit_code == 0
        summary = (out / "ensemble_summary.csv").read_text()
        assert summary.splitlines()[1] == "integral,l1_to_f0,weight"
        assert (out / "ensemble.flat").exists()
        # same seed, same bytes
        out2 = tmp_path / (sampler + "2")
        _run(runner, ["posterior", "--prior", str(prior_file), "--pattern", str(sim / "pattern.csv"),
                      "--sampler", sampler, "--budget", "2000", "--f0", str(sim / "f0.csv"),
                      "--seed", "2", "--out", str(out2)])
        assert (out / "ensemble_summary.csv").read_bytes() == (out2 / "ensemble_summary.csv").read_bytes()
    mle_out = tmp_path / "mle"
    res = _run(runner, ["mle", "--pattern", str(sim / "pattern.csv"), "--bins", "8", "--out", str(mle_out)])
    assert res.exit_code == 0
    fhat = GridFunction.from_csv((mle_out / "mle.csv").read_text())
    pattern = PointPattern.from_csv((sim / "pattern.csv").read_text())
    assert np.all(fhat(pattern.xs) <= pattern.ys)
    # the cone-envelope MLE, capped at the pattern's ceiling, on its default grid 8 and on a given one
    for extra, level in (([], 8), (["--grid-level", "3"], 3)):
        lip_out = tmp_path / f"mle-lip-{level}"
        res = _run(runner, ["mle", "--pattern", str(sim / "pattern.csv"), "--lip", "2", *extra, "--out", str(lip_out)])
        assert res.exit_code == 0
        fhat = GridFunction.from_csv((lip_out / "mle.csv").read_text())
        assert fhat.grid_level == level and fhat == mle_lipschitz(pattern, 2.0, pattern.ceiling, level)
    res = runner.invoke(main, ["mle", "--pattern", str(sim / "pattern.csv"),
                               "--bins", "8", "--lip", "1.0", "--out", str(mle_out)])
    assert res.exit_code == 1  # exactly one of --lip/--bins


def test_posterior_bad_prior_key_is_usage_error(runner, tmp_path):
    _run(runner, ["simulate", "--n", "20", "--grid-level", "4", "--seed", "1", "--out", str(tmp_path)])
    prior = tmp_path / "prior.cfg"
    prior.write_text("variant = brownian_start\ngird_level = 5\n")
    out = tmp_path / "post"
    res = runner.invoke(
        main, ["posterior", "--prior", str(prior), "--pattern", str(tmp_path / "pattern.csv"), "--out", str(out)]
    )
    assert res.exit_code == 2  # a usage error, not a traceback
    assert "gird_level" in res.output
    assert not out.exists()


def test_posterior_exact_sampler(runner, tmp_path):
    # 'exact' is a posterior --sampler choice; on a prior that it does not apply to it is a usage error
    _run(runner, ["simulate", "--n", "30", "--kind", "cusp", "--grid-level", "4", "--seed", "1",
                  "--out", str(tmp_path)])
    args = ["posterior", "--pattern", str(tmp_path / "pattern.csv"), "--sampler", "exact", "--budget", "300"]
    truncated, brownian = tmp_path / "truncated.cfg", tmp_path / "brownian.cfg"
    truncated.write_text("variant = truncated_wavelet\ngrid_level = 4\nj_cap = 2\ndist.kind = gaussian\n")
    brownian.write_text("variant = brownian_start\ngrid_level = 4\n")
    res = _run(runner, args + ["--prior", str(truncated), "--out", str(tmp_path / "t")])
    assert res.exit_code == 0
    assert "'sampler': 'exact'" in res.output and (tmp_path / "t" / "ensemble.flat").exists()
    # the level weights are echoed as plain floats under any numpy, never as np.float64(...) reprs
    assert "np.float64" not in res.output
    meta = ast.literal_eval(res.output.split("(meta: ", 1)[1].rstrip().removesuffix(")"))
    ens = sample_posterior(build_prior(parse_prior_config(truncated.read_text())),
                           PointPattern.from_csv((tmp_path / "pattern.csv").read_text()), "exact", 300,
                           np.random.default_rng(0))
    assert ens.meta == meta and len(meta["level_probabilities"]) == 3
    floats = [x for key in ("level_log_weights", "level_probabilities") for x in ens.meta[key]]
    assert all(type(x) is float for x in floats)
    res = runner.invoke(main, args + ["--prior", str(brownian), "--out", str(tmp_path / "b")])
    assert res.exit_code == 2
    assert "needs truncated_wavelet with gaussian coefficients" in res.output
    assert not (tmp_path / "b").exists()


def test_posterior_degenerate_exits_one(runner, tmp_path):
    sim = tmp_path / "sim"
    _run(runner, ["simulate", "--n", "400", "--kind", "cusp", "--grid-level", "4",
                  "--seed", "1", "--out", str(sim)])
    prior_file = tmp_path / "prior.cfg"
    prior_file.write_text("variant = brownian_start\ngrid_level = 4\n")
    res = runner.invoke(main, ["posterior", "--prior", str(prior_file),
                               "--pattern", str(sim / "pattern.csv"), "--sampler", "importance",
                               "--budget", "2", "--seed", "0", "--out", str(tmp_path / "o")])
    assert res.exit_code == 1


def test_complexity_json_matches_library(runner, tmp_path):
    members = tuple(GridFunction.constant(c, 2) for c in (0.0, 0.5, 2.0))
    dict_file = tmp_path / "dict.csv"
    dict_file.write_text("".join(f.to_csv() for f in members))
    out = tmp_path / "cx"
    res = _run(runner, ["complexity", "--dict", str(dict_file), "--quantity", "covering",
                        "--eps", "0.6", "--out", str(out)])
    assert res.exit_code == 0
    report = json.loads((out / "complexity.json").read_text())
    assert report["value"] == covering_number(FunctionDictionary(members), 0.6).value
    assert report == {"quantity": "covering", "value": 2.0}
    f0_file = tmp_path / "f0.csv"
    f0_file.write_text(GridFunction.constant(0.0, 2).to_csv())
    res = _run(runner, ["complexity", "--dict", str(dict_file), "--quantity", "separation",
                        "--n", "2.0", "--f0", str(f0_file), "--out", str(out)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["complexity", "--dict", str(dict_file), "--quantity", "covering",
                               "--out", str(out)])
    assert res.exit_code == 1  # --eps missing
    pool_file = tmp_path / "pool.csv"
    pool_file.write_text(GridFunction.constant(1.0, 2).to_csv())  # above the members at 0 and 0.5
    res = runner.invoke(main, ["complexity", "--dict", str(dict_file), "--quantity", "bracketing", "--delta", "5",
                               "--pool", str(pool_file), "--out", str(tmp_path / "unc")])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)  # an error line, not a traceback
    assert res.output == "Error: members [0, 1] have no admissible bracket in the pool\n"
    assert not (tmp_path / "unc").exists()


@pytest.mark.parametrize(
    "args,named",
    [
        (["simulate", "--n", "0"], "--n"),
        (["simulate", "--n", "5", "--grid-level", "-1"], "--grid-level"),
        (["simulate", "--n", "5", "--seed", "-1"], "--seed"),
        (["simulate", "--n", "5", "--beta", "0.5"], "smooth kind requires beta = 1"),
        (["simulate", "--n", "200", "--kind", "cusp", "--grid-level", "4", "--ceiling", "0.2"],
         "--ceiling: ceiling 0.2 is below max f = 0.46875"),
        (["mle", "--pattern", "{sim}/pattern.csv", "--lip", "-1"], "--lip"),
        (["mle", "--pattern", "{sim}/pattern.csv", "--bins", "3"], "bins must be a power of two"),
        (["posterior", "--prior", "{prior}", "--pattern", "{sim}/pattern.csv", "--budget", "0"], "--budget"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "covering", "--eps", "-1"], "--eps"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "bracketing", "--delta", "-1"], "--delta"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "separation", "--n", "0", "--f0", "{sim}/f0.csv"],
         "--n"),
        (["rate-study", "--config", "{prior}", "--threads", "0"], "--threads"),
        # an option that the command would not read
        (["mle", "--pattern", "{sim}/pattern.csv", "--bins", "2", "--grid-level", "3"], "--grid-level"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "bracketing", "--delta", "1", "--eps", "1"], "--eps"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "covering", "--eps", "1", "--delta", "1"], "--delta"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "bracketing", "--delta", "1", "--n", "2"], "--n"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "covering", "--eps", "1", "--f0", "{sim}/f0.csv"],
         "--f0"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "covering", "--eps", "1", "--pool", "{sim}/f0.csv"],
         "--pool"),
        # a non-finite value, which a float range lets through
        (["simulate", "--n", "nan"], "--n"),
        (["simulate", "--n", "inf"], "--n"),
        (["simulate", "--n", "5", "--r", "inf"], "--r"),
        (["simulate", "--n", "5", "--ceiling", "nan"], "--ceiling"),
        (["mle", "--pattern", "{sim}/pattern.csv", "--lip", "inf"], "--lip"),
        (["mle", "--pattern", "{sim}/pattern.csv", "--bins", "2", "--cap", "nan"], "--cap"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "covering", "--eps", "nan"], "--eps"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "bracketing", "--delta", "nan"], "--delta"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "separation", "--n", "nan", "--f0", "{sim}/f0.csv"],
         "--n"),
    ],
    ids=["simulate-n-0", "grid-level-negative", "seed-negative", "smooth-beta", "ceiling-below-f0",
         "mle-lip-negative", "mle-bins-3",
         "posterior-budget-0", "eps-negative", "delta-negative", "separation-n-0", "threads-0",
         "mle-bins-grid-level", "bracketing-eps", "covering-delta", "bracketing-n", "covering-f0", "covering-pool",
         "simulate-n-nan", "simulate-n-inf", "simulate-r-inf", "simulate-ceiling-nan", "mle-lip-inf", "mle-cap-nan",
         "eps-nan", "delta-nan", "separation-n-nan"],
)
def test_bad_option_values_are_usage_errors(runner, tmp_path, args, named):
    sim = tmp_path / "sim"
    _run(runner, ["simulate", "--n", "20", "--grid-level", "2", "--seed", "1", "--out", str(sim)])
    prior = tmp_path / "prior.cfg"
    prior.write_text("variant = brownian_start\ngrid_level = 2\n")
    out = tmp_path / "o"
    res = runner.invoke(main, [a.format(sim=sim, prior=prior) for a in args] + ["--out", str(out)])
    assert res.exit_code == 2  # a usage error that names the option, not a traceback
    assert named in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "args,bad,named",
    [
        (["complexity", "--dict", "{short}", "--quantity", "covering", "--eps", "1"], "{short}", "expected 4 values"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "bracketing", "--delta", "1", "--pool", "{short}"],
         "{short}", "expected 4 values"),
        (["complexity", "--dict", "{sim}/f0.csv", "--quantity", "separation", "--n", "1", "--f0", "{short}"],
         "{short}", "expected 4 values"),
        (["mle", "--pattern", "{sim}/f0.csv", "--bins", "2"], "{sim}/f0.csv", "lacks intensity and ceiling"),
        (["posterior", "--prior", "{prior}", "--pattern", "{sim}/f0.csv"], "{sim}/f0.csv",
         "lacks intensity and ceiling"),
        (["posterior", "--prior", "{prior}", "--pattern", "{sim}/pattern.csv", "--f0", "{sim}/pattern.csv"],
         "{sim}/pattern.csv", "missing '# grid_level=<L>' header"),
        (["mle", "--pattern", "{nocomma}", "--bins", "2"], "{nocomma}", "row '0.5' is not 'x,y'"),
        (["posterior", "--prior", "{prior}", "--pattern", "{nan_x}"], "{nan_x}", "x coordinates must lie in [0, 1]"),
    ],
    ids=["dict-short", "pool-short", "f0-short", "mle-grid-function", "posterior-grid-function",
         "posterior-f0-pattern", "pattern-row-without-comma", "pattern-nan-x"],
)
def test_malformed_input_files_are_usage_errors(runner, tmp_path, args, bad, named):
    sim = tmp_path / "sim"
    _run(runner, ["simulate", "--n", "20", "--grid-level", "2", "--seed", "1", "--out", str(sim)])
    prior = tmp_path / "prior.cfg"
    prior.write_text("variant = brownian_start\ngrid_level = 2\n")
    short = tmp_path / "short.csv"
    short.write_text("# grid_level=2\n0.0\n1.0\n")  # two values where the level needs four
    nocomma = tmp_path / "nocomma.csv"
    nocomma.write_text("# intensity=20.0 ceiling=2.0\nx,y\n0.5\n")
    nan_x = tmp_path / "nan_x.csv"
    nan_x.write_text("# intensity=20.0 ceiling=2.0\nx,y\nnan,0.5\n")
    paths = dict(sim=sim, prior=prior, short=short, nocomma=nocomma, nan_x=nan_x)
    out = tmp_path / "o"
    res = runner.invoke(main, [a.format(**paths) for a in args] + ["--out", str(out)])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)  # a usage error, not a traceback
    assert f"bad input file {bad.format(**paths)}: " in res.output and named in res.output
    assert not out.exists()


RATE_CFG = """
prior.variant = brownian_start
prior.grid_level = 4
f0.kind = cusp
f0.beta = 1.0
n_grid = 5,10,20,40
replicates = 10
budget = 800
seed = 5
slope_tol = {tol}
"""


def test_rate_study_cli_reruns_byte_identical(runner, tmp_path):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.format(tol="0.9"))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        res = runner.invoke(main, ["rate-study", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code in (0, 2)
        outs.append(out)
    assert (outs[0] / "rate_study.csv").read_bytes() == (outs[1] / "rate_study.csv").read_bytes()
    assert (outs[0] / "rate_study.svg").read_bytes() == (outs[1] / "rate_study.svg").read_bytes()


def test_rate_study_cli_exit_codes(runner, tmp_path):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.format(tol="5.0"))
    res = runner.invoke(main, ["rate-study", "--config", str(cfg), "--out", str(tmp_path / "p")])
    assert res.exit_code == 0
    cfg.write_text(RATE_CFG.format(tol="0.000001"))
    res = runner.invoke(main, ["rate-study", "--config", str(cfg), "--out", str(tmp_path / "f")])
    assert res.exit_code == 2
    cfg.write_text(RATE_CFG.format(tol="0.9") + "sampler = importance\nbudget = 1\n")
    res = runner.invoke(main, ["rate-study", "--config", str(cfg), "--out", str(tmp_path / "e")])
    assert res.exit_code == 1  # too many degenerate cells is an error, not a fail


def test_small_ball_cli(runner, tmp_path):
    cfg = tmp_path / "sb.cfg"
    cfg.write_text(
        "prior.variant = truncated_wavelet\nprior.grid_level = 4\nprior.j_cap = 2\n"
        "prior.dist.kind = gaussian\neps_grid = 2.0,1.5,1.0\n"
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        res = runner.invoke(main, ["small-ball", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0  # no beta given: slope reported without a gate
    assert (out1 / "small_ball.csv").read_bytes() == (out2 / "small_ball.csv").read_bytes()


def test_small_ball_cli_refuses_a_grid_without_two_informative_eps(runner, tmp_path):
    # a uniform series with alpha = 1 stays within 3 of 0, so every ball holds every draw: P = 1 says nothing
    cfg = tmp_path / "sb.cfg"
    cfg.write_text(
        "prior.variant = wavelet_series\nprior.grid_level = 5\nprior.alpha = 1.0\nprior.j_max = 3\n"
        "prior.dist.kind = uniform\neps_grid = 8,6,4\n"
    )
    out = tmp_path / "s"
    res = runner.invoke(main, ["small-ball", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 1  # a study it refuses, not a traceback
    assert res.output.startswith("Error: fewer than two epsilon values") and res.output.count("\n") == 1
    assert not out.exists()


def test_decay_study_cli(runner, tmp_path):
    cfg = tmp_path / "dc.cfg"
    cfg.write_text(
        "prior.variant = brownian_start\nprior.grid_level = 4\nf0.kind = cusp\n"
        "r = 40.0\nn_grid = 5,20\nreplicates = 4\nbudget = 600\nseed = 2\n"
    )
    out = tmp_path / "d"
    res = runner.invoke(main, ["decay-study", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 0
    assert (out / "decay_study.csv").exists()


def test_study_config_unknown_keys_rejected(runner, tmp_path):
    cfg = tmp_path / "dc.cfg"
    cfg.write_text(
        "prior.variant = brownian_start\nprior.grid_level = 4\nf0.kind = cusp\n"
        "r = 40.0\nn_grid = 5,20\nreplicates = 4\nbugdet = 5\nstep_scale = 0.3\nseed = 2\n"
    )
    out = tmp_path / "d"
    res = runner.invoke(main, ["decay-study", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2  # click's usage-error code, before any cell runs
    assert f"config keys that the study does not read, in {cfg}: bugdet, step_scale" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "prior_lines,key",
    [
        ("prior.variant = brownian_start\nprior.gird_level = 5\n", "gird_level"),
        ("prior.grid_level = 4\n", "variant must be one of"),
        ("prior.variant = brownian_start\nprior.grid_level = five\n", "'grid_level'"),
        ("prior.variant = truncated_wavelet\nprior.j_cap = 2\nprior.dist.kind = gaussian\n"
         "prior.dist.tail_rate = 1.0\n", "dist.tail_rate"),
        ("prior.variant = wavelet_series\nprior.alpha = inf\nprior.j_max = 2\nprior.dist.kind = gaussian\n", "alpha"),
        ("prior.variant = wavelet_series\nprior.alpha = 1.0\nprior.j_max = 2\nprior.dist.kind = gaussian\n"
         "prior.dist.scale = inf\n", "dist.scale"),
    ],
)
def test_study_config_bad_prior_keys_rejected(runner, tmp_path, prior_lines, key):
    cfg = tmp_path / "dc.cfg"
    cfg.write_text(prior_lines + "f0.kind = cusp\nr = 40.0\nn_grid = 5,20\nreplicates = 4\nseed = 2\n")
    out = tmp_path / "d"
    res = runner.invoke(main, ["decay-study", "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2  # a usage error, not a traceback
    assert key in res.output
    assert not out.exists()


_BROWNIAN_4 = "prior.variant = brownian_start\nprior.grid_level = 4\n"
_WAVELET = "prior.variant = wavelet_series\nprior.alpha = 1.0\nprior.j_max = 2\nprior.dist.kind = gaussian\n"
_SPIKE = "f0: kind must be one of ('cusp', 'hat', 'smooth'), got 'spike'"


@pytest.mark.parametrize(
    "command,lines,named",
    [
        ("rate-study", "n_grid = 5,10,20,40\nreplicates = 5\n", "replicates must be >= 10, got 5"),
        ("rate-study", "n_grid = 5,10,20,40\nreplicates = five\n", "'replicates': cannot read 'five'"),
        ("decay-study", "f0.kind = cusp\nn_grid = 5,20\nreplicates = 4\nsampler = exact\n", "sampler 'exact'"),
        ("small-ball", "eps_grid = 0.5,1.0\n", "(0.5, 1.0)"),
        ("rate-study", "f0.kind = spike\nn_grid = 5,10,20,40\nreplicates = 10\n", _SPIKE),
        ("decay-study", "f0.kind = spike\nn_grid = 5,20\nreplicates = 4\n", _SPIKE),
        ("small-ball", "h.kind = spike\neps_grid = 1.0,0.5\n", "h: kind must be one of"),
        ("decay-study", "f0.kind = cusp\nn_grid = 20,5\nreplicates = 2\n", "strictly increasing, got (20.0, 5.0)"),
        ("decay-study", "f0.kind = cusp\nn_grid = 20\nreplicates = 2\n", "at least 2 values"),
        ("decay-study", "f0.kind = cusp\nn_grid = 5,20\nreplicates = 0\n", "replicates must be >= 1, got 0"),
        ("decay-study", "prior.alpha = 2\nf0.kind = cusp\nn_grid = 5,20\nreplicates = 4\n",
         "brownian_start does not read alpha"),
        ("rate-study", "n_grid = 5,10,20,40\nreplicates = 10\nbudget = 0\n", "budget must be >= 1, got 0"),
        ("decay-study", "f0.kind = cusp\nn_grid = 5,20\nreplicates = 4\nbudget = 0\n", "budget must be >= 1, got 0"),
        ("small-ball", "prior.variant = truncated_wavelet\nprior.j_cap = 2\nprior.dist.kind = gaussian\n"
         "eps_grid = 2.0,1.0\ndraws = 0\n", "s.cfg: draws"),
        ("small-ball", "prior.variant = truncated_wavelet\nprior.j_cap = 2\nprior.dist.kind = gaussian\n"
         "eps_grid = 2.0,1.0\nseed = 2\n", "s.cfg: seed"),
        ("small-ball", "eps_grid = 1.0,0.5\ndraws = 4000\n", "s.cfg: draws"),
        ("small-ball", _WAVELET + "eps_grid = 1.0,0.5\ndraws = 4000\n", "s.cfg: draws"),
        ("small-ball", "eps_grid = 1.0,0.5\nseed = 2\n", "s.cfg: seed"),
        ("small-ball", _WAVELET + "eps_grid = 1.0,0.5\nseed = 2\n", "s.cfg: seed"),
        ("rate-study", "f0.kind = cusp\nn_grid = 5,10,20,40\nreplicates = 10\nceiling = 0.1\n",
         "s.cfg: ceiling"),  # an unknown config key: a study draws the untruncated model, with no ceiling
        ("rate-study", "n_grid = 5,10,20,40\nreplicates = 10\nbugdet = 800\n", "s.cfg: bugdet"),
        ("decay-study", "f0.kind = cusp\nn_grid = 5,20\nreplicates = 4\nf0.knd = hat\n", "s.cfg: f0.knd"),
        ("small-ball", "eps_grid = 1.0,0.5\nepsgrid = 1.0\n", "s.cfg: epsgrid"),
        ("small-ball", "eps_grid = 1.0,0.5\nh.beta = 0.5\nh.R = 3.0\n", "s.cfg: h.R, h.beta"),  # no h.kind: h = 0
        ("small-ball", "eps_grid = 1.0,0.5\nno equals sign\n", "malformed config line: 'no equals sign'"),
        ("rate-study", "n_grid = 0,200,500,1000\nreplicates = 10\n", "n_grid values must be positive"),
        ("decay-study", "f0.kind = cusp\nn_grid = -5,20\nreplicates = 4\n", "n_grid values must be positive"),
        ("small-ball", "eps_grid = 1,0.5,0\n", "eps_grid values must be positive and finite, got (1.0, 0.5, 0.0)"),
        ("small-ball", _WAVELET + "eps_grid = 1,0.5,-0.5\n", "eps_grid values must be positive"),
        ("rate-study", "n_grid = 5,10,20,inf\nreplicates = 10\n", "n_grid values must be positive and finite"),
        ("small-ball", "eps_grid = inf,1.0\n", "eps_grid values must be positive and finite, got (inf, 1.0)"),
        ("small-ball", "eps_grid = 1.0,nan\n", "eps_grid values must be positive and finite, got (1.0, nan)"),
        ("small-ball", "eps_grid = 1.0\n", "eps_grid needs at least 2 values, got (1.0,)"),
        ("decay-study", "f0.kind = cusp\nn_grid = 5,20\nreplicates = 4\nr = nan\n", "r must be positive and finite"),
        ("decay-study", "f0.kind = cusp\nn_grid = 5,20\nreplicates = 4\nr = 0\n", "r must be positive and finite"),
        ("rate-study", "n_grid = 5,10,20,40\nreplicates = 10\nslope_tol = nan\n", "slope_tol must be nonnegative and"),
        ("small-ball", "eps_grid = 1.0,0.5\ntol = nan\n", "tol must be nonnegative and finite, got nan"),
        ("small-ball", _WAVELET + "eps_grid = 1.0,0.5\nbeta = 0\n", "beta must lie in (0, 1], got 0.0"),
        ("small-ball", "prior.variant = truncated_wavelet\nprior.j_cap = 2\nprior.dist.kind = gaussian\n"
         "eps_grid = 2.0,1.0\nbeta = -1\n", "beta must lie in (0, 1], got -1.0"),
        ("small-ball", "eps_grid = 1.0,0.5\nbeta = nan\n", "beta must lie in (0, 1], got nan"),
        ("small-ball", _WAVELET + "eps_grid = 1.0,0.5\nbeta = 2\n", "beta must lie in (0, 1], got 2.0"),
    ],
    ids=[
        "rate-replicates-5",
        "rate-replicates-five",
        "decay-exact-brownian",
        "small-ball-increasing-eps",
        "rate-f0-spike",
        "decay-f0-spike",
        "small-ball-h-spike",
        "decay-n-grid-decreasing",
        "decay-n-grid-one-value",
        "decay-replicates-0",
        "decay-brownian-alpha",
        "rate-budget-0",
        "decay-budget-0",
        "small-ball-truncated-draws-0",
        "small-ball-truncated-seed",
        "small-ball-brownian-draws",
        "small-ball-wavelet-draws",
        "small-ball-brownian-seed",
        "small-ball-wavelet-seed",
        "rate-ceiling-below-f0",
        "rate-misspelt-key",
        "decay-misspelt-key",
        "small-ball-misspelt-key",
        "small-ball-h-beta-without-kind",
        "small-ball-malformed-line",
        "rate-n-grid-zero",
        "decay-n-grid-negative",
        "small-ball-brownian-eps-zero",
        "small-ball-wavelet-eps-negative",
        "rate-n-grid-inf",
        "small-ball-eps-inf",
        "small-ball-eps-nan",
        "small-ball-eps-one-value",
        "decay-r-nan",
        "decay-r-zero",
        "rate-slope-tol-nan",
        "small-ball-tol-nan",
        "small-ball-wavelet-beta-zero",
        "small-ball-truncated-beta-negative",
        "small-ball-brownian-beta-nan",
        "small-ball-wavelet-beta-2",
    ],
)
def test_study_config_rejected_values_are_usage_errors(runner, tmp_path, command, lines, named):
    cfg = tmp_path / "s.cfg"
    # a small-ball study reads no seed, so only its own cases set one
    unseeded = command == "small-ball"
    cfg.write_text(_BROWNIAN_4 + lines + ("" if unseeded else "seed = 2\n"))
    out = tmp_path / "o"
    res = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2  # a usage error that names the value, not a traceback
    assert named in res.output
    assert not out.exists()


_TRUNCATED = "prior.variant = truncated_wavelet\nprior.j_cap = 2\nprior.dist.kind = gaussian\n"


@pytest.mark.parametrize(
    "prior_lines,variant",
    [("", "brownian_start"), (_WAVELET, "wavelet_series"), (_TRUNCATED, "truncated_wavelet")],
)
def test_small_ball_seed_option_is_usage_error(runner, tmp_path, prior_lines, variant):
    # every small-ball study is a quadrature that draws no random numbers, so small-ball has no --seed
    cfg = tmp_path / "sb.cfg"
    cfg.write_text(_BROWNIAN_4 + prior_lines + "eps_grid = 1.0,0.5\n")
    out = tmp_path / "o"
    res = runner.invoke(main, ["small-ball", "--config", str(cfg), "--seed", "3", "--out", str(out)])
    assert res.exit_code == 2
    assert "No such option" in res.output and "--seed" in res.output, variant  # click versions word it differently
    assert not out.exists()


@pytest.mark.parametrize(
    "command,lines",
    [("rate-study", "n_grid = 5,10,20,40\nreplicates = 10\n"), ("decay-study", "f0.kind = cusp\nn_grid = 5,20\n")],
)
def test_negative_config_seed_is_usage_error(runner, tmp_path, command, lines):
    # --seed is an IntRange(min=0); a seed config key is checked by the study, before any work
    cfg = tmp_path / "s.cfg"
    cfg.write_text(_BROWNIAN_4 + lines + "seed = -1\n")
    out = tmp_path / "o"
    res = runner.invoke(main, [command, "--config", str(cfg), "--out", str(out)])
    assert res.exit_code == 2  # a usage error that names the value, not a traceback from SeedSequence
    assert "seed must be a nonnegative integer, got -1" in res.output
    assert not out.exists()


def test_seed_option_overrides_config(runner, tmp_path):
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(RATE_CFG.format(tol="0.9"))
    outs = []
    for name, seed in (("s9", "9"), ("s9b", "9"), ("s5", None)):
        out = tmp_path / name
        args = ["rate-study", "--config", str(cfg), "--out", str(out)]
        if seed is not None:
            args += ["--seed", seed]
        res = runner.invoke(main, args)
        assert res.exit_code in (0, 2)
        outs.append(out)
    same = (outs[0] / "rate_study.csv").read_bytes()
    assert same == (outs[1] / "rate_study.csv").read_bytes()
    assert same != (outs[2] / "rate_study.csv").read_bytes()
