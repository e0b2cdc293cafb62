"""End-to-end command-line checks: the simulate/posterior/mle chain, study
subcommands from flat config files, byte-identical reruns and exit codes."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from bbayes import GridFunction, PointPattern, covering_number, FunctionDictionary
from bbayes.cli import main


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
    res = runner.invoke(main, ["mle", "--pattern", str(sim / "pattern.csv"),
                               "--bins", "8", "--lip", "1.0", "--out", str(mle_out)])
    assert res.exit_code == 1  # exactly one of --lip/--bins


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
    assert report["value"] == covering_number(FunctionDictionary(members), 0.6)
    assert report["method"] == "exact"
    f0_file = tmp_path / "f0.csv"
    f0_file.write_text(GridFunction.constant(0.0, 2).to_csv())
    res = _run(runner, ["complexity", "--dict", str(dict_file), "--quantity", "separation",
                        "--n", "2.0", "--f0", str(f0_file), "--out", str(out)])
    assert res.exit_code == 0
    res = runner.invoke(main, ["complexity", "--dict", str(dict_file), "--quantity", "covering",
                               "--out", str(out)])
    assert res.exit_code == 1  # --eps missing


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
        "prior.dist.kind = gaussian\neps_grid = 2.0,1.5,1.0\ndraws = 4000\nseed = 3\n"
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    for out in (out1, out2):
        res = runner.invoke(main, ["small-ball", "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0  # no beta given: slope reported without a gate
    assert (out1 / "small_ball.csv").read_bytes() == (out2 / "small_ball.csv").read_bytes()


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
    assert "unknown config keys" in res.output and "bugdet, step_scale" in res.output
    assert not out.exists()


@pytest.mark.parametrize(
    "prior_lines,key",
    [
        ("prior.variant = brownian_start\nprior.gird_level = 5\n", "gird_level"),
        ("prior.grid_level = 4\n", "variant must be one of"),
        ("prior.variant = brownian_start\nprior.grid_level = five\n", "'grid_level'"),
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
