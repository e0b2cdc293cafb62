"""Command-line interface.

Exit codes: 0 pass, 1 error, 2 tolerance failure or usage error (a bad option, or a
study config key that is unknown, or a ``prior.*`` key that is missing or unreadable).
All subcommands are deterministic given ``--seed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .complexity import (
    FunctionDictionary,
    covering_number_detailed,
    default_bracket_pool,
    one_sided_bracketing_number_detailed,
    separation_quantity_detailed,
)
from .estimators import mle_lipschitz, mle_piecewise_constant
from .grid import GridFunction, PointPattern, simulate_ppp
from .harness import (
    RateStudyConfig,
    StudyError,
    emit_report,
    run_posterior_decay_study,
    run_rate_study,
    run_small_ball_study,
)
from .posterior import DegeneratePosteriorError, sample_posterior
from .priors import (
    build_prior,
    holder_test_function,
    parse_kv,
    parse_prior_config,
    prior_spec_from_mapping,
)
from .reporting import write_text


@click.group()
def main() -> None:
    """Support-boundary point process toolkit."""


def _load_grid_function(path: str) -> GridFunction:
    return GridFunction.from_csv(Path(path).read_text())


def _load_pattern(path: str) -> PointPattern:
    return PointPattern.from_csv(Path(path).read_text())


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


@main.command()
@click.option("--n", type=float, required=True, help="intensity level")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--r", "r_const", type=float, default=1.0, show_default=True, help="Hoelder radius of f0")
@click.option("--kind", type=click.Choice(["cusp", "hat", "smooth"]), default="smooth", show_default=True)
@click.option("--grid-level", type=int, default=8, show_default=True)
@click.option("--ceiling", type=float, default=None, help="defaults to max(f0) + 1")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="output directory")
def simulate(n, beta, r_const, kind, grid_level, ceiling, seed, out):
    """Simulate a point pattern from a Hoelder test boundary."""
    f0 = holder_test_function(beta, r_const, kind, grid_level)
    if ceiling is None:
        ceiling = f0.max() + 1.0
    pattern = simulate_ppp(f0, n, ceiling, _rng(seed))
    write_text(Path(out) / "pattern.csv", pattern.to_csv())
    write_text(Path(out) / "f0.csv", f0.to_csv())
    click.echo(f"wrote {len(pattern)} points to {out}/pattern.csv")


@main.command()
@click.option("--prior", "prior_file", type=click.Path(exists=True), required=True)
@click.option("--pattern", "pattern_file", type=click.Path(exists=True), required=True)
@click.option("--sampler", type=click.Choice(["importance", "mcmc"]), default="importance", show_default=True)
@click.option("--budget", type=int, default=2000, show_default=True, help="draws or MCMC steps")
@click.option("--f0", "f0_file", type=click.Path(exists=True), default=None, help="reference boundary for the summary")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def posterior(prior_file, pattern_file, sampler, budget, f0_file, seed, out):
    """Sample the posterior for a stored point pattern."""
    spec = parse_prior_config(Path(prior_file).read_text())
    pattern = _load_pattern(pattern_file)
    try:
        ens = sample_posterior(build_prior(spec), pattern, sampler, budget, _rng(seed))
    except DegeneratePosteriorError as exc:
        raise click.ClickException(str(exc))
    f0 = _load_grid_function(f0_file) if f0_file else None
    write_text(Path(out) / "ensemble_summary.csv", ens.summary_csv(f0))
    write_text(Path(out) / "ensemble.flat", ens.to_flat_file())
    click.echo(f"stored {len(ens)} samples (meta: {ens.meta})")


@main.command()
@click.option("--pattern", "pattern_file", type=click.Path(exists=True), required=True)
@click.option("--lip", type=float, default=None, help="Lipschitz constant (cone envelope MLE)")
@click.option("--bins", type=int, default=None, help="bin count (piecewise-constant MLE)")
@click.option("--cap", type=float, default=None, help="defaults to the pattern ceiling")
@click.option("--grid-level", type=int, default=8, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def mle(pattern_file, lip, bins, cap, grid_level, out):
    """Boundary MLE over a capped Lipschitz or piecewise-constant class."""
    pattern = _load_pattern(pattern_file)
    if cap is None:
        cap = pattern.ceiling
    if (lip is None) == (bins is None):
        raise click.ClickException("give exactly one of --lip or --bins")
    if lip is not None:
        fhat = mle_lipschitz(pattern, lip, cap, grid_level)
    else:
        fhat = mle_piecewise_constant(pattern, bins, cap)
    write_text(Path(out) / "mle.csv", fhat.to_csv())
    click.echo(f"wrote {out}/mle.csv")


@main.command()
@click.option("--dict", "dict_file", type=click.Path(exists=True), required=True,
              help="concatenated GridFunction CSVs")
@click.option("--quantity", type=click.Choice(["covering", "bracketing", "separation"]), required=True)
@click.option("--eps", type=float, default=None, help="radius for covering")
@click.option("--delta", type=float, default=None, help="tolerance for bracketing")
@click.option("--n", type=float, default=None, help="intensity for separation")
@click.option("--f0", "f0_file", type=click.Path(exists=True), default=None, help="truth for separation")
@click.option("--pool", "pool_file", type=click.Path(exists=True), default=None,
              help="bracket pool; defaults to dict plus pairwise minima")
@click.option("--out", type=click.Path(), required=True)
def complexity(dict_file, quantity, eps, delta, n, f0_file, pool_file, out):
    """Covering/bracketing/separation functionals of a function dictionary."""
    members = _split_dictionary(Path(dict_file).read_text())
    dict_ = FunctionDictionary(tuple(members))
    pool = (
        FunctionDictionary(tuple(_split_dictionary(Path(pool_file).read_text())))
        if pool_file
        else default_bracket_pool(dict_)
    )
    if quantity == "covering":
        if eps is None:
            raise click.ClickException("--eps required for covering")
        res = covering_number_detailed(dict_, eps, exact=len(dict_) <= 20)
    elif quantity == "bracketing":
        if delta is None:
            raise click.ClickException("--delta required for bracketing")
        res = one_sided_bracketing_number_detailed(dict_, delta, pool)
    else:
        if n is None or f0_file is None:
            raise click.ClickException("--n and --f0 required for separation")
        res = separation_quantity_detailed(dict_, _load_grid_function(f0_file), n, pool)
    report = {
        "quantity": quantity,
        "value": res.value,
        "method": "exact" if res.exact else "greedy",
        "exact_flag": res.exact,
    }
    write_text(Path(out) / "complexity.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    click.echo(json.dumps(report, sort_keys=True))


def _split_dictionary(text: str):
    """Split a file of concatenated GridFunction CSVs on their header lines."""
    blocks = []
    current: list[str] = []
    for line in text.splitlines():
        if line.startswith("# grid_level=") and current:
            blocks.append(current)
            current = []
        if line.strip():
            current.append(line)
    if current:
        blocks.append(current)
    return [GridFunction.from_csv("\n".join(b)) for b in blocks]


def _study_kv(config_path: str, seed: int | None, keys: str):
    kv = parse_kv(Path(config_path).read_text())
    if seed is not None:
        kv["seed"] = str(seed)
    prior_kv = {k[len("prior."):]: v for k, v in kv.items() if k.startswith("prior.")}
    kv = {k: v for k, v in kv.items() if not k.startswith("prior.")}
    unknown = sorted(set(kv) - set(keys.split()) - {"seed"})
    if unknown:
        raise click.UsageError(f"unknown config keys in {config_path}: {', '.join(unknown)}")
    try:
        return kv, prior_spec_from_mapping(prior_kv)
    except ValueError as exc:
        raise click.UsageError(f"bad prior.* config in {config_path}: {exc}")


def _floats(text: str):
    return tuple(float(t) for t in text.split(",") if t.strip())


@main.command("rate-study")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None, help="override the config seed")
@click.option("--out", type=click.Path(), required=True)
@click.option("--threads", type=int, default=1, show_default=True)
def rate_study(config_path, seed, out, threads):
    """Posterior contraction-rate study (exit 2 when the slope misses tolerance)."""
    kv, spec = _study_kv(
        config_path, seed, "f0.beta f0.R f0.kind n_grid replicates sampler budget error_metric slope_tol ceiling"
    )
    cfg = RateStudyConfig(
        prior=spec,
        f0_beta=float(kv.get("f0.beta", "1.0")),
        f0_R=float(kv.get("f0.R", "1.0")),
        f0_kind=kv.get("f0.kind", "smooth"),
        n_grid=_floats(kv.get("n_grid", "200,500,1000,2000,5000")),
        replicates=int(kv.get("replicates", "20")),
        sampler=kv.get("sampler", "mcmc"),
        budget=int(kv.get("budget", "4000")),
        error_metric=kv.get("error_metric", "l1"),
        seed=int(kv.get("seed", "0")),
        slope_tol=float(kv.get("slope_tol", "0.15")),
        ceiling=float(kv["ceiling"]) if "ceiling" in kv else None,
    )
    try:
        report = run_rate_study(cfg, threads=threads)
    except StudyError as exc:
        raise click.ClickException(str(exc))
    code = emit_report(report, out)
    click.echo(
        f"slope={report.slope:.4f} theory={report.theory} margin={report.margin} passed={report.passed}"
    )
    sys.exit(code)


@main.command("small-ball")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
def small_ball(config_path, seed, out):
    """Small-ball probability study (exit 2 when the exponent misses tolerance)."""
    kv, spec = _study_kv(config_path, seed, "beta h.kind h.beta h.R eps_grid draws tol")
    beta = float(kv["beta"]) if "beta" in kv else None
    if "h.kind" in kv:
        h = holder_test_function(
            float(kv.get("h.beta", kv.get("beta", "1.0"))),
            float(kv.get("h.R", "1.0")),
            kv["h.kind"],
            spec.grid_level,
        )
    else:
        h = GridFunction.constant(0.0, spec.grid_level)
    try:
        report = run_small_ball_study(
            spec,
            h,
            _floats(kv.get("eps_grid", "1.0,0.8,0.6,0.5,0.4,0.3")),
            int(kv.get("draws", "100000")),
            _rng(int(kv.get("seed", "0"))),
            beta=beta,
            tol=float(kv.get("tol", "0.3")),
        )
    except StudyError as exc:
        raise click.ClickException(str(exc))
    code = emit_report(report, out)
    click.echo(f"slope={report.slope:.4f} theory={report.theory} passed={report.passed}")
    sys.exit(code)


@main.command("decay-study")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), required=True)
@click.option("--threads", type=int, default=1, show_default=True)
def decay_study(config_path, seed, out, threads):
    """Posterior-mass decay study for the one-sided excess (exit 2 on non-monotone medians)."""
    kv, spec = _study_kv(config_path, seed, "f0.beta f0.R f0.kind r n_grid replicates sampler budget")
    f0 = holder_test_function(
        float(kv.get("f0.beta", "1.0")),
        float(kv.get("f0.R", "1.0")),
        kv.get("f0.kind", "smooth"),
        spec.grid_level,
    )
    try:
        report = run_posterior_decay_study(
            spec,
            f0,
            float(kv.get("r", "0.2")),
            _floats(kv.get("n_grid", "100,200,500,1000")),
            int(kv.get("replicates", "20")),
            seed=int(kv.get("seed", "0")),
            sampler=kv.get("sampler", "mcmc"),
            budget=int(kv.get("budget", "3000")),
            threads=threads,
        )
    except StudyError as exc:
        raise click.ClickException(str(exc))
    code = emit_report(report, out)
    click.echo(f"median masses: {report.median_mass} passed={report.passed}")
    sys.exit(code)


if __name__ == "__main__":
    main()
