"""Command-line interface.

Exit codes: 0 pass, 1 error (for instance a ``complexity`` dictionary member
that no pool function brackets), 2 tolerance failure or usage error (an option
that is unknown or outside its domain, a ``--pattern``, ``--f0``, ``--dict`` or
``--pool`` file that does not parse, a study config key that is unknown or
unread (``draws``, or ``seed`` and ``--seed``, of a Brownian or wavelet-series
small-ball study), a study config value that is unreadable or that the study
rejects, or a prior key, in a ``--prior`` file or as ``prior.*`` in a study
config, that is unknown, missing, unreadable or not read by its variant).
Options, input files and study configs are checked before any work starts, so
a usage error writes nothing.  All subcommands are deterministic given
``--seed``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .complexity import (
    FunctionDictionary,
    UncoverableMemberError,
    covering_number_detailed,
    default_bracket_pool,
    one_sided_bracketing_number_detailed,
    separation_quantity_detailed,
)
from .estimators import mle_lipschitz, mle_piecewise_constant
from .grid import GridFunction, PointPattern, simulate_ppp
from .harness import (
    RateStudyConfig,
    StudyConfigError,
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


def _load(path: str, parse):
    """``parse`` of the text of the file at ``path``; a file it rejects is a usage error that names the file."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise click.UsageError(f"bad input file {path}: {exc}") from None


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


@main.command()
@click.option("--n", type=click.FloatRange(min=0, min_open=True), required=True, help="intensity level")
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--r", "r_const", type=float, default=1.0, show_default=True, help="Hoelder radius of f0")
@click.option("--kind", type=click.Choice(["cusp", "hat", "smooth"]), default="smooth", show_default=True)
@click.option("--grid-level", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--ceiling", type=float, default=None, help="defaults to max(f0) + 1")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True, help="output directory")
def simulate(n, beta, r_const, kind, grid_level, ceiling, seed, out):
    """Simulate a point pattern from a Hoelder test boundary."""
    try:
        f0 = holder_test_function(beta, r_const, kind, grid_level)
    except ValueError as exc:  # --beta outside (0, 1], --r not positive, or smooth with beta != 1
        raise click.UsageError(str(exc))
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
@click.option("--budget", type=click.IntRange(min=1), default=2000, show_default=True, help="draws or MCMC steps")
@click.option("--f0", "f0_file", type=click.Path(exists=True), default=None, help="reference boundary for the summary")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def posterior(prior_file, pattern_file, sampler, budget, f0_file, seed, out):
    """Sample the posterior for a stored point pattern."""
    try:
        spec = parse_prior_config(Path(prior_file).read_text())
    except ValueError as exc:
        raise click.UsageError(f"bad prior config in {prior_file}: {exc}")
    pattern = _load(pattern_file, PointPattern.from_csv)
    f0 = _load(f0_file, GridFunction.from_csv) if f0_file else None
    try:
        ens = sample_posterior(build_prior(spec), pattern, sampler, budget, _rng(seed))
    except DegeneratePosteriorError as exc:
        raise click.ClickException(str(exc))
    write_text(Path(out) / "ensemble_summary.csv", ens.summary_csv(f0))
    write_text(Path(out) / "ensemble.flat", ens.to_flat_file())
    click.echo(f"stored {len(ens)} samples (meta: {ens.meta})")


@main.command()
@click.option("--pattern", "pattern_file", type=click.Path(exists=True), required=True)
@click.option("--lip", type=click.FloatRange(min=0, min_open=True), default=None,
              help="Lipschitz constant (cone envelope MLE)")
@click.option("--bins", type=click.IntRange(min=1), default=None, help="bin count, a power of two (piecewise MLE)")
@click.option("--cap", type=float, default=None, help="defaults to the pattern ceiling")
@click.option("--grid-level", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def mle(pattern_file, lip, bins, cap, grid_level, out):
    """Boundary MLE over a capped Lipschitz or piecewise-constant class."""
    pattern = _load(pattern_file, PointPattern.from_csv)
    if cap is None:
        cap = pattern.ceiling
    if (lip is None) == (bins is None):
        raise click.ClickException("give exactly one of --lip or --bins")
    try:
        if lip is not None:
            fhat = mle_lipschitz(pattern, lip, cap, grid_level)
        else:
            fhat = mle_piecewise_constant(pattern, bins, cap)
    except ValueError as exc:  # --bins not a power of two, or --cap below the data
        raise click.UsageError(str(exc))
    write_text(Path(out) / "mle.csv", fhat.to_csv())
    click.echo(f"wrote {out}/mle.csv")


@main.command()
@click.option("--dict", "dict_file", type=click.Path(exists=True), required=True,
              help="concatenated GridFunction CSVs")
@click.option("--quantity", type=click.Choice(["covering", "bracketing", "separation"]), required=True)
@click.option("--eps", type=click.FloatRange(min=0, min_open=True), default=None, help="radius for covering")
@click.option("--delta", type=click.FloatRange(min=0), default=None, help="tolerance for bracketing")
@click.option("--n", type=click.FloatRange(min=0, min_open=True), default=None, help="intensity for separation")
@click.option("--f0", "f0_file", type=click.Path(exists=True), default=None, help="truth for separation")
@click.option("--pool", "pool_file", type=click.Path(exists=True), default=None,
              help="bracket pool; defaults to dict plus pairwise minima")
@click.option("--out", type=click.Path(), required=True)
def complexity(dict_file, quantity, eps, delta, n, f0_file, pool_file, out):
    """Covering/bracketing/separation functionals of a function dictionary."""
    dict_ = _load(dict_file, _dictionary)
    pool = _load(pool_file, _dictionary) if pool_file else default_bracket_pool(dict_)
    f0 = _load(f0_file, GridFunction.from_csv) if f0_file else None
    if quantity == "covering" and eps is None:
        raise click.ClickException("--eps required for covering")
    if quantity == "bracketing" and delta is None:
        raise click.ClickException("--delta required for bracketing")
    if quantity == "separation" and (n is None or f0_file is None):
        raise click.ClickException("--n and --f0 required for separation")
    try:
        if quantity == "covering":
            res = covering_number_detailed(dict_, eps)
        elif quantity == "bracketing":
            res = one_sided_bracketing_number_detailed(dict_, delta, pool)
        else:
            res = separation_quantity_detailed(dict_, f0, n, pool)
    except UncoverableMemberError as exc:
        raise click.ClickException(str(exc))
    report = {
        "quantity": quantity,
        "value": res.value,
        "method": "exact" if res.exact else "greedy",
        "exact_flag": res.exact,
    }
    write_text(Path(out) / "complexity.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    click.echo(json.dumps(report, sort_keys=True))


def _dictionary(text: str) -> FunctionDictionary:
    """The dictionary of a file of concatenated GridFunction CSVs, split on their header lines."""
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
    return FunctionDictionary(tuple(GridFunction.from_csv("\n".join(b)) for b in blocks))


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


def _get(kv: dict, key: str, convert, default=None):
    """``convert(kv[key])``, or ``default`` when the key is absent; a usage error names an unreadable value."""
    raw = kv.get(key)
    if raw is None:
        return default
    try:
        return convert(raw)
    except ValueError:
        raise click.UsageError(f"config key {key!r}: cannot read {raw!r}") from None


def _test_function(config_path: str, kv: dict, prefix: str, grid_level: int, beta: float = 1.0) -> GridFunction:
    """The test function of the keys ``<prefix>.beta``, ``.R`` and ``.kind``; a value it rejects is a usage error."""
    beta, R = _get(kv, f"{prefix}.beta", float, beta), _get(kv, f"{prefix}.R", float, 1.0)
    try:
        return holder_test_function(beta, R, kv.get(f"{prefix}.kind", "smooth"), grid_level)
    except ValueError as exc:
        raise click.UsageError(f"bad config in {config_path}: {prefix}: {exc}") from None


def _run_study(config_path: str, study, *args, **kwargs):
    """``study(*args, **kwargs)``: a config value it rejects is a usage error, a study it refuses an error."""
    try:
        return study(*args, **kwargs)
    except StudyConfigError as exc:
        raise click.UsageError(f"bad config in {config_path}: {exc}")
    except StudyError as exc:
        raise click.ClickException(str(exc))


@main.command("rate-study")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None, help="override the config seed")
@click.option("--out", type=click.Path(), required=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
def rate_study(config_path, seed, out, threads):
    """Posterior contraction-rate study (exit 2 when the slope misses tolerance)."""
    kv, spec = _study_kv(
        config_path, seed, "f0.beta f0.R f0.kind n_grid replicates sampler budget error_metric slope_tol"
    )
    cfg = _run_study(
        config_path, RateStudyConfig,
        prior=spec,
        f0_beta=_get(kv, "f0.beta", float, 1.0),
        f0_R=_get(kv, "f0.R", float, 1.0),
        f0_kind=kv.get("f0.kind", "smooth"),
        n_grid=_get(kv, "n_grid", _floats, (200.0, 500.0, 1000.0, 2000.0, 5000.0)),
        replicates=_get(kv, "replicates", int, 20),
        sampler=kv.get("sampler", "mcmc"),
        budget=_get(kv, "budget", int, 4000),
        error_metric=kv.get("error_metric", "l1"),
        seed=_get(kv, "seed", int, 0),
        slope_tol=_get(kv, "slope_tol", float, 0.15),
    )
    report = _run_study(config_path, run_rate_study, cfg, threads=threads)
    code = emit_report(report, out)
    click.echo(
        f"slope={report.slope:.4f} theory={report.theory} margin={report.margin} passed={report.passed}"
    )
    sys.exit(code)


@main.command("small-ball")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", type=click.Path(), required=True)
def small_ball(config_path, seed, out):
    """Small-ball probability study (exit 2 when the exponent misses tolerance)."""
    kv, spec = _study_kv(config_path, seed, "beta h.kind h.beta h.R eps_grid draws tol")
    for key in ("draws", "seed") if spec.variant != "truncated_wavelet" else ():
        if key in kv:
            where = "--seed" if key == "seed" and seed is not None else f"config key {key!r} in {config_path}"
            raise click.UsageError(f"{where}: a {spec.variant} small-ball study reads no {key}")
    beta = _get(kv, "beta", float)
    if "h.kind" in kv:
        h = _test_function(config_path, kv, "h", spec.grid_level, 1.0 if beta is None else beta)
    else:
        h = GridFunction.constant(0.0, spec.grid_level)
    report = _run_study(
        config_path, run_small_ball_study, spec, h,
        _get(kv, "eps_grid", _floats, (1.0, 0.8, 0.6, 0.5, 0.4, 0.3)),
        _get(kv, "draws", int, 100_000),
        _rng(_get(kv, "seed", int, 0)),
        beta=beta,
        tol=_get(kv, "tol", float, 0.3),
    )
    code = emit_report(report, out)
    click.echo(f"slope={report.slope:.4f} theory={report.theory} passed={report.passed}")
    sys.exit(code)


@main.command("decay-study")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
def decay_study(config_path, seed, out, threads):
    """Posterior-mass decay study for the one-sided excess (exit 2 on non-monotone medians)."""
    kv, spec = _study_kv(config_path, seed, "f0.beta f0.R f0.kind r n_grid replicates sampler budget")
    f0 = _test_function(config_path, kv, "f0", spec.grid_level)
    report = _run_study(
        config_path, run_posterior_decay_study, spec, f0,
        _get(kv, "r", float, 0.2),
        _get(kv, "n_grid", _floats, (100.0, 200.0, 500.0, 1000.0)),
        _get(kv, "replicates", int, 20),
        seed=_get(kv, "seed", int, 0),
        sampler=kv.get("sampler", "mcmc"),
        budget=_get(kv, "budget", int, 3000),
        threads=threads,
    )
    code = emit_report(report, out)
    click.echo(f"median masses: {report.median_mass} passed={report.passed}")
    sys.exit(code)


if __name__ == "__main__":
    main()
