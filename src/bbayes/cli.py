"""Command-line interface.

Exit codes: 0 pass, 1 error (for instance a ``complexity`` dictionary member
that no pool function brackets), 2 tolerance failure or usage error (an option
that is unknown, not finite, outside its domain or not read by the command as
invoked, a ``--pattern``, ``--f0``, ``--dict``, ``--pool`` or ``--config`` file
that does not parse, a ``posterior --sampler`` that the prior does not admit, a study
config value that is unreadable or that the study rejects, or a prior key, in
a ``--prior`` file or as ``prior.*`` in a study config, that is unknown,
missing, unreadable or not read by its variant).  A study command
pops each config key where it reads it (``_get``), and any key left over is a
usage error that names it.  Options, input files and study configs are checked
before any work starts, so a usage error writes nothing.  Every subcommand is
deterministic given ``--seed``; ``small-ball``, a quadrature, has no seed.
"""

from __future__ import annotations

import json
import math
import sys
from functools import partial
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
from .posterior import SAMPLERS, DegeneratePosteriorError, check_sampler, sample_posterior
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


def _finite(ctx, param, value):
    """The callback of every float option: nan and inf, which no command reads and a ``FloatRange`` lets through,
    are usage errors that name the option."""
    if value is not None and not math.isfinite(value):
        raise click.BadParameter(f"{value!r} is not a finite number", ctx=ctx, param=param)
    return value


@main.command()
@click.option("--n", type=click.FloatRange(min=0, min_open=True), required=True, callback=_finite,
              help="intensity level")
@click.option("--beta", type=float, default=1.0, show_default=True, callback=_finite)
@click.option("--r", "r_const", type=float, default=1.0, show_default=True, callback=_finite,
              help="Hoelder radius of f0")
@click.option("--kind", type=click.Choice(["cusp", "hat", "smooth"]), default="smooth", show_default=True)
@click.option("--grid-level", type=click.IntRange(min=0), default=8, show_default=True)
@click.option("--ceiling", type=float, default=None, callback=_finite, help="defaults to max(f0) + 1")
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
    try:
        pattern = simulate_ppp(f0, n, ceiling, _rng(seed))
    except ValueError as exc:  # --ceiling below max(f0)
        raise click.UsageError(f"--ceiling: {exc}")
    write_text(Path(out) / "pattern.csv", pattern.to_csv())
    write_text(Path(out) / "f0.csv", f0.to_csv())
    click.echo(f"wrote {len(pattern)} points to {out}/pattern.csv")


@main.command()
@click.option("--prior", "prior_file", type=click.Path(exists=True), required=True)
@click.option("--pattern", "pattern_file", type=click.Path(exists=True), required=True)
@click.option("--sampler", type=click.Choice(SAMPLERS), default="importance", show_default=True)
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
    prior = build_prior(spec)
    try:
        check_sampler(prior, sampler, budget)
    except ValueError as exc:  # 'exact' on a prior other than the gaussian truncated wavelet series
        raise click.UsageError(f"--sampler: {exc}")
    try:
        ens = sample_posterior(prior, pattern, sampler, budget, _rng(seed))
    except DegeneratePosteriorError as exc:
        raise click.ClickException(str(exc))
    write_text(Path(out) / "ensemble_summary.csv", ens.summary_csv(f0))
    write_text(Path(out) / "ensemble.flat", ens.to_flat_file())
    click.echo(f"stored {len(ens)} samples (meta: {ens.meta})")


@main.command()
@click.option("--pattern", "pattern_file", type=click.Path(exists=True), required=True)
@click.option("--lip", type=click.FloatRange(min=0, min_open=True), default=None, callback=_finite,
              help="Lipschitz constant (cone envelope MLE)")
@click.option("--bins", type=click.IntRange(min=1), default=None, help="bin count, a power of two (piecewise MLE)")
@click.option("--cap", type=float, default=None, callback=_finite, help="defaults to the pattern ceiling")
@click.option("--grid-level", type=click.IntRange(min=0), default=None, help="grid of the --lip MLE; defaults to 8")
@click.option("--out", type=click.Path(), required=True)
def mle(pattern_file, lip, bins, cap, grid_level, out):
    """Boundary MLE over a capped Lipschitz or piecewise-constant class."""
    pattern = _load(pattern_file, PointPattern.from_csv)
    if cap is None:
        cap = pattern.ceiling
    if (lip is None) == (bins is None):
        raise click.ClickException("give exactly one of --lip or --bins")
    if bins is not None and grid_level is not None:
        raise click.UsageError("--grid-level: only --lip reads it; --bins sets the grid")
    try:
        if lip is not None:
            fhat = mle_lipschitz(pattern, lip, cap, 8 if grid_level is None else grid_level)
        else:
            fhat = mle_piecewise_constant(pattern, bins, cap)
    except ValueError as exc:  # --bins not a power of two, or --cap below the data
        raise click.UsageError(str(exc))
    write_text(Path(out) / "mle.csv", fhat.to_csv())
    click.echo(f"wrote {out}/mle.csv")


# the options that each --quantity reads; all but --pool, which defaults to the dict plus pairwise minima, are required
_QUANTITY_READS = {"covering": ("--eps",), "bracketing": ("--delta", "--pool"), "separation": ("--n", "--f0", "--pool")}


@main.command()
@click.option("--dict", "dict_file", type=click.Path(exists=True), required=True,
              help="concatenated GridFunction CSVs")
@click.option("--quantity", type=click.Choice(["covering", "bracketing", "separation"]), required=True)
@click.option("--eps", type=click.FloatRange(min=0, min_open=True), default=None, callback=_finite,
              help="radius for covering")
@click.option("--delta", type=click.FloatRange(min=0), default=None, callback=_finite, help="tolerance for bracketing")
@click.option("--n", type=click.FloatRange(min=0, min_open=True), default=None, callback=_finite,
              help="intensity for separation")
@click.option("--f0", "f0_file", type=click.Path(exists=True), default=None, help="truth for separation")
@click.option("--pool", "pool_file", type=click.Path(exists=True), default=None,
              help="bracket pool; defaults to dict plus pairwise minima")
@click.option("--out", type=click.Path(), required=True)
def complexity(dict_file, quantity, eps, delta, n, f0_file, pool_file, out):
    """Covering/bracketing/separation functionals of a function dictionary."""
    given = {"--eps": eps, "--delta": delta, "--n": n, "--f0": f0_file, "--pool": pool_file}
    unread = [opt for opt, value in given.items() if value is not None and opt not in _QUANTITY_READS[quantity]]
    if unread:
        raise click.UsageError(f"--quantity {quantity} does not read {', '.join(unread)}")
    required = [opt for opt in _QUANTITY_READS[quantity] if opt != "--pool"]
    if any(given[opt] is None for opt in required):
        raise click.ClickException(f"{' and '.join(required)} required for {quantity}")
    dict_ = _load(dict_file, _dictionary)
    f0 = _load(f0_file, GridFunction.from_csv) if f0_file else None
    if quantity != "covering":
        pool = _load(pool_file, _dictionary) if pool_file else default_bracket_pool(dict_)
    try:
        if quantity == "covering":
            res = covering_number_detailed(dict_, eps)
        elif quantity == "bracketing":
            res = one_sided_bracketing_number_detailed(dict_, delta, pool)
        else:
            res = separation_quantity_detailed(dict_, f0, n, pool)
    except UncoverableMemberError as exc:
        raise click.ClickException(str(exc))
    report = {"quantity": quantity, "value": res.value}
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


def _study_kv(config_path: str, seed: int | None):
    """The keys of a study config, ``--seed`` setting ``seed``, and its ``prior.*`` keys as a PriorSpec."""
    kv = _load(config_path, parse_kv)
    if seed is not None:
        kv["seed"] = str(seed)
    prior_kv = {k[len("prior."):]: kv.pop(k) for k in list(kv) if k.startswith("prior.")}
    try:
        return kv, prior_spec_from_mapping(prior_kv)
    except ValueError as exc:
        raise click.UsageError(f"bad prior.* config in {config_path}: {exc}")


def _floats(text: str):
    return tuple(float(t) for t in text.split(",") if t.strip())


def _get(kv: dict, key: str, convert, default=None):
    """``convert(kv.pop(key))``, or ``default`` when the key is absent; a usage error names an unreadable value."""
    raw = kv.pop(key, None)
    if raw is None:
        return default
    try:
        return convert(raw)
    except ValueError:
        raise click.UsageError(f"config key {key!r}: cannot read {raw!r}") from None


def _named(kv: dict, **converts) -> dict:
    """``{key: convert(kv.pop(key))}`` for each key of ``converts`` that ``kv`` holds: a study's own defaults,
    set by the library alone, fill the rest."""
    return {key: _get(kv, key, convert) for key, convert in converts.items() if key in kv}


def _test_function(config_path: str, kv: dict, prefix: str, grid_level: int, beta: float = 1.0) -> GridFunction:
    """The test function of the keys ``<prefix>.beta``, ``.R`` and ``.kind``; a value it rejects is a usage error."""
    beta, R = _get(kv, f"{prefix}.beta", float, beta), _get(kv, f"{prefix}.R", float, 1.0)
    try:
        return holder_test_function(beta, R, _get(kv, f"{prefix}.kind", str, "smooth"), grid_level)
    except ValueError as exc:
        raise click.UsageError(f"bad config in {config_path}: {prefix}: {exc}") from None


def _run_study(config_path: str, kv: dict, study, out: str, summary) -> None:
    """``study()``, whose arguments have popped from ``kv`` every key they read: a key left in ``kv`` or a value
    the study rejects is a usage error, a study it refuses an error.  Writes the report to ``out``, echoes
    ``summary(report)`` and exits with ``emit_report``'s code."""
    if kv:
        raise click.UsageError(f"config keys that the study does not read, in {config_path}: {', '.join(sorted(kv))}")
    try:
        report = study()
    except StudyConfigError as exc:
        raise click.UsageError(f"bad config in {config_path}: {exc}")
    except StudyError as exc:
        raise click.ClickException(str(exc))
    code = emit_report(report, out)
    click.echo(summary(report))
    sys.exit(code)


@main.command("rate-study")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None, help="override the config seed")
@click.option("--out", type=click.Path(), required=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
def rate_study(config_path, seed, out, threads):
    """Posterior contraction-rate study (exit 2 when the slope misses tolerance)."""
    kv, spec = _study_kv(config_path, seed)
    cfg = partial(
        RateStudyConfig, prior=spec,
        f0_beta=_get(kv, "f0.beta", float, 1.0),
        f0_R=_get(kv, "f0.R", float, 1.0),
        f0_kind=_get(kv, "f0.kind", str, "smooth"),
        n_grid=_get(kv, "n_grid", _floats, (200.0, 500.0, 1000.0, 2000.0, 5000.0)),
        replicates=_get(kv, "replicates", int, 20),
        **_named(kv, sampler=str, budget=int, error_metric=str, seed=int, slope_tol=float),
    )
    _run_study(config_path, kv, lambda: run_rate_study(cfg(), threads=threads), out, lambda report: (
        f"slope={report.slope:.4f} theory={report.theory} margin={report.margin} passed={report.passed}"))


@main.command("small-ball")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
def small_ball(config_path, out):
    """Small-ball probability study (exit 2 when the exponent misses tolerance)."""
    kv, spec = _study_kv(config_path, None)
    beta = _get(kv, "beta", float)
    h = GridFunction.constant(0.0, spec.grid_level)
    if "h.kind" in kv:
        h = _test_function(config_path, kv, "h", spec.grid_level, 1.0 if beta is None else beta)
    _run_study(config_path, kv, partial(
        run_small_ball_study, spec, h,
        _get(kv, "eps_grid", _floats, (1.0, 0.8, 0.6, 0.5, 0.4, 0.3)),
        beta=beta,
        **_named(kv, tol=float),
    ), out, lambda report: f"slope={report.slope:.4f} theory={report.theory} passed={report.passed}")


@main.command("decay-study")
@click.option("--config", "config_path", type=click.Path(exists=True), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.option("--threads", type=click.IntRange(min=1), default=1, show_default=True)
def decay_study(config_path, seed, out, threads):
    """Posterior-mass decay study for the one-sided excess (exit 2 on non-monotone medians)."""
    kv, spec = _study_kv(config_path, seed)
    _run_study(config_path, kv, partial(
        run_posterior_decay_study, spec,
        _test_function(config_path, kv, "f0", spec.grid_level),
        _get(kv, "r", float, 0.2),
        _get(kv, "n_grid", _floats, (100.0, 200.0, 500.0, 1000.0)),
        _get(kv, "replicates", int, 20),
        **_named(kv, seed=int, sampler=str, budget=int),
        threads=threads,
    ), out, lambda report: f"median masses: {report.median_mass} passed={report.passed}")


if __name__ == "__main__":
    main()
