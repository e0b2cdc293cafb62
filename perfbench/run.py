"""Seeded study benchmark for bbayes.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload contraction-brownian --seed 1 --seconds 6 --trace 0

``--trace 0`` times the workload's study calls untraced, with the speed
probe of speed.py running beside them, and prints the end-to-end metrics;
``--trace 1`` runs the study once untraced, then a traced replay of the same
cells, and prints the per-layer metrics.  Both check the statistics they
produced.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a run record with the
manifest (and the spans, when traced) goes to ``perfbench/out/``.  See
perfbench/README.md for the metric map.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

# One BLAS thread, set before numpy loads BLAS: every run, and each set-up
# interpreter, which inherits it, then uses one core, the core the speed
# probe measures.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from speed import SpeedProbe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SMALL_BALL_PARTS = ("gauss_centred", "gauss_decentred", "laplace_decentred", "brownian")

# A fresh interpreter importing bbayes and building the workload's priors under
# the speed probe; it prints the probe's mean speed and its summed run time.
SETUP_CODE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from speed import SpeedProbe
with SpeedProbe() as probe:
    import workloads
    workloads.build_priors(sys.argv[3], sys.argv[4])
print(probe.speed, sum(probe.durations))
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed; omitted, the acceptance seeds (101, 102, 103, 5, 7, 42) are used",
    )
    p.add_argument("--seconds", type=float, default=6.0, help="minimum length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("bench", "full", "smoke"), default="bench")
    return p.parse_args(argv)


def measure_setup(src: Path, workload: str, size: str, reps: int) -> float:
    """Median time, in reference seconds, from a fresh interpreter to bbayes
    imported and priors built.

    The interpreter's wall time, less its probe runs, is scaled by its probe
    speed.  The probe starts once numpy is imported, so its speed also stands
    for the interpreter start-up and the numpy import before it.
    """
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(src), str(BENCH_DIR), workload, size],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        wall = perf_counter() - t0
        speed, probe_s = map(float, out.split()[-2:])
        times.append((wall - probe_s) * speed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_manifest(root: Path) -> dict:
    """Commit (when the checkout is a git work tree) and a hash of the package sources."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bbayes").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    git = root / ".git"
    if (git / "HEAD").is_file():
        commit = (git / "HEAD").read_text().strip()
        if commit.startswith("ref: "):
            ref = commit[5:]
            commit = None
            if (git / ref).is_file():
                commit = (git / ref).read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        commit = line.split()[0]
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def timed_passes(fn, seconds: float, min_passes: int):
    """Run ``fn`` at least ``min_passes`` times and until ``seconds`` have elapsed.

    Each pass runs under a speed probe.  Returns the probe of every pass (its
    wall time and the same time in reference seconds) and the pass results.
    """
    probes, results = [], []
    start = perf_counter()
    while len(probes) < min_passes or perf_counter() - start < seconds:
        with SpeedProbe() as probe:
            results.append(fn())
        probes.append(probe)
    return probes, results


def metric(value, unit):
    return {"value": float(value), "unit": unit}


# Per-layer metrics and units.  A layer the workload never calls reads 0.
PER_LAYER_UNITS = {
    "grid.simulate_ppp.s": "s",
    "grid.simulate_ppp.points": "count",
    "posterior.bin_minima.s": "s",
    "harness.calibrate_ceiling.s": "s",
    "posterior.sampler.s": "s",
    "posterior.sampler.sweeps": "count",
    "posterior.sampler.sweep_us": "us",
    "posterior.sampler.ess": "count",
    "posterior.sampler.ess_per_sweep": "1/sweep",
    "posterior.functional.s": "s",
    "posterior.ensemble.stored": "count",
    "posterior.feasible_frac": "ratio",
    "harness.cells_failed": "count",
    "harness.cell.p50_s": "s",
    "harness.cell.p90_s": "s",
    "harness.overhead.s": "s",
    **{
        f"harness.small_ball.{part}{suffix}": unit
        for part in SMALL_BALL_PARTS
        for suffix, unit in ((".s", "s"), (".eps_kept", "count"), (".rel_se", "ratio"))
    },
    "trace.overhead_s": "s",
}


def per_layer_contraction(tracer, cells, untraced_wall) -> dict:
    from studies import CHECK_SPAN, LAYER_SPANS

    selfs = tracer.self_times()
    sampler_s = selfs.get("posterior.sampler", 0.0)
    sweeps = sum(c.sweeps for c in cells)
    ess = sum(c.ess for c in cells)
    stored = sum(c.stored for c in cells)
    replay_wall = tracer.total("harness.replay")
    spanned = sum(tracer.total(name) for name in LAYER_SPANS + (CHECK_SPAN,))
    cell_times = tracer.durations("harness.cell")
    return {
        "grid.simulate_ppp.s": selfs.get("grid.simulate_ppp", 0.0),
        "grid.simulate_ppp.points": sum(c.points for c in cells),
        "posterior.bin_minima.s": selfs.get("posterior.bin_minima", 0.0),
        "harness.calibrate_ceiling.s": selfs.get("harness.calibrate_ceiling", 0.0),
        "posterior.sampler.s": sampler_s,
        "posterior.sampler.sweeps": sweeps,
        "posterior.sampler.sweep_us": 1e6 * sampler_s / sweeps if sweeps else 0.0,
        "posterior.sampler.ess": ess,
        "posterior.sampler.ess_per_sweep": ess / sweeps if sweeps else 0.0,
        "posterior.functional.s": selfs.get("posterior.functional", 0.0),
        "posterior.ensemble.stored": stored,
        "posterior.feasible_frac": sum(c.feasible for c in cells) / stored if stored else 1.0,
        "harness.cells_failed": sum(c.error is None for c in cells),
        "harness.cell.p50_s": float(np.quantile(cell_times, 0.5)),
        "harness.cell.p90_s": float(np.quantile(cell_times, 0.9)),
        "harness.overhead.s": replay_wall - spanned,
        "trace.overhead_s": replay_wall - untraced_wall,
    }


def per_layer_small_ball(tracer, reports, untraced_wall) -> dict:
    from studies import rel_se

    # no posterior sample is stored, so every stored sample is feasible
    out = {"posterior.feasible_frac": 1.0}
    for part in SMALL_BALL_PARTS:
        span = f"harness.small_ball.{part}"
        report = reports[part]
        out[f"{span}.s"] = tracer.total(span)
        out[f"{span}.eps_kept"] = 0 if report is None else len(report.eps_grid)
        out[f"{span}.rel_se"] = rel_se(report)
    traced_wall = tracer.total("harness.replay")
    out["harness.overhead.s"] = traced_wall - sum(tracer.total(f"harness.small_ball.{p}") for p in SMALL_BALL_PARTS)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


def run(args, root: Path) -> tuple[dict, dict]:
    import scipy

    import studies
    import workloads
    from spans import Tracer

    seeds = workloads.derive_seeds(args.seed)
    full = args.size == "full"
    small_ball = args.workload == "small-ball"
    if small_ball:
        parts = workloads.small_ball_parts(args.size, seeds)
        configs = [p.manifest() for p in parts]
        unit = partial(studies.small_ball_pass, parts, Tracer(False))
        warm = partial(studies.small_ball_pass, workloads.small_ball_parts("smoke", seeds), Tracer(False))
    else:
        cfg = workloads.contraction_config(args.workload, args.size, seeds)
        configs = [dataclasses.asdict(cfg)]
        unit = partial(studies.contraction_study, cfg)
        warm = partial(studies.contraction_study, workloads.contraction_config(args.workload, "smoke", seeds))

    manifest = {
        "workload": args.workload,
        "size": args.size,
        "master_seed": args.seed,
        "seeds": seeds,
        "threads": 1,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        **source_manifest(root),
        "configs": configs,
    }
    checks = studies.Checks()
    setup_s = None
    if not args.trace:
        setup_s = measure_setup(root / "src", args.workload, args.size, 1 if args.size == "smoke" else 3)
    warm()  # lazy imports and first-call set-up inside numpy/scipy stay out of the timing
    if args.trace:
        probes, results = timed_passes(unit, 0.0, 1)
    else:
        # Extra passes must give the same report as the first.  The contraction
        # replay re-runs every cell and must match the study, so those
        # workloads need no second pass; small-ball has no replay and makes two.
        probes, results = timed_passes(unit, args.seconds, 2 if small_ball else 1)
    rss = peak_rss_mb()
    walls = [p.wall for p in probes]
    wall = statistics.median(walls)
    wall_ref = statistics.median(p.ref_s for p in probes)

    tracer = Tracer(bool(args.trace))
    if small_ball:
        if args.trace:
            with tracer.span("harness.replay"):
                results.append(studies.small_ball_pass(parts, tracer))
        outputs = studies.check_small_ball(parts, results, checks, full)
        ess = studies.kept_estimates(results[0])
    else:
        cells = studies.replay_cells(cfg, tracer)
        outputs = studies.check_contraction(cfg, results, cells, checks, full)
        ess = sum(c.ess for c in cells)

    if args.trace:
        if small_ball:
            layers = per_layer_small_ball(tracer, results[0], wall)
        else:
            layers = per_layer_contraction(tracer, cells, wall)
        metrics = {name: metric(layers.get(name, 0.0), unit) for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "wall_ref_s": metric(wall_ref, "s"),
            "ess_per_ref_s": metric(ess / wall_ref, "1/s"),
            "ok_frac": metric(1.0 - checks.failed / checks.attempted, "ratio"),
            "peak_rss_mb": metric(rss, "MB"),
        }
    record = {
        "manifest": manifest,
        "walls": walls,
        "walls_ref": [p.ref_s for p in probes],
        "speeds": [p.speed for p in probes],
        "outputs": outputs,
        "failures": checks.failures,
        "metrics": metrics,
        "self_times": tracer.self_times() if args.trace else None,
        "spans": tracer.export() if args.trace else None,
    }
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "bbayes" / "__init__.py").is_file():
        print("error: run from the root of a bbayes checkout (src/bbayes not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    result, record = run(args, root)

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    seed = "acceptance" if args.seed is None else args.seed
    out_file = out_dir / f"{args.workload}-{args.size}-seed{seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, default=str) + "\n")

    print("manifest " + json.dumps(record["manifest"], default=str))
    print("outputs " + json.dumps(record["outputs"], default=str))
    print("passes " + json.dumps({k: record[k] for k in ("walls", "walls_ref", "speeds")}))
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    if record["self_times"]:
        for name, t in sorted(record["self_times"].items()):
            print(f"self_time {name} {t:.6f} s")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
