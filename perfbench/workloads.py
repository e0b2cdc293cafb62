"""Benchmark workloads: the acceptance study configs of criteria 7 and 8 at
three sizes, and the derivation of every study seed from one master seed.

Sizes:

* ``full``  -- the committed acceptance configs (replicates, budgets, eps grids
  and draws exactly as in ``tests/test_acceptance.py``); slope tolerances are
  gated only at this size.
* ``bench`` -- what the benchmark runs by default.  Same priors, f0, n grid,
  samplers and seeds, with fewer replicates, shorter Gibbs chains and only the
  two end points of each small-ball eps grid, so that one pass of each
  workload takes seconds (see README.md for the measured costs).  Slopes are
  printed, not gated: at this size they are too noisy to gate.
* ``smoke`` -- grid level 4 and tiny budgets, for the benchmark's own test.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from bbayes import (
    CoefficientDistribution,
    GridFunction,
    PriorSpec,
    RateStudyConfig,
    WaveletCoefficients,
    build_prior,
    haar_synthesis,
)

WORKLOADS = ("contraction-brownian", "contraction-laplace", "contraction-exact", "small-ball")

# Acceptance seeds (criteria 7a/b/c and 8), in the order derived seeds are drawn.
ACCEPTANCE_SEEDS = {
    "contraction-exact": 101,
    "contraction-brownian": 102,
    "contraction-laplace": 103,
    "sb-centred": 5,
    "sb-decentred": 7,  # shared by the gaussian and laplace decentred parts
    "sb-brownian": 42,
}


def derive_seeds(master: int | None) -> dict[str, int]:
    """Acceptance seeds for ``master=None``; otherwise every seed drawn from ``master``."""
    if master is None:
        return dict(ACCEPTANCE_SEEDS)
    state = np.random.SeedSequence(master).generate_state(len(ACCEPTANCE_SEEDS))
    return {key: int(s) for key, s in zip(ACCEPTANCE_SEEDS, state)}


# ---------------------------------------------------------------------------
# contraction workloads (criterion 7)

_N_GRID = {
    "full": (200.0, 500.0, 1000.0, 2000.0, 5000.0),
    "bench": (200.0, 500.0, 1000.0, 2000.0, 5000.0),
    "smoke": (50.0, 100.0, 200.0, 400.0),
}
# 10 is the smallest replicate count RateStudyConfig accepts.  The Gibbs
# workloads keep the committed 20 at bench size: their summed ESS changes with
# the seed, and 100 cells average that out better than 50.  The exact sampler's
# ESS does not depend on the seed, so 10 replicates suffice there.
_REPLICATES = {
    "contraction-exact": {"full": 20, "bench": 10, "smoke": 10},
    "contraction-brownian": {"full": 20, "bench": 20, "smoke": 10},
    "contraction-laplace": {"full": 20, "bench": 20, "smoke": 10},
}
# Gibbs budgets are cut at bench size so that one 100-cell study takes 5-8 s on
# one core: 15 Brownian sweeps of 512 site updates, 16 wavelet sweeps of 128
# coordinate updates.  The exact sampler keeps its committed budget.
_BUDGET = {
    "contraction-exact": {"full": 1000, "bench": 1000, "smoke": 100},
    "contraction-brownian": {"full": 60_000, "bench": 7680, "smoke": 512},
    "contraction-laplace": {"full": 40_000, "bench": 2048, "smoke": 256},
}


def _grid_level(size: str) -> int:
    return 4 if size == "smoke" else 8


def contraction_config(name: str, size: str, seeds: dict[str, int]) -> RateStudyConfig:
    level = _grid_level(size)
    if name == "contraction-exact":
        prior = PriorSpec(
            variant="truncated_wavelet",
            dist=CoefficientDistribution("gaussian"),
            j_cap=min(5, level - 1),
            grid_level=level,
        )
        f0_kind, f0_R, sampler = "smooth", 1.0, "exact"
    elif name == "contraction-brownian":
        prior = PriorSpec(variant="brownian_start", grid_level=level)
        f0_kind, f0_R, sampler = "hat", 1.0, "mcmc"
    elif name == "contraction-laplace":
        prior = PriorSpec(
            variant="wavelet_series",
            alpha=2.0,
            dist=CoefficientDistribution("laplace"),
            j_max=min(6, level - 1),
            grid_level=level,
        )
        f0_kind, f0_R, sampler = "hat", 2.0, "mcmc"
    else:
        raise ValueError(f"unknown contraction workload {name!r}")
    return RateStudyConfig(
        prior=prior,
        f0_beta=1.0,
        f0_R=f0_R,
        f0_kind=f0_kind,
        n_grid=_N_GRID[size],
        replicates=_REPLICATES[name][size],
        sampler=sampler,
        budget=_BUDGET[name][size],
        seed=seeds[name],
    )


# ---------------------------------------------------------------------------
# small-ball workload (criterion 8)


@dataclass(frozen=True)
class SmallBallPart:
    name: str
    spec: PriorSpec
    h: GridFunction
    h_label: str
    eps_grid: tuple
    draws: int
    seed: int
    beta: float | None  # reference exponent gate; None for the decentred parts
    tol: float = 0.3

    def manifest(self) -> dict:
        out = dataclasses.asdict(self)
        del out["h"]
        return out


def _weierstrass_target(c: float, beta: float, j_max: int, grid_level: int) -> GridFunction:
    detail = tuple(np.full(1 << j, c * 2.0 ** (-j * (beta + 0.5))) for j in range(j_max + 1))
    return haar_synthesis(WaveletCoefficients(0.0, detail), grid_level)


def small_ball_parts(size: str, seeds: dict[str, int]) -> list[SmallBallPart]:
    wl = _grid_level(size)
    bl = 4 if size == "smoke" else 12
    full = size == "full"
    centred_eps = (0.7, 0.6, 0.5, 0.42, 0.36, 0.3) if full else (0.7, 0.3)
    decentred_eps = (1.7, 1.5, 1.3, 1.15, 1.0) if full else (1.7, 1.0)
    brownian_eps = (1.0, 0.7, 0.5, 0.35, 0.25) if full else (1.0, 0.25)
    # Below full size the draws sit at the per-estimate particle floors of
    # run_small_ball_study: 500 per wavelet estimate, 1000 per Brownian run.
    wavelet_draws = 4 * 500 * len(centred_eps)
    target_level = min(4, wl - 1)
    target = _weierstrass_target(1.4, 0.5, target_level, wl)
    target_label = f"weierstrass(c=1.4, beta=0.5, j_max={target_level})"

    def wavelet(kind: str, j_max: int) -> PriorSpec:
        return PriorSpec(
            variant="wavelet_series",
            alpha=1.0,
            dist=CoefficientDistribution(kind),
            j_max=min(j_max, wl - 1),
            grid_level=wl,
        )

    return [
        SmallBallPart(
            "gauss_centred", wavelet("gaussian", 6), GridFunction.constant(0.0, wl), "zero",
            centred_eps, 16_000 if full else wavelet_draws, seeds["sb-centred"], 1.0,
        ),
        SmallBallPart(
            "gauss_decentred", wavelet("gaussian", 4), target, target_label,
            decentred_eps, 30_000 if full else wavelet_draws, seeds["sb-decentred"], None,
        ),
        SmallBallPart(
            "laplace_decentred", wavelet("laplace", 4), target, target_label,
            decentred_eps, 30_000 if full else wavelet_draws, seeds["sb-decentred"], None,
        ),
        SmallBallPart(
            "brownian", PriorSpec(variant="brownian_start", grid_level=bl), GridFunction.constant(0.0, bl),
            "zero", brownian_eps, 16_000 if full else 4 * 1000, seeds["sb-brownian"], 1.0,
        ),
    ]


def build_priors(workload: str, size: str) -> list:
    """Everything a workload needs before its first study call: its priors and targets."""
    seeds = derive_seeds(None)
    if workload == "small-ball":
        return [build_prior(p.spec) for p in small_ball_parts(size, seeds)]
    return [build_prior(contraction_config(workload, size, seeds).prior)]
