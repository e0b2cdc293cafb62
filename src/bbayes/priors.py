"""Prior families on boundary functions and Hoelder test functions.

Three families: Brownian motion with a standard-normal random start, wavelet
series with level-decaying coefficient amplitudes, and the randomly truncated
wavelet series.  A finite-atom prior is provided for exact closed-form checks.

Every prior is drawn in batches: ``prior.draw(rng, k)`` returns the grid values
of k independent draws as a ``(k, 2**grid_level)`` matrix, row i = draw i.  The
latent priors also expose their latent -> grid map as ``synthesize``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction
from .wavelets import coefficient_count, synthesize_flat

__all__ = [
    "CoefficientDistribution",
    "PriorSpec",
    "BrownianStartPrior",
    "WaveletSeriesPrior",
    "TruncatedWaveletPrior",
    "FinitePrior",
    "build_prior",
    "holder_test_function",
    "parse_kv",
    "parse_prior_config",
    "prior_spec_from_mapping",
]

_KINDS = ("gaussian", "laplace", "uniform")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer and not a bool (which would pass as 0 or 1): the package's one integer rule."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class CoefficientDistribution:
    """Symmetric unimodal coefficient law: gaussian, laplace or uniform.

    ``scale`` is the standard deviation (gaussian), the inverse rate (laplace)
    or the half-width (uniform).
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, got {self.scale!r}")

    def density(self, x):
        x = np.asarray(x, dtype=float)
        s = self.scale
        if self.kind == "gaussian":
            out = np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        elif self.kind == "laplace":
            out = np.exp(-np.abs(x) / s) / (2.0 * s)
        else:
            out = np.where(np.abs(x) <= s, 1.0 / (2.0 * s), 0.0)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x):
        x = np.asarray(x, dtype=float) / self.scale
        if self.kind == "gaussian":
            from scipy.special import ndtr
            out = ndtr(x)
        elif self.kind == "laplace":
            tail = 0.5 * np.exp(-np.abs(x))
            out = np.where(x < 0.0, tail, 1.0 - tail)
        else:
            out = np.clip(0.5 * (x + 1.0), 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def sample(self, rng: np.random.Generator, size=None):
        s = self.scale
        if self.kind == "gaussian":
            return rng.normal(0.0, s, size=size)
        if self.kind == "laplace":
            return rng.laplace(0.0, s, size=size)
        return rng.uniform(-s, s, size=size)


# the optional PriorSpec fields each variant reads
_VARIANTS = {
    "brownian_start": (),
    "wavelet_series": ("alpha", "dist", "j_max"),
    "truncated_wavelet": ("dist", "j_cap"),
}


@dataclass(frozen=True)
class PriorSpec:
    """Declarative description of one of the three prior families.

    A field the variant does not read must be left unset (``None``).
    """

    variant: str
    grid_level: int = 8
    alpha: float | None = None
    dist: CoefficientDistribution | None = None
    j_max: int | None = None
    j_cap: int | None = None

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {tuple(_VARIANTS)}")
        for name in ("grid_level", "j_max", "j_cap"):  # only grid_level is required
            value = getattr(self, name)
            if not (is_integer(value) or value is None and name != "grid_level"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.grid_level < 1:
            raise ValueError("grid_level must be >= 1")
        fields = ("alpha", "dist", "j_max", "j_cap")
        unread = [f for f in fields if getattr(self, f) is not None and f not in _VARIANTS[self.variant]]
        if unread:
            raise ValueError(f"{self.variant} does not read {', '.join(unread)}")
        if self.variant == "wavelet_series":
            if self.alpha is None or not 0.0 < self.alpha < math.inf:
                raise ValueError(f"wavelet_series needs a finite alpha > 0, got {self.alpha!r}")
            if self.dist is None:
                raise ValueError("wavelet_series needs a coefficient distribution")
            if self.j_max is None or not (0 <= self.j_max < self.grid_level):
                raise ValueError("wavelet_series needs 0 <= j_max < grid_level for exact synthesis")
        elif self.variant == "truncated_wavelet":
            if self.dist is None:
                raise ValueError("truncated_wavelet needs a coefficient distribution")
            if self.j_cap is None or not (0 <= self.j_cap < self.grid_level):
                raise ValueError("truncated_wavelet needs 0 <= j_cap < grid_level for exact synthesis")


def wavelet_amplitudes(alpha: float, j_max: int) -> np.ndarray:
    """Flat amplitude vector: 1 for the scaling slot, 2^{-(j/2)(2a+1)} on detail level j."""
    amps = [np.array([1.0])]
    for j in range(j_max + 1):
        amps.append(np.full(1 << j, 2.0 ** (-(j / 2.0) * (2.0 * alpha + 1.0))))
    return np.concatenate(amps)


class WaveletSeriesPrior:
    """Random wavelet series: coefficient (j,k) is d_{j,k} * xi with i.i.d. xi, d the flat ``amplitudes`` vector."""

    def __init__(self, amplitudes: np.ndarray, dist: CoefficientDistribution, j_max: int, grid_level: int):
        self.amplitudes = amplitudes
        self.dist = dist
        self.j_max = j_max
        self.grid_level = grid_level

    @property
    def latent_dim(self) -> int:
        return coefficient_count(self.j_max)

    def synthesize(self, z: np.ndarray) -> np.ndarray:
        """Grid values ``(..., m)`` of latent vectors ``(..., latent_dim)``."""
        return synthesize_flat(self.amplitudes * z, self.j_max, self.grid_level)

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Grid values ``(k, m)`` of k independent prior draws."""
        return self.synthesize(self.dist.sample(rng, size=(k, self.latent_dim)))

    def levels(self) -> list:
        """The prior as a weighted mixture of wavelet series: itself, of weight 1."""
        return [(1.0, self)]


class BrownianStartPrior:
    """Brownian motion plus an independent standard-normal starting value.

    The latent vector is standard normal: slot 0 is the start, slots 1..m are
    standardized increments; bin k carries X_0 + W((k+1)/m).
    """

    def __init__(self, grid_level: int):
        if grid_level < 1:
            raise ValueError("grid_level must be >= 1")
        self.grid_level = grid_level

    @property
    def latent_dim(self) -> int:
        return (1 << self.grid_level) + 1

    def synthesize(self, z: np.ndarray) -> np.ndarray:
        """Grid values ``(..., m)`` of latent vectors ``(..., latent_dim)``."""
        return z[..., :1] + np.cumsum(z[..., 1:], axis=-1) / math.sqrt(1 << self.grid_level)

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Grid values ``(k, m)`` of k independent prior draws."""
        return self.synthesize(rng.standard_normal((k, self.latent_dim)))


class TruncatedWaveletPrior:
    """Randomly truncated wavelet series: P(J=j) proportional to 2^{-j}, unit amplitudes."""

    def __init__(self, dist: CoefficientDistribution, j_cap: int, grid_level: int):
        self.dist = dist
        self.j_cap = j_cap
        self.grid_level = grid_level
        probs = 2.0 ** (-np.arange(j_cap + 1, dtype=float))
        self.level_probabilities = probs / probs.sum()
        self._levels = [(p, self.level_prior(j)) for j, p in enumerate(self.level_probabilities.tolist())]

    def level_prior(self, j: int) -> "WaveletSeriesPrior":
        """The conditional prior given J = j: unit amplitudes up to level j."""
        return WaveletSeriesPrior(np.ones(coefficient_count(j)), self.dist, j, self.grid_level)

    def levels(self) -> list:
        """The prior as a weighted mixture of wavelet series: ``(P(J = j), level_prior(j))`` for j = 0..j_cap, as a
        new list of the pairs built with the prior."""
        return list(self._levels)

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Grid values ``(k, m)`` of k independent prior draws.

        The k levels are drawn first, then ``coefficient_count(j_cap)`` coefficients per row, zeroed
        above the row's level: the dropped ones are independent of the kept ones, so the law is exact.
        """
        levels = rng.choice(self.j_cap + 1, size=k, p=self.level_probabilities)
        z = self.dist.sample(rng, size=(k, coefficient_count(self.j_cap)))
        z[np.arange(z.shape[1]) >= (2 << levels)[:, None]] = 0.0  # level j keeps 2^{j+1} coefficients
        return synthesize_flat(z, self.j_cap, self.grid_level)


class FinitePrior:
    """Finitely supported prior over a fixed list of grid functions at one grid level."""

    def __init__(self, members, weights=None):
        members = list(members)
        if not members:
            raise ValueError("members must be nonempty")
        self.grid_level = members[0].grid_level
        if any(f.grid_level != self.grid_level for f in members):
            raise ValueError("all members must share one grid level")
        if weights is None:
            w = np.full(len(members), 1.0 / len(members))
        else:
            w = np.array(weights, dtype=float)
            if w.shape != (len(members),) or not np.all(np.isfinite(w)) or np.any(w < 0) or w.sum() <= 0:
                raise ValueError("invalid weights")
            w = w / w.sum()
        self.weights = w
        self.values = np.stack([f.values for f in members])  # row i = member i
        self.values.flags.writeable = False

    def draw_indices(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Member indices of k independent prior draws."""
        return rng.choice(len(self.values), size=k, p=self.weights)

    def draw(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """Grid values ``(k, m)`` of k independent prior draws."""
        return self.values[self.draw_indices(rng, k)]


def build_prior(spec: PriorSpec):
    if spec.variant == "brownian_start":
        return BrownianStartPrior(spec.grid_level)
    if spec.variant == "wavelet_series":
        return WaveletSeriesPrior(wavelet_amplitudes(spec.alpha, spec.j_max), spec.dist, spec.j_max, spec.grid_level)
    return TruncatedWaveletPrior(spec.dist, spec.j_cap, spec.grid_level)


# ---------------------------------------------------------------------------
# Hoelder test functions

_TEST_KINDS = ("cusp", "hat", "smooth")


def holder_test_function(beta: float, R: float, kind: str, grid_level: int) -> GridFunction:
    """Named test functions with beta-Hoelder seminorm at most R (calibrated analytically).

    cusp: R |x - 1/2|^beta; hat: (R/2^beta)(1 - 2|x - 1/2|)_+^beta;
    smooth: (R/2pi) sin(2 pi x), beta = 1 only.  Sampled at bin midpoints.
    """
    if not (0.0 < beta <= 1.0):
        raise ValueError(f"beta must lie in (0, 1], got {beta!r}")
    if not R > 0:
        raise ValueError(f"R must be positive, got {R!r}")
    if kind not in _TEST_KINDS:
        raise ValueError(f"kind must be one of {_TEST_KINDS}, got {kind!r}")
    m = 1 << grid_level
    x = (np.arange(m) + 0.5) / m
    if kind == "cusp":
        vals = R * np.abs(x - 0.5) ** beta
    elif kind == "hat":
        vals = (R / 2.0**beta) * np.clip(1.0 - 2.0 * np.abs(x - 0.5), 0.0, None) ** beta
    else:
        if beta != 1.0:
            raise ValueError("smooth kind requires beta = 1")
        vals = (R / (2.0 * math.pi)) * np.sin(2.0 * math.pi * x)
    return GridFunction(grid_level, vals)


# ---------------------------------------------------------------------------
# flat key=value prior config files


def parse_kv(text: str) -> dict[str, str]:
    """Parse flat ``key = value`` lines; ``#`` starts a comment."""
    kv: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = line.split("=", 1)
        kv[key.strip()] = val.strip()
    return kv


def parse_prior_config(text: str) -> PriorSpec:
    """Parse a flat ``key = value`` prior description (see README for the schema)."""
    return prior_spec_from_mapping(parse_kv(text))


def prior_spec_from_mapping(kv: dict[str, str]) -> PriorSpec:
    """PriorSpec from string values; every ValueError names the missing, unreadable or unknown key."""
    kv = dict(kv)

    def take(key, convert, default=None):
        raw = kv.pop(key, None)
        try:
            return default if raw is None else convert(raw)
        except ValueError:
            raise ValueError(f"prior config key {key!r}: cannot read {raw!r}") from None

    dist = None
    if "dist.kind" in kv:
        kind, scale = kv.pop("dist.kind"), take("dist.scale", float, 1.0)
        try:
            dist = CoefficientDistribution(kind, scale)
        except ValueError as exc:  # "kind ..." or "scale ...", named as its key
            raise ValueError(f"dist.{exc}") from None
    spec = PriorSpec(
        variant=kv.pop("variant", None),
        grid_level=take("grid_level", int, 8),
        alpha=take("alpha", float),
        dist=dist,
        j_max=take("j_max", int),
        j_cap=take("j_cap", int),
    )
    if kv:
        raise ValueError(f"unknown prior config keys: {sorted(kv)}")
    return spec

