"""Dyadic-grid boundary functions and the point-process observation model.

A boundary function is stored piecewise-constant on ``2**grid_level`` equal
bins of [0, 1].  All integrals, distances and feasibility checks below are
exact for this representation.  The observed data are Poisson point patterns
with intensity ``n * 1(f(x) <= y)``, simulated bin by bin (so grouped by bin) on
the finite window ``{f(x) <= y <= ceiling}``; feasibility reads ``bin_minima``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridFunction",
    "PointPattern",
    "DominationError",
    "integral",
    "l1_distance",
    "positive_part_integral",
    "hellinger_affinity",
    "hellinger_distance_sq",
    "kl_divergence",
    "simulate_ppp",
    "bin_minima",
    "constraint_satisfied",
    "log_likelihood_ratio",
    "h_statistic",
]


class DominationError(ValueError):
    """Likelihood ratio requested for a pair where the reference law does not dominate."""


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on the dyadic grid of [0, 1].

    ``values[k]`` is the value on the bin ``[k/m, (k+1)/m)`` with
    ``m = 2**grid_level``; ``x = 1`` maps to the last bin.
    """

    grid_level: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.grid_level < 0:
            raise ValueError("grid_level must be nonnegative")
        vals = np.array(self.values, dtype=float)
        m = 1 << self.grid_level
        if vals.shape != (m,):
            raise ValueError(f"expected {m} values for grid_level {self.grid_level}, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, c: float, grid_level: int = 0) -> "GridFunction":
        return cls(grid_level, np.full(1 << grid_level, float(c)))

    @property
    def num_bins(self) -> int:
        return self.values.size

    def __call__(self, x):
        """Evaluate at x in [0, 1] (vectorized, left-closed bins)."""
        x = np.asarray(x, dtype=float)
        m = self.num_bins
        idx = np.minimum(np.floor(x * m).astype(int), m - 1)
        out = self.values[idx]
        return float(out) if np.isscalar(x) or x.ndim == 0 else out

    def refine(self, grid_level: int) -> "GridFunction":
        """Replicate bins up to a finer dyadic level (exact)."""
        if grid_level < self.grid_level:
            raise ValueError("cannot coarsen a grid function")
        if grid_level == self.grid_level:
            return self
        return GridFunction(grid_level, np.repeat(self.values, 1 << (grid_level - self.grid_level)))

    def max(self) -> float:
        return float(self.values.max())

    def min(self) -> float:
        return float(self.values.min())

    def pointwise_max(self, other: "GridFunction") -> "GridFunction":
        a, b, lvl = common_values(self, other)
        return GridFunction(lvl, np.maximum(a, b))

    def pointwise_min(self, other: "GridFunction") -> "GridFunction":
        a, b, lvl = common_values(self, other)
        return GridFunction(lvl, np.minimum(a, b))

    def shift(self, c: float) -> "GridFunction":
        return GridFunction(self.grid_level, self.values + c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        a, b, _ = common_values(self, other)
        return bool(np.array_equal(a, b))

    def __hash__(self) -> int:
        return hash((self.grid_level, self.values.tobytes()))

    def to_csv(self) -> str:
        lines = [f"# grid_level={self.grid_level}"]
        lines.extend(repr(float(v)) for v in self.values)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "GridFunction":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("# grid_level="):
            raise ValueError("missing '# grid_level=<L>' header")
        level = int(lines[0].split("=", 1)[1])
        vals = np.array([float(ln) for ln in lines[1:]])
        return cls(level, vals)


def common_values(f: GridFunction, g: GridFunction):
    """Values of both functions on the finer of the two grids."""
    lvl = max(f.grid_level, g.grid_level)
    return f.refine(lvl).values, g.refine(lvl).values, lvl


@dataclass(frozen=True)
class PointPattern:
    """A realized point pattern: intensity level n, simulation ceiling, support points."""

    intensity: float
    ceiling: float
    xs: np.ndarray = field(default_factory=lambda: np.empty(0))
    ys: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        if not self.intensity > 0:
            raise ValueError("intensity must be positive")
        xs = np.array(self.xs, dtype=float)
        ys = np.array(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if xs.size and (xs.min() < 0.0 or xs.max() > 1.0):
            raise ValueError("x coordinates must lie in [0, 1]")
        if ys.size and ys.max() > self.ceiling:
            raise ValueError("y coordinates must not exceed the ceiling")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return self.xs.size

    @property
    def points(self):
        return list(zip(self.xs.tolist(), self.ys.tolist()))

    def to_csv(self) -> str:
        lines = [f"# intensity={float(self.intensity)!r} ceiling={float(self.ceiling)!r}", "x,y"]
        lines.extend(f"{float(x)!r},{float(y)!r}" for x, y in zip(self.xs, self.ys))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PointPattern":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing '# intensity=<n> ceiling=<y_max>' header")
        header = dict(tok.partition("=")[::2] for tok in lines[0].lstrip("# ").split())
        missing = [key for key in ("intensity", "ceiling") if key not in header]
        if missing:
            raise ValueError(f"header {lines[0]!r} lacks {' and '.join(missing)}")
        xs, ys = [], []
        for row in (ln for ln in lines[1:] if ln != "x,y"):
            try:
                x, y = map(float, row.split(","))
            except ValueError:
                raise ValueError(f"row {row!r} is not 'x,y'") from None
            xs.append(x)
            ys.append(y)
        return cls(float(header["intensity"]), float(header["ceiling"]), xs, ys)


# ---------------------------------------------------------------------------
# function arithmetic


def integral(f: GridFunction) -> float:
    """Exact integral of f over [0, 1] (mean of bin values)."""
    return float(f.values.mean())


def l1_distance(f: GridFunction, g: GridFunction) -> float:
    a, b, _ = common_values(f, g)
    return float(np.abs(a - b).mean())


def positive_part_integral(f: GridFunction, g: GridFunction) -> float:
    """Integral of (f - g)_+ over [0, 1]."""
    a, b, _ = common_values(f, g)
    return float(np.maximum(a - b, 0.0).mean())


def hellinger_affinity(f: GridFunction, g: GridFunction, n: float) -> float:
    """exp(-(n/2) * ||f - g||_1), the affinity of the two point-process laws."""
    if not n > 0:
        raise ValueError("n must be positive")
    return math.exp(-0.5 * n * l1_distance(f, g))


def hellinger_distance_sq(f: GridFunction, g: GridFunction, n: float) -> float:
    return 2.0 - 2.0 * hellinger_affinity(f, g, n)


def kl_divergence(f0: GridFunction, f: GridFunction, n: float) -> float:
    """n * ||f0 - f||_1 when f <= f0 bin-wise, +inf otherwise (strict)."""
    if not n > 0:
        raise ValueError("n must be positive")
    a, b, _ = common_values(f0, f)
    if np.any(b > a):
        return math.inf
    return n * float(np.abs(a - b).mean())


# ---------------------------------------------------------------------------
# observation model


def simulate_ppp(f: GridFunction, n: float, ceiling: float, rng: np.random.Generator) -> PointPattern:
    """Simulate the point process with intensity n*1(f(x) <= y), truncated at the ceiling.

    By Poisson splitting, bin k holds Poisson(n * gap_k / m) points, gap_k =
    ceiling - f_k, independently of the other bins, uniform on its rectangle
    between f_k and the ceiling.  The points come out grouped by bin; nothing
    reads their order.  A ceiling below max f would empty the bins above it, a
    law other than the model's, so it is a ValueError.
    """
    if not n > 0:
        raise ValueError("n must be positive")
    if ceiling < f.max():
        raise ValueError(f"ceiling {ceiling!r} is below max f = {f.max()!r}")
    m = f.num_bins
    gaps = ceiling - f.values
    bins = np.repeat(np.arange(m), rng.poisson(n * gaps / m))
    xs = (bins + rng.uniform(size=bins.size)) / m
    ys = f.values[bins] + rng.uniform(size=bins.size) * gaps[bins]
    return PointPattern(n, ceiling, xs, ys)


def bin_minima(pattern: PointPattern, grid_level: int) -> np.ndarray:
    """Per-bin minimum point ordinate (+inf on empty bins).

    A piecewise-constant function at this grid level is feasible iff its
    values lie below these minima bin-wise.
    """
    m = 1 << grid_level
    mins = np.full(m, np.inf)
    idx = np.minimum(np.floor(pattern.xs * m).astype(int), m - 1)
    np.minimum.at(mins, idx, pattern.ys)
    return mins


def constraint_satisfied(f: GridFunction, pattern: PointPattern) -> bool:
    """True iff every point lies on or above f, that is f lies below the bin minima at its level."""
    return bool(np.all(f.values <= bin_minima(pattern, f.grid_level)))


def log_likelihood_ratio(f: GridFunction, g: GridFunction, pattern: PointPattern, n: float) -> float:
    """log dP_f/dP_g evaluated at the pattern; defined only for g <= f bin-wise."""
    if not n > 0:
        raise ValueError("n must be positive")
    a, b, _ = common_values(f, g)
    if np.any(b > a):
        raise DominationError("dP_f/dP_g requires g <= f bin-wise")
    if not constraint_satisfied(f, pattern):
        return -math.inf
    return n * (integral(f) - integral(g))


def h_statistic(f: GridFunction, f0: GridFunction, pattern: PointPattern, n: float) -> float:
    """Reweighted likelihood e^{n * integral(f - f0)} * 1(f v f0 feasible against the data)."""
    if not n > 0:
        raise ValueError("n must be positive")
    if not constraint_satisfied(f.pointwise_max(f0), pattern):
        return 0.0
    return math.exp(n * (integral(f) - integral(f0)))
