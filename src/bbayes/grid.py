"""Dyadic-grid boundary functions and the point-process observation model.

A boundary function is stored piecewise-constant on ``2**grid_level`` equal
bins of [0, 1].  All integrals, distances and feasibility checks below are
exact for this representation.  The observed data are the Poisson process
with intensity ``n * 1(f(x) <= y)`` on the whole strip, drawn as ``bin_minima``
(``simulate_minima``), each bin's first arrival, which costs O(m) at any n and
is never +inf, or as points (``simulate_ppp``) up to a ceiling raised to the
highest of those arrivals, so every bin keeps its lowest point.  The
feasibility check and the H statistic read the minima on the function's grid,
the one observation type; a pattern is reduced to them by ``bin_minima``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GridFunction",
    "PointPattern",
    "integral",
    "positive_part_integral",
    "simulate_ppp",
    "simulate_minima",
    "bin_minima",
    "constraint_satisfied",
    "h_statistic",
]


@dataclass(frozen=True)
class GridFunction:
    """Piecewise-constant function on the dyadic grid of [0, 1].

    ``values[k]`` is the value on the bin ``[k/m, (k+1)/m)`` with
    ``m = 2**grid_level``; ``x = 1`` maps to the last bin, and x outside
    [0, 1] is a ValueError.
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
        if not np.all((x >= 0.0) & (x <= 1.0)):  # a NaN fails both comparisons
            raise ValueError("x must lie in [0, 1]")
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
        # as __eq__ compares on the finer grid: the values at the coarsest level that holds them, -0.0 folded to 0.0
        v, k = self.values + 0.0, 1
        while np.any(v.reshape(k, -1) != v[:: len(v) // k, None]):  # k blocks, each not yet one constant
            k *= 2
        return hash(v[:: len(v) // k].tobytes())

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
        # every check is a negated comparison, which a NaN fails
        if not 0.0 < self.intensity < math.inf:
            raise ValueError("intensity must be positive and finite")
        if not -math.inf < self.ceiling < math.inf:
            raise ValueError("ceiling must be finite")
        xs = np.array(self.xs, dtype=float)
        ys = np.array(self.ys, dtype=float)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("xs and ys must be 1-d arrays of equal length")
        if xs.size and not (xs.min() >= 0.0 and xs.max() <= 1.0):
            raise ValueError("x coordinates must lie in [0, 1]")
        if ys.size and not (ys.min() > -math.inf and ys.max() <= self.ceiling):
            raise ValueError("y coordinates must be finite and not exceed the ceiling")
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


def positive_part_integral(f: GridFunction, g: GridFunction) -> float:
    """Integral of (f - g)_+ over [0, 1]."""
    a, b, _ = common_values(f, g)
    return float(np.maximum(a - b, 0.0).mean())


# ---------------------------------------------------------------------------
# observation model


def _lowest(f: GridFunction, n: float, rng: np.random.Generator):
    """(lowest, seed), drawn in that order: each bin's lowest point, its first arrival f_k + Exp(n / m), and the seed
    of the child generator that draws the points above them; the one draw record of both simulators.  Above the
    first arrival a Poisson process continues, independent of it (Devroye 1986, *Non-Uniform Random Variate
    Generation*, ch. VI)."""
    if not 0.0 < n < math.inf:  # a NaN fails both comparisons
        raise ValueError(f"n must be positive and finite, got {n!r}")
    return f.values + rng.exponential(f.num_bins / n, f.num_bins), rng.integers(2**63)


def simulate_ppp(f: GridFunction, n: float, ceiling: float, rng: np.random.Generator) -> PointPattern:
    """The point process with intensity n*1(f(x) <= y) up to top = max(ceiling, highest lowest point), the pattern's
    ``ceiling``: every bin holds its lowest point (``_lowest``), so its bin minima are the untruncated model's.

    A child generator draws the points above each lowest point, by Poisson splitting Poisson(n * (top - lowest_k) /
    m) of them, uniform between lowest_k and top.  Every x is uniform in its bin.  The lowest points come out first,
    then the rest grouped by bin; nothing reads their order.  A ceiling below max f, or a non-finite n or ceiling,
    is a ValueError."""
    if not -math.inf < ceiling < math.inf:
        raise ValueError(f"ceiling must be finite, got {ceiling!r}")
    if ceiling < f.max():
        raise ValueError(f"ceiling {ceiling!r} is below max f = {f.max()!r}")
    lowest, seed = _lowest(f, n, rng)
    top = max(ceiling, float(lowest.max()))
    child = np.random.default_rng(seed)
    above = np.repeat(np.arange(f.num_bins), child.poisson(n * (top - lowest) / f.num_bins))
    bins = np.concatenate([np.arange(f.num_bins), above])
    ux = child.random(bins.size)
    ys = np.concatenate([lowest, lowest[above] + child.random(above.size) * (top - lowest[above])])
    # b + u rounds up to b + 1 if 1 - u <= half an ulp of b, <= b * 2**-53: u <= 1 - m * 2**-53 keeps x in bin b
    xs = (bins + np.minimum(ux, 1.0 - f.num_bins * 2.0**-53)) / f.num_bins
    return PointPattern(n, top, xs, ys)


def simulate_minima(f: GridFunction, n: float, grid_level: int, rng: np.random.Generator) -> np.ndarray:
    """``bin_minima(simulate_ppp(g, n, c, rng), grid_level)`` for ``g = f.refine(max(grid_level, f.grid_level))``
    and any ceiling c >= max f, a pattern of f, bit for bit from the same draws with equal generator states after,
    and no points: the first arrivals of g (``_lowest``), one exponential per bin and one integer, folded to
    ``grid_level``, so a call costs O(m) at any n on any grid, and no bin is +inf."""
    lowest, _ = _lowest(f.refine(max(grid_level, f.grid_level)), n, rng)
    return lowest.reshape(1 << grid_level, -1).min(axis=1)


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


def _below(values: np.ndarray, mins: np.ndarray) -> bool:
    """True iff ``values`` lie on or below ``mins`` bin-wise; minima of another shape are a ValueError that names
    both shapes, so a one-element array cannot broadcast and pass every function below it."""
    if np.shape(mins) != values.shape:
        raise ValueError(f"minima of shape {np.shape(mins)} are not on f's grid, shape {values.shape}")
    return bool((values <= mins).all())


def constraint_satisfied(f: GridFunction, mins: np.ndarray) -> bool:
    """True iff f lies on or below ``mins``, a pattern's bin minima on f's grid (``bin_minima(pattern,
    f.grid_level)`` or ``simulate_minima``), that is iff every point lies on or above f (``_below``)."""
    return _below(f.values, mins)


def h_statistic(f: GridFunction, f0: GridFunction, mins: np.ndarray, n: float) -> float:
    """Reweighted likelihood e^{n * integral(f - f0)} * 1(f v f0 feasible), from the bin minima of a pattern at
    intensity n on the finer grid of f and f0, checked against ``np.maximum`` of their values there (``_below``),
    with no ``GridFunction`` built.  A non-finite or nonpositive n is a ValueError."""
    if not 0.0 < n < math.inf:  # a NaN fails both comparisons
        raise ValueError(f"n must be positive and finite, got {n!r}")
    a, b, _ = common_values(f, f0)
    if not _below(np.maximum(a, b), mins):
        return 0.0
    return math.exp(n * (integral(f) - integral(f0)))
