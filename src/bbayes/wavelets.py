"""Haar analysis and synthesis on the dyadic grid.

Basis convention: the father function is constant 1; the detail function at
level j, position k is ``2**(j/2)`` on the left half of ``[k/2^j, (k+1)/2^j)``
and ``-2**(j/2)`` on the right half.  Synthesis onto ``2**grid_level`` bins is
exact whenever every detail level is below ``grid_level``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

__all__ = ["WaveletCoefficients", "LevelOverflowError", "haar_synthesis", "haar_analysis", "synthesize_flat"]


class LevelOverflowError(ValueError):
    """A detail level does not fit on the requested grid."""


@dataclass(frozen=True)
class WaveletCoefficients:
    """Scaling coefficient plus detail coefficients per level (level j holds 2**j entries)."""

    scaling: float
    detail: tuple = ()

    def __post_init__(self) -> None:
        levels = []
        for j, arr in enumerate(self.detail):
            a = np.array(arr, dtype=float)
            if a.shape != (1 << j,):
                raise ValueError(f"detail level {j} must have {1 << j} entries, got {a.shape}")
            a.flags.writeable = False
            levels.append(a)
        object.__setattr__(self, "detail", tuple(levels))

    @property
    def max_level(self) -> int:
        """Highest detail level present, -1 if none."""
        return len(self.detail) - 1

    def flatten(self) -> np.ndarray:
        parts = [np.array([self.scaling])]
        parts.extend(self.detail)
        return np.concatenate(parts)

    @classmethod
    def from_flat(cls, flat: np.ndarray, max_level: int) -> "WaveletCoefficients":
        flat = np.asarray(flat, dtype=float)
        detail = []
        pos = 1
        for j in range(max_level + 1):
            detail.append(flat[pos : pos + (1 << j)])
            pos += 1 << j
        if pos != flat.size:
            raise ValueError("flat coefficient vector has wrong length")
        return cls(float(flat[0]), tuple(detail))


def coefficient_count(max_level: int) -> int:
    """Length of the flat coefficient vector for detail levels 0..max_level."""
    return 1 << (max_level + 1) if max_level >= 0 else 1


def synthesize_flat(flat: np.ndarray, max_level: int, grid_level: int) -> np.ndarray:
    """Grid values ``(..., 2**grid_level)`` of flat coefficient vectors ``(..., coefficient_count(max_level))``.

    Coarse to fine, each level doubles the blocks: a block of value v splits
    into ``v + 2^{j/2} c`` (left half) and ``v - 2^{j/2} c`` (right half).
    Leading axes are batch axes.
    """
    if max_level >= grid_level:
        raise LevelOverflowError(f"detail level {max_level} needs more than {1 << grid_level} bins")
    flat = np.asarray(flat, dtype=float)
    v = flat[..., :1]
    for j in range(max_level + 1):
        c = 2.0 ** (j / 2.0) * flat[..., 1 << j : 2 << j]
        v = np.stack([v + c, v - c], axis=-1).reshape(*flat.shape[:-1], 2 << j)
    return np.repeat(v, (1 << grid_level) // v.shape[-1], axis=-1)


def haar_synthesis(c: WaveletCoefficients, grid_level: int) -> GridFunction:
    """Exact piecewise-constant synthesis on 2**grid_level bins."""
    return GridFunction(grid_level, synthesize_flat(c.flatten(), c.max_level, grid_level))


def haar_analysis(f: GridFunction, max_level: int | None = None) -> WaveletCoefficients:
    """Haar coefficients of a grid function; inverse of :func:`haar_synthesis`.

    ``max_level`` defaults to ``grid_level - 1``, which captures the function
    exactly.
    """
    if max_level is None:
        max_level = f.grid_level - 1
    if max_level >= f.grid_level:
        raise LevelOverflowError("max_level must be below grid_level")
    # bin-averages at successively coarser dyadic levels
    means = f.values
    detail = []
    for j in range(f.grid_level - 1, -1, -1):
        even = means[0::2]
        odd = means[1::2]
        if j <= max_level:
            # <f, psi_{j,k}> = 2^{-j/2 - 1} (mean_left - mean_right)
            detail.append((even - odd) * 2.0 ** (-j / 2.0 - 1.0))
        means = 0.5 * (even + odd)
    detail.reverse()
    return WaveletCoefficients(float(means[0]), tuple(detail))
