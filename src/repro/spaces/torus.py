"""Flat torus: a modular d-dimensional space with wrap-around distances.

This is the space of the paper's evaluation (a logical 80x40 torus).  It
is the motivating example for using *medoids* instead of centroids: in a
modular space scalar division is ill defined (the paper's footnote 2:
``4 = 2*x (mod 16)`` has two solutions), so an arithmetic mean is not
meaningful — but the medoid only needs distances.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..types import Coord
from .base import Batch, VectorSpace


class FlatTorus(VectorSpace):
    """A d-dimensional flat torus with per-axis periods.

    ``FlatTorus(80, 40)`` is the paper's logical torus: coordinates live
    in ``[0, 80) x [0, 40)`` and distances wrap around both axes.
    """

    def __init__(self, *periods: float) -> None:
        if not periods:
            raise ValueError("FlatTorus needs at least one period")
        if any(p <= 0 for p in periods):
            raise ValueError("torus periods must be positive")
        super().__init__(dim=len(periods))
        self.periods: Tuple[float, ...] = tuple(float(p) for p in periods)

    # -- geometry --------------------------------------------------------

    def wrap(self, coord: Coord) -> Coord:
        """Map any coordinate into the canonical cell ``[0, period)``."""
        return tuple(c % p for c, p in zip(coord, self.periods))

    @property
    def area(self) -> float:
        """Measure (area/volume) of the torus, used for the reference
        homogeneity ``H = 0.5 * sqrt(area / n_nodes)``."""
        return math.prod(self.periods)

    @property
    def max_distance(self) -> float:
        """The diameter of the torus (half-period along every axis)."""
        return math.sqrt(sum((p / 2.0) ** 2 for p in self.periods))

    # -- metric ----------------------------------------------------------

    def distance(self, a: Coord, b: Coord) -> float:
        return math.sqrt(self.distance_sq(a, b))

    def distance_sq(self, a: Coord, b: Coord) -> float:
        total = 0.0
        for x, y, p in zip(a, b, self.periods):
            diff = abs(x - y) % p
            if diff > p / 2.0:
                diff = p - diff
            total += diff * diff
        return total

    def _sq(self, a: Batch, b: Batch) -> np.ndarray:
        """Squared wrapped distances.  Per axis the one fold
        ``min(|Δ|, p − |Δ|)`` — on canonical coordinates ``|Δ| < p``,
        so the scalar's ``% p`` is the identity — then the squares are
        summed axis by axis, the scalar's order.  At most three
        temporaries of the broadcast shape are live: the running sum,
        one axis' ``|Δ|`` and its folded complement."""
        total = None
        for d, p in enumerate(self.periods):
            diff = a[..., d] - b[..., d]
            np.abs(diff, out=diff)
            np.minimum(diff, p - diff, out=diff)
            diff *= diff
            total = diff if total is None else np.add(total, diff, out=total)
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(f"{p:g}" for p in self.periods)
        return f"FlatTorus({dims})"
