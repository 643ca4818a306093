"""The ordinary Euclidean space R^d."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..types import Coord
from .base import Batch, VectorSpace


class Euclidean(VectorSpace):
    """R^d with the standard L2 distance.

    This is the space used when positions are free vectors (no wrap
    around).  Division is well defined here, so the *centroid* projection
    is also meaningful (see :mod:`repro.core.projection` for the
    medoid-vs-centroid ablation).
    """

    def __init__(self, dim: int = 2) -> None:
        super().__init__(dim)

    def distance(self, a: Coord, b: Coord) -> float:
        return math.sqrt(self.distance_sq(a, b))

    def distance_sq(self, a: Coord, b: Coord) -> float:
        total = 0.0
        for x, y in zip(a, b):
            diff = x - y
            total += diff * diff
        return total

    def _sq(self, a: Batch, b: Batch) -> np.ndarray:
        """Squared L2 distances: no fold, the squares summed axis by
        axis in the scalar's order."""
        total = None
        for d in range(self.dim):
            diff = a[..., d] - b[..., d]
            diff *= diff
            total = diff if total is None else np.add(total, diff, out=total)
        return total

    def centroid(self, coords: Sequence[Coord]) -> Coord:
        """Arithmetic mean of the coordinates (well defined in R^d)."""
        if not coords:
            raise ValueError("centroid of an empty set is undefined")
        arr = self.pack_batch(coords)
        return tuple(float(c) for c in arr.mean(axis=0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Euclidean(dim={self.dim})"
