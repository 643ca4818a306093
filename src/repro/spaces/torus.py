"""Flat torus: a modular d-dimensional space with wrap-around distances.

This is the space of the paper's evaluation (a logical 80x40 torus).  It
is the motivating example for using *medoids* instead of centroids: in a
modular space scalar division is ill defined (the paper's footnote 2:
``4 = 2*x (mod 16)`` has two solutions), so an arithmetic mean is not
meaningful — but the medoid only needs distances.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from ..types import Coord
from .base import Batch, VectorSpace


def _sum_sq(diff: np.ndarray) -> np.ndarray:
    """``Σ diff²`` over the last (axis) dimension: ``diff`` is squared in
    place and its axis columns added left to right — the order of
    :meth:`FlatTorus.rank_sq_rows`, so every rank kernel rounds each
    square before the sum and ranks alike.  (A fused row dot such as
    ``np.vecdot`` may not round the square: on fractional coordinates it
    then ranks two points the other way round.)"""
    diff *= diff
    total = diff[..., 0].copy()
    for d in range(1, diff.shape[-1]):
        total += diff[..., d]
    return total


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
        self._periods_arr = np.asarray(self.periods, dtype=float)

    # -- geometry --------------------------------------------------------

    def wrap(self, coord: Coord) -> Coord:
        """Map any coordinate into the canonical cell ``[0, period)``."""
        return tuple(c % p for c, p in zip(coord, self.periods))

    @property
    def area(self) -> float:
        """Measure (area/volume) of the torus, used for the reference
        homogeneity ``H = 0.5 * sqrt(area / n_nodes)``."""
        return float(np.prod(self._periods_arr))

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

    def distance_block(self, origin: Coord, batch: Batch) -> np.ndarray:
        diff = self._folded_diff(origin, batch)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def distance_sq_block(self, origin: Coord, batch: Batch) -> np.ndarray:
        diff = self._folded_diff(origin, batch)
        return np.einsum("ij,ij->i", diff, diff)

    def _folded_diff(self, origin: Coord, batch: Batch) -> np.ndarray:
        """Per-axis wrapped |Δ|, reusing one scratch array (the ufunc
        chain runs in place; the values match the scalar fold exactly)."""
        if not isinstance(origin, np.ndarray):
            origin = np.asarray(origin, dtype=float)
        periods = self._periods_arr
        diff = np.subtract(batch, origin)
        np.abs(diff, out=diff)
        np.mod(diff, periods, out=diff)
        return np.minimum(diff, periods - diff, out=diff)

    def rank_sq_block(self, origin: Coord, batch: Batch) -> np.ndarray:
        """Squared wrapped distances for *canonical* coordinates (every
        component already in ``[0, period)``): ``|Δ|`` is then below the
        period, so the modular fold reduces to one ``minimum`` — the
        ``% period`` pass of the general kernel is the identity and is
        skipped.  Values are identical to :meth:`distance_sq_block` on
        such inputs."""
        if not isinstance(origin, np.ndarray):
            origin = np.asarray(origin, dtype=float)
        periods = self._periods_arr
        diff = np.subtract(batch, origin)
        np.abs(diff, out=diff)
        np.minimum(diff, periods - diff, out=diff)
        return _sum_sq(diff)

    def distance_rows(self, batch_a: Batch, batch_b: Batch) -> np.ndarray:
        batch_a = np.asarray(batch_a, dtype=float)
        batch_b = np.asarray(batch_b, dtype=float)
        total = None
        # Axis-split accumulation: per-axis contiguous slices vectorise
        # ~3x better than one fused (..., dim) reduction, and the
        # sequential sum keeps the values consistent with
        # :meth:`rank_sq_rows` (the batch merge ranks by one and the
        # legacy flat pipeline consumed the other).
        for d, p in enumerate(self.periods):
            diff = batch_a[..., d] - batch_b[..., d]
            np.abs(diff, out=diff)
            np.mod(diff, p, out=diff)
            np.minimum(diff, p - diff, out=diff)
            diff *= diff
            total = diff if total is None else np.add(total, diff, out=total)
        return np.sqrt(total, out=total)

    def rank_sq_rows(self, origins: Batch, batch: np.ndarray) -> np.ndarray:
        origins = np.asarray(origins, dtype=float)
        total = None
        # Same axis-split accumulation as :meth:`distance_rows`, minus
        # the ``% period`` fold (canonical coordinates — see
        # :meth:`rank_sq_block`).
        for d, p in enumerate(self.periods):
            diff = batch[..., d] - origins[..., d, None]
            np.abs(diff, out=diff)
            np.minimum(diff, p - diff, out=diff)
            diff *= diff
            total = diff if total is None else np.add(total, diff, out=total)
        return total

    def rank_sq_pools(self, pools: np.ndarray) -> np.ndarray:
        """Within-pool all-pairs ranks without the base class's
        materialised expansion: per-axis broadcasting on ``(n, m, m)``
        slices, same operation order as :meth:`rank_sq_rows` (``|Δ|``
        makes the subtraction orientation irrelevant), so the values
        are bit-identical to the default."""
        total = None
        for d, p in enumerate(self.periods):
            ax = pools[:, :, d]
            diff = ax[:, None, :] - ax[:, :, None]
            np.abs(diff, out=diff)
            np.minimum(diff, p - diff, out=diff)
            diff *= diff
            total = diff if total is None else np.add(total, diff, out=total)
        return total

    def pairwise_rank_sq(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        """All-pairs :meth:`rank_sq_block` (canonical coordinates)."""
        if other is None:
            other = batch
        periods = self._periods_arr
        diff = np.subtract(batch[:, None, :], other[None, :, :])
        np.abs(diff, out=diff)
        np.minimum(diff, periods - diff, out=diff)
        return _sum_sq(diff)

    def pairwise_canonical(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        """All-pairs distances for canonical coordinates: ``|Δ|`` is
        below the period, so the ``% period`` of the general fold is the
        numerical identity and is skipped — values are bit-identical to
        :meth:`pairwise` on such inputs."""
        if other is None:
            other = batch
        periods = self._periods_arr
        diff = np.subtract(batch[:, None, :], other[None, :, :])
        np.abs(diff, out=diff)
        np.minimum(diff, periods - diff, out=diff)
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def nearest_canonical(self, batch: Batch, other: Batch) -> np.ndarray:
        """Nearest-row distances through :meth:`rank_sq_rows` against
        the broadcast (not materialised) ``other`` column: ``min`` per
        row, one ``sqrt`` after the ``min`` — ``sqrt`` is monotone and
        correctly rounded, so the result is float-identical to the
        default.  Beyond two axes ``einsum`` sums the squares in another
        order than the axis loop (fractional coordinates then differ in
        the last digit), so those tori keep the default."""
        if self.dim > 2:
            return super().nearest_canonical(batch, other)
        dsq = self.rank_sq_rows(
            batch, np.broadcast_to(other, (len(batch),) + other.shape)
        )
        return np.sqrt(dsq.min(axis=1))

    def pairwise_sq(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        if other is None:
            other = batch
        diff = np.abs(batch[:, None, :] - other[None, :, :]) % self._periods_arr
        diff = np.minimum(diff, self._periods_arr - diff)
        return np.einsum("ijk,ijk->ij", diff, diff)

    def pairwise(self, batch: Batch, other: Optional[Batch] = None) -> np.ndarray:
        if other is None:
            other = batch
        diff = np.abs(batch[:, None, :] - other[None, :, :]) % self._periods_arr
        diff = np.minimum(diff, self._periods_arr - diff)
        return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(f"{p:g}" for p in self.periods)
        return f"FlatTorus({dims})"
