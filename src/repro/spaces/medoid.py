"""Medoid computation.

The medoid of a point set S is the element of S that minimises the sum
of *squared* distances to the other elements (Sec. III-C):

    medoid(S) = argmin_{x0 in S}  sum_{x in S} d(x0, x)^2

Unlike a centroid it is always one of the input points, so it stays
meaningful in modular and non-vector spaces where division (and hence a
mean) is ill defined.

The computation is exact: one all-pairs matrix, O(|S|^2) distances.
The paper suggests sampling above about 30 points, purely to save cost
(Sec. III-F); guest sets stay small (about ``(K+1) / survival-ratio``
points), so both engines compute the exact medoid at every size.

Ties are broken deterministically by input order so that repeated runs
with the same seed are bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import EmptySelectionError
from ..types import Coord
from .base import Space


def medoid_index(space: Space, coords: Sequence[Coord], batch=None) -> int:
    """Index of the medoid of ``coords``: the first point of least cost
    (the strict-< scan over the rows of one all-pairs matrix).  Pass a
    pre-packed ``batch`` to reuse the caller's pack.

    Raises :class:`EmptySelectionError` on an empty input.
    """
    if len(coords) == 0:
        raise EmptySelectionError("medoid of an empty set is undefined")
    if len(coords) <= 2:
        # One point is its own medoid; of two points both costs are the
        # same single squared distance, so the first wins.
        return 0
    dists = space.pairwise(space.pack_batch(coords) if batch is None else batch)
    return int(np.argmin([np.dot(row, row) for row in dists]))


def medoid(space: Space, coords: Sequence[Coord], batch=None) -> Coord:
    """The medoid coordinate of ``coords``."""
    return coords[medoid_index(space, coords, batch=batch)]
