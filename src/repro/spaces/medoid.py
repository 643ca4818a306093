"""Medoid computation.

The medoid of a point set S is the element of S that minimises the sum
of *squared* distances to the other elements (Sec. III-C):

    medoid(S) = argmin_{x0 in S}  sum_{x in S} d(x0, x)^2

Unlike a centroid it is always one of the input points, so it stays
meaningful in modular and non-vector spaces where division (and hence a
mean) is ill defined.

:func:`medoid_rows` is the one statement of the cost, for every caller
in both engines: the MD step of SPLIT (:mod:`repro.core.split`), the
batch engine's projection and :func:`medoid_index`, its one-row call.
It sums the squared distances of the space's batched kernel — exact on
the evaluation's integer grids — and takes the first point of least
cost, so ties go to the earlier point and repeated runs with the same
seed are bit-for-bit reproducible.

The computation is exact: one all-pairs matrix, O(|S|^2) distances.
The paper suggests sampling above about 30 points, purely to save cost
(Sec. III-F); guest sets stay small (about ``(K+1) / survival-ratio``
points), so both engines compute the exact medoid at every size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import EmptySelectionError
from ..types import Coord
from .base import Space


def medoid_rows(pair_sq: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Medoid index of each row's member set.

    ``pair_sq`` ``(..., g, g)`` holds the squared distances within each
    row of ``g`` points and ``members`` ``(..., g)`` marks the points of
    the set.  A member's cost is its sum of squared distances to the
    members (a non-member adds an exact zero); the first member of least
    cost wins.  A row without members returns 0."""
    cost = (pair_sq * members[..., None, :]).sum(axis=-1)
    cost[~members] = np.inf
    return np.argmin(cost, axis=-1)


def medoid_index(space: Space, coords: Sequence[Coord]) -> int:
    """Index of the medoid of ``coords``: the one-row call of
    :func:`medoid_rows`.

    Raises :class:`EmptySelectionError` on an empty input.
    """
    if len(coords) == 0:
        raise EmptySelectionError("medoid of an empty set is undefined")
    if len(coords) <= 2:
        # One point is its own medoid; of two points both costs are the
        # same single squared distance, so the first wins.
        return 0
    pair_sq = space.pairwise_rank_sq(coords)
    return int(medoid_rows(pair_sq, np.ones(len(coords), dtype=bool)))


def medoid(space: Space, coords: Sequence[Coord]) -> Coord:
    """The medoid coordinate of ``coords``."""
    return coords[medoid_index(space, coords)]
