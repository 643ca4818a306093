"""Diameter of a point set: the farthest pair.

The PD heuristic of SPLIT_ADVANCED partitions the union of two guest
sets along one of its *diameters* — a pair ``(u, v)`` maximising
``d(u, v)`` (Sec. III-F).  The search is exact, O(n^2) pairs over one
all-pairs matrix.  The paper suggests sampling unions over about 30
points, purely to save cost; pools stay small, so both engines search
exactly at every size and pick the same pair.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import EmptySelectionError
from ..types import Coord
from .base import Space


def diameter(space: Space, coords: Sequence[Coord]) -> Tuple[int, int]:
    """Indices ``(i, j)``, ``i < j``, of the first farthest pair in
    row-major order.  ``coords`` may be a packed batch (it is used
    as-is).  Squared distances select the same pair, without the n^2
    square roots."""
    batch = space.pack_batch(coords)
    n = len(batch)
    if n < 2:
        raise EmptySelectionError("a diameter needs at least two points")
    pair_sq = space.pairwise_rank_sq(batch)
    best = (0, 1)
    best_dist = -1.0
    for i in range(n - 1):
        dists = pair_sq[i, i + 1 :]
        j_rel = int(np.argmax(dists))
        if dists[j_rel] > best_dist:
            best_dist = float(dists[j_rel])
            best = (i, i + 1 + j_rel)
    return best
