"""Distance-ranking helpers shared by the gossip layers.

A topology view is a row of peer ids (:class:`~repro.sim.arrays.ViewStore`):
the layers rank its peers at their *current* positions, read from the
node table when they rank (:func:`rank_current`), as cycle-driven T-Man
simulators do.  :func:`rank_order` is the kernel under it: it returns
positions, so a caller can take the ranked rows of any array it ranked.

Rankings sort by *squared* distance: ``sqrt`` is strictly increasing,
so the order (including the id tie-break) is the order true distances
would produce, one ufunc pass cheaper per call.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..spaces.base import Space
from ..types import Coord


def rank_order(
    space: Space,
    origin: Coord,
    ids,
    coords,
    limit: Optional[int] = None,
) -> np.ndarray:
    """Positions of pre-packed (ids, coords) arrays by distance to
    ``origin``, closest first, ties broken by id.  (Empty input ranks to
    an empty order through the same code path — no special case.)"""
    order = np.lexsort((ids, space.rank_sq_block(origin, coords)))
    return order if limit is None else order[:limit]


def rank_current(
    space: Space,
    table,
    origin: Coord,
    ids: np.ndarray,
    limit: Optional[int] = None,
) -> np.ndarray:
    """``ids`` ranked by the distance of each peer's current position
    (``table``'s, a :class:`~repro.sim.arrays.NodeTable`) to
    ``origin``, closest first, ties broken by id, cut to ``limit``."""
    return ids[rank_order(space, origin, ids, table.gather(ids), limit)]
