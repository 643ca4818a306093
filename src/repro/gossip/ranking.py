"""Distance-ranking helpers shared by the gossip layers.

A topology view is an id column (:class:`~repro.sim.arrays.ViewBuffer`):
the layers rank its peers at their *current* positions, read from the
node table when they rank (:func:`rank_current`), as cycle-driven T-Man
simulators do.  Plain ``{id: coord}`` dicts (tests, ad-hoc probes) rank
at the coordinates they hold (:func:`rank_entries`).  :func:`rank_order`
is the one kernel under both: it returns positions, so a caller can take
the ranked rows of any array it ranked.

Rankings sort by *squared* distance: ``sqrt`` is strictly increasing,
so the order (including the id tie-break) is the order true distances
would produce, one ufunc pass cheaper per call.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..spaces.base import Space
from ..types import Coord, NodeId


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


def rank_entries(
    space: Space,
    origin: Coord,
    entries: Dict[NodeId, Coord],
    limit: Optional[int] = None,
) -> List[NodeId]:
    """Node ids from ``entries`` sorted by distance of their recorded
    coordinate to ``origin``, closest first, optionally truncated.

    Ties are broken by node id so rankings are deterministic.
    """
    if not entries:
        return []
    ids = list(entries.keys())
    coords = space.pack_batch([entries[nid] for nid in ids])
    return [ids[i] for i in rank_order(space, origin, ids, coords, limit)]


def closest_entries(
    space: Space,
    origin: Coord,
    entries: Dict[NodeId, Coord],
    k: int,
) -> Dict[NodeId, Coord]:
    """The ``k`` closest entries as a new id → coord mapping."""
    return {nid: entries[nid] for nid in rank_entries(space, origin, entries, k)}


def truncate_closest(
    space: Space,
    origin: Coord,
    entries: Dict[NodeId, Coord],
    cap: int,
) -> Dict[NodeId, Coord]:
    """Return ``entries`` unchanged if within ``cap``, else only the
    ``cap`` closest to ``origin`` (T-Man's bounded-view rule)."""
    if len(entries) <= cap:
        return entries
    return closest_entries(space, origin, entries, cap)
