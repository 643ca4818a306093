"""Distance-ranking helpers shared by the gossip layers.

Two input shapes are supported everywhere: plain ``{id: coord}`` dicts
(tests, ad-hoc probes, the routing layer) and the
:class:`~repro.sim.arrays.ViewBuffer` view slots the layers use on the
hot path.  A ViewBuffer *is* an id column and a coordinate batch, so
its rankings read the view's state itself — no per-call list building
or ``np.asarray``.  :func:`rank_order` is the one kernel: it returns
positions, so a caller can take the ranked rows of both arrays.

Rankings sort by *squared* distance: ``sqrt`` is strictly increasing,
so the order (including the id tie-break) is the order true distances
would produce, one ufunc pass cheaper per call.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..sim.arrays import ViewBuffer, take_coords
from ..spaces.base import Space
from ..types import Coord, NodeId

Entries = Union[Dict[NodeId, Coord], ViewBuffer]


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


def rank_ids(
    space: Space,
    origin: Coord,
    ids,
    coords,
    limit: Optional[int] = None,
) -> List[NodeId]:
    """The ids of :func:`rank_order`, as a list."""
    order = rank_order(space, origin, ids, coords, limit)
    if isinstance(ids, np.ndarray):
        return ids[order].tolist()
    return [ids[i] for i in order]


def rank_entries(
    space: Space,
    origin: Coord,
    entries: Entries,
    limit: Optional[int] = None,
) -> List[NodeId]:
    """Node ids from ``entries`` sorted by distance of their recorded
    coordinate to ``origin``, closest first, optionally truncated.

    Ties are broken by node id so rankings are deterministic.
    """
    if not entries:
        return []
    if isinstance(entries, ViewBuffer):
        ids, coords = entries.arrays()
        return rank_ids(space, origin, ids, coords, limit)
    ids = list(entries.keys())
    coords = [entries[nid] for nid in ids]
    return rank_ids(space, origin, ids, space.pack_batch(coords), limit)


def rank_alive(
    space: Space,
    origin: Coord,
    view: ViewBuffer,
    alive_mask: np.ndarray,
    limit: Optional[int] = None,
) -> List[NodeId]:
    """Rank only the view entries whose mask position is True (the
    alive-filtered ranking of ``neighbors()``), off the view's arrays."""
    ids, coords = view.arrays()
    if not alive_mask.all():
        ids = ids[alive_mask]
        coords = take_coords(coords, alive_mask)
    return ids[rank_order(space, origin, ids, coords, limit)].tolist()


def closest_entries(
    space: Space,
    origin: Coord,
    entries: Entries,
    k: int,
) -> Dict[NodeId, Coord]:
    """The ``k`` closest entries as a new id → coord mapping."""
    return {nid: entries[nid] for nid in rank_entries(space, origin, entries, k)}


def truncate_closest(
    space: Space,
    origin: Coord,
    entries: Entries,
    cap: int,
) -> Entries:
    """Return ``entries`` unchanged if within ``cap``, else only the
    ``cap`` closest to ``origin`` (T-Man's bounded-view rule)."""
    if len(entries) <= cap:
        return entries
    return closest_entries(space, origin, entries, cap)
