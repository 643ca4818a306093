"""Proximity: quality of the constructed neighbourhoods (Sec. IV-A).

The main metric of the original T-Man paper: the mean distance between
a node and its k closest overlay neighbours (k = 4 here, "we represent
the 4 closest nodes returned by T-Man").  Lower is better; on a unit
grid the optimum is 1.0 (the four grid neighbours).

Distances are measured between *current true positions*, read from the
node table: a view entry is a peer id and nothing else, on both engines,
so no view holds a coordinate that could be stale.
"""

from __future__ import annotations

import numpy as np

from ..obs import mem as obs_mem
from ..sim.arrays import block_rows
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..spaces.base import Space


def node_proximity(
    space: Space, sim: Simulation, node: SimNode, k: int = 4
) -> float:
    """Mean distance from ``node`` to its ``k`` closest alive T-Man
    neighbours (by true position).  Returns ``nan`` if the node has no
    alive neighbour at all."""
    topo = sim.topology
    if topo is None:
        return float("nan")
    # Liveness mask over the node's view row, then one gather of the
    # *current* positions from the node table.
    ids = topo.row_ids(node.row)
    alive = ids[sim.network.alive_mask(ids)]
    if len(alive) == 0:
        return float("nan")
    dists = np.sort(space.distance_block(node.pos, sim.network.positions_of(alive)))
    return float(np.mean(dists[: min(k, len(dists))]))


def _view_means(space: Space, table, rows, ids, k: int) -> np.ndarray:
    """:func:`node_proximity` of every row of ``rows`` (``nan`` without
    an alive neighbour) from the padded view matrix ``ids``: each row's
    ``k`` closest entries a row block at a time (:func:`_closest`), then
    the mean of the alive ones of every row at once."""
    width = ids.shape[1]
    if width == 0:
        return np.full(len(rows), np.nan)
    pos = table.coords_rows()
    kk = min(k, width)
    closest = np.empty((len(rows), kk))
    # At the rank a block holds each entry's coordinates and liveness and
    # the kernel's three (rows, width) float blocks: dim + 4 floats an
    # entry, the liveness byte rounded up — one budget in all.
    step = block_rows(0, width, space.dim + 4)
    for a in range(0, len(rows), step):
        closest[a : a + step] = _closest(space, table, pos, ids, rows[a : a + step], kk)
    # Dead entries rank last: a row's count of alive ones among its k
    # closest is ``min(alive, k)``, and their sum is the running sum of
    # its columns with the dead ones zeroed, added left to right.
    alive = np.isfinite(closest)
    cnt = alive.sum(axis=1)
    closest[~alive] = 0.0
    total = closest[:, 0].copy()
    for j in range(1, kk):
        total += closest[:, j]
    return np.where(cnt > 0, total / np.maximum(cnt, 1), np.nan)


def _closest(space: Space, table, pos, ids, blk, kk: int) -> np.ndarray:
    """The ``kk`` least distances from each row of ``blk`` to the
    entries of its view (``ids[blk]``, resolved through the node table's
    sentinel slot) by current true position, ascending; ``inf`` for a
    dead entry.  Each temporary is dropped as soon as it is read, so the
    rank is the block's high-water mark."""
    entry_rows = table.rows_of(ids[blk])
    alive = table.alive_at(entry_rows)
    coords = table.coords_at(entry_rows)
    del entry_rows
    d = space.rank_sq_rows(pos[blk], coords)
    if obs_mem.ENABLED:
        obs_mem.scratch(
            "observer_pads",
            "proximity.distance_pad",
            alive.nbytes + coords.nbytes + 3 * d.nbytes,
        )
    del coords
    np.sqrt(d, out=d)
    d[~alive] = np.inf
    if kk < d.shape[1]:
        d = np.partition(d, kk - 1, axis=1)[:, :kk]
    d.sort(axis=1)
    return d


def proximity(space: Space, sim: Simulation, k: int = 4) -> float:
    """Network-wide mean proximity: the mean of :func:`node_proximity`
    over the alive nodes that have an alive neighbour, scored for both
    engines by one kernel over the padded view matrix
    (:meth:`~repro.sim.engine.Simulation.view_matrix`)."""
    table = sim.network.table
    if table.is_vector:
        means = _view_means(space, table, *sim.view_matrix(), k)
    else:  # object coordinates cannot be packed: the scalar definition
        nodes = sim.network.alive_nodes()
        means = np.array([node_proximity(space, sim, node, k) for node in nodes])
    means = means[~np.isnan(means)]
    return float(np.mean(means)) if len(means) else float("nan")
