"""Homogeneity: how well the original shape is conserved (Sec. IV-A).

For every initial data point ``x``, measure the distance to the nearest
node *holding* ``x`` as a guest; if no alive node holds it (the point
was lost in the failure), fall back to the nearest node of the whole
network (the paper's ĝuests⁻¹ definition).  Homogeneity is the mean of
these distances over all data points; lower is better, and an ideally
uniform distribution of N nodes over an area A stays below
``H = 0.5·sqrt(A/N)``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..obs import mem as obs_mem
from ..sim.arrays import block_rows
from ..sim.network import SimNode
from ..spaces.base import Space
from ..types import DataPoint, PointId


def pack_points(space: Space, points: Sequence[DataPoint]):
    """The static side of :func:`homogeneity` — the id column and the
    packed coordinate batch of ``points`` — for callers that hold the
    same points for a whole run and pack them once, not every round."""
    pids = np.fromiter((p.pid for p in points), np.int64, len(points))
    return pids, space.pack_batch([p.coord for p in points])


def node_rows(nodes: Sequence[SimNode]) -> np.ndarray:
    """The table rows of table-backed ``nodes``."""
    return np.fromiter((node._row for node in nodes), np.int64, len(nodes))


def holder_index(nodes: Sequence[SimNode], placement) -> Dict[PointId, List[SimNode]]:
    """Map each point id to the alive nodes holding it as a guest
    (the inverse image ``guests⁻¹``)."""
    by_row = {node.row: node for node in nodes}
    index: Dict[PointId, List[SimNode]] = {}
    pids, rows = placement.holder_pairs(node_rows(nodes))
    for pid, row in zip(pids.tolist(), rows.tolist()):
        index.setdefault(pid, []).append(by_row[row])
    return index


def holder_multiplicity(nodes: Sequence[SimNode], placement):
    """Mean number of nodes holding a held point as a guest (1.0 in a
    converged system), or ``None`` when nothing is held."""
    pids = placement.holder_pairs(node_rows(nodes))[0].tolist()
    return len(pids) / len(set(pids)) if pids else None


def homogeneity(
    space: Space,
    points: Sequence[DataPoint],
    alive_nodes: Sequence[SimNode],
    placement,
    packed=None,
) -> float:
    """Mean distance from each original data point to its nearest
    primary holder (or nearest node at all, if the point was lost).

    ``placement`` is the simulation's
    :class:`~repro.sim.placement.PlacementStore`, where the guest
    entries are read.  Vector spaces take the flat-array kernel,
    :func:`_homogeneity_table`: holder multiplicity via ``bincount``,
    positions read straight off the coordinate column, one row-paired
    :meth:`~repro.spaces.base.Space.distance_rows` call for the
    single-holder points (every point of a converged system), lost
    points through the row-blocked nearest-node kernel.
    Object-coordinate spaces take the per-point loop below — the
    definition, and the oracle the kernel is tested against
    (``tests/test_metrics_homogeneity``).  ``packed`` is
    ``pack_points(space, points)`` when the caller already holds it.
    """
    if not points:
        return 0.0
    if not alive_nodes:
        raise ValueError("homogeneity is undefined on an empty network")
    table = alive_nodes[0]._table
    if table.is_vector:
        rows = node_rows(alive_nodes)
        hp, hr = placement.holder_pairs(rows)
        return _homogeneity_table(
            space, packed or pack_points(space, points), hp, hr, rows, table
        )
    holders = holder_index(alive_nodes, placement)
    all_positions = space.pack_batch([node.pos for node in alive_nodes])
    total = 0.0
    for point in points:
        holding = holders.get(point.pid)
        if holding:
            total += min(space.distance(point.coord, node.pos) for node in holding)
        else:
            total += float(np.min(space.distance_block(point.coord, all_positions)))
    return total / len(points)


def _nearest_node(space: Space, queries: np.ndarray, positions: np.ndarray):
    """Distance from each query point to its nearest node position, one
    :func:`~repro.sim.arrays.block_rows` block of queries at a time: the
    distance block is O(block), not ``len(queries) * len(positions)``.
    One query row is network-sized, so there is no row floor.
    Float-identical to the least of each query's ``space.distance`` to
    the positions, on the canonical coordinates a simulation stores."""
    out = np.empty(len(queries))
    # The torus kernel holds three (rows, n) float blocks at once: the
    # running sum, one axis' |Δ| and its folded complement — one budget.
    step = block_rows(0, len(positions), 3, 1)
    for a in range(0, len(queries), step):
        out[a : a + step] = space.nearest_distance(queries[a : a + step], positions)
    if obs_mem.ENABLED:
        obs_mem.scratch(
            "observer_pads",
            "homogeneity.nearest",
            3 * 8 * min(step, len(queries)) * len(positions),
        )
    return out


def _homogeneity_table(
    space: Space,
    packed,
    hp: np.ndarray,
    hr: np.ndarray,
    all_rows: np.ndarray,
    table,
) -> float:
    """Flat-array :func:`homogeneity` for table-backed nodes (see the
    docstring there): ``hp``/``hr`` are the guest entries as (point id,
    holder row) pairs, ``all_rows`` the rows of all the nodes."""
    pt_pids, pt_coords = packed
    size = int(max(hp.max(initial=-1), pt_pids.max(initial=-1))) + 1
    counts = np.bincount(hp, minlength=size)
    pcount = counts[pt_pids]
    pos_all = table.coords_rows()
    total = 0.0
    # Each part drops its point-length temporaries before the next, so
    # the lost points' distance blocks sit beside the counts only.
    single = pcount == 1
    if single.any():
        hrow = np.zeros(size, dtype=np.int64)
        hrow[hp] = hr  # unique writer for single-holder pids
        rows = hrow[pt_pids[single]]
        del hrow
        total += float(
            np.sum(space.distance_rows(pt_coords[single], pos_all[rows]))
        )
        del rows
    multi = pcount > 1
    if multi.any():
        # Multiply-held points (recovery spikes): one distance per
        # holder entry, min-reduced per pid (the min over a holder set
        # is order-independent), summed in point order.
        coord_of = np.zeros((size,) + pt_coords.shape[1:])
        coord_of[pt_pids] = pt_coords
        held = counts[hp] > 1
        best = np.full(size, np.inf)
        np.minimum.at(
            best, hp[held], space.distance_rows(coord_of[hp[held]], pos_all[hr[held]])
        )
        total += float(np.sum(best[pt_pids[multi]]))
        del coord_of, held, best
    lost = pcount == 0
    if lost.any():
        total += float(
            np.sum(_nearest_node(space, pt_coords[lost], table.coords_at(all_rows)))
        )
    return total / len(pt_pids)


def lost_points(
    points: Sequence[DataPoint], alive_nodes: Sequence[SimNode], placement
) -> List[DataPoint]:
    """Points with no alive primary holder."""
    held = set(placement.holder_pairs(node_rows(alive_nodes))[0].tolist())
    return [point for point in points if point.pid not in held]


def surviving_fraction(
    points: Sequence[DataPoint], alive_nodes: Sequence[SimNode], placement
) -> float:
    """Fraction of data points held (as guest *or* ghost) by at least
    one alive node — the paper's *reliability* (Table II).

    A point survives a failure "if either its primary holder ... or one
    of its backup nodes ... survives" (Sec. III-D).
    """
    if not points:
        return 1.0
    if not alive_nodes:
        return 0.0
    pids = np.fromiter((p.pid for p in points), np.int64, len(points))
    held = placement.held_mask(
        alive_nodes[0]._table, node_rows(alive_nodes), int(pids.max()) + 1
    )
    return int(held[pids].sum()) / len(points)
