"""SPLIT functions: repartitioning data points between two nodes.

The migration step (Sec. III-F) pools the guest sets of two interacting
nodes and re-divides them with a SPLIT function.  The paper defines:

* ``SPLIT_BASIC`` (Algorithm 4) — each point goes to the closer of the
  two node positions; a single distributed k-means step.  Can stall in
  locally-stable but globally poor configurations (Fig. 5a).
* ``SPLIT_ADVANCED`` (Algorithm 5) — two heuristics:
  **PD** partitions the pooled points along one of their *diameters*
  (the farthest pair ``(u, v)``: each point joins the closer endpoint);
  **MD** then assigns the two clusters to the two nodes so as to
  minimise total node displacement (comparing medoid-to-position
  distances both ways).

For the Fig. 10b ablation we also expose each heuristic alone:
``SPLIT_PD`` (diameter partition, fixed assignment) and ``SPLIT_MD``
(closest-position partition, displacement-minimising assignment).

All variants return a true partition of the input (disjoint, complete)
— a property-based test enforces this for every variant in every space.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs.trace import timed
from ..spaces.base import Space
from ..spaces.diameter import diameter
from ..spaces.medoid import medoid
from ..types import Coord, DataPoint

SplitResult = Tuple[List[DataPoint], List[DataPoint]]
SplitFunction = Callable[[Space, Sequence[DataPoint], Coord, Coord], SplitResult]


def _closer_to_first(space: Space, anchor_a, anchor_b, batch) -> np.ndarray:
    """Which packed points are strictly closer to ``anchor_a`` than to
    ``anchor_b`` (ties to the second) — the shared rule of Algorithms 4
    and 5, as two batched squared-distance blocks (squares compare
    exactly as the distances do)."""
    return space.rank_sq_block(anchor_a, batch) < space.rank_sq_block(anchor_b, batch)


def _sides(points: Sequence[DataPoint], to_a: np.ndarray) -> SplitResult:
    """``points`` split by the mask ``to_a``, each side in input order."""
    side_a: List[DataPoint] = []
    side_b: List[DataPoint] = []
    for point, a in zip(points, to_a):
        (side_a if a else side_b).append(point)
    return side_a, side_b


@timed("kernel.split.basic")
def split_basic(
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """Algorithm 4: each point joins the strictly-closer node position;
    ties go to q (the paper uses ``<`` for p and ``<=`` for q)."""
    if not points:
        return [], []
    batch = space.pack_batch([p.coord for p in points])
    return _sides(points, _closer_to_first(space, pos_p, pos_q, batch))


#: The undecorated basic body the other SPLITs fall back on, so one
#: SPLIT is one timed call.
_split_basic = split_basic.__wrapped__


def _along_diameter(space: Space, points: Sequence[DataPoint]):
    """The PD heuristic's pack → diameter → partition steps: the pooled
    coordinates packed once, and the mask of the points strictly closer
    to the first endpoint of a diameter than to the second (ties to the
    second, as in Algorithm 5).  The diameter search and the partition
    read the one batch; its rows serve as the endpoint origins."""
    batch = space.pack_batch([p.coord for p in points])
    i, j = diameter(space, batch)
    return batch, _closer_to_first(space, batch[i], batch[j], batch)


def _assign_min_displacement(
    space: Space,
    cluster_a: List[DataPoint],
    cluster_b: List[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
    batch_a=None,
    batch_b=None,
) -> SplitResult:
    """MD heuristic: give each node the cluster whose medoid it is
    closer to, minimising the total displacement of p and q.  Both
    clusters are non-empty: every caller returns before on a one-sided
    pool."""
    m_a = medoid(space, [p.coord for p in cluster_a], batch=batch_a)
    m_b = medoid(space, [p.coord for p in cluster_b], batch=batch_b)
    return _assign_by_medoids(space, cluster_a, cluster_b, m_a, m_b, pos_p, pos_q)


def _assign_by_medoids(
    space: Space,
    cluster_a: List[DataPoint],
    cluster_b: List[DataPoint],
    m_a: Coord,
    m_b: Coord,
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """MD's comparison: ``(cluster_a, cluster_b)`` when giving p the
    cluster of medoid ``m_a`` displaces the two nodes strictly less in
    total, else ``(cluster_b, cluster_a)``."""
    delta_ab = space.distance(m_a, pos_p) + space.distance(m_b, pos_q)
    delta_ba = space.distance(m_b, pos_p) + space.distance(m_a, pos_q)
    if delta_ab < delta_ba:
        return (cluster_a, cluster_b)
    return (cluster_b, cluster_a)


@timed("kernel.split.advanced")
def split_advanced(
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """Algorithm 5: PD partition + MD assignment.

    The pooled coordinates are packed exactly once; the diameter
    search, the endpoint partition and both cluster medoids all read
    rows of that one batch.

    Two points are their own diameter: unless they coincide (then the
    basic rule applies, as for any degenerate pool) each is its own
    cluster and medoid, and only MD's comparison runs — a scalar body,
    which on two points beats the batched kernels it skips."""
    if len(points) < 2:
        return _split_basic(space, points, pos_p, pos_q)
    if len(points) == 2:
        a, b = points
        if space.distance_sq(b.coord, a.coord) > 0.0:
            return _assign_by_medoids(space, [a], [b], a.coord, b.coord, pos_p, pos_q)
        return _split_basic(space, points, pos_p, pos_q)
    batch, to_u = _along_diameter(space, points)
    if to_u.all() or not to_u.any():
        # Degenerate (all points identical): fall back to the basic rule.
        return _split_basic(space, points, pos_p, pos_q)
    cluster_u, cluster_v = _sides(points, to_u)
    return _assign_min_displacement(
        space, cluster_u, cluster_v, pos_p, pos_q, batch[to_u], batch[~to_u]
    )


@timed("kernel.split.pd")
def split_pd(
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """PD alone: diameter partition with a fixed (endpoint-order)
    assignment — isolates the partitioning heuristic (Fig. 10b)."""
    if len(points) < 2:
        return _split_basic(space, points, pos_p, pos_q)
    _, to_u = _along_diameter(space, points)
    if to_u.all() or not to_u.any():
        return _split_basic(space, points, pos_p, pos_q)
    return _sides(points, to_u)


@timed("kernel.split.md")
def split_md(
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """MD alone: the basic closest-position partition, but with the
    displacement-minimising cluster-to-node assignment (Fig. 10b)."""
    cluster_p, cluster_q = _split_basic(space, points, pos_p, pos_q)
    if not cluster_p or not cluster_q:
        return (cluster_p, cluster_q)
    return _assign_min_displacement(space, cluster_p, cluster_q, pos_p, pos_q)


_SPLITS = {
    "basic": split_basic,
    "pd": split_pd,
    "md": split_md,
    "advanced": split_advanced,
}


def make_split(name: str) -> SplitFunction:
    """Look up a SPLIT function by configuration name."""
    try:
        return _SPLITS[name]
    except KeyError:
        raise ConfigurationError(f"unknown split function {name!r}") from None
