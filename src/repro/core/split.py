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


def _partition_by_anchors(
    space: Space,
    points: Sequence[DataPoint],
    anchor_a: Coord,
    anchor_b: Coord,
    batch=None,
) -> SplitResult:
    """Assign each point to the strictly-closer anchor, ties to the
    second — the shared kernel of Algorithms 4 and 5, run as two
    batched squared-distance blocks over the pooled coordinates instead
    of two scalar distance calls per point (squares compare exactly as
    the distances do)."""
    if batch is None:
        batch = space.pack_batch([p.coord for p in points])
    side_a, side_b, _, _ = _partition_with_batches(
        space, points, anchor_a, anchor_b, batch
    )
    return side_a, side_b


def _partition_with_batches(space, points, anchor_a, anchor_b, batch):
    """`_partition_by_anchors` that also returns the two sides' packed
    coordinate rows (sliced from the shared batch), so downstream medoid
    calls skip re-packing."""
    closer_a = space.rank_sq_block(anchor_a, batch) < space.rank_sq_block(
        anchor_b, batch
    )
    side_a: List[DataPoint] = []
    side_b: List[DataPoint] = []
    for point, to_a in zip(points, closer_a):
        (side_a if to_a else side_b).append(point)
    if isinstance(batch, np.ndarray):
        return side_a, side_b, batch[closer_a], batch[~closer_a]
    return side_a, side_b, None, None


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
    return _partition_by_anchors(space, points, pos_p, pos_q)


#: The undecorated basic body the other SPLITs fall back on, so one
#: SPLIT is one timed call.
_split_basic = split_basic.__wrapped__


def _partition_along_diameter(
    space: Space, points: Sequence[DataPoint]
) -> Tuple[List[DataPoint], List[DataPoint]]:
    """PD heuristic: split the points by which diameter endpoint they
    are closer to (ties to the second endpoint, as in Algorithm 5).

    The pooled coordinates are packed once and shared by the diameter
    search and the endpoint partition (array rows serve as the anchor
    origins — zero further conversion)."""
    coords = [p.coord for p in points]
    batch = space.pack_batch(coords)
    i, j = diameter(space, coords, batch=batch)
    if isinstance(batch, np.ndarray):
        u, v = batch[i], batch[j]
    else:
        u, v = coords[i], coords[j]
    return _partition_by_anchors(space, points, u, v, batch=batch)


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
    closer to, minimising the total displacement of p and q."""
    if not cluster_a or not cluster_b:
        # One side empty: nothing to choose; hand the non-empty side to
        # whichever node is closer to its medoid.
        full = cluster_a or cluster_b
        m = medoid(space, [p.coord for p in full])
        if space.distance(m, pos_p) <= space.distance(m, pos_q):
            return (full, [])
        return ([], full)
    m_a = medoid(space, [p.coord for p in cluster_a], batch=batch_a)
    m_b = medoid(space, [p.coord for p in cluster_b], batch=batch_b)
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
    rows of that one batch."""
    if len(points) < 2:
        return _split_basic(space, points, pos_p, pos_q)
    coords = [p.coord for p in points]
    batch = space.pack_batch(coords)
    i, j = diameter(space, coords, batch=batch)
    if isinstance(batch, np.ndarray):
        u, v = batch[i], batch[j]
    else:
        u, v = coords[i], coords[j]
    cluster_u, cluster_v, batch_u, batch_v = _partition_with_batches(
        space, points, u, v, batch
    )
    if not cluster_u or not cluster_v:
        # Degenerate (all points identical): fall back to the basic rule.
        return _split_basic(space, points, pos_p, pos_q)
    return _assign_min_displacement(
        space, cluster_u, cluster_v, pos_p, pos_q, batch_u, batch_v
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
    cluster_u, cluster_v = _partition_along_diameter(space, points)
    if not cluster_u or not cluster_v:
        return _split_basic(space, points, pos_p, pos_q)
    return (cluster_u, cluster_v)


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
