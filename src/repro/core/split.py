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

This module is the one statement of these rules, for both engines.
:func:`batch_split` pads ``M`` pools into one ``(M, P)`` block and runs
each variant as a handful of array kernels; the batch engine splits a
whole migration wave with it, and the event engine's per-exchange
functions (:func:`split_basic`, :func:`split_pd`, :func:`split_md`,
:func:`split_advanced`) are its one-pool call — pack once, every slot
valid.  The selection rules:

* strict comparisons throughout: a point ties to q in Algorithm 4 and
  to the second diameter endpoint in PD, and MD keeps the first
  cluster on p only when that displaces the nodes strictly less;
* the diameter is the first farthest pair in row-major order, the
  medoid the first point of least cost
  (:func:`~repro.spaces.medoid.medoid_rows`), both exact at every pool
  size (the paper's sampling above 30 points only saves cost);
* a pool the partition leaves one-sided (identical points) takes the
  basic rule.

The one scalar body left is SPLIT_ADVANCED's two-point base case, which
on the pool the event engine meets most often beats the array kernels
it skips.  All variants return a true partition of the input (disjoint,
complete) — a property-based test enforces this for every variant in
every space.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from ..errors import ConfigurationError
from ..obs import mem as _mem
from ..obs.trace import timed
from ..sim.arrays import block_rows
from ..spaces.base import Space
from ..spaces.medoid import medoid_rows
from ..types import Coord, DataPoint

SplitResult = Tuple[List[DataPoint], List[DataPoint]]
SplitFunction = Callable[[Space, Sequence[DataPoint], Coord, Coord], SplitResult]

VARIANTS = ("basic", "pd", "md", "advanced")


@timed("kernel.batch_split")
def batch_split(
    space: Space,
    variant: str,
    coords: np.ndarray,
    valid: np.ndarray,
    pos_p: np.ndarray,
    pos_q: np.ndarray,
) -> np.ndarray:
    """Side assignment for every pool: ``True`` sends the point to node
    p, ``False`` to node q (positions of invalid padding are arbitrary —
    mask with ``valid``).  ``coords`` is ``(M, P, dim)``, or ``(M, P)``
    of objects in a non-vector space; ``pos_p`` / ``pos_q`` hold one
    packed position per pool.  Pools split independently, so a wave runs
    one :func:`~repro.sim.arrays.block_rows` block of pools at a time; a
    pool holds three ``(P, P)`` float temporaries at once (the pair
    matrix and either the diameter's masked copy or the two medoid cost
    products)."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown split function {variant!r}")
    M, P = coords.shape[:2]
    step = block_rows(0, P * P, 3)
    side = np.empty((M, P), dtype=bool)
    for a in range(0, M, step):
        blk = slice(a, a + step)
        side[blk] = _split_block(
            space, variant, coords[blk], valid[blk], pos_p[blk], pos_q[blk]
        )
    return side


def _to_nodes(space: Space, coords, pos_p, pos_q) -> np.ndarray:
    """``(2, M, P)`` squared distances from p and from q to every pool
    point: Algorithm 4's comparison, and MD's displacement legs once the
    medoids are known.  One stacked rank call for both node positions:
    later migration waves are small, so halving the kernel launches
    beats the copy."""
    both = space.rank_sq_rows(
        np.concatenate([pos_p, pos_q]), np.concatenate([coords, coords])
    )
    return both.reshape(2, len(coords), -1)


#: Broadcasts a cluster mask ``(M, 1, P)`` to ``(M, 2, P)``: cluster A,
#: then its complement B.
_A_THEN_B = np.array([[True], [False]])


def _split_block(space, variant, coords, valid, pos_p, pos_q) -> np.ndarray:
    M, P = coords.shape[:2]
    if variant == "basic" or P < 2:
        to_p, to_q = _to_nodes(space, coords, pos_p, pos_q)
        return to_p < to_q  # ties go to q, as in Algorithm 4
    counts = valid.sum(axis=1)
    pair_sq = space.rank_sq_pools(coords)
    if _mem.ENABLED:
        # The pair matrix and its one-byte validity mask.
        _mem.scratch(
            "kernel_pads", "batch_split.pair_sq", pair_sq.nbytes + pair_sq.size
        )
    # PD needs the node distances only for a pool it cannot split.
    to_nodes = None if variant == "pd" else _to_nodes(space, coords, pos_p, pos_q)

    if variant == "md":
        side = to_nodes[0] < to_nodes[1]
    else:
        # PD: the diameter endpoints (u, v) of each pool — the first
        # farthest pair in row-major order (first-wins flat argmax; pair
        # distances are symmetric, so it lands above the diagonal) —
        # and the points strictly closer to u (ties to the second
        # endpoint).
        vpair = valid[:, :, None] & valid[:, None, :]
        flat = np.argmax(np.where(vpair, pair_sq, -1.0).reshape(M, P * P), axis=1)
        rows = np.arange(M)
        side = pair_sq[rows, flat // P] < pair_sq[rows, flat % P]
    # A one-sided partition (identical points have no diameter to split
    # along) takes the basic rule.
    n_a = (side & valid).sum(axis=1)
    degenerate = (counts < 2) | (n_a == 0) | (n_a == counts)
    if variant != "pd":
        side = _md_assign(valid, pair_sq, side, to_nodes)
    if degenerate.any():
        if to_nodes is None:
            to_nodes = _to_nodes(space, coords, pos_p, pos_q)
        side = np.where(degenerate[:, None], to_nodes[0] < to_nodes[1], side)
    return side


def _md_assign(valid, pair_sq, cluster_a, to_nodes) -> np.ndarray:
    """MD heuristic over every pool: hand cluster A to p and its
    complement B to q, or the other way round, whichever moves the two
    nodes less (strict ``<`` keeps the A→p orientation).  A leg is the
    square root of a node's squared distance to a cluster medoid."""
    members = (cluster_a[:, None, :] == _A_THEN_B) & valid[:, None, :]
    idx = medoid_rows(pair_sq[:, None], members)  # (M, 2): medoids of A, B
    # legs[n, :, c]: from node n (p, q) to the medoid of cluster c.
    legs = np.sqrt(to_nodes[:, np.arange(len(idx))[:, None], idx])
    keep = legs[0, :, 0] + legs[1, :, 1] < legs[0, :, 1] + legs[1, :, 0]
    return np.where(keep[:, None], cluster_a, ~cluster_a)


def _sides(points: Sequence[DataPoint], to_p: np.ndarray) -> SplitResult:
    """``points`` split by the mask ``to_p``, each side in input order."""
    side_p: List[DataPoint] = []
    side_q: List[DataPoint] = []
    for point, p in zip(points, to_p):
        (side_p if p else side_q).append(point)
    return side_p, side_q


def _one_pool(
    space: Space, variant: str, points: Sequence[DataPoint], pos_p: Coord, pos_q: Coord
) -> SplitResult:
    """``variant`` on one pool: the kernel's one-pool call.  One pool is
    always one block, so the undecorated block kernel runs directly and
    a SPLIT is one timed call."""
    if not points:
        return [], []
    coords = space.pack_batch([p.coord for p in points])[None]
    side = _split_block(
        space,
        variant,
        coords,
        np.ones(coords.shape[:2], dtype=bool),
        space.pack_batch([pos_p]),
        space.pack_batch([pos_q]),
    )
    return _sides(points, side[0])


@timed("kernel.split.basic")
def split_basic(
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """Algorithm 4: each point joins the strictly-closer node position;
    ties go to q (the paper uses ``<`` for p and ``<=`` for q)."""
    return _one_pool(space, "basic", points, pos_p, pos_q)


@timed("kernel.split.advanced")
def split_advanced(
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """Algorithm 5: PD partition + MD assignment.

    Two distinct points are their own diameter, each its own cluster
    and medoid, so only MD's comparison runs — a scalar body, which on
    two points beats the array kernels it skips (coincident points
    take the kernel's basic fallback)."""
    if len(points) == 2:
        a, b = points
        if space.distance_sq(b.coord, a.coord) > 0.0:
            d = space.distance
            delta_ab = d(a.coord, pos_p) + d(b.coord, pos_q)
            delta_ba = d(b.coord, pos_p) + d(a.coord, pos_q)
            return ([a], [b]) if delta_ab < delta_ba else ([b], [a])
    return _one_pool(space, "advanced", points, pos_p, pos_q)


@timed("kernel.split.pd")
def split_pd(
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """PD alone: diameter partition with a fixed (endpoint-order)
    assignment — isolates the partitioning heuristic (Fig. 10b)."""
    return _one_pool(space, "pd", points, pos_p, pos_q)


@timed("kernel.split.md")
def split_md(
    space: Space,
    points: Sequence[DataPoint],
    pos_p: Coord,
    pos_q: Coord,
) -> SplitResult:
    """MD alone: the basic closest-position partition, but with the
    displacement-minimising cluster-to-node assignment (Fig. 10b)."""
    return _one_pool(space, "md", points, pos_p, pos_q)


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
