"""Vectorised SPLIT: re-partitioning every migration pool at once.

The event engine calls a scalar SPLIT function per exchange; here all
``M`` pools of a migration pass are padded into one ``(M, P)`` block
and each variant runs as a handful of array kernels:

* ``basic`` — each point to the strictly closer node position (ties to
  q), Algorithm 4;
* ``pd`` — partition along each pool's diameter (farthest pair; ties to
  the second endpoint), Algorithm 5's first heuristic;
* ``md`` — basic partition + displacement-minimising cluster-to-node
  assignment via cluster medoids;
* ``advanced`` — PD + MD, the paper's Algorithm 5.

Selection rules (strict comparisons, tie directions, first-wins argmin
for medoids, degenerate-pool fallbacks to ``basic``) mirror the scalar
implementations in :mod:`repro.core.split`, so a single pool splits the
same way either engine computes it; only the batching differs.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConfigurationError
from ...obs import mem as _mem
from ...obs.metrics import timed
from ...spaces.base import Space
from . import kernels

VARIANTS = ("basic", "pd", "md", "advanced")


def _pairwise_per_pool(space: Space, coords: np.ndarray) -> np.ndarray:
    """``(M, P, P)`` squared rank distances within each pool."""
    return space.rank_sq_pools(coords)


def _medoid_idx(pair_sq: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """First-wins medoid index per pool among ``cluster`` members: the
    member minimising the sum of squared distances to the cluster."""
    cost = (pair_sq * cluster[:, None, :]).sum(axis=2)
    cost = np.where(cluster, cost, np.inf)
    return np.argmin(cost, axis=1)


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
    mask with ``valid``).  Pools split independently, so a wave runs one
    :func:`~repro.sim.batch.kernels.block_rows` block of pools at a
    time; a pool holds three ``(P, P)`` float temporaries (the pair
    matrix, its masked copy, a medoid cost product)."""
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown split function {variant!r}")
    M, P, _ = coords.shape
    step = kernels.block_rows(0, P * P, 3)
    side = np.empty((M, P), dtype=bool)
    for a in range(0, M, step):
        blk = slice(a, a + step)
        side[blk] = _split_block(
            space, variant, coords[blk], valid[blk], pos_p[blk], pos_q[blk]
        )
    return side


def _split_block(space, variant, coords, valid, pos_p, pos_q) -> np.ndarray:
    M, P, _ = coords.shape
    # One stacked rank call for both node positions: later migration
    # waves are small, so halving the kernel launches beats the copy.
    both = space.rank_sq_rows(
        np.concatenate([pos_p, pos_q]), np.concatenate([coords, coords])
    )
    dp = both[:M]
    dq = both[M:]
    basic = dp < dq  # ties go to q, as in Algorithm 4
    if variant == "basic" or P < 2:
        return basic
    counts = (valid).sum(axis=1)

    pair_sq = _pairwise_per_pool(space, coords)
    vpair = valid[:, :, None] & valid[:, None, :]
    if _mem.ENABLED:
        _mem.scratch(
            "kernel_pads", "batch_split.pair_sq", pair_sq.nbytes + vpair.nbytes
        )

    if variant in ("pd", "advanced"):
        # Diameter endpoints per pool (first-wins flat argmax, matching
        # the scalar row scan's strict-> update).
        masked = np.where(vpair, pair_sq, -1.0)
        flat_idx = np.argmax(masked.reshape(M, P * P), axis=1)
        i_star = flat_idx // P
        j_star = flat_idx % P
        rows = np.arange(M)
        du = pair_sq[rows, i_star]
        dv = pair_sq[rows, j_star]
        cluster_u = du < dv  # ties to the second endpoint
        n_u = (cluster_u & valid).sum(axis=1)
        degenerate = (counts < 2) | (n_u == 0) | (n_u == counts)
        if variant == "pd":
            side = cluster_u
        else:
            side = _md_assign(
                space, coords, valid, pair_sq, cluster_u, pos_p, pos_q
            )
        return np.where(degenerate[:, None], basic, side)

    # variant == "md": basic partition, displacement-minimising
    # assignment; one-sided pools keep the basic result.
    n_p = (basic & valid).sum(axis=1)
    one_sided = (n_p == 0) | (n_p == counts)
    side = _md_assign(space, coords, valid, pair_sq, basic, pos_p, pos_q)
    return np.where(one_sided[:, None], basic, side)


def _md_assign(
    space: Space,
    coords: np.ndarray,
    valid: np.ndarray,
    pair_sq: np.ndarray,
    cluster_a: np.ndarray,
    pos_p: np.ndarray,
    pos_q: np.ndarray,
) -> np.ndarray:
    """MD heuristic over every pool: hand cluster A to p and its
    complement to q, or the other way round, whichever moves the two
    nodes less (strict ``<`` keeps the A→p orientation)."""
    M = coords.shape[0]
    rows = np.arange(M)
    in_a = cluster_a & valid
    in_b = ~cluster_a & valid
    m_a = coords[rows, _medoid_idx(pair_sq, in_a)]
    m_b = coords[rows, _medoid_idx(pair_sq, in_b)]
    # All four displacement legs in one row-distance call (values are
    # elementwise identical to four separate calls).
    legs = space.distance_rows(
        np.concatenate([m_a, m_b, m_b, m_a]),
        np.concatenate([pos_p, pos_q, pos_p, pos_q]),
    )
    delta_ab = legs[:M] + legs[M : 2 * M]
    delta_ba = legs[2 * M : 3 * M] + legs[3 * M :]
    keep = delta_ab < delta_ba
    return np.where(keep[:, None], cluster_a, ~cluster_a)
