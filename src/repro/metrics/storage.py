"""Storage overhead: average stored data points per node (Fig. 7a).

Counts both guests and ghosts, per the paper.  Without failures the
expectation is ``1 + K`` (every point held once and replicated K
times); after losing half the nodes it roughly doubles, with a
transient spike while freshly reactivated ghosts are eagerly
re-replicated and not yet de-duplicated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..sim.network import SimNode
from .homogeneity import node_rows


def node_storage(node: SimNode, placement) -> int:
    """Guests + ghosts stored on one node."""
    return placement.stored_points(node._table, np.array([node.row]))


def average_storage(alive_nodes: Sequence[SimNode], placement) -> float:
    """Mean stored points per alive node (``placement`` is the
    simulation's :class:`~repro.sim.placement.PlacementStore`)."""
    if not alive_nodes:
        return 0.0
    total = placement.stored_points(alive_nodes[0]._table, node_rows(alive_nodes))
    return total / len(alive_nodes)


def total_unique_points(alive_nodes: Sequence[SimNode], placement) -> int:
    """Number of distinct point ids held as guest somewhere."""
    return len(set(placement.holder_pairs(node_rows(alive_nodes))[0].tolist()))
