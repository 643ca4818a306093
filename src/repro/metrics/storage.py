"""Storage overhead: average stored data points per node (Fig. 7a).

Counts both guests and ghosts, per the paper.  Without failures the
expectation is ``1 + K`` (every point held once and replicated K
times); after losing half the nodes it roughly doubles, with a
transient spike while freshly reactivated ghosts are eagerly
re-replicated and not yet de-duplicated.
"""

from __future__ import annotations

from typing import Sequence

from ..core import state as node_state
from ..sim.network import SimNode
from .homogeneity import node_rows


def node_storage(node: SimNode) -> int:
    """Guests + ghosts stored on one node."""
    state = node_state.state_of(node)
    if state is None:
        return 0
    return state.storage_load


def average_storage(alive_nodes: Sequence[SimNode], placement=None) -> float:
    """Mean stored points per alive node.  ``placement`` is the batch
    engine's array store, read instead of ``node.poly``."""
    if not alive_nodes:
        return 0.0
    if placement is not None:
        total = placement.stored_points(alive_nodes[0]._table, node_rows(alive_nodes))
    else:
        total = node_state.stored_points(alive_nodes)
    return total / len(alive_nodes)


def total_unique_points(alive_nodes: Sequence[SimNode], placement=None) -> int:
    """Number of distinct point ids held as guest somewhere."""
    if placement is not None:
        pids = placement.holder_pairs(node_rows(alive_nodes))[0].tolist()
    else:
        pids = node_state.holder_pairs(alive_nodes)[0]
    return len(set(pids))
