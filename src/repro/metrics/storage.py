"""Storage overhead: average stored data points per node (Fig. 7a).

Counts both guests and ghosts, per the paper.  Without failures the
expectation is ``1 + K`` (every point held once and replicated K
times); after losing half the nodes it roughly doubles, with a
transient spike while freshly reactivated ghosts are eagerly
re-replicated and not yet de-duplicated.
"""

from __future__ import annotations

from typing import Sequence

from ..sim.network import SimNode


def node_storage(node: SimNode) -> int:
    """Guests + ghosts stored on one node."""
    state = getattr(node, "poly", None)
    if state is None:
        return 0
    return state.storage_load


def average_storage(alive_nodes: Sequence[SimNode]) -> float:
    """Mean stored points per alive node."""
    if not alive_nodes:
        return 0.0
    total = 0
    for node in alive_nodes:
        state = getattr(node, "poly", None)
        if state is not None:  # node_storage inlined: no call chain per node
            total += len(state.guests) + sum(map(len, state.ghosts.values()))
    return total / len(alive_nodes)


def total_unique_points(alive_nodes: Sequence[SimNode]) -> int:
    """Number of distinct point ids held as guest somewhere."""
    seen: set = set()
    for node in alive_nodes:
        state = getattr(node, "poly", None)
        if state is not None:
            seen.update(state.guests)
    return len(seen)
