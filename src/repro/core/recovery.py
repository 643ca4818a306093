"""Recovery: reactivating ghosts of failed origins (Algorithm 2).

When node p detects that a node q whose state was replicated to it has
failed, p moves q's ghost points into its own guest set and forgets the
ghost entry.  All K backup holders of q do this, so right after a
failure the same points are temporarily *multiply* held — the storage
spike of Fig. 7a — until migration's set-union exchanges de-duplicate
them (copies share point ids).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..sim.placement import PlacementStore
from ..types import NodeId


def recover_node(
    sim: Simulation,
    node: SimNode,
    store: PlacementStore,
    pushed_by: Optional[Dict[NodeId, int]],
) -> List[NodeId]:
    """Run Algorithm 2 on one node; returns the origins recovered.

    ``pushed_by`` is ``{origin: origin row}`` for the copies the node
    holds, in first-push order (the key order of the paper's
    ``ghosts``): the order their points are appended to the guest row
    in."""
    if not pushed_by:
        return []
    gone = sim.detected_failed()
    recovered = [q for q in pushed_by if q in gone]
    if recovered:
        guests = dict.fromkeys(store.guests(node.row))
        for origin in recovered:
            o_row = pushed_by.pop(origin)
            slot = store.backup_ids[o_row].tolist().index(node.nid)
            guests.update(dict.fromkeys(store.copy(o_row, slot)))  # line 2
            store.drop_copy(o_row, slot)  # line 3
        store.set_guests(node.row, list(guests))
    return recovered
