"""Backup: replicating guest points as ghosts on K other nodes.

Algorithm 1 of the paper.  Each node keeps its guest set copied on
``K`` backup nodes; when a backup node fails it is replaced with a new
random one, and every round the node (re)pushes its guests to all its
backups.  The push is incremental when enabled: only the delta against
the last transmitted point-id set travels, "thus reducing traffic once
the system has converged".

Backup placement is random by default ("we spread copies as randomly as
possible in the system", via the peer-sampling layer) — the right
choice against *spatially correlated* failures.  The ``"neighbors"``
placement implements the localized alternative the paper discusses
(copies a few hops away percolate back faster after small failures, but
die together in a regional blackout); the ablation benchmark contrasts
the two.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..sim.placement import PlacementStore
from ..types import NodeId
from .config import PolystyreneConfig


def required_replication(ps: float, pf: float) -> int:
    """Minimum K so an individual point survives with probability
    ``ps`` when a fraction ``pf`` of nodes fails simultaneously and
    independently of the copies' placement (Sec. III-D):

        1 - pf^(K+1) > ps   ⇒   K > log(1-ps)/log(pf) - 1

    Example from the paper: ps=0.99, pf=0.5 ⇒ K ≥ 6 (bound 5.64).
    """
    if not 0.0 < ps < 1.0:
        raise ValueError("ps must be in (0, 1)")
    if not 0.0 < pf < 1.0:
        raise ValueError("pf must be in (0, 1)")
    bound = math.log(1.0 - ps) / math.log(pf) - 1.0
    return max(0, math.ceil(bound))


def survival_probability(K: int, pf: float) -> float:
    """Probability a point survives: at least one of primary + K copies
    lives through an independent failure of fraction ``pf``."""
    if K < 0:
        raise ValueError("K cannot be negative")
    if not 0.0 <= pf <= 1.0:
        raise ValueError("pf must be in [0, 1]")
    return 1.0 - pf ** (K + 1)


class BackupManager:
    """Executes Algorithm 1 for one node per round, on the rows of a
    :class:`~repro.sim.placement.PlacementStore`.

    ``pushed_by`` maps a target row to the origins whose copies it
    holds, in first-push order (the key order of the paper's
    ``ghosts``), each to the origin's row: a first push to a slot
    records its origin there, and recovery activates the copies in that
    order.
    """

    def __init__(
        self,
        config: PolystyreneConfig,
        store: PlacementStore,
        pushed_by: Dict[int, Dict[NodeId, int]],
        layer_name: str = "polystyrene",
    ) -> None:
        self.config = config
        self.store = store
        self.pushed_by = pushed_by
        self.layer_name = layer_name

    # -- backup-node selection --------------------------------------------

    def _pick_new_backups(
        self, sim: Simulation, node: SimNode, held: List[int], count: int, rps, tman
    ) -> List[int]:
        exclude = tuple(held) + (node.nid,)
        if self.config.backup_placement == "neighbors" and tman is not None:
            # Localized placement: prefer the closest topology neighbours.
            candidates = [
                nid
                for nid in tman.neighbors(sim, node, count + len(held))
                if nid not in held
            ]
            picked = candidates[:count]
            if len(picked) < count:
                picked += rps.sample(
                    sim, node, count - len(picked), exclude=exclude + tuple(picked)
                )
            return picked
        # Random placement through the peer-sampling service (line 2).
        return rps.sample(sim, node, count, exclude=exclude)

    # -- one round of Algorithm 1 -------------------------------------------

    def step_node(self, sim: Simulation, node: SimNode, rps, tman=None) -> None:
        store = self.store
        row = node.row
        network = sim.network
        coord_dim = sim.space.dim if sim.space.dim is not None else 1
        # Line 1: drop failed backup nodes (one cached detector set for
        # the whole scan).
        gone = sim.detected_failed()
        slots = store.backup_ids[row].tolist()
        for slot, b in enumerate(slots):
            if b in gone:
                slots[slot] = -1
                store.drop_copy(row, slot)
        # Line 2: top back up to K backup nodes, into the free slots (a
        # drop above always leaves some to fill).
        held = [b for b in slots if b >= 0]
        missing = self.config.replication - len(held)
        if missing > 0:
            free = [slot for slot, b in enumerate(slots) if b < 0]
            picked = self._pick_new_backups(sim, node, held, missing, rps, tman)
            for slot, nid in zip(free, picked):
                slots[slot] = nid
            store.backup_ids[row] = slots
        # Lines 3-4: push guests to every backup.  The id set is built
        # from a dict, as a guest dict's keys would be: the iteration
        # order of an incremental ``added`` set follows its layout.
        guests = store.guests(row)
        guest_pids = frozenset(dict.fromkeys(guests))
        for slot, backup_id in enumerate(slots):
            if backup_id < 0 or not network.is_alive(backup_id):
                continue
            previous = store.copy(row, slot)
            if self.config.incremental_backup and previous is not None:
                if previous == guests:
                    continue  # nothing changed: no message at all
                sent = frozenset(previous)
                added = guest_pids - sent
                removed = sent - guest_pids
                if not added and not removed:
                    continue  # nothing changed: no message at all
                # The target drops the removed ids and appends the new.
                kept = [pid for pid in previous if pid not in removed]
                store.set_copy(row, slot, kept + list(added))
                # Delta message: new points travel with coordinates,
                # removals as bare ids, plus the sender id.
                sim.meter.charge_points(self.layer_name, len(added), coord_dim)
                sim.meter.charge_ids(self.layer_name, len(removed) + 1)
            else:
                if previous is None:
                    target_row = network.node(backup_id).row
                    self.pushed_by.setdefault(target_row, {})[node.nid] = row
                store.set_copy(row, slot, guests)
                sim.meter.charge_points(self.layer_name, len(guest_pids), coord_dim)
                sim.meter.charge_ids(self.layer_name, 1)
