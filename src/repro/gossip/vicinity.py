"""Vicinity: epidemic semantic-overlay construction [Voulgaris & van
Steen, Euro-Par'05].

The paper presents Polystyrene as "an add-on layer that can be plugged
into any decentralized topology construction algorithm" (Sec. II-C) and
names Vicinity as the other canonical choice next to T-Man.  This layer
provides it, so the claim is testable: the scenario runner accepts
``topology="vicinity"`` and runs the identical Polystyrene stack on it.

Differences from our T-Man implementation, following the Vicinity
design:

* view entries carry an *age*; the gossip partner is the oldest alive
  entry (Cyclon-style), not a random pick among the ψ closest;
* every exchange also folds a few fresh descriptors from the
  peer-sampling layer into the merge, so the overlay keeps exploring
  even once locally converged (T-Man gets this only at bootstrap);
* views are small and fixed-size (``view_size``, default 20) rather
  than capped-at-100.

The views live in the same kind of store as T-Man's, on both engines
(a :class:`~repro.sim.arrays.ViewStore` row of peer ids per node,
ranked at peers' current positions read from the node table), with each
entry's age in the row-aligned ``_ages`` column beside it.  Polystyrene,
the proximity metric, greedy routing and every observer read "the
topology view" through the simulation's topology layer
(:attr:`~repro.sim.engine.Simulation.topology`), so they work unchanged
over either overlay.  Nothing drawn or ranked depends on the order a
row stores its entries in: the partner is the max (age, id) and every
ranking breaks ties by id.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..sim.arrays import ViewStore
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..spaces.base import Space
from ..types import Coord, NodeId
from .ranking import rank_current, rank_order
from .rps import PeerSamplingLayer


class VicinityLayer(ViewStore):
    """One Vicinity instance layered over a peer-sampling service."""

    name = "vicinity"

    def __init__(
        self,
        space: Space,
        rps: PeerSamplingLayer,
        view_size: int = 20,
        message_size: int = 10,
        rps_candidates: int = 3,
        bootstrap_size: int = 10,
    ) -> None:
        if view_size < 1:
            raise ValueError("view_size must be >= 1")
        if message_size < 1:
            raise ValueError("message_size must be >= 1")
        if rps_candidates < 0:
            raise ValueError("rps_candidates cannot be negative")
        self.space = space
        self.rps = rps
        self.view_size = view_size
        self.message_size = message_size
        self.rps_candidates = rps_candidates
        self.bootstrap_size = min(bootstrap_size, view_size)
        self._coord_dim = space.dim if space.dim is not None else 1
        self._init_views(view_size, ages=True)

    # -- per-node state ----------------------------------------------------

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        self._ensure_rows(sim.network.table)
        peers = self.rps.sample(sim, node, self.bootstrap_size)
        ids = list(dict.fromkeys(p for p in peers if p != node.nid))
        self._put(node.row, ids, np.zeros(len(ids), dtype=np.int64))

    def neighbors(self, sim: Simulation, node: SimNode, k: int) -> List[NodeId]:
        """The node's ``k`` closest alive view entries (same interface
        as :meth:`TManLayer.neighbors`, so Polystyrene is agnostic)."""
        ids = self.row_ids(node.row)
        ids = ids[sim.network.alive_mask(ids)]
        return rank_current(self.space, sim.network.table, node.pos_array, ids, k).tolist()

    def _row(self, row: int):
        """The ids a row holds and their ages (copies)."""
        held = self._ids[row] >= 0
        return self._ids[row][held], self._ages[row][held]

    # -- one gossip cycle ----------------------------------------------------

    def step(self, sim: Simulation) -> None:
        network = sim.network
        self._ensure_rows(network.table)
        for nid in sim.shuffled_alive(self.name):
            if network.is_alive(nid):
                self._gossip(sim, network.node(nid))

    def _gossip(self, sim: Simulation, node: SimNode) -> None:
        row = node.row
        # Evict detectably-failed peers (reclaimed ids read detected)
        # and age the rest.
        ids, ages = self._row(row)
        keep = ~sim.detected_mask(ids)
        ids, ages = ids[keep], ages[keep] + 1
        self._put(row, ids, ages)
        if not len(ids):
            self.init_node(sim, node)
            ids, ages = self._row(row)
            if not len(ids):
                return
        # Vicinity selects the *oldest* view entry as gossip partner
        # (ties to the max id).
        partner_id = int(ids[ages == ages.max()].max())
        partner = sim.network.node(partner_id)

        payload = self._build_buffer(sim, node, target_pos=partner.pos_array)
        reply = self._build_buffer(sim, partner, target_pos=node.pos_array)
        sim.meter.charge_descriptors(self.name, len(payload), self._coord_dim)
        sim.meter.charge_descriptors(self.name, len(reply), self._coord_dim)
        self._merge(sim, partner, payload)
        self._merge(sim, node, reply)

    def _build_buffer(
        self, sim: Simulation, node: SimNode, target_pos: Coord
    ) -> np.ndarray:
        """The ids of the ``message_size`` peers most relevant to the
        target, drawn from the node's view ∪ itself ∪ fresh RPS
        candidates and ranked at their current positions."""
        ids = self.row_ids(node.row)
        extra = [node.nid]
        seen = set(ids.tolist())
        seen.add(node.nid)
        for nid in self.rps.sample(sim, node, self.rps_candidates):
            if nid not in seen:
                seen.add(nid)
                extra.append(nid)
        pool = np.append(ids, np.asarray(extra, dtype=np.int64))
        return rank_current(
            self.space, sim.network.table, target_pos, pool, self.message_size
        )

    def _merge(self, sim: Simulation, node: SimNode, incoming: np.ndarray) -> None:
        """Adopt every id of the message except the node's own and
        detected-failed ones at age 0 — freshly heard of, known ones
        too — and keep the ``view_size`` entries closest to the node on
        overflow."""
        refused = sim.detected_mask(incoming)
        refused |= incoming == node.nid
        adopted = incoming[~refused]
        if not len(adopted):
            return
        row = node.row
        ids, ages = self._row(row)
        old = ~np.isin(ids, adopted)
        ids = np.concatenate((ids[old], adopted))
        ages = np.concatenate((ages[old], np.zeros(len(adopted), dtype=np.int64)))
        if len(ids) > self.view_size:
            table = sim.network.table
            keep = rank_order(
                self.space, node.pos_array, ids, table.gather(ids), self.view_size
            )
            ids, ages = ids[keep], ages[keep]
        self._put(row, ids, ages)
