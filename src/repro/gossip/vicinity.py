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

The per-node view is stored under the same ``tman_view`` attribute the
T-Man layer uses (a coordinate :class:`~repro.sim.arrays.ViewBuffer`);
ages are tracked separately under ``vicinity_age``.  Reusing the
attribute keeps Polystyrene, the proximity metric and every observer
working unchanged over either overlay — they only care about "the
topology view".
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..sim.arrays import ViewBuffer, join_coords, take_coords
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..spaces.base import Space
from ..types import Coord, NodeId
from .ranking import rank_alive, rank_order
from .rps import PeerSamplingLayer
from .tman import view_dim


class VicinityLayer:
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

    # -- per-node state ----------------------------------------------------

    def _ensure_view(self, node: SimNode) -> ViewBuffer:
        view = getattr(node, "tman_view", None)
        if type(view) is not ViewBuffer:
            view = ViewBuffer(view_dim(self.space), (view or {}).items())
            node.tman_view = view
            if not hasattr(node, "vicinity_age"):
                node.vicinity_age = {nid: 0 for nid in view}
        return view

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        peers = self.rps.sample(sim, node, self.bootstrap_size)
        node.tman_view = ViewBuffer(
            view_dim(self.space),
            (
                (nid, sim.network.node(nid).pos)
                for nid in peers
                if nid != node.nid
            ),
        )
        node.vicinity_age = {nid: 0 for nid in node.tman_view}

    def view_of(self, node: SimNode) -> ViewBuffer:
        """The node's view; a node whose row was reclaimed holds none
        and reads as empty, as on the batch engine."""
        view = getattr(node, "tman_view", None)
        return ViewBuffer(view_dim(self.space)) if view is None else view

    def neighbors(self, sim: Simulation, node: SimNode, k: int) -> List[NodeId]:
        """The node's ``k`` closest alive view entries (same interface
        as :meth:`TManLayer.neighbors`, so Polystyrene is agnostic)."""
        view = self._ensure_view(node)
        if not view:
            return []
        ids, _ = view.arrays()
        mask = sim.network.alive_mask(ids)
        if not mask.any():
            return []
        return rank_alive(self.space, node.pos_array, view, mask, k)

    # -- one gossip cycle ----------------------------------------------------

    def step(self, sim: Simulation) -> None:
        network = sim.network
        for nid in sim.shuffled_alive(self.name):
            if network.is_alive(nid):
                self._gossip(sim, network.node(nid))

    def _gossip(self, sim: Simulation, node: SimNode) -> None:
        view = self._ensure_view(node)
        ages = node.vicinity_age
        # Evict detectably-failed peers (ids pruned by the retention
        # policy count as long-detected).
        gone = sim.departed()
        stale = []
        for peer in view:
            if gone(peer):
                stale.append(peer)
                ages.pop(peer, None)
            else:
                ages[peer] = ages.get(peer, 0) + 1
        view.evict_ids(stale)
        if not view:
            self.init_node(sim, node)
            view, ages = node.tman_view, node.vicinity_age
            if not view:
                return
        # Vicinity selects the *oldest* view entry as gossip partner.
        partner_id = max(view, key=lambda p: (ages.get(p, 0), p))
        partner = sim.network.node(partner_id)

        payload = self._build_buffer(sim, node, target_pos=partner.pos_array)
        reply = self._build_buffer(sim, partner, target_pos=node.pos_array)
        sim.meter.charge_descriptors(self.name, len(payload[0]), self._coord_dim)
        sim.meter.charge_descriptors(self.name, len(reply[0]), self._coord_dim)
        self._merge(sim, partner, payload)
        self._merge(sim, node, reply)

    def _build_buffer(
        self, sim: Simulation, node: SimNode, target_pos: Coord
    ) -> Tuple[np.ndarray, object]:
        """The ``message_size`` descriptors most relevant to the target,
        drawn from the node's view ∪ itself ∪ fresh RPS candidates: the
        ranked ``(ids, coords)`` rows."""
        ids, coords = self._ensure_view(node).arrays()
        extra = [node.nid]
        seen = set(ids.tolist())
        seen.add(node.nid)
        for nid in self.rps.sample(sim, node, self.rps_candidates):
            if nid not in seen:
                seen.add(nid)
                extra.append(nid)
        pool_ids = np.append(ids, np.asarray(extra, dtype=np.int64))
        pool_coords = join_coords(
            coords, [node.pos] + [sim.network.node(nid).pos for nid in extra[1:]]
        )
        order = rank_order(
            self.space, target_pos, pool_ids, pool_coords, self.message_size
        )
        return pool_ids[order], take_coords(pool_coords, order)

    def _merge(
        self, sim: Simulation, node: SimNode, incoming: Tuple[np.ndarray, object]
    ) -> None:
        view = self._ensure_view(node)
        ages = node.vicinity_age
        for nid in view.merge(*incoming, node.nid, sim.detected_failed()):
            ages[nid] = 0  # freshly heard of
        if len(view) > self.view_size:
            ids, coords = view.arrays()
            order = rank_order(self.space, node.pos_array, ids, coords, self.view_size)
            view.set_ranked(ids[order], take_coords(coords, order))
            node.vicinity_age = {nid: ages.get(nid, 0) for nid in view}
