"""T-Man: gossip-based topology construction [Jelasity et al. 2009].

The middle layer of the stack.  Every node keeps a view of node
descriptors (id + advertised position) and gossips each round: it picks
a partner among its ψ closest view entries, both sides exchange their
``m`` descriptors most relevant *to the other side's position*, and both
merge, keeping the ``cap`` closest entries to their own position.

Parameters follow the paper's setup (Sec. IV-A): views initialised with
10 random peers from RPS, views capped at 100 (unlike the unbounded
original), m = 20 descriptors per message, ψ = 5.

A view is an id column (:class:`~repro.sim.arrays.ViewBuffer`), kept
*ranked for its owner*: ids in order of (squared distance of the peer's
current position to the owner's, id), cut to ``view_cap``.  Every
ranking reads positions from the node table when it ranks, as
cycle-driven T-Man simulators hold a view (node references, not stored
coordinates), so no entry is stale.  A merge ranks the view ∪ the
message once.  Partner selection and :meth:`TManLayer.neighbors` read
the alive prefix; a view is re-ranked only when some node has moved
since it was ranked (``ViewBuffer.ranked_at`` against the table's
:attr:`~repro.sim.arrays.NodeTable.moves` count; a coordinate write
handing back the same position object is not a move).  A message is the
ranked ids of its sender's view ∪ {sender}.  Every ranking breaks ties
by id, so RNG draws and results do not depend on storage order.

Because Polystyrene moves nodes, every descriptor a message carries is a
position update; this traffic is why T-Man dominates the message budget
in Fig. 7b.  The meter charges each descriptor sent as an id plus a
coordinate: what the protocol sends, not what the simulator stores.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..obs import metrics as obs_metrics
from ..sim.arrays import ViewBuffer
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..spaces.base import Space
from ..types import Coord, NodeId
from .ranking import rank_current
from .rps import PeerSamplingLayer


class TManLayer:
    """One T-Man instance layered over a peer-sampling service."""

    name = "tman"

    def __init__(
        self,
        space: Space,
        rps: PeerSamplingLayer,
        message_size: int = 20,
        psi: int = 5,
        view_cap: int = 100,
        bootstrap_size: int = 10,
    ) -> None:
        if message_size < 1:
            raise ValueError("message_size must be >= 1")
        if psi < 1:
            raise ValueError("psi must be >= 1")
        if view_cap < 1:
            raise ValueError("view_cap must be >= 1")
        self.space = space
        self.rps = rps
        self.message_size = message_size
        self.psi = psi
        self.view_cap = view_cap
        self.bootstrap_size = bootstrap_size
        self._coord_dim = space.dim if space.dim is not None else 1

    # -- per-node state ----------------------------------------------------

    def _ensure_view(self, node: SimNode) -> ViewBuffer:
        """The node's topology view as a ViewBuffer (tests may have
        attached a plain dict; its ids are adopted transparently)."""
        view = getattr(node, "tman_view", None)
        if type(view) is not ViewBuffer:
            view = ViewBuffer(view or ())
            node.tman_view = view
        return view

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        peers = self.rps.sample(sim, node, self.bootstrap_size)
        node.tman_view = ViewBuffer(nid for nid in peers if nid != node.nid)

    def view_of(self, node: SimNode) -> ViewBuffer:
        """The node's view; a node whose row was reclaimed holds none
        and reads as empty, as on the batch engine."""
        view = getattr(node, "tman_view", None)
        return ViewBuffer() if view is None else view

    def neighbors(self, sim: Simulation, node: SimNode, k: int) -> List[NodeId]:
        """The node's ``k`` closest *alive* view entries (the
        neighbourhood handed to Polystyrene and to the proximity
        metric)."""
        view = self._ensure_view(node)
        if not view:
            return []
        ids = self._ranked_ids(sim, node, view)
        return ids[sim.network.alive_mask(ids)][:k].tolist()

    def _ranked_ids(
        self, sim: Simulation, node: SimNode, view: ViewBuffer
    ) -> np.ndarray:
        """The view's ids in (distance to the node, id) order at current
        positions.  A view ranked at the table's current move count is
        in that order already; any other is re-ranked, and the order is
        installed so the next reader scans a prefix again."""
        table = sim.network.table
        if view.ranked_at != table.moves:
            ids = rank_current(self.space, table, node.pos_array, view.ids)
            view.set_ranked(ids, table.moves)
        return view.ids

    # -- one gossip cycle ----------------------------------------------------

    def step(self, sim: Simulation) -> None:
        network = sim.network
        for nid in sim.shuffled_alive(self.name):
            if network.is_alive(nid):
                self._gossip(sim, network.node(nid))

    def _gossip(self, sim: Simulation, node: SimNode) -> None:
        rng = sim.rng_for(self.name)
        view = self._ensure_view(node)
        # Evict detectably-failed peers; the boundary nodes of Fig. 1c do
        # exactly this, then re-link with the closest survivors.  The
        # scan is one gather over the view's id column.
        detected = sim.detected_failed()
        if detected:
            ids = view.ids
            stale = sim.detected_mask(ids)
            if stale.any():
                view.evict_ids(ids[stale])
        if not view:
            self.init_node(sim, node)
            view = node.tman_view
            if not view:
                return
        partner_id = self._select_partner(sim, rng, node, view)
        if partner_id is None:
            return
        partner = sim.network.node(partner_id)
        # Symmetric exchange: each side sends the m entries most useful
        # to the *other* side, always including its own descriptor.
        payload = self._build_buffer(sim, node, target_pos=partner.pos_array)
        reply = self._build_buffer(sim, partner, target_pos=node.pos_array)
        sim.meter.charge_descriptors(self.name, len(payload), self._coord_dim)
        sim.meter.charge_descriptors(self.name, len(reply), self._coord_dim)
        obs_metrics.count("exchanges.tman")
        self._merge(sim, partner, payload, detected)
        self._merge(sim, node, reply, detected)

    def _select_partner(
        self, sim: Simulation, rng, node: SimNode, view: ViewBuffer
    ) -> Optional[NodeId]:
        """Random choice among the ψ closest alive view entries."""
        ids = self._ranked_ids(sim, node, view)
        candidates = ids[sim.network.alive_mask(ids)][: self.psi].tolist()
        if not candidates:
            return None
        return rng.choice(candidates)

    def _build_buffer(
        self, sim: Simulation, node: SimNode, target_pos: Coord
    ) -> np.ndarray:
        """The ids of the ``m`` peers of ``node``'s view ∪ {node itself}
        whose current positions are closest to ``target_pos``."""
        ids = self._ensure_view(node).ids
        pool = np.empty(len(ids) + 1, dtype=np.int64)
        pool[:-1] = ids
        pool[-1] = node.nid
        return rank_current(
            self.space, sim.network.table, target_pos, pool, self.message_size
        )

    def _merge(
        self, sim: Simulation, node: SimNode, incoming: np.ndarray, detected=None
    ) -> None:
        """Merge an incoming message (peer ids) into the node's ranked
        view: every id except the node's own and detected-failed ones is
        adopted, and the union is ranked at current positions and cut to
        the ``cap`` closest entries."""
        view = self._ensure_view(node)
        if detected is None:
            detected = sim.detected_failed()
        adopt = [nid != node.nid and nid not in detected for nid in incoming.tolist()]
        if not all(adopt):
            incoming = incoming[np.array(adopt)]
        table = sim.network.table
        ids = view.ids
        ids = np.concatenate((ids[~table.id_flags(incoming).take(ids)], incoming))
        ids = rank_current(self.space, table, node.pos_array, ids, self.view_cap)
        view.set_ranked(ids, table.moves)
