"""T-Man: gossip-based topology construction [Jelasity et al. 2009].

The middle layer of the stack.  Every node keeps a view of node
descriptors (id + advertised position) and gossips each round: it picks
a partner among its ψ closest view entries, both sides exchange their
``m`` descriptors most relevant *to the other side's position*, and both
merge, keeping the ``cap`` closest entries to their own position.

Parameters follow the paper's setup (Sec. IV-A): views initialised with
10 random peers from RPS, views capped at 100 (unlike the unbounded
original), m = 20 descriptors per message, ψ = 5.

Views are :class:`~repro.sim.arrays.ViewBuffer` slots, an id column and
a coordinate block, kept *ranked for their owner*: rows in order of
(squared distance to the position the owner advertised, id), cut to
``view_cap``.  A merge is one ranked merge — incoming rows replace the
stored copies of their ids and the union is ranked once — so it holds
exactly the entries the unbounded-then-truncated dict merge held.
Partner selection and :meth:`TManLayer.neighbors` read the alive
prefix, re-ranking only when the owner has moved since (a new position
object; ``ViewBuffer.ranked_pos`` names the one the view was ranked
for).  A message is the ranked ``(ids, coords)`` rows of its sender's
view ∪ {sender}.  Every ranking breaks ties by id, so RNG draws and
results do not depend on storage order; only the order itself differs
from the historical insertion-ordered dict views.

Because Polystyrene moves nodes, every exchange refreshes the positions
recorded for the two participants; this position-update traffic is why
T-Man dominates the message budget in Fig. 7b.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..obs import metrics as obs_metrics
from ..sim.arrays import OBJECT_DIM, ViewBuffer, join_coords, take_coords
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..spaces.base import Space
from ..types import Coord, NodeId
from .ranking import rank_order
from .rps import PeerSamplingLayer


def view_dim(space: Space) -> Union[int, str]:
    """The ViewBuffer coordinate layout for a space (float columns for
    vector spaces, object storage otherwise)."""
    return space.dim if space.dim is not None else OBJECT_DIM


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
        attached a plain dict; adopt it transparently)."""
        view = getattr(node, "tman_view", None)
        if type(view) is not ViewBuffer:
            view = ViewBuffer(view_dim(self.space), (view or {}).items())
            node.tman_view = view
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

    def view_of(self, node: SimNode) -> ViewBuffer:
        """The node's view; a node whose row was reclaimed holds none
        and reads as empty, as on the batch engine."""
        view = getattr(node, "tman_view", None)
        return ViewBuffer(view_dim(self.space)) if view is None else view

    def neighbors(self, sim: Simulation, node: SimNode, k: int) -> List[NodeId]:
        """The node's ``k`` closest *alive* view entries (the
        neighbourhood handed to Polystyrene and to the proximity
        metric)."""
        view = self._ensure_view(node)
        if not view:
            return []
        ids = self._ranked_ids(node, view)
        return ids[sim.network.alive_mask(ids)][:k].tolist()

    def _ranked_ids(self, node: SimNode, view: ViewBuffer) -> np.ndarray:
        """The view's id column in (distance to the node, id) order.
        Merges leave the view ranked for the position object the node
        advertised then; only a node that has moved since (or a view
        that was never merged into) is re-ranked, and the order is
        installed so the next reader scans a prefix again."""
        if view.ranked_pos is not node.pos:
            ids, coords = view.arrays()
            order = rank_order(self.space, node.pos_array, ids, coords)
            view.set_ranked(ids[order], take_coords(coords, order), ranked_for=node.pos)
        return view.arrays()[0]

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
            ids, _ = view.arrays()
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
        # to the *other* side, always including its own fresh descriptor.
        payload = self._build_buffer(node, target_pos=partner.pos_array)
        reply = self._build_buffer(partner, target_pos=node.pos_array)
        sim.meter.charge_descriptors(self.name, len(payload[0]), self._coord_dim)
        sim.meter.charge_descriptors(self.name, len(reply[0]), self._coord_dim)
        obs_metrics.count("exchanges.tman")
        self._merge(sim, partner, payload, detected)
        self._merge(sim, node, reply, detected)

    def _select_partner(
        self, sim: Simulation, rng, node: SimNode, view: ViewBuffer
    ) -> Optional[NodeId]:
        """Random choice among the ψ closest alive view entries."""
        ids = self._ranked_ids(node, view)
        candidates = ids[sim.network.alive_mask(ids)][: self.psi].tolist()
        if not candidates:
            return None
        return rng.choice(candidates)

    def _build_buffer(self, node: SimNode, target_pos: Coord) -> Tuple[np.ndarray, object]:
        """The ``m`` descriptors from ``node``'s view ∪ {node itself}
        closest to ``target_pos``: the ranked ``(ids, coords)`` rows of
        one pool holding the view's rows and the node's own."""
        ids, coords = self._ensure_view(node).arrays()
        n = len(ids)
        pool_ids = np.empty(n + 1, dtype=np.int64)
        pool_ids[:n] = ids
        pool_ids[n] = node.nid
        if isinstance(coords, np.ndarray):
            pool_coords = np.empty((n + 1, coords.shape[1]))
            pool_coords[:n] = coords
            pool_coords[n] = node.pos_array
        else:
            pool_coords = coords + [node.pos]
        order = rank_order(
            self.space, target_pos, pool_ids, pool_coords, self.message_size
        )
        return pool_ids[order], take_coords(pool_coords, order)

    def _merge(
        self,
        sim: Simulation,
        node: SimNode,
        incoming: Tuple[np.ndarray, object],
        detected=None,
    ) -> None:
        """Merge an incoming message into the node's ranked view.

        Every descriptor except the node's own and detected-failed ids
        is adopted; its coordinates replace the stored copy of its id (a
        descriptor that arrives now reflects a fresher position than
        whatever the view remembered — nodes move under Polystyrene).
        The union is ranked for the node's position and cut to the
        ``cap`` closest entries.
        """
        view = self._ensure_view(node)
        if detected is None:
            detected = sim.detected_failed()
        in_ids, in_coords = incoming
        adopt = [nid != node.nid and nid not in detected for nid in in_ids.tolist()]
        if not all(adopt):
            adopt = np.array(adopt)
            in_ids, in_coords = in_ids[adopt], take_coords(in_coords, adopt)
        ids, coords = view.arrays()
        kept = ~sim.network.table.id_flags(in_ids).take(ids)
        ids, coords = ids[kept], take_coords(coords, kept)
        ids = np.concatenate((ids, in_ids))
        coords = join_coords(coords, in_coords)
        order = rank_order(self.space, node.pos_array, ids, coords, self.view_cap)
        view.set_ranked(ids[order], take_coords(coords, order), ranked_for=node.pos)
