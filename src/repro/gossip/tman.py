"""T-Man: gossip-based topology construction [Jelasity et al. 2009].

The middle layer of the stack.  Every node keeps a view of node
descriptors (id + advertised position) and gossips each round: it picks
a partner among its ψ closest view entries, both sides exchange their
``m`` descriptors most relevant *to the other side's position*, and both
merge, keeping the ``cap`` closest entries to their own position.

Parameters follow the paper's setup (Sec. IV-A): views initialised with
10 random peers from RPS, views capped at 100 (unlike the unbounded
original), m = 20 descriptors per message, ψ = 5.

A view is a row of peer ids in the layer's
:class:`~repro.sim.arrays.ViewStore` — the store the batch layers keep
theirs in — sized ``max(view_cap, bootstrap_size)``, so a bootstrap draw
wider than the cap is held whole until the first merge.  It is kept
*ranked for its owner*: ids in order of (squared distance of the peer's
current position to the owner's, id), cut to ``view_cap``.  Every
ranking reads positions from the node table when it ranks, as
cycle-driven T-Man simulators hold a view (node references, not stored
coordinates), so no entry is stale.  A merge ranks the view ∪ the
message once.  Partner selection and :meth:`TManLayer.neighbors` read
the alive prefix; a view is re-ranked only when some node has moved
since it was ranked (the row's ``_ranked_at`` against the table's
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
from ..sim.arrays import ViewStore
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..spaces.base import Space
from ..types import Coord, NodeId
from .ranking import rank_current
from .rps import PeerSamplingLayer


class TManLayer(ViewStore):
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
        self._init_views(max(view_cap, bootstrap_size), ranked=True)

    # -- per-node state ----------------------------------------------------

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        self._ensure_rows(sim.network.table)
        peers = self.rps.sample(sim, node, self.bootstrap_size)
        self._put(node.row, list(dict.fromkeys(p for p in peers if p != node.nid)))
        self._ranked_at[node.row] = -1

    def neighbors(self, sim: Simulation, node: SimNode, k: int) -> List[NodeId]:
        """The node's ``k`` closest *alive* view entries (the
        neighbourhood handed to Polystyrene and to the proximity
        metric); none for a node without a row."""
        if node.row < 0:
            return []
        ids = self._ranked_ids(sim, node, self.row_ids(node.row))
        return ids[sim.network.alive_mask(ids)][:k].tolist()

    def _ranked_ids(self, sim: Simulation, node: SimNode, ids: np.ndarray) -> np.ndarray:
        """``ids`` — the node's row as it holds it — in (distance to the
        node, id) order at current positions.  A row ranked at the
        table's current move count is in that order already; any other
        is re-ranked, and the order is stored so the next reader scans a
        prefix again."""
        table = sim.network.table
        row = node.row
        if self._ranked_at[row] != table.moves:
            ids = rank_current(self.space, table, node.pos_array, ids)
            self._ids[row, : len(ids)] = ids
            self._ranked_at[row] = table.moves
        return ids

    # -- one gossip cycle ----------------------------------------------------

    def step(self, sim: Simulation) -> None:
        network = sim.network
        self._ensure_rows(network.table)
        for nid in sim.shuffled_alive(self.name):
            if network.is_alive(nid):
                self._gossip(sim, network.node(nid))

    def _gossip(self, sim: Simulation, node: SimNode) -> None:
        rng = sim.rng_for(self.name)
        row = node.row
        # Evict departed peers — detected failed, reclaimed ones too;
        # the boundary nodes of Fig. 1c do exactly this, then re-link
        # with the closest survivors.  The scan is one gather over the
        # row; the order of the rest, and so the rank memo, is kept.
        # With nobody detected there is nothing to scan: an id without
        # a row was detected before its row was reclaimed.
        departed = bool(sim.detected_failed())
        ids = self.row_ids(row)
        if departed:
            stale = sim.detected_mask(ids)
            if stale.any():
                ids = ids[~stale]
                self._put(row, ids)
        if not len(ids):
            self.init_node(sim, node)
            ids = self.row_ids(row)
            if not len(ids):
                return
        # Partner: a random choice among the ψ closest alive entries.
        ids = self._ranked_ids(sim, node, ids)
        candidates = ids[sim.network.alive_mask(ids)][: self.psi].tolist()
        if not candidates:
            return
        partner = sim.network.node(rng.choice(candidates))
        held = self.row_ids(partner.row)
        # Symmetric exchange: each side sends the m entries most useful
        # to the *other* side, always including its own descriptor.
        payload = self._build_buffer(sim, node, ids, target_pos=partner.pos_array)
        reply = self._build_buffer(sim, partner, held, target_pos=node.pos_array)
        sim.meter.charge_descriptors(self.name, len(payload), self._coord_dim)
        sim.meter.charge_descriptors(self.name, len(reply), self._coord_dim)
        obs_metrics.count("exchanges.tman")
        self._merge(sim, partner, payload, held, departed)
        self._merge(sim, node, reply, ids, departed)

    def _build_buffer(
        self, sim: Simulation, node: SimNode, ids: np.ndarray, target_pos: Coord
    ) -> np.ndarray:
        """The ids of the ``m`` peers of ``node``'s view (``ids``) ∪
        {node itself} whose current positions are closest to
        ``target_pos``."""
        pool = np.empty(len(ids) + 1, dtype=np.int64)
        pool[:-1] = ids
        pool[-1] = node.nid
        return rank_current(
            self.space, sim.network.table, target_pos, pool, self.message_size
        )

    def _merge(
        self,
        sim: Simulation,
        node: SimNode,
        incoming: np.ndarray,
        held: Optional[np.ndarray] = None,
        departed: bool = True,
    ) -> None:
        """Merge an incoming message (peer ids) into the node's ranked
        view (``held``, its row as it holds it): every id except the
        node's own and departed ones (detected failed, reclaimed ones
        too — ``departed`` is false when there are none) is
        adopted, and the union is ranked at current positions and cut to
        the ``cap`` closest entries."""
        refused = incoming == node.nid
        if departed:
            refused |= sim.detected_mask(incoming)
        if refused.any():
            incoming = incoming[~refused]
        table = sim.network.table
        row = node.row
        ids = self.row_ids(row) if held is None else held
        ids = np.concatenate((ids[~table.id_flags(incoming).take(ids)], incoming))
        self._put(row, rank_current(self.space, table, node.pos_array, ids, self.view_cap))
        self._ranked_at[row] = table.moves
