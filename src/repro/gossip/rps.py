"""Random Peer Sampling — a Cyclon-style shuffle service.

The bottom layer of the paper's stack (Fig. 2/3): it "provides each node
with a random sample of the rest of the network" by having nodes
"exchange and shuffle their neighbors' list in asynchronous gossip
rounds" [17], [21].  T-Man draws fresh random candidates from it,
Polystyrene draws backup nodes and one extra migration candidate.

The implementation follows Cyclon: ages on view entries, shuffle with
the oldest neighbour, send a subset including a fresh self-descriptor,
and merge by filling empty slots first then replacing the entries that
were sent out.

The views are rows of a :class:`~repro.sim.arrays.ViewStore` (ids and
ages), as every gossip view is.  A shuffle reads its two rows as
``{id: age}`` dicts and writes them back packed; a packed row keeps the
dict's insertion order, which the RNG draws depend on, because an
eviction compacts the row and an insert appends to it.

Robustness note: after a catastrophic failure a node's whole view can be
dead.  A real deployment re-bootstraps from a rendezvous service; the
simulator mirrors that with a network-wide random re-seed, used *only*
when the view holds no alive entry (the fallback is counted, so tests
can assert it stays rare in the paper scenario).
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.arrays import ViewStore
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..sim.rng import sample_without
from ..types import NodeId


class PeerSamplingLayer(ViewStore):
    """Cyclon-style random peer sampling."""

    name = "rps"
    canonical_attr = "rps_view"
    family = "rps_views"

    def __init__(self, view_size: int = 20, shuffle_length: int = 10) -> None:
        if view_size < 1:
            raise ValueError("view_size must be >= 1")
        if not 1 <= shuffle_length <= view_size:
            raise ValueError("need 1 <= shuffle_length <= view_size")
        self.view_size = view_size
        self.shuffle_length = shuffle_length
        #: How many times a node had to fall back to the bootstrap
        #: oracle because its view contained no alive peer.
        self.bootstrap_fallbacks = 0
        self._init_views(view_size, ages=True)

    # -- per-node state ----------------------------------------------------

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        self._ensure_rows(sim.network.table)
        rng = sim.rng_for(self.name)
        peers = sim.network.random_alive(rng, self.view_size, exclude=(node.nid,))
        self._store(node.row, dict.fromkeys(peers, 0))

    def _view(self, row: int, gone=frozenset(), age: int = 0) -> Dict[NodeId, int]:
        """Row ``row`` as an ``{id: age}`` dict in slot order, the ids in
        ``gone`` left out and ``age`` added to every age."""
        ids, ages = self._ids[row].tolist(), self._ages[row].tolist()
        view = {p: a + age for p, a in zip(ids, ages) if p not in gone}
        view.pop(-1, None)
        return view

    def _store(self, row: int, view: Dict[NodeId, int]) -> None:
        """Make ``view`` the whole of row ``row``, packed in dict order."""
        self._put(row, [*view], [*view.values()])

    # -- sampling API used by upper layers ----------------------------------

    def sample(
        self,
        sim: Simulation,
        node: SimNode,
        k: int = 1,
        exclude: tuple = (),
    ) -> List[NodeId]:
        """Up to ``k`` random *alive* peers from the node's view.

        Falls back to the network bootstrap oracle when the view cannot
        provide any alive candidate.
        """
        rng = sim.rng_for(self.name)
        alive_view = sim.network.alive_view()
        own = node.nid
        # ``-1`` pads are never alive ids.
        alive = [
            nid
            for nid in self._ids[node.row].tolist()
            if nid in alive_view and nid != own
        ]
        picked = sample_without(rng, alive, k, exclude=exclude)
        if not picked and k > 0:
            self.bootstrap_fallbacks += 1
            picked = sim.network.random_alive(
                rng, k, exclude=set(exclude) | {node.nid}
            )
        return picked

    # -- one gossip cycle ----------------------------------------------------

    def step(self, sim: Simulation) -> None:
        network = sim.network
        self._ensure_rows(network.table)
        for nid in sim.shuffled_alive(self.name):
            if network.is_alive(nid):
                node = network.node(nid)
                # Age every entry and evict detectably-failed peers.
                view = self._view(node.row, sim.detected_failed(), 1)
                self._shuffle(sim, node, view)
                self._store(node.row, view)

    def _shuffle(self, sim: Simulation, node: SimNode, view: Dict[NodeId, int]) -> None:
        rng = sim.rng_for(self.name)
        if not view:
            self.bootstrap_fallbacks += 1
            peers = sim.network.random_alive(
                rng, self.view_size, exclude=(node.nid,)
            )
            view.update({p: 0 for p in peers})
            if not view:
                return
        # Cyclon: shuffle with the oldest neighbour.
        partner_id = max(view, key=lambda p: (view[p], p))
        del view[partner_id]
        if not sim.network.is_alive(partner_id):
            return
        partner = sim.network.node(partner_id)
        partner_view = self._view(partner.row)
        sent = sample_without(rng, list(view), self.shuffle_length - 1)
        payload = {nid: view[nid] for nid in sent}
        payload[node.nid] = 0  # fresh self-descriptor
        # Partner answers with a random subset of its own view.
        reply_ids = sample_without(
            rng, list(partner_view), self.shuffle_length, exclude=(node.nid,)
        )
        reply = {nid: partner_view[nid] for nid in reply_ids}
        # RPS traffic is metered under its own layer name; the paper's
        # message plots exclude it.
        dim = getattr(sim.space, "dim", None) or 1
        sim.meter.charge_descriptors(self.name, len(payload) + len(reply), dim)
        self._merge(sim, partner.nid, partner_view, payload, sent_out=reply_ids)
        self._store(partner.row, partner_view)
        self._merge(sim, node.nid, view, reply, sent_out=sent)

    def _merge(
        self,
        sim: Simulation,
        own: NodeId,
        view: Dict[NodeId, int],
        incoming: Dict[NodeId, int],
        sent_out: List[NodeId],
    ) -> None:
        """Cyclon merge into node ``own``'s ``view``: keep fresh entries,
        fill free slots first, then reuse the slots of entries that were
        just sent away."""
        detected = sim.detected_failed()
        replaceable = [nid for nid in sent_out if nid in view]
        for peer, age in incoming.items():
            if peer == own or peer in detected:
                continue
            if peer in view:
                view[peer] = min(view[peer], age)
                continue
            if len(view) < self.view_size:
                view[peer] = age
            elif replaceable:
                del view[replaceable.pop()]
                view[peer] = age
