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

Unlike the topology views, RPS views are never distance-ranked, so they
stay plain ``{id: age}`` dicts — every operation here (aging, eviction,
merge) is already a C-speed dict scan, and an array mirror would only
add conversion overhead.

Robustness note: after a catastrophic failure a node's whole view can be
dead.  A real deployment re-bootstraps from a rendezvous service; the
simulator mirrors that with a network-wide random re-seed, used *only*
when the view holds no alive entry (the fallback is counted, so tests
can assert it stays rare in the paper scenario).
"""

from __future__ import annotations

from typing import Dict, List

from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..sim.rng import sample_without
from ..types import NodeId


class PeerSamplingLayer:
    """Cyclon-style random peer sampling."""

    name = "rps"

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

    # -- per-node state ----------------------------------------------------

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        rng = sim.rng_for(self.name)
        peers = sim.network.random_alive(rng, self.view_size, exclude=(node.nid,))
        node.rps_view = {nid: 0 for nid in peers}

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
        alive = [
            nid for nid in node.rps_view if nid in alive_view and nid != own
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
        for nid in sim.shuffled_alive(self.name):
            if network.is_alive(nid):
                self._shuffle(sim, network.node(nid))

    def _shuffle(self, sim: Simulation, node: SimNode) -> None:
        rng = sim.rng_for(self.name)
        view = node.rps_view
        # Age every entry and evict detectably-failed peers.
        gone = sim.detected_failed()
        for peer in list(view):
            if peer in gone:
                del view[peer]
            else:
                view[peer] += 1
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
        sent = sample_without(rng, list(view), self.shuffle_length - 1)
        payload = {nid: view[nid] for nid in sent}
        payload[node.nid] = 0  # fresh self-descriptor
        # Partner answers with a random subset of its own view.
        reply_ids = sample_without(
            rng, list(partner.rps_view), self.shuffle_length, exclude=(node.nid,)
        )
        reply = {nid: partner.rps_view[nid] for nid in reply_ids}
        # RPS traffic is metered under its own layer name; the paper's
        # message plots exclude it.
        dim = getattr(sim.space, "dim", None) or 1
        sim.meter.charge_descriptors(self.name, len(payload) + len(reply), dim)
        self._merge(sim, partner, payload, sent_out=reply_ids)
        self._merge(sim, node, reply, sent_out=sent)

    def _merge(
        self,
        sim: Simulation,
        node: SimNode,
        incoming: Dict[NodeId, int],
        sent_out: List[NodeId],
    ) -> None:
        """Cyclon merge: keep fresh entries, fill free slots first, then
        reuse the slots of entries that were just sent away."""
        view = node.rps_view
        detected = sim.detected_failed()
        replaceable = [nid for nid in sent_out if nid in view]
        for peer, age in incoming.items():
            if peer == node.nid or peer in detected:
                continue
            if peer in view:
                view[peer] = min(view[peer], age)
                continue
            if len(view) < self.view_size:
                view[peer] = age
            elif replaceable:
                del view[replaceable.pop()]
                view[peer] = age
