"""Gossip-based aggregation (push-pull averaging) [Jelasity et al.,
ACM TOCS 2005 — the paper's reference 24].

The paper leans on this protocol family twice: migration's pair-wise
exchange discipline is "a common requirement of gossip-based
aggregation protocols [24]" (Sec. III-F), and sizing the replication
factor K needs the fraction of nodes expected to fail — which a real
deployment estimates *decentralised*.  This layer provides the classic
push-pull averaging primitive and, on top of it, network-size
estimation: every node starts with value 0 except one seed with 1;
averaging converges every node's value to 1/N, so each node can read
off ``N ≈ 1/value`` locally.

Combined with :func:`repro.core.backup.required_replication`, this is
the building block for *adaptive replication*: nodes observing a
shrinking network can locally raise K to keep a target survival
probability — the "components configured independently" direction of
the paper's conclusion.
"""

from __future__ import annotations

from typing import Optional

from ..sim.engine import Simulation
from ..sim.network import SimNode
from .rps import PeerSamplingLayer


class AggregationLayer:
    """Push-pull averaging over the peer-sampling overlay.

    Each round every node picks a random alive peer and both set their
    value to the pair's mean; the global mean is invariant and the
    variance decays exponentially (halved or better per round).
    """

    name = "aggregation"

    def __init__(self, rps: PeerSamplingLayer, initial_value: float = 0.0) -> None:
        self.rps = rps
        self.initial_value = float(initial_value)

    # -- per-node state ----------------------------------------------------

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        node.agg_value = self.initial_value

    def set_value(self, node: SimNode, value: float) -> None:
        node.agg_value = float(value)

    # -- one gossip cycle ----------------------------------------------------

    def step(self, sim: Simulation) -> None:
        for nid in sim.shuffled_alive(self.name):
            if not sim.network.is_alive(nid):
                continue
            node = sim.network.node(nid)
            peers = self.rps.sample(sim, node, 1)
            if not peers:
                continue
            partner = sim.network.node(peers[0])
            mean = (node.agg_value + partner.agg_value) / 2.0
            node.agg_value = mean
            partner.agg_value = mean
            # One float each way; floats cost one unit like ids.
            sim.meter.charge_ids(self.name, 2)


class SizeEstimator(AggregationLayer):
    """Decentralised network-size estimation via averaging.

    The designated seed node starts at 1.0, everyone else at 0.0; after
    convergence every node's value approximates ``1/N`` and
    :meth:`estimate` inverts it.  If the seed dies, the surviving mass
    still averages to ``(pre-failure mass on survivors)/N'`` — after a
    catastrophic failure the estimate re-tracks the surviving
    population once re-seeded (call :meth:`reseed`).
    """

    name = "size-estimator"

    def __init__(self, rps: PeerSamplingLayer, seed_node: int = 0) -> None:
        super().__init__(rps, initial_value=0.0)
        self.seed_node = seed_node

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        node.agg_value = 1.0 if node.nid == self.seed_node else 0.0

    def reseed(self, sim: Simulation, seed_node: Optional[int] = None) -> None:
        """Restart the estimation epoch on the current population."""
        if seed_node is None:
            seed_node = sim.network.alive_ids()[0]
        self.seed_node = seed_node
        for node in sim.network.alive_nodes():
            node.agg_value = 1.0 if node.nid == seed_node else 0.0

    def estimate(self, node: SimNode) -> float:
        """This node's local estimate of the network size."""
        if node.agg_value <= 0.0:
            return float("inf")
        return 1.0 / node.agg_value
