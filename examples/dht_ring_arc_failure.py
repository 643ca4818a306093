#!/usr/bin/env python
"""Chord-style DHT ring losing a contiguous arc of its key space.

DHT rings (Chord, Pastry) assign contiguous key arcs to nodes.  When
placement is geography-correlated — e.g. all European replicas own
adjacent arcs — a regional outage removes a *contiguous* stretch of the
ring.  This example deploys Polystyrene on a 1-D ring space, kills a
third of the ring in one event, and tracks how key coverage (homogeneity
over the original key points) recovers.

It also demonstrates assembling the stack by hand for a non-torus
space, which is what a real integration would do.

Run:  python examples/dht_ring_arc_failure.py
"""

from repro import PolystyreneConfig, PolystyreneLayer
from repro.core.points import PointFactory
from repro.gossip import PeerSamplingLayer, TManLayer
from repro.metrics import homogeneity, surviving_fraction
from repro.shapes import RingShape
from repro.sim import Network, Simulation

N_NODES = 120
ARC_FRACTION = 1 / 3
FAILURE_ROUND = 10
TOTAL_ROUNDS = 50


def main():
    print(__doc__)
    shape = RingShape(N_NODES)  # circumference 120, unit key spacing
    space = shape.space()

    factory = PointFactory()
    network = Network()
    keys = factory.create_many(shape.generate())
    for key in keys:
        network.add_node(key.coord, key)

    rps = PeerSamplingLayer(view_size=12, shuffle_length=6)
    tman = TManLayer(space, rps, message_size=12, psi=5, view_cap=40)
    poly = PolystyreneLayer(space, PolystyreneConfig(replication=4), rps, tman)
    sim = Simulation(space, network, [rps, tman, poly], seed=13)
    sim.init_all_nodes()

    cut = shape.circumference * ARC_FRACTION
    sim.schedule(
        FAILURE_ROUND,
        lambda s: s.network.fail(
            [
                n.nid
                for n in s.network.alive_nodes()
                if n.initial_point.coord[0] < cut
            ],
            s.round,
        ),
    )

    print("round  alive  key-coverage-gap  keys-surviving")
    for rnd in range(TOTAL_ROUNDS):
        sim.step()
        if rnd % 5 == 0 or rnd in (FAILURE_ROUND, FAILURE_ROUND + 1):
            alive = sim.network.alive_nodes()
            gap = homogeneity(space, keys, alive, sim.placement)
            surv = surviving_fraction(keys, alive, sim.placement)
            print(
                f"{rnd:5d}  {sim.network.n_alive:5d}  {gap:16.3f}  {surv:14.1%}"
            )

    alive = sim.network.alive_nodes()
    h_ref = shape.reference_homogeneity(sim.network.n_alive)
    final_gap = homogeneity(space, keys, alive, sim.placement)
    relocated = sum(1 for n in alive if n.pos[0] < cut)
    print()
    print(f"reference homogeneity for {sim.network.n_alive} nodes: {h_ref:.3f}")
    print(f"final key-coverage gap: {final_gap:.3f}")
    print(f"survivors now serving the dead arc: {relocated}")
    assert final_gap < 3 * h_ref, "ring did not reshape"


if __name__ == "__main__":
    main()
