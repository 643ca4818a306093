"""Integration tests for evolving target shapes (paper Sec. III-A,
footnote 1: the shape "could keep evolving as the algorithm executes").
"""

from repro.core.config import PolystyreneConfig
from repro.core.points import PointFactory
from repro.core.protocol import PolystyreneLayer
from repro.gossip import PeerSamplingLayer, TManLayer
from repro.metrics import load_balance
from repro.metrics.homogeneity import homogeneity
from repro.sim import Network, Simulation
from repro.spaces import FlatTorus

from .helpers import ghosts_of


def build(width=12, height=6, seed=0):
    space = FlatTorus(float(width), float(height))
    factory = PointFactory()
    network = Network()
    rps = PeerSamplingLayer(view_size=8, shuffle_length=4)
    tman = TManLayer(space, rps, message_size=8, psi=4, view_cap=25)
    poly = PolystyreneLayer(space, PolystyreneConfig(replication=3), rps, tman)
    sim = Simulation(space, network, [rps, tman, poly], seed=seed)
    return sim, space, factory, poly


class TestShapeGrowth:
    def test_new_nodes_with_new_points_extend_the_shape(self):
        sim, space, factory, poly = build()
        left = [(float(x), float(y)) for x in range(6) for y in range(6)]
        right = [(float(x), float(y)) for x in range(6, 12) for y in range(6)]
        for point in factory.create_many(left):
            sim.network.add_node(point.coord, point)
        sim.init_all_nodes()
        sim.run(8)
        for coord in right:
            sim.spawn_node(coord, factory.create(coord))
        sim.run(15)
        alive = sim.network.alive_nodes()
        hom = homogeneity(space, factory.all_points, alive, sim.placement)
        assert hom < 1.0  # full (grown) shape is covered

    def test_injected_hotspot_spreads_out(self):
        sim, space, factory, poly = build()
        base = [(float(x), float(y)) for x in range(12) for y in range(6)]
        for point in factory.create_many(base):
            sim.network.add_node(point.coord, point)
        sim.init_all_nodes()
        sim.run(5)
        # Dump 24 new points onto a single node.
        host = sim.network.alive_nodes()[0]
        extra = factory.create_many(
            [(float(x) + 0.5, 2.5) for x in range(12)]
            + [(float(x) + 0.5, 4.5) for x in range(12)]
        )
        poly.add_guests(host, extra)
        spike = load_balance(sim.network.alive_nodes(), sim.placement)["max_over_mean"]
        sim.run(15)
        settled = load_balance(sim.network.alive_nodes(), sim.placement)["max_over_mean"]
        assert settled < spike / 2  # migration flattened the hotspot
        hom = homogeneity(
            space, factory.all_points, sim.network.alive_nodes(), sim.placement
        )
        assert hom < 1.0

    def test_injected_points_replicated(self):
        sim, space, factory, poly = build()
        base = [(float(x), float(y)) for x in range(6) for y in range(6)]
        for point in factory.create_many(base):
            sim.network.add_node(point.coord, point)
        sim.init_all_nodes()
        sim.run(3)
        host = sim.network.alive_nodes()[0]
        new_point = factory.create((3.5, 3.5))
        poly.add_guests(host, [new_point])
        sim.run(3)
        # The new point now exists as a ghost copy somewhere.
        ghost_copies = sum(
            1
            for node in sim.network.alive_nodes()
            for ghost in ghosts_of(sim, node).values()
            if new_point.pid in ghost
        )
        assert ghost_copies >= 1
