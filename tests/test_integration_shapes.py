"""Shape-generality integration tests.

The paper's protocol is shape-agnostic: the target shape is just the set
of initial data points.  These tests assemble the stack by hand (no
ScenarioConfig, which is torus-specific) on a ring and on a Euclidean
disk, and check that the shape survives a catastrophic failure.
"""

import pytest

from repro.core.config import PolystyreneConfig
from repro.core.points import PointFactory
from repro.core.protocol import PolystyreneLayer
from repro.gossip.rps import PeerSamplingLayer
from repro.gossip.tman import TManLayer
from repro.metrics.homogeneity import homogeneity, surviving_fraction
from repro.shapes import DiskShape, RingShape
from repro.sim.engine import Simulation
from repro.sim.network import Network


def build_stack(shape, space, K=4, seed=0):
    factory = PointFactory()
    network = Network()
    points = factory.create_many(shape.generate())
    for point in points:
        network.add_node(point.coord, point)
    rps = PeerSamplingLayer(view_size=10, shuffle_length=5)
    tman = TManLayer(space, rps, message_size=10, psi=5, view_cap=30, bootstrap_size=5)
    poly = PolystyreneLayer(space, PolystyreneConfig(replication=K), rps, tman)
    sim = Simulation(space, network, [rps, tman, poly], seed=seed)
    sim.init_all_nodes()
    return sim, points


class TestRingDeployment:
    def test_ring_arc_failure_reshapes(self):
        shape = RingShape(96)  # circumference 96, unit spacing
        space = shape.space()
        sim, points = build_stack(shape, space, K=4, seed=1)
        sim.run(8)
        # Kill a contiguous arc: a third of the ring.
        victims = [
            n.nid
            for n in sim.network.alive_nodes()
            if n.initial_point.coord[0] < 32.0
        ]
        sim.network.fail(victims, rnd=sim.round)
        sim.run(25)
        alive = sim.network.alive_nodes()
        assert surviving_fraction(points, alive, sim.placement) > 0.9
        h_ref = shape.reference_homogeneity(sim.network.n_alive)
        assert homogeneity(space, points, alive, sim.placement) < 2.0 * h_ref

    def test_survivors_spread_over_dead_arc(self):
        shape = RingShape(96)
        space = shape.space()
        sim, points = build_stack(shape, space, K=4, seed=2)
        sim.run(8)
        victims = [
            n.nid
            for n in sim.network.alive_nodes()
            if n.initial_point.coord[0] < 32.0
        ]
        sim.network.fail(victims, rnd=sim.round)
        sim.run(25)
        relocated = sum(
            1 for n in sim.network.alive_nodes() if n.pos[0] < 32.0
        )
        assert relocated >= 5


class TestEuclideanDisk:
    def test_disk_half_failure_reshapes(self):
        shape = DiskShape(100, radius=8.0, center=(8.0, 8.0))
        space = shape.space()
        sim, points = build_stack(shape, space, K=4, seed=3)
        sim.run(8)
        victims = [
            n.nid
            for n in sim.network.alive_nodes()
            if n.initial_point.coord[0] < 8.0
        ]
        sim.network.fail(victims, rnd=sim.round)
        sim.run(25)
        alive = sim.network.alive_nodes()
        assert surviving_fraction(points, alive, sim.placement) > 0.85
        # Survivors must re-cover the left half of the disk.
        relocated = sum(1 for n in alive if n.pos[0] < 8.0)
        assert relocated >= 5

    def test_centroid_projection_ablation_works_in_euclidean(self):
        shape = DiskShape(64, radius=6.0, center=(6.0, 6.0))
        space = shape.space()
        factory = PointFactory()
        network = Network()
        points = factory.create_many(shape.generate())
        for point in points:
            network.add_node(point.coord, point)
        rps = PeerSamplingLayer(view_size=10, shuffle_length=5)
        tman = TManLayer(space, rps, message_size=10, psi=5, view_cap=30)
        config = PolystyreneConfig(replication=4, projection="centroid")
        poly = PolystyreneLayer(space, config, rps, tman)
        sim = Simulation(space, network, [rps, tman, poly], seed=4)
        sim.init_all_nodes()
        sim.run(10)
        assert homogeneity(space, points, sim.network.alive_nodes(), sim.placement) < 1.5
