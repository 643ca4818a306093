"""Tests for the assembled Polystyrene layer and the baseline adapter."""

import pytest

from repro.core.config import PolystyreneConfig
from repro.core.protocol import PolystyreneLayer, StaticHolderLayer
from repro.gossip.rps import PeerSamplingLayer
from repro.gossip.tman import TManLayer
from repro.metrics.homogeneity import homogeneity, surviving_fraction
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import FlatTorus

from repro.core.points import PointFactory
from repro.metrics.storage import average_storage

from .helpers import backups_of, ghosts_of, guests_of


def build_stack(width=8, height=4, K=2, seed=0, **config_kwargs):
    space = FlatTorus(float(width), float(height))
    factory = PointFactory()
    network = Network()
    points = []
    for x in range(width):
        for y in range(height):
            point = factory.create((float(x), float(y)))
            points.append(point)
            network.add_node(point.coord, point)
    rps = PeerSamplingLayer(view_size=8, shuffle_length=4)
    tman = TManLayer(space, rps, message_size=10, psi=5, view_cap=30, bootstrap_size=5)
    config = PolystyreneConfig(replication=K, **config_kwargs)
    poly = PolystyreneLayer(space, config, rps, tman)
    sim = Simulation(space, network, [rps, tman, poly], seed=seed)
    sim.init_all_nodes()
    return sim, poly, points, space


class TestInit:
    def test_node_starts_with_own_point(self):
        sim, poly, points, space = build_stack()
        node = sim.network.node(0)
        assert guests_of(sim, node) == [points[0].pid]
        assert poly.points[points[0].pid] is points[0]
        assert node.pos == points[0].coord

    def test_fresh_node_starts_empty(self):
        sim, poly, points, space = build_stack()
        fresh = sim.spawn_node((0.5, 0.5))
        assert guests_of(sim, fresh) == []
        assert fresh.pos == (0.5, 0.5)


class TestSteadyState:
    def test_backups_established_after_first_round(self):
        sim, poly, points, space = build_stack(K=3)
        sim.run(1)
        for node in sim.network.alive_nodes():
            assert len(backups_of(sim, node)) == 3

    def test_storage_reaches_one_plus_k(self):
        sim, poly, points, space = build_stack(K=2)
        sim.run(3)
        storage = average_storage(sim.network.alive_nodes(), sim.placement)
        assert storage == pytest.approx(3.0, abs=0.25)

    def test_no_point_lost_without_failures(self):
        sim, poly, points, space = build_stack()
        sim.run(10)
        held = set()
        for node in sim.network.alive_nodes():
            held.update(guests_of(sim, node))
        assert held == {p.pid for p in points}

    def test_homogeneity_stays_near_zero(self):
        sim, poly, points, space = build_stack()
        sim.run(10)
        assert homogeneity(space, points, sim.network.alive_nodes(), sim.placement) < 0.5


class TestFailureRecovery:
    def test_points_survive_half_failure(self):
        sim, poly, points, space = build_stack(K=4)
        sim.run(5)
        victims = [
            n.nid
            for n in sim.network.alive_nodes()
            if n.initial_point.coord[0] < 4.0
        ]
        sim.network.fail(victims, rnd=sim.round)
        sim.run(1)  # recovery fires
        held = set()
        for node in sim.network.alive_nodes():
            held.update(guests_of(sim, node))
        # K=4 gives ~97% survival; on 32 points that is >= 26 w.h.p.
        assert len(held) >= 26

    def test_survivors_reoccupy_failed_half(self):
        sim, poly, points, space = build_stack(K=4)
        sim.run(5)
        victims = [
            n.nid
            for n in sim.network.alive_nodes()
            if n.initial_point.coord[0] < 4.0
        ]
        sim.network.fail(victims, rnd=sim.round)
        sim.run(15)
        # Some survivors must now advertise positions in the dead half.
        relocated = sum(
            1 for n in sim.network.alive_nodes() if n.pos[0] < 4.0
        )
        assert relocated >= 3

    def test_homogeneity_recovers(self):
        sim, poly, points, space = build_stack(K=4)
        sim.run(5)
        victims = [
            n.nid
            for n in sim.network.alive_nodes()
            if n.initial_point.coord[0] < 4.0
        ]
        sim.network.fail(victims, rnd=sim.round)
        sim.run(1)
        spiked = homogeneity(space, points, sim.network.alive_nodes(), sim.placement)
        sim.run(20)
        settled = homogeneity(space, points, sim.network.alive_nodes(), sim.placement)
        assert settled < spiked

    def test_ghost_duplicates_deduplicated_over_time(self):
        sim, poly, points, space = build_stack(K=4)
        sim.run(5)
        victims = [
            n.nid
            for n in sim.network.alive_nodes()
            if n.initial_point.coord[0] < 4.0
        ]
        sim.network.fail(victims, rnd=sim.round)
        sim.run(1)
        def duplicate_count():
            seen = {}
            for node in sim.network.alive_nodes():
                for pid in guests_of(sim, node):
                    seen[pid] = seen.get(pid, 0) + 1
            return sum(c - 1 for c in seen.values() if c > 1)
        early = duplicate_count()
        sim.run(20)
        late = duplicate_count()
        assert late < early or early == 0


class TestStaticHolder:
    def test_keeps_position_and_point(self):
        space = FlatTorus(4.0, 4.0)
        factory = PointFactory()
        network = Network()
        point = factory.create((1.0, 1.0))
        network.add_node(point.coord, point)
        layer = StaticHolderLayer()
        sim = Simulation(space, network, [layer], seed=0)
        sim.init_all_nodes()
        sim.run(5)
        node = network.node(0)
        assert node.pos == (1.0, 1.0)
        assert guests_of(sim, node) == [point.pid]
        assert ghosts_of(sim, node) == {}

    def test_reliability_without_replication(self):
        # Under the static baseline a failed node's point is simply lost.
        space = FlatTorus(4.0, 2.0)
        factory = PointFactory()
        network = Network()
        points = []
        for x in range(4):
            for y in range(2):
                point = factory.create((float(x), float(y)))
                points.append(point)
                network.add_node(point.coord, point)
        layer = StaticHolderLayer()
        sim = Simulation(space, network, [layer], seed=0)
        sim.init_all_nodes()
        network.fail([0, 1, 2, 3], rnd=0)
        assert surviving_fraction(points, network.alive_nodes(), sim.placement) == 0.5
