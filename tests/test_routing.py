"""Tests for the greedy routing substrate."""

import random

import pytest

from repro.routing import evaluate_routing, greedy_route, point_targets
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import Euclidean, FlatTorus
from repro.types import DataPoint

from .helpers import StubTMan, set_view

# A plain (non-wrapping) plane, so the chain below really is a line
# with two ends rather than a broken ring.
PLANE = Euclidean(2)
TORUS = FlatTorus(8.0, 4.0)


def chain_sim():
    """Nodes 0..7 in a line; each node's view = its neighbours."""
    network = Network()
    for x in range(8):
        network.add_node((float(x), 0.0))
    sim = Simulation(PLANE, network, [StubTMan(PLANE)], seed=0)
    sim.init_all_nodes()
    for x in range(8):
        set_view(sim, network.node(x), [n for n in (x - 1, x + 1) if 0 <= n < 8])
    return sim


class TestGreedyRoute:
    def test_routes_along_chain(self):
        sim = chain_sim()
        result = greedy_route(sim, PLANE, sim.network.node(0), (4.0, 0.0),
                              tolerance=0.1)
        assert result.success
        assert result.hops == 4
        assert result.path == [0, 1, 2, 3, 4]
        assert result.reason == "delivered"

    def test_immediate_delivery(self):
        sim = chain_sim()
        result = greedy_route(sim, PLANE, sim.network.node(3), (3.2, 0.0),
                              tolerance=0.5)
        assert result.success
        assert result.hops == 0

    def test_local_minimum_detected(self):
        sim = chain_sim()
        # Kill the middle of the chain: routes to the far side get stuck.
        sim.network.fail([3, 4], rnd=0)
        result = greedy_route(sim, PLANE, sim.network.node(0), (6.0, 0.0),
                              tolerance=0.1)
        assert not result.success
        assert result.reason == "local-minimum"

    def test_max_hops(self):
        sim = chain_sim()
        result = greedy_route(sim, PLANE, sim.network.node(0), (7.0, 0.0),
                              tolerance=0.1, max_hops=2)
        assert not result.success
        assert result.reason == "max-hops"
        assert result.hops == 2

    def test_skips_dead_neighbours(self):
        sim = chain_sim()
        sim.network.fail([1], rnd=0)
        result = greedy_route(sim, PLANE, sim.network.node(0), (2.0, 0.0),
                              tolerance=0.1)
        assert not result.success  # only path went through node 1


    @pytest.mark.parametrize("order", [(1, 2), (2, 1)])
    def test_equidistant_hops_break_ties_by_id(self, order):
        """Two neighbours equally close to the target: the lower id is
        the next hop whatever order the view stores them in."""
        network = Network()
        for coord in [(0.0, 0.0), (1.0, 1.0), (1.0, -1.0), (2.0, 0.0)]:
            network.add_node(coord)
        sim = Simulation(PLANE, network, [StubTMan(PLANE)], seed=0)
        sim.init_all_nodes()
        set_view(sim, network.node(0), order)
        set_view(sim, network.node(1), [3])
        set_view(sim, network.node(2), [3])
        result = greedy_route(sim, PLANE, network.node(0), (2.0, 0.0), tolerance=0.1)
        assert result.success
        assert result.path == [0, 1, 3]


class TestEvaluateRouting:
    def test_full_chain_delivers(self):
        sim = chain_sim()
        targets = [(float(x), 0.0) for x in range(8)]
        quality = evaluate_routing(
            sim, PLANE, targets, n_routes=50, tolerance=0.1,
            rng=random.Random(1),
        )
        assert quality.delivery_rate == 1.0
        assert quality.local_minimum_rate == 0.0
        assert quality.mean_hops_delivered >= 0.0

    def test_empty_targets_rejected(self):
        sim = chain_sim()
        with pytest.raises(ValueError):
            evaluate_routing(sim, PLANE, [], n_routes=5)

    def test_point_targets(self):
        points = [DataPoint(0, (1.0, 2.0)), DataPoint(1, (3.0, 4.0))]
        assert point_targets(points) == [(1.0, 2.0), (3.0, 4.0)]


class TestRoutingAfterCatastrophe:
    """The intro's claim, end to end: losing the shape breaks routing;
    Polystyrene restores it."""

    @pytest.fixture(scope="class")
    def scenario_pair(self):
        from repro.experiments.scenario import ScenarioConfig, build_simulation
        from repro.sim.failures import half_space_failure

        out = {}
        for protocol in ("tman", "polystyrene"):
            config = ScenarioConfig(
                width=16,
                height=8,
                protocol=protocol,
                replication=4,
                failure_round=10,
                reinjection_round=None,
                total_rounds=35,
                seed=5,
                metrics=("homogeneity",),
            )
            sim, _, _, points = build_simulation(config)
            sim.schedule(10, half_space_failure(0, 8.0))
            sim.run(35)
            out[protocol] = (sim, points)
        return out

    def test_tman_routing_degrades(self, scenario_pair):
        sim, points = scenario_pair["tman"]
        quality = evaluate_routing(
            sim, sim.space, point_targets(points), n_routes=120,
            tolerance=1.0, rng=random.Random(2),
        )
        # Half the keys sit in the hole: delivery caps well below 1.
        assert quality.delivery_rate < 0.75

    def test_polystyrene_routing_survives(self, scenario_pair):
        sim, points = scenario_pair["polystyrene"]
        quality = evaluate_routing(
            sim, sim.space, point_targets(points), n_routes=120,
            tolerance=1.0, rng=random.Random(2),
        )
        assert quality.delivery_rate > 0.9


@pytest.mark.parametrize("engine", ["event", "batch"])
def test_every_reader_sees_the_one_view_store(engine):
    """The view matrix, the digest's canonical ids, the greedy router's
    hop choice and the layer's ``neighbors`` read the same ids for every
    alive node — before and after a reinjection that reclaims the dead
    half's rows — and a reclaimed node reads an empty view."""
    from repro.experiments.scenario import ScenarioConfig, prepare_scenario

    config = ScenarioConfig(
        engine=engine, width=12, height=6, failure_round=2, reinjection_round=6,
        total_rounds=9, metrics=(), seed=4,
    )
    sim, *_ = prepare_scenario(config)
    topo = sim.topology
    network = sim.network

    def check() -> None:
        rows, ids = sim.view_matrix()
        nodes = [network.node(nid) for nid in network.table._nid_of[rows].tolist()]
        canonical = sim.canonical_view_ids(rows)["tman_view"]
        for node, matrix_row, view in zip(nodes, ids[rows].tolist(), canonical):
            assert sorted({nid for nid in matrix_row if nid >= 0}) == view
            alive = [nid for nid in view if network.is_alive(nid)]
            assert sorted(topo.neighbors(sim, node, len(view) + 1)) == alive
            if not alive:
                continue
            # Aim at the farthest alive entry: the first hop is the
            # alive view entry closest to it (ties to the lower id).
            far = max(alive, key=lambda nid: sim.space.distance(node.pos, network.node(nid).pos))
            target = network.node(far).pos
            want = min(alive, key=lambda nid: (sim.space.distance(network.node(nid).pos, target), nid))
            route = greedy_route(sim, sim.space, node, target, tolerance=-1.0, max_hops=1)
            if sim.space.distance(node.pos, target) > sim.space.distance(network.node(want).pos, target):
                assert route.path == [node.nid, want]

    for _ in range(5):
        sim.step()
    check()
    dead = [network.node(nid) for nid in network.dead_ids()]
    assert dead and all(node.row >= 0 for node in dead)
    sim.run(2)  # the reinjection wave reclaims the dead half's rows
    assert all(node.row == -1 for node in dead)
    for node in dead:
        assert topo.row_ids(node.row).tolist() == []
        assert topo.neighbors(sim, node, 4) == []
    check()
    sim.step()
    check()
