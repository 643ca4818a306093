"""Tests for the Cyclon-style peer-sampling layer."""

import pytest

from repro.gossip.aggregation import SizeEstimator
from repro.gossip.rps import PeerSamplingLayer
from repro.sim.arrays import ViewStore
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import FlatTorus

from .helpers import grid_coords


def build(n_side=6, view_size=6, shuffle_length=3, seed=0):
    space = FlatTorus(float(n_side), float(n_side))
    network = Network()
    coords = grid_coords(n_side, n_side)
    for coord in coords:
        network.add_node(coord)
    rps = PeerSamplingLayer(view_size=view_size, shuffle_length=shuffle_length)
    sim = Simulation(space, network, [rps], seed=seed)
    sim.init_all_nodes()
    return sim, rps


def view(rps, node) -> list:
    """The ids of ``node``'s Cyclon view, read through the layer's
    store."""
    return rps.row_ids(node.row).tolist()


class TestValidation:
    def test_view_size_positive(self):
        with pytest.raises(ValueError):
            PeerSamplingLayer(view_size=0)

    def test_shuffle_length_bounds(self):
        with pytest.raises(ValueError):
            PeerSamplingLayer(view_size=5, shuffle_length=6)
        with pytest.raises(ValueError):
            PeerSamplingLayer(view_size=5, shuffle_length=0)


class TestInit:
    def test_views_filled(self):
        sim, rps = build()
        for node in sim.network.alive_nodes():
            assert len(view(rps, node)) == rps.view_size

    def test_no_self_loops(self):
        sim, rps = build()
        for node in sim.network.alive_nodes():
            assert node.nid not in view(rps, node)


class TestShuffle:
    def test_views_stay_bounded(self):
        sim, rps = build()
        sim.run(10)
        for node in sim.network.alive_nodes():
            assert 0 < len(view(rps, node)) <= rps.view_size
            assert node.nid not in view(rps, node)

    def test_views_churn_over_time(self):
        sim, rps = build()
        before = {n.nid: set(view(rps, n)) for n in sim.network.alive_nodes()}
        sim.run(10)
        changed = sum(
            1
            for n in sim.network.alive_nodes()
            if set(view(rps, n)) != before[n.nid]
        )
        assert changed > len(before) * 0.8

    def test_dead_entries_evicted(self):
        sim, rps = build()
        sim.network.fail([0, 1, 2], rnd=0)
        sim.run(3)
        for node in sim.network.alive_nodes():
            assert not ({0, 1, 2} & set(view(rps, node)))

    def test_charges_rps_traffic(self):
        sim, rps = build()
        sim.run(1)
        assert sim.meter.history[0].get("rps", 0) > 0

    def test_survives_catastrophic_failure(self):
        sim, rps = build(n_side=8)
        half = [n for n in range(64) if n % 8 < 4]
        sim.network.fail(half, rnd=0)
        sim.run(5)
        for node in sim.network.alive_nodes():
            assert len(view(rps, node)) > 0

    def test_randomness_views_not_identical(self):
        sim, rps = build(n_side=8)
        sim.run(5)
        views = [frozenset(view(rps, n)) for n in sim.network.alive_nodes()]
        assert len(set(views)) > len(views) // 2


class TestSample:
    def test_sample_returns_alive_peers(self):
        sim, rps = build()
        node = sim.network.node(0)
        out = rps.sample(sim, node, 3)
        assert len(out) == 3
        assert all(sim.network.is_alive(nid) for nid in out)
        assert node.nid not in out

    def test_sample_respects_exclude(self):
        sim, rps = build()
        node = sim.network.node(0)
        view_peers = tuple(view(rps, node))
        out = rps.sample(sim, node, 2, exclude=view_peers)
        assert not (set(out) & set(view_peers))

    def test_fallback_when_view_dead(self):
        sim, rps = build()
        node = sim.network.node(0)
        sim.network.fail(view(rps, node), rnd=0)
        before = rps.bootstrap_fallbacks
        out = rps.sample(sim, node, 2)
        assert out  # the oracle fallback still finds peers
        assert rps.bootstrap_fallbacks == before + 1

    def test_two_node_network(self):
        space = FlatTorus(2.0)
        network = Network()
        network.add_node((0.0,))
        network.add_node((1.0,))
        rps = PeerSamplingLayer(view_size=2, shuffle_length=1)
        sim = Simulation(space, network, [rps], seed=0)
        sim.init_all_nodes()
        sim.run(5)  # must not crash or livelock
        assert rps.sample(sim, network.node(0), 1) == [1]


class TestOneStore:
    """Cyclon's views are rows of a :class:`ViewStore` on both engines,
    like every other gossip view; the topology is never the sampler."""

    def test_a_packed_row_keeps_the_dict_order(self):
        """An eviction compacts the row and an insert appends to it, as
        a dict deletes and inserts: the row reads back in the order a
        dict would hold, which the Cyclon draws depend on."""
        sim, rps = build()
        row = sim.network.node(0).row
        rps._store(row, {5: 1, 3: 0, 9: 2})
        assert rps._ids[row].tolist() == [5, 3, 9, -1, -1, -1]
        view = rps._view(row, gone=frozenset({3}), age=1)
        view[4] = 0
        assert list(view.items()) == [(5, 2), (9, 3), (4, 0)]
        rps._store(row, view)
        assert rps._ids[row].tolist() == [5, 9, 4, -1, -1, -1]
        assert rps._ages[row].tolist() == [2, 3, 0, 0, 0, 0]

    @pytest.mark.parametrize("engine", ["event", "batch"])
    @pytest.mark.parametrize("topology", ["tman", "vicinity"])
    def test_topology_is_never_the_peer_sampler(self, engine, topology):
        from repro.experiments.scenario import ScenarioConfig, prepare_scenario

        cfg = ScenarioConfig(
            width=8, height=4, failure_round=None, reinjection_round=None,
            total_rounds=2, metrics=(), engine=engine, topology=topology, seed=0,
        )
        sim, *_ = prepare_scenario(cfg)
        rps, topo = sim.layers[:2]
        assert isinstance(rps, ViewStore) and rps.family == "rps_views"
        assert topo.name == topology
        assert sim.topology is topo
        sim.run(2)
        assert sim.view_matrix()[1] is topo._ids
        views = sim.canonical_view_ids(sim.alive_act_rows())
        assert set(views) == {"rps_view", "tman_view"}

    def test_a_stack_without_topology_has_none(self):
        """The by-hand ``[rps, estimator]`` stack of
        ``examples/adaptive_replication.py``: its one store is the
        sampler's, so there is no topology layer."""
        sim, rps = build()
        estimator = SizeEstimator(rps, seed_node=0)
        sim.layers.append(estimator)
        estimator.init_node(sim, sim.network.node(0))
        assert sim.topology is None
        assert sim.view_matrix()[1].shape[1] == 0
