"""Tests for the Vicinity topology construction layer."""

import pytest

from repro.gossip.rps import PeerSamplingLayer
from repro.gossip.vicinity import VicinityLayer
from repro.metrics.proximity import proximity
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import FlatTorus

from .helpers import grid_coords, view_of


def build(width=8, height=8, seed=0, **kwargs):
    space = FlatTorus(float(width), float(height))
    network = Network()
    for coord in grid_coords(width, height):
        network.add_node(coord)
    rps = PeerSamplingLayer(view_size=8, shuffle_length=4)
    params = dict(view_size=15, message_size=8, rps_candidates=3, bootstrap_size=5)
    params.update(kwargs)
    vicinity = VicinityLayer(space, rps, **params)
    sim = Simulation(space, network, [rps, vicinity], seed=seed)
    sim.init_all_nodes()
    return sim, vicinity


class TestValidation:
    def test_parameters(self):
        space = FlatTorus(4.0)
        rps = PeerSamplingLayer(view_size=4, shuffle_length=2)
        with pytest.raises(ValueError):
            VicinityLayer(space, rps, view_size=0)
        with pytest.raises(ValueError):
            VicinityLayer(space, rps, message_size=0)
        with pytest.raises(ValueError):
            VicinityLayer(space, rps, rps_candidates=-1)


class TestConvergence:
    def test_proximity_improves(self):
        sim, vicinity = build()
        start = proximity(sim.space, sim)
        sim.run(15)
        assert proximity(sim.space, sim) < start

    def test_converges_to_grid_neighbours(self):
        sim, vicinity = build()
        sim.run(25)
        assert proximity(sim.space, sim) < 1.3

    def test_views_bounded(self):
        sim, vicinity = build(view_size=10)
        sim.run(10)
        for node in sim.network.alive_nodes():
            assert len(view_of(sim, node)) <= 10
            # An age beside every held id, and none beside an empty slot.
            row = vicinity._ids[node.row]
            assert (vicinity._ages[node.row][row < 0] == 0).all()
            assert (vicinity._ages[node.row][row >= 0] >= 0).all()

    def test_ages_grow_without_contact(self):
        sim, vicinity = build()
        sim.run(3)
        node = sim.network.alive_nodes()[0]
        held = vicinity._ids[node.row] >= 0
        assert (vicinity._ages[node.row][held] > 0).any()


class TestFailures:
    def test_dead_entries_purged(self):
        sim, vicinity = build()
        sim.run(5)
        victims = list(range(8))
        sim.network.fail(victims, rnd=sim.round)
        sim.run(2)
        for node in sim.network.alive_nodes():
            assert not (set(view_of(sim, node)) & set(victims))

    def test_neighbors_interface_matches_tman(self):
        sim, vicinity = build()
        sim.run(10)
        node = sim.network.alive_nodes()[0]
        neigh = vicinity.neighbors(sim, node, 4)
        assert len(neigh) == 4
        assert all(sim.network.is_alive(nid) for nid in neigh)

    def test_charges_own_layer(self):
        sim, vicinity = build()
        sim.run(1)
        assert sim.meter.history[0].get("vicinity", 0) > 0


class TestPolystyreneOverVicinity:
    def test_scenario_with_vicinity_reshapes(self):
        from repro.experiments.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig(
            width=16,
            height=8,
            topology="vicinity",
            replication=4,
            failure_round=10,
            reinjection_round=None,
            total_rounds=45,
            seed=3,
            metrics=("homogeneity",),
        )
        result = run_scenario(config)
        assert result.reshaping_time is not None
        assert result.reliability > 0.9

    def test_invalid_topology_rejected(self):
        from repro.errors import ConfigurationError
        from repro.experiments.scenario import ScenarioConfig

        with pytest.raises(ConfigurationError):
            ScenarioConfig(topology="pastry")
