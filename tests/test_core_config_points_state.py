"""Tests for Polystyrene configuration, point factory, and node state."""

import numpy as np
import pytest

from repro.core.config import PolystyreneConfig
from repro.core.points import PointFactory
from repro.errors import ConfigurationError
from repro.sim.engine import Simulation
from repro.sim.network import Network
from repro.spaces import FlatTorus

from .helpers import placed_nodes


class TestConfig:
    def test_defaults_match_paper(self):
        config = PolystyreneConfig()
        assert config.replication == 4
        assert config.psi == 5
        assert config.split == "advanced"
        assert config.projection == "medoid"

    def test_invalid_replication(self):
        with pytest.raises(ConfigurationError):
            PolystyreneConfig(replication=-1)

    def test_zero_replication_allowed(self):
        # K=0 means no backups: recovery can never fire, but the
        # migration machinery still works.
        assert PolystyreneConfig(replication=0).replication == 0

    def test_invalid_split(self):
        with pytest.raises(ConfigurationError):
            PolystyreneConfig(split="fancy")

    def test_invalid_projection(self):
        with pytest.raises(ConfigurationError):
            PolystyreneConfig(projection="mean")

    def test_invalid_placement(self):
        with pytest.raises(ConfigurationError):
            PolystyreneConfig(backup_placement="everywhere")

    def test_invalid_psi(self):
        with pytest.raises(ConfigurationError):
            PolystyreneConfig(psi=0)

    def test_all_splits_accepted(self):
        for split in ("basic", "pd", "md", "advanced"):
            assert PolystyreneConfig(split=split).split == split


class TestPointFactory:
    def test_sequential_ids(self):
        factory = PointFactory()
        a = factory.create((0.0, 0.0))
        b = factory.create((1.0, 1.0))
        assert (a.pid, b.pid) == (0, 1)

    def test_create_many(self):
        factory = PointFactory()
        points = factory.create_many([(0.0,), (1.0,), (2.0,)])
        assert [p.pid for p in points] == [0, 1, 2]

    def test_registry(self):
        factory = PointFactory()
        point = factory.create((3.0,))
        assert factory.get(point.pid) is point
        assert len(factory) == 1

    def test_all_points_order(self):
        factory = PointFactory()
        created = factory.create_many([(0.0,), (1.0,)])
        assert factory.all_points == created


class TestState:
    """A node's placement state is its row of the placement store."""

    def test_initial_guests(self):
        nodes, store = placed_nodes([(0.0, 0.0)])
        store.reset_row(nodes[0].row, nodes[0].nid, 7)
        assert store.guests(nodes[0].row) == [7]
        assert store.owner[nodes[0].row] == nodes[0].nid

    def test_empty_state(self):
        nodes, store = placed_nodes([(0.0, 0.0)])
        row = nodes[0].row
        assert store.guests(row) == []
        assert store.stored_points(nodes[0]._table, np.array([row])) == 0
        assert (store.backup_ids[row] == -1).all()
        assert store.copy(row, 0) is None

    def test_add_guests_dedups_by_pid(self):
        # Recovery appends a copy's ids the node does not hold yet.
        from repro.core.recovery import recover_node

        network = Network()
        nodes, store = placed_nodes(
            [(0.0, 0.0), (1.0, 0.0)], [[1], []], [(1, 0, [1, 2, 1])], network
        )
        sim = Simulation(FlatTorus(4.0, 4.0), network, [])
        sim.network.fail([nodes[1].nid], rnd=0)
        recovered = recover_node(sim, nodes[0], store, {nodes[1].nid: nodes[1].row})
        assert recovered == [nodes[1].nid]
        assert store.guests(nodes[0].row) == [1, 2]

    def test_set_guests_replaces(self):
        nodes, store = placed_nodes([(0.0, 0.0)], [[1]])
        store.set_guests(nodes[0].row, [2, 3] * 5)  # grows the width
        assert store.guests(nodes[0].row) == [2, 3] * 5
        store.set_guests(nodes[0].row, [4])
        assert store.guests(nodes[0].row) == [4]
        assert (store.guest_ids[nodes[0].row, 1:] == -1).all()

    def test_storage_counts_ghosts(self):
        nodes, store = placed_nodes(
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)],
            [[1], [], []],
            copies=[(1, 0, [2, 3]), (2, 0, [4])],
        )
        table = nodes[0]._table
        assert store.stored_points(table, np.array([nodes[0].row])) == 4

    def test_ghost_origins(self):
        nodes, store = placed_nodes(
            [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], copies=[(2, 0, []), (1, 0, [])]
        )
        o_rows, _, targets = store.copies(nodes[0]._table)
        assert sorted(store.owner[o_rows].tolist()) == [1, 2]
        assert (targets == nodes[0].row).all()
