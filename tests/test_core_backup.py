"""Tests for the backup mechanism (Algorithm 1)."""

import pytest

from repro.core.backup import (
    BackupManager,
    required_replication,
    survival_probability,
)
from repro.core.config import PolystyreneConfig
from repro.core.protocol import PolystyreneLayer
from repro.spaces import FlatTorus

from .helpers import StubRPS, StubTMan, backups_of, ghosts_of, grid_coords, guests_of, make_sim

TORUS = FlatTorus(8.0, 4.0)


def build(n=8, K=2, **config_kwargs):
    rps, tman = StubRPS(), StubTMan(TORUS)
    sim, factory, points = make_sim(
        TORUS, grid_coords(4, 2) if n == 8 else grid_coords(n, 1), layers=[rps, tman]
    )
    config = PolystyreneConfig(replication=K, **config_kwargs)
    poly = PolystyreneLayer(TORUS, config, rps, tman)
    sim.layers.append(poly)  # ``sim.placement`` is its store
    for node in sim.network.alive_nodes():
        poly.init_node(sim, node)
    manager = BackupManager(config, poly.placement, poly.pushed_by)
    return sim, manager, rps, tman


class TestAnalyticalModel:
    def test_paper_example(self):
        # ps = 0.99, pf = 0.5 requires K >= 6 (bound 5.64).
        assert required_replication(0.99, 0.5) == 6

    def test_survival_probabilities_table2(self):
        assert survival_probability(2, 0.5) == pytest.approx(0.875)
        assert survival_probability(4, 0.5) == pytest.approx(0.96875)
        assert survival_probability(8, 0.5) == pytest.approx(0.998046875)

    def test_k_zero(self):
        assert survival_probability(0, 0.5) == pytest.approx(0.5)

    def test_monotone_in_k(self):
        probs = [survival_probability(k, 0.5) for k in range(8)]
        assert probs == sorted(probs)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_replication(1.0, 0.5)
        with pytest.raises(ValueError):
            required_replication(0.9, 0.0)
        with pytest.raises(ValueError):
            survival_probability(-1, 0.5)
        with pytest.raises(ValueError):
            survival_probability(2, 1.5)


class TestBackupRound:
    def test_establishes_k_backups(self):
        sim, manager, rps, tman = build(K=3)
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        assert len(backups_of(sim, node)) == 3
        assert node.nid not in backups_of(sim, node)

    def test_ghosts_installed_at_backups(self):
        sim, manager, rps, tman = build(K=2)
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        for backup_id in backups_of(sim, node):
            ghost = ghosts_of(sim, sim.network.node(backup_id))[node.nid]
            assert set(ghost) == set(guests_of(sim, node))

    def test_failed_backup_replaced(self):
        sim, manager, rps, tman = build(K=2)
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        victim = min(backups_of(sim, node))
        sim.network.fail([victim], rnd=0)
        manager.step_node(sim, node, rps, tman)
        assert len(backups_of(sim, node)) == 2
        assert victim not in backups_of(sim, node)

    def test_k_zero_no_backups(self):
        sim, manager, rps, tman = build(K=0)
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        assert backups_of(sim, node) == set()

    def test_charges_polystyrene_traffic(self):
        sim, manager, rps, tman = build(K=2)
        manager.step_node(sim, sim.network.node(0), rps, tman)
        assert sim.meter.round_cost("polystyrene") > 0


class TestIncrementalDeltas:
    def test_unchanged_guests_cost_nothing(self):
        sim, manager, rps, tman = build(K=2, incremental_backup=True)
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        cost_after_first = sim.meter.round_cost("polystyrene")
        manager.step_node(sim, node, rps, tman)
        assert sim.meter.round_cost("polystyrene") == cost_after_first

    def test_delta_applied_to_ghosts(self):
        sim, manager, rps, tman = build(K=1, incremental_backup=True)
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        # Node acquires a new guest point and drops nothing.
        extra = sim.network.node(3).initial_point
        sim.placement.set_guests(node.row, guests_of(sim, node) + [extra.pid])
        manager.step_node(sim, node, rps, tman)
        backup_id = next(iter(backups_of(sim, node)))
        ghost = ghosts_of(sim, sim.network.node(backup_id))[node.nid]
        assert extra.pid in ghost

    def test_removal_propagates(self):
        sim, manager, rps, tman = build(K=1, incremental_backup=True)
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        sim.placement.set_guests(node.row, [])
        manager.step_node(sim, node, rps, tman)
        backup_id = next(iter(backups_of(sim, node)))
        ghost = ghosts_of(sim, sim.network.node(backup_id))[node.nid]
        assert ghost == []

    def test_incremental_cheaper_than_full(self):
        sim_inc, mgr_inc, rps_i, tman_i = build(K=2, incremental_backup=True)
        sim_full, mgr_full, rps_f, tman_f = build(K=2, incremental_backup=False)
        for sim, mgr, rps, tman in (
            (sim_inc, mgr_inc, rps_i, tman_i),
            (sim_full, mgr_full, rps_f, tman_f),
        ):
            node = sim.network.node(0)
            for _ in range(5):
                mgr.step_node(sim, node, rps, tman)
        assert sim_inc.meter.round_cost("polystyrene") < sim_full.meter.round_cost(
            "polystyrene"
        )


class TestPlacement:
    def test_neighbor_placement_prefers_closest(self):
        sim, manager, rps, tman = build(K=2, backup_placement="neighbors")
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        closest = set(tman.neighbors(sim, node, 2))
        assert backups_of(sim, node) == closest

    def test_random_placement_uses_rps(self):
        sim, manager, rps, tman = build(K=2, backup_placement="random")
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        # StubRPS hands out the lowest non-self ids deterministically.
        assert backups_of(sim, node) == {1, 2}
