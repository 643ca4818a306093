"""Tests for recovery (Algorithm 2) and migration (Algorithm 3)."""

import numpy as np
import pytest

from repro.core.config import PolystyreneConfig
from repro.core.migration import MigrationManager
from repro.core.protocol import PolystyreneLayer
from repro.core.recovery import recover_node
from repro.core.split import make_split
from repro.spaces import FlatTorus

from .helpers import StubRPS, StubTMan, ghosts_of, grid_coords, guests_of, make_sim

TORUS = FlatTorus(8.0, 4.0)


def build(width=4, height=2, K=2, split="advanced"):
    rps, tman = StubRPS(), StubTMan(TORUS)
    sim, factory, points = make_sim(
        TORUS, grid_coords(width, height), layers=[rps, tman]
    )
    config = PolystyreneConfig(replication=K, split=split)
    poly = PolystyreneLayer(TORUS, config, rps, tman)
    sim.layers.append(poly)  # ``sim.placement`` is its store
    for node in sim.network.alive_nodes():
        poly.init_node(sim, node)
    return sim, poly, rps, tman, points


def give_copy(poly, origin, holder):
    """``origin`` pushes its guest row to ``holder`` (a first push)."""
    store = poly.placement
    slot = int(np.flatnonzero(store.backup_ids[origin.row] < 0)[0])
    store.backup_ids[origin.row, slot] = holder.nid
    store.set_copy(origin.row, slot, store.guests(origin.row))
    poly.pushed_by.setdefault(holder.row, {})[origin.nid] = origin.row


def recover(sim, poly, holder):
    return recover_node(sim, holder, poly.placement, poly.pushed_by.get(holder.row))


def migration(poly, split):
    return MigrationManager(poly.config, make_split(split), poly.placement, poly.points)


def hold(sim, node, *points):
    """Append ``points`` to ``node``'s guest row."""
    sim.placement.set_guests(node.row, guests_of(sim, node) + [p.pid for p in points])


class TestRecovery:
    def test_reactivates_ghosts_of_failed_origin(self):
        sim, poly, rps, tman, points = build()
        holder = sim.network.node(0)
        origin = sim.network.node(1)
        give_copy(poly, origin, holder)
        sim.network.fail([origin.nid], rnd=0)
        recovered = recover(sim, poly, holder)
        assert recovered == [origin.nid]
        assert set(guests_of(sim, origin)) <= set(guests_of(sim, holder))
        assert origin.nid not in ghosts_of(sim, holder)

    def test_alive_origin_untouched(self):
        sim, poly, rps, tman, points = build()
        holder = sim.network.node(0)
        origin = sim.network.node(1)
        give_copy(poly, origin, holder)
        assert recover(sim, poly, holder) == []
        assert origin.nid in ghosts_of(sim, holder)
        assert points[1].pid not in guests_of(sim, holder)

    def test_multiple_failed_origins(self):
        sim, poly, rps, tman, points = build()
        holder = sim.network.node(0)
        for origin_id in (1, 2, 3):
            give_copy(poly, sim.network.node(origin_id), holder)
        sim.network.fail([1, 3], rnd=0)
        recovered = recover(sim, poly, holder)
        assert sorted(recovered) == [1, 3]
        assert 2 in ghosts_of(sim, holder)

    def test_all_backup_holders_recover_duplicates(self):
        # The paper's storage spike: every backup holder of a failed
        # node reactivates the same points.
        sim, poly, rps, tman, points = build()
        origin = sim.network.node(0)
        for holder_id in (1, 2):
            give_copy(poly, origin, sim.network.node(holder_id))
        sim.network.fail([0], rnd=0)
        for holder_id in (1, 2):
            recover(sim, poly, sim.network.node(holder_id))
        assert points[0].pid in guests_of(sim, sim.network.node(1))
        assert points[0].pid in guests_of(sim, sim.network.node(2))


class TestMigration:
    def test_exchange_is_partition_of_union(self):
        sim, poly, rps, tman, points = build()
        manager = migration(poly, "advanced")
        p, q = sim.network.node(0), sim.network.node(5)
        union = set(guests_of(sim, p)) | set(guests_of(sim, q))
        manager.exchange(sim, p, q)
        after_p, after_q = set(guests_of(sim, p)), set(guests_of(sim, q))
        assert after_p | after_q == union
        assert not (after_p & after_q)

    def test_exchange_dedups_shared_points(self):
        # Both hold the same recovered point: after the exchange it
        # exists exactly once.
        sim, poly, rps, tman, points = build()
        p, q = sim.network.node(0), sim.network.node(1)
        shared = points[7]
        hold(sim, p, shared)
        hold(sim, q, shared)
        manager = migration(poly, "advanced")
        manager.exchange(sim, p, q)
        count = (shared.pid in guests_of(sim, p)) + (shared.pid in guests_of(sim, q))
        assert count == 1

    def test_exchange_with_empty_partner(self):
        # A freshly reinjected node has no guests and must receive some.
        sim, poly, rps, tman, points = build()
        p = sim.network.node(0)
        fresh = sim.spawn_node((0.4, 0.4))
        assert guests_of(sim, fresh) == []
        hold(sim, p, points[1], points[2])
        manager = migration(poly, "basic")
        manager.exchange(sim, p, fresh)
        assert len(guests_of(sim, p)) + len(guests_of(sim, fresh)) == 3

    def test_partner_selection_uses_psi_plus_rps(self):
        sim, poly, rps, tman, points = build()
        manager = migration(poly, "advanced")
        node = sim.network.node(0)
        partner = manager.select_partner(sim, node, rps, tman)
        assert partner is not None
        assert partner != node.nid
        assert sim.network.is_alive(partner)

    def test_no_partner_when_alone(self):
        sim, poly, rps, tman, points = build()
        survivors = [0]
        sim.network.fail(
            [n for n in sim.network.alive_ids() if n not in survivors], rnd=0
        )
        manager = migration(poly, "advanced")
        assert manager.select_partner(sim, sim.network.node(0), rps, tman) is None

    def test_migration_charges_traffic(self):
        sim, poly, rps, tman, points = build()
        manager = migration(poly, "advanced")
        manager.exchange(sim, sim.network.node(0), sim.network.node(1))
        assert sim.meter.round_cost("polystyrene") > 0

    def test_step_node_runs_exchange(self):
        sim, poly, rps, tman, points = build()
        manager = migration(poly, "advanced")
        assert manager.step_node(sim, sim.network.node(0), rps, tman)

    @pytest.mark.parametrize("split", ["basic", "pd", "md", "advanced"])
    def test_no_point_lost_over_many_exchanges(self, split):
        sim, poly, rps, tman, points = build(width=4, height=4, split=split)
        manager = migration(poly, split)
        rng = sim.rng_for("test")
        for _ in range(100):
            ids = sim.network.alive_ids()
            a, b = rng.sample(ids, 2)
            manager.exchange(sim, sim.network.node(a), sim.network.node(b))
        held = set()
        for node in sim.network.alive_nodes():
            held.update(guests_of(sim, node))
        assert held == {p.pid for p in points}


class TestRecoveryOrder:
    """Which copy a holder activates first is protocol state (it fixes
    the guest row's order, and so the medoid and every later pool).
    The event engine activates in first-push order and keeps a copy in
    the order its pushes built it; the batch engine (semantics v2)
    activates in ascending origin id, each copy in its origin's guest
    order at push time."""

    A, B, T = 9, 2, 0  # origins A > B pushed to target T, A first
    GROWN = [9, 7, 24, 3, 11]  # A's guests at its second push

    @classmethod
    def scenario(cls, engine):
        """An unstepped 8x4 scenario (node i holds point i), its store
        and the nodes A, B, T."""
        from repro.experiments.scenario import ScenarioConfig, prepare_scenario

        config = ScenarioConfig(
            width=8, height=4, replication=1, failure_round=None,
            reinjection_round=None, total_rounds=1, metrics=(), engine=engine,
        )
        sim, *_ = prepare_scenario(config)
        a, b, t = (sim.network.node(nid) for nid in (cls.A, cls.B, cls.T))
        return sim, sim.placement, a, b, t

    def test_event_engine_activates_in_first_push_order(self):
        sim, store, a, b, t = self.scenario("event")
        poly = sim.layers[2]
        push = poly.backup_manager.step_node
        store.set_guests(a.row, [9])
        store.backup_ids[a.row, 0] = t.nid
        push(sim, a, poly.rps, poly.tman)  # A's first push
        store.set_guests(b.row, [2, 5])
        store.backup_ids[b.row, 0] = t.nid
        push(sim, b, poly.rps, poly.tman)  # then B's
        store.set_guests(a.row, self.GROWN)
        push(sim, a, poly.rps, poly.tman)  # A's incremental delta
        # The delta appends ``added`` as a set built like a guest dict's
        # keys iterates — an order a set built from the list would not give.
        added = frozenset(dict.fromkeys(self.GROWN)) - frozenset([9])
        assert list(added) != list(frozenset(self.GROWN) - frozenset([9]))
        assert store.copy(a.row, 0) == [9, *added] == [9, 24, 11, 3, 7]
        store.set_guests(t.row, [0, 24])
        sim.network.fail([a.nid, b.nid], sim.round)
        recovered = recover_node(sim, t, store, poly.pushed_by.get(t.row))
        assert recovered == [self.A, self.B]
        assert store.guests(t.row) == [0, 24, 9, 11, 3, 7, 2, 5]

    def test_batch_engine_activates_in_ascending_origin_id(self):
        sim, store, a, b, t = self.scenario("batch")
        for origin, copy in ((a, self.GROWN), (b, [2, 5])):
            store.set_guests(origin.row, copy)
            store.backup_ids[origin.row, 0] = t.nid
            store.set_copy(origin.row, 0, copy)
        store.set_guests(t.row, [0, 24])
        sim.network.fail([a.nid, b.nid], sim.round)
        sim.layers[2]._recover(sim)
        assert store.guests(t.row) == [0, 24, 2, 5, 9, 7, 3, 11]

    @pytest.mark.parametrize("engine", ["event", "batch"])
    def test_an_empty_copy_on_a_pointless_holder_activates_nothing(self, engine):
        """A point-less origin's empty copy on a point-less holder: when
        the origin crashes the activation adds no point, and the stale
        copy is still cleared (the batch pass once failed here, taking
        the maximum of an empty slot column)."""
        sim, store, a, _, t = self.scenario(engine)
        store.set_guests(a.row, [])
        store.set_guests(t.row, [])
        store.backup_ids[a.row, 0] = t.nid
        store.set_copy(a.row, 0, [])
        poly = sim.layers[2]
        if engine == "event":
            poly.pushed_by.setdefault(t.row, {})[a.nid] = a.row
        sim.network.fail([a.nid], sim.round)
        if engine == "event":
            assert recover_node(sim, t, store, poly.pushed_by.get(t.row)) == [self.A]
        else:
            poly._recover(sim)
        assert store.guests(t.row) == []
        assert store.copy(a.row, 0) is None
