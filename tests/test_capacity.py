"""Capacity follows membership.

``arrays._grown`` is the one growth rule under ``repro.sim`` and the node
table is its one owner: every row-indexed array of the layers (RPS
views, topology views, placement blocks) is sized to the table's
capacity.  A caller that knows how many nodes are coming — the initial
population, a reinjection wave — reserves exactly (``Network.reserve``),
so after it the arrays hold the rows in use and nothing else; joins of
unknown count keep amortised geometric growth.

Before the table grows, a running simulation reclaims the rows of dead
nodes that nothing reads any more — detected for two rounds, holding no
copy an alive node carries (``Simulation.reclaimable_rows``) — and every
row array follows the table's order-preserving renumbering
(``arrays.follow``).  So a reinjection wave after the detection window
reuses the failed nodes' rows, and one inside it grows the table as
before.  Neither a reserve nor a reclaim is a state change: digests and
checkpoints do not see them.  A reclaimed node keeps its id and holds
neither a row nor any layer's state.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.obs import mem as obs_mem
from repro.runtime import checkpoint as ckpt
from repro.sim.arrays import NodeTable
from repro.sim.batch import BatchSimulation
from repro.sim.engine import Simulation
from repro.sim.network import SimNode
from repro.sim.reinjection import Reinjection


def config(engine="batch", **overrides) -> ScenarioConfig:
    base = dict(
        width=12,
        height=6,
        failure_round=None,
        reinjection_round=None,
        total_rounds=10,
        seed=3,
        metrics=(),
        engine=engine,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def row_arrays(sim) -> dict:
    """Every row-indexed layer array of a simulation, by name (the event
    engine keeps only placement in rows)."""
    rps, tman, poly = sim.layers[:3]
    arrays = {}
    if isinstance(sim, BatchSimulation):
        arrays = {
            "rps.ids": rps._ids,
            "rps.ages": rps._ages,
            "tman.ids": tman._ids,
            "flags": poly._flags,
        }
    store = sim.placement
    for name in ("guest_ids", "guest_n", "backup_ids", "sent_ids", "sent_n", "owner"):
        arrays[f"placement.{name}"] = getattr(store, name)
    return arrays


def assert_sized_to_membership(sim) -> None:
    table = sim.network.table
    assert table.capacity == len(table._alive) - 1 == table.n_rows
    assert {len(arr) for arr in row_arrays(sim).values()} == {table.n_rows}


def _owner(arr: np.ndarray) -> np.ndarray:
    """The array that owns ``arr``'s memory."""
    return arr if arr.base is None else arr.base


class Reallocations:
    """A last layer that, after every join, counts which row arrays are
    no longer the object they were (holding the old ones, so no address
    is reused)."""

    name = "reallocations"

    def __init__(self, sim) -> None:
        self.seen = {name: [arr] for name, arr in row_arrays(sim).items()}
        self.seen["table.alive"] = [sim.network.table._alive]
        sim.layers.append(self)

    def init_node(self, sim, node) -> None:
        current = dict(row_arrays(sim), **{"table.alive": sim.network.table._alive})
        for name, arr in current.items():
            if _owner(arr) is not _owner(self.seen[name][-1]):
                self.seen[name].append(arr)

    def step(self, sim) -> None:
        pass

    @property
    def counts(self) -> dict:
        return {name: len(history) - 1 for name, history in self.seen.items()}


def test_prepared_scenario_holds_exactly_its_population():
    sim, *_ = prepare_scenario(config())
    assert sim.network.table.n_rows == 72
    assert_sized_to_membership(sim)


def test_reinjection_reallocates_each_array_once_to_the_exact_size():
    sim, *_ = prepare_scenario(config())
    sim.run(2)
    spy = Reallocations(sim)
    Reinjection(config().grid.parallel(0.5).generate()[:40])(sim)
    assert sim.network.table.n_rows == 72 + 40
    assert_sized_to_membership(sim)
    assert set(spy.counts.values()) == {1}
    sim.run(2)
    assert_sized_to_membership(sim)


def test_single_joins_reallocate_logarithmically():
    sim, *_ = prepare_scenario(config())
    spy = Reallocations(sim)
    positions = config().grid.parallel(0.5).generate()
    for i in range(200):
        sim.spawn_node(positions[i % len(positions)])
    table = sim.network.table
    assert table.n_rows == 272 <= table.capacity < 2 * 272
    assert {len(arr) for arr in row_arrays(sim).values()} == {table.capacity}
    assert max(spy.counts.values()) <= math.ceil(math.log2(272 / 72)) + 1


@pytest.mark.parametrize("engine", ["event", "batch"])
def test_freed_rows_are_reused_before_capacity_grows(engine):
    sim, *_ = prepare_scenario(config(engine))
    table = sim.network.table
    victims = sim.network.alive_ids()[:10]
    sim.network.fail(victims, sim.round)
    sim.run(4)  # past the detection window: the ten rows are reclaimable
    assert table.n_rows == table.capacity == 72
    positions = config().grid.parallel(0.5).generate()
    Reinjection(positions[:6])(sim)  # reclaims all ten, fills six
    assert table.capacity == 72 and table.spare_rows == 4
    Reinjection(positions[6:16])(sim)  # four freed rows, six fresh ones
    assert table.spare_rows == 0 and table.capacity == table.n_rows == 78
    if engine == "batch":
        assert_sized_to_membership(sim)
    sim.run(2)


@pytest.mark.parametrize("engine", ["event", "batch"])
def test_reserve_is_invisible_to_digest_and_survives_a_checkpoint(engine):
    sim, *_ = prepare_scenario(config(engine, failure_round=2, reinjection_round=5))
    twin, *_ = prepare_scenario(config(engine, failure_round=2, reinjection_round=5))
    sim.run(3)
    twin.run(3)
    sim.network.reserve(50)
    assert sim.network.table.capacity == 72 + 50
    assert ckpt.state_digest(sim) == ckpt.state_digest(twin)

    checkpoint = ckpt.snapshot(sim)
    assert ckpt.CHECKPOINT_FORMAT == 9 and checkpoint.blob is not None
    restored = ckpt.restore(checkpoint)
    assert restored.network.table.capacity == 72 + 50
    for name, want in vars(sim.network.table).items():
        if isinstance(want, np.ndarray):
            np.testing.assert_array_equal(getattr(restored.network.table, name), want)
    if engine == "batch":
        for (name, want), got in zip(row_arrays(sim).items(), row_arrays(restored).values()):
            np.testing.assert_array_equal(got, want, err_msg=name)
    # ... and the trajectory: reinjection and all, as if never reserved.
    for each in (sim, twin, restored):
        each.run(5)
    assert ckpt.state_digest(sim) == ckpt.state_digest(twin) == ckpt.state_digest(restored)


def test_table_reserve_is_exact_counts_free_rows_and_never_shrinks():
    table = NodeTable()
    table.reserve(20, 0)
    assert table.capacity == 20 and len(table._row_of) == 21
    for nid in range(20):
        table.add(nid, (float(nid), 0.0))
    assert table.capacity == 20 and table._coords.shape == (21, 2)
    table.mark_dead(1, 0)
    table.reclaim(np.asarray([1]))
    table.reserve(1, 20)  # served by the freed row
    assert table.capacity == 20
    table.reserve(3, 20)  # one freed row + two fresh ones
    assert table.capacity == 22
    table.reserve(0, 20)
    assert table.capacity == 22
    assert table.alive_mask(np.asarray([-1, 1, 22])).tolist() == [False] * 3
    table.add(20, (20.0, 0.0))
    assert table.row(20) == 19  # the first unused row
    for nid in range(21, 24):  # past the reservation: geometric again
        table.add(nid, (float(nid), 0.0))
    assert table.n_rows == 23 and table.capacity == 2 * 23 - 1


def half_failed(engine: str, **overrides):
    """A 12x6 run whose right half (36 nodes) fails at round 2."""
    cfg = config(engine, failure_round=2, **overrides)
    return prepare_scenario(cfg)[0], cfg.grid.parallel(0.5).generate()[:36]


@pytest.mark.parametrize("engine", ["event", "batch"])
def test_reinjection_after_the_detection_window_reuses_the_dead_rows(engine, monkeypatch):
    sim, wave = half_failed(engine)
    twin, _ = half_failed(engine)
    sim.run(5)  # death 2 + delay 0 + 2 <= round 5: every failed row is reclaimable
    twin.run(5)
    assert sim.network.table.n_rows == 72 and sim.network.n_alive == 36
    with monkeypatch.context() as patch:  # the twin grows, as without reclaims
        nothing = lambda self: np.zeros(0, np.int64)
        patch.setattr(Simulation, "reclaimable_rows", nothing, raising=False)
        Reinjection(wave)(twin)
    Reinjection(wave)(sim)
    table = sim.network.table
    assert table.capacity == 72 == sim.network.n_alive  # the peak live population
    assert_sized_to_membership(sim)
    assert twin.network.table.capacity == 108
    # The failed nodes are known dead ids without a row.
    dead = sim.network.dead_ids()
    assert len(dead) == 36 and dead == twin.network.dead_ids()
    assert (table.rows_of(np.asarray(dead)) == -1).all()
    assert all(sim.network.node(nid).row == -1 for nid in dead)
    assert ckpt.state_digest(sim) == ckpt.state_digest(twin)

    restored = ckpt.restore(ckpt.snapshot(sim))
    assert ckpt.state_digest(restored) == ckpt.state_digest(sim)
    for each in (sim, twin, restored):
        each.run(3)
    assert ckpt.state_digest(sim) == ckpt.state_digest(twin) == ckpt.state_digest(restored)
    assert_sized_to_membership(restored)


@pytest.mark.parametrize("engine", ["event", "batch"])
def test_reinjection_inside_the_detection_window_grows_as_before(engine):
    sim, wave = half_failed(engine, detector_delay=2)
    sim.run(5)  # death 2 + delay 2 + 2 > round 5: nothing is reclaimable yet
    spy = Reallocations(sim)
    Reinjection(wave)(sim)
    assert sim.network.table.n_rows == 72 + 36
    assert_sized_to_membership(sim)
    assert set(spy.counts.values()) == {1}
    sim.run(2)
    assert sim.network.table.n_rows == 72 + 36


def keep_layer_state(node) -> None:
    """``SimNode._detach`` without dropping the layer attributes: the
    node leaves its row and keeps what the layers attached."""
    node._poscache = [node.pos]
    node._table = None
    node._row = 0


def views_family() -> int:
    return obs_mem.snapshot()["families"]["topology_views"]["cur"]


@pytest.mark.parametrize("engine", ["event", "batch"])
@pytest.mark.parametrize("topology", ["tman", "vicinity"])
def test_a_reclaimed_node_holds_no_layer_state(engine, topology, monkeypatch):
    """After the reinjection's reclaim no dead node carries a layer
    attribute (the event engine's ``rps_view``) and each reads an empty
    view: its row went back to the table, and the topology store's
    rows followed (the held views are the kept rows').  The memory
    ledger's ``topology_views`` family is the store's bytes before and
    after.  The run is the one whose reclaim kept the attributes, digest
    for digest, and so is one restored from a checkpoint taken right
    after the reclaim."""
    obs_mem.reset()
    obs_mem.set_enabled(True)
    try:
        sim, wave = half_failed(engine, topology=topology)
        topo = sim.topology
        sim.run(5)
        dead = [sim.network.node(nid) for nid in sim.network.dead_ids()]
        assert all(len(topo.row_ids(node.row)) for node in dead)
        assert all(hasattr(node, "rps_view") == (engine == "event") for node in dead)
        assert views_family() == topo.nbytes
        kept = {
            nid: topo.row_ids(sim.network.node(nid).row).tolist()
            for nid in sim.network.alive_ids()
        }
        Reinjection(wave)(sim)
        assert all(node.row == -1 for node in dead)  # reclaimed
        assert not [attr for node in dead for attr in vars(node) if attr.endswith("_view")]
        assert all(topo.neighbors(sim, node, 4) == [] for node in dead)
        assert all(len(topo.row_ids(node.row)) == 0 for node in dead)
        for nid, view in kept.items():
            assert topo.row_ids(sim.network.node(nid).row).tolist() == view
        # Rows past the kept and the wave's read empty.
        assert (topo._ids[sim.network.table.n_rows :] == -1).all()
        assert views_family() == topo.nbytes
    finally:
        obs_mem.set_enabled(False)
        obs_mem.reset()

    twin, _ = half_failed(engine, topology=topology)
    twin.run(5)
    with monkeypatch.context() as patch:
        patch.setattr(SimNode, "_detach", keep_layer_state)
        Reinjection(wave)(twin)
    kept = [twin.network.node(nid) for nid in twin.network.dead_ids()]
    assert all(hasattr(node, "rps_view") == (engine == "event") for node in kept)
    assert all(node.row == -1 for node in kept)

    restored = ckpt.restore(ckpt.snapshot(sim))
    assert ckpt.state_digest(sim) == ckpt.state_digest(twin) == ckpt.state_digest(restored)
    for _ in range(4):
        for each in (sim, twin, restored):
            each.step()
        assert ckpt.state_digest(sim) == ckpt.state_digest(twin) == ckpt.state_digest(restored)
