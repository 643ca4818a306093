"""Capacity follows membership.

``arrays._grown`` is the one growth rule under ``repro.sim`` and the node
table is its one owner: every row-indexed array of the batch layers (RPS
views, topology views, placement blocks) is sized to the table's
capacity.  A caller that knows how many nodes are coming — the initial
population, a reinjection wave — reserves exactly (``Network.reserve``),
so after it the arrays hold the rows in use and nothing else; joins of
unknown count keep amortised geometric growth.  ``reserve`` is an
allocation, not a state change: digests and checkpoints do not see it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.runtime import checkpoint as ckpt
from repro.sim.arrays import NodeTable
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
    """Every row-indexed layer array of a batch simulation, by name."""
    rps, tman, poly = sim.layers[:3]
    arrays = {
        "rps.ids": rps._ids,
        "rps.ages": rps._ages,
        "tman.ids": tman._ids,
        "tman.coords": tman._coords,
        "flags": poly._flags.T,
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
    """The array that owns ``arr``'s memory (``flags`` is a transposed view)."""
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
    sim, *_ = prepare_scenario(config(engine, retention_rounds=2))
    table = sim.network.table
    victims = sim.network.alive_ids()[:10]
    sim.network.fail(victims, sim.round)
    sim.run(4)  # past retention: the ten rows are on the free list
    assert len(table.free_rows) == 10 and table.capacity == 72
    positions = config().grid.parallel(0.5).generate()
    Reinjection(positions[:6])(sim)
    assert table.capacity == 72 and len(table.free_rows) == 4
    Reinjection(positions[6:16])(sim)  # four freed rows, six fresh ones
    assert table.free_rows == [] and table.capacity == table.n_rows == 78
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
    assert ckpt.CHECKPOINT_FORMAT == 4 and checkpoint.blob is not None
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
    table.release(1)
    table.reserve(1, 20)  # served by the freed row
    assert table.capacity == 20
    table.reserve(3, 20)  # one freed row + two fresh ones
    assert table.capacity == 22
    table.reserve(0, 20)
    assert table.capacity == 22
    assert table.alive_mask(np.asarray([-1, 1, 22])).tolist() == [False] * 3
    table.add(20, (20.0, 0.0))
    assert table.row(20) == 1  # the freed row first
    for nid in range(21, 24):  # past the reservation: geometric again
        table.add(nid, (float(nid), 0.0))
    assert table.n_rows == 23 and table.capacity == 2 * 23 - 1
