"""What a perpetual-churn run retains: every id, and bounded rows.

A crashed node is never forgotten: it stays a known dead id, its death
round kept for the failure detector.  Its table row is given back by
the one mechanism there is, the reclaim: before the table grows, the
rows of nodes dead and detected for two rounds are reclaimed
(``Simulation.reclaimable_rows``), so rows hold the alive nodes and the
ones that died within the detection window, while the known ids grow
with the churn.  Stale references to a reclaimed id must everywhere
resolve to "dead and long-detected" (the node table's sentinel row),
never crash or alias a live node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.runtime import checkpoint as ckpt
from repro.sim.reinjection import spawn_fresh_nodes
from repro.sim.rng import spawn


def trickle_config(engine: str, **overrides) -> ScenarioConfig:
    base = dict(
        width=8,
        height=4,
        failure_round=None,
        reinjection_round=None,
        total_rounds=10,
        seed=5,
        metrics=("homogeneity",),
        engine=engine,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def run_long_trickle(engine: str, rounds: int = 120, kill_per_round: int = 1):
    """Kill ``kill_per_round`` random nodes per round and replace them
    with fresh joins — perpetual churn at constant population."""
    sim, *_ = prepare_scenario(trickle_config(engine))
    rng = spawn(99, "trickle-test")
    grid = trickle_config(engine).grid
    positions = grid.parallel(0.5).generate()
    for rnd in range(rounds):
        victims = rng.sample(sim.network.alive_ids(), kill_per_round)
        sim.network.fail(victims, sim.round)
        spawn_fresh_nodes(
            sim, [positions[rng.randrange(len(positions))] for _ in victims]
        )
        sim.step()
    return sim


def reclaimed_ids(sim) -> set:
    """Known dead ids whose table row was reclaimed."""
    network = sim.network
    return {nid for nid in network.dead_ids() if network.node(nid).row == -1}


@pytest.mark.parametrize("engine", ["event", "batch"])
class TestBoundedMemory:
    def test_long_trickle_runs_in_bounded_state(self, engine):
        population = 32
        churn = 120  # total crashes ≈ 4x the population
        sim = run_long_trickle(engine, rounds=churn)
        # Peak population is constant, so the table holds the alive
        # rows plus the few dead ones inside the detection window ...
        assert sim.network.n_alive == population
        assert sim.network.table.n_rows <= population + 8
        # ... while every id ever created stays known.
        assert sim.network.n_total == sim.network._next_id == population + churn

    def test_unbounded_without_retention(self, engine):
        """Every id ever created stays known, but the rows do not grow
        with churn: a join that finds no room reclaims the rows of the
        nodes whose death is detector-visible for two rounds, so rows
        hold at most the alive nodes plus those that died in the last
        ``detector_delay + 2`` rounds."""
        cfg = trickle_config(engine)
        sim, *_ = prepare_scenario(cfg)
        network = sim.network
        rng = spawn(99, "trickle-test")
        positions = cfg.grid.parallel(0.5).generate()
        for _ in range(30):
            victims = rng.sample(network.alive_ids(), 1)
            network.fail(victims, sim.round)
            spawn_fresh_nodes(sim, [positions[0]])
            sim.step()
            window = sim.round - (cfg.detector_delay + 2)
            recent = [nid for nid in network.dead_ids() if network.death_round(nid) >= window]
            assert network.table.n_rows <= network.n_alive + len(recent)
        assert network.n_total == 32 + 30  # every id is still known
        assert len(network.dead_ids()) == 30

    def test_trickle_keeps_most_points_alive(self, engine):
        """Replication keeps the vast majority of points alive through
        2x-population churn.  (Some loss is inherent to the protocol —
        a node that dies right after receiving a point via migration
        and before its next backup push takes the only copy with it —
        so zero loss is not the contract.)"""
        sim = run_long_trickle(engine, rounds=60)
        held = set()
        for node in sim.network.alive_nodes():
            held.update(sim.placement.guests(node.row))
        assert len(held) >= 24  # 32 points, ~2x-population churn

    def test_checkpoint_roundtrip_with_pruned_nodes(self, engine):
        """A long trickle's dead nodes, most of them reclaimed, survive
        a checkpoint round trip, and the restored run keeps running."""
        sim = run_long_trickle(engine, rounds=40)
        assert reclaimed_ids(sim)
        digest = ckpt.state_digest(sim)
        restored = ckpt.restore(ckpt.snapshot(sim))
        assert ckpt.state_digest(restored) == digest
        restored.run(3)  # keeps running after the trip


def test_event_tman_merge_refuses_released_ids():
    """An event T-Man merge refuses a reclaimed id — no row, so it
    reads the sentinel row, which is detected — as it refuses a
    detected one that still has its row."""
    sim, *_ = prepare_scenario(trickle_config("event"))
    tman = sim.topology
    sim.network.fail([5, 7], sim.round)
    sim.run(2)
    sim.network.reclaim(np.array([sim.network.node(5).row]))
    assert reclaimed_ids(sim) == {5}
    node = sim.network.node(0)
    tman._merge(sim, node, np.array([5, 6, 7], dtype=np.int64))
    held = tman.row_ids(node.row).tolist()
    assert 5 not in held and 7 not in held and 6 in held


def test_no_event_tman_row_ever_holds_a_released_id():
    """A run on the event engine whose views are all handed a reclaimed
    id — as a view not yet groomed in a round still holds what it held
    — ends no round with an alive T-Man row holding one: every holder
    evicts it at its turn and every merge refuses it."""
    sim, *_ = prepare_scenario(
        trickle_config(
            "event", failure_round=3, reinjection_round=7, total_rounds=16, tman_view_cap=8
        )
    )
    tman = sim.topology
    sim.run(9)
    reclaimed = reclaimed_ids(sim)
    assert reclaimed  # the wave at round 7 took the failed rows
    stale = min(reclaimed)
    for node in sim.network.alive_nodes():
        held = tman.row_ids(node.row).tolist()
        tman._put(node.row, held[: tman.view_shape[1] - 1] + [stale])
        tman._ranked_at[node.row] = -1
    for _ in range(4):
        sim.step()
        for node in sim.network.alive_nodes():
            assert not reclaimed & set(tman.row_ids(node.row).tolist())
