"""Retention policy: perpetual churn with a bounded set of known ids.

Table rows are bounded without it: before the table grows, the rows of
nodes dead and detected for two rounds are reclaimed
(``Simulation.reclaimable_rows``), so rows hold the alive nodes and the
ones that died within the detection window.  What is left to retention
is forgetting ids: ``ScenarioConfig.retention_rounds`` (→
``Simulation.retention_rounds``) prunes crashed nodes once they have
been detector-visible for N rounds, and :meth:`Network.remove_node`
drops the id (recycling the row if a reclaim has not taken it), so a
long-trickle run with replacement joins knows peak-population ids
instead of total-churn ids.  Stale references to a pruned id must
everywhere resolve to "dead and long-detected", never crash or alias a
live node.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
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
        retention_rounds=4,
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


class TestValidation:
    def test_retention_must_cover_detection_delay(self):
        with pytest.raises(ConfigurationError, match="retention_rounds"):
            ScenarioConfig(retention_rounds=3, detector_delay=4)

    def test_retention_with_margin_is_accepted(self):
        config = ScenarioConfig(retention_rounds=6, detector_delay=4)
        assert config.retention_rounds == 6


@pytest.mark.parametrize("engine", ["event", "batch"])
class TestBoundedMemory:
    def test_long_trickle_runs_in_bounded_state(self, engine):
        population = 32
        churn = 120  # total crashes ≈ 4x the population
        sim = run_long_trickle(engine, rounds=churn)
        # Peak population is constant, so with retention=4 the table
        # holds at most population + (retention+1) in-flight dead rows
        # (plus a small safety margin for the sweep lag).
        assert sim.network.n_alive == population
        assert sim.network.table.n_rows <= population + 8
        assert sim.network.n_total <= population + 8
        # Without retention the same run would hold every node ever
        # created: population + churn ids.
        assert sim.network._next_id >= population + churn

    def test_unbounded_without_retention(self, engine):
        """Without retention every id ever created stays known, but the
        rows do not grow with churn: a join that finds no room reclaims
        the rows of the nodes whose death is detector-visible for two
        rounds, so rows hold at most the alive nodes plus those that
        died in the last ``detector_delay + 2`` rounds."""
        cfg = trickle_config(engine, retention_rounds=None)
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
        so zero loss is not the contract; retention must not make the
        loss *worse* than the un-pruned protocol's.)"""
        sim = run_long_trickle(engine, rounds=60)
        held = set()
        for node in sim.network.alive_nodes():
            held.update(sim.placement.guests(node.row))
        assert len(held) >= 24  # 32 points, ~2x-population churn

    def test_checkpoint_roundtrip_with_pruned_nodes(self, engine):
        sim = run_long_trickle(engine, rounds=40)
        digest = ckpt.state_digest(sim)
        restored = ckpt.restore(ckpt.snapshot(sim))
        assert ckpt.state_digest(restored) == digest
        restored.run(3)  # keeps running after the trip

    def test_prune_after_reclaim_forgets_the_id(self, engine):
        """A wave larger than the free list reclaims the rows of nodes
        dead for two rounds; retention later forgets those ids, with no
        row left to recycle."""
        cfg = trickle_config(engine, retention_rounds=6)
        sim, *_ = prepare_scenario(cfg)
        network = sim.network
        victims = network.alive_ids()[:10]
        network.fail(victims, sim.round)
        sim.run(3)
        spawn_fresh_nodes(sim, cfg.grid.parallel(0.5).generate()[:10])
        assert network.table.n_rows == 32 and network.table.free_rows == []
        assert [network.node(nid).row for nid in victims] == [-1] * 10
        assert network.dead_ids() == victims
        sim.run(4)  # past retention: the ten ids are forgotten
        assert not set(victims) & set(network.nodes) and network.dead_ids() == []
        assert network.table._has_released and network.table.n_rows == 32
        restored = ckpt.restore(ckpt.snapshot(sim))
        assert ckpt.state_digest(restored) == ckpt.state_digest(sim)
        restored.run(2)


def _released(sim):
    network = sim.network
    return {nid for nid in range(network._next_id) if nid not in network.nodes}


def test_event_tman_merge_refuses_released_ids():
    """An event T-Man merge refuses an id the retention policy released
    — no longer in the detector's set, but departed — as it refuses a
    detected one."""
    sim, *_ = prepare_scenario(trickle_config("event"))
    tman = sim.topology
    sim.network.fail([5], sim.round)
    sim.network.remove_node(5)
    assert 5 not in sim.detected_failed()
    node = sim.network.node(0)
    tman._merge(sim, node, np.array([5, 6], dtype=np.int64))
    held = tman.row_ids(node.row).tolist()
    assert 5 not in held and 6 in held


def test_no_event_tman_row_ever_holds_a_released_id():
    """A retention run on the event engine whose views are all handed a
    released id — as a view not yet groomed in a round still holds what
    it held — ends no round with an alive T-Man row holding one: every
    holder evicts it at its turn, though the detector's set no longer
    names it, and every merge refuses it."""
    sim, *_ = prepare_scenario(
        trickle_config("event", failure_round=3, total_rounds=16, tman_view_cap=8)
    )
    tman = sim.topology
    sim.run(9)
    released = _released(sim)
    assert released and not sim.detected_failed()
    stale = min(released)
    for node in sim.network.alive_nodes():
        held = tman.row_ids(node.row).tolist()
        tman._put(node.row, held[: tman.view_shape[1] - 1] + [stale])
        tman._ranked_at[node.row] = -1
    for _ in range(4):
        sim.step()
        released = _released(sim)
        for node in sim.network.alive_nodes():
            assert not released & set(tman.row_ids(node.row).tolist())
