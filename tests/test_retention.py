"""Retention policy: perpetual churn in bounded memory.

``ScenarioConfig.retention_rounds`` (→ ``Simulation.retention_rounds``)
prunes crashed nodes once they have been detector-visible for N rounds:
:meth:`Network.remove_node` recycles the table row, so a long-trickle
run with replacement joins holds peak-population state instead of
total-churn state.  Stale references to a pruned id must everywhere
resolve to "dead and long-detected", never crash or alias a live node.
"""

from __future__ import annotations

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
        sim, *_ = prepare_scenario(
            trickle_config(engine, retention_rounds=None)
        )
        rng = spawn(99, "trickle-test")
        grid = trickle_config(engine).grid
        positions = grid.parallel(0.5).generate()
        for _ in range(30):
            victims = rng.sample(sim.network.alive_ids(), 1)
            sim.network.fail(victims, sim.round)
            spawn_fresh_nodes(sim, [positions[0]])
            sim.step()
        assert sim.network.table.n_rows == 32 + 30  # grows with churn

    def test_trickle_keeps_most_points_alive(self, engine):
        """Replication keeps the vast majority of points alive through
        2x-population churn.  (Some loss is inherent to the protocol —
        a node that dies right after receiving a point via migration
        and before its next backup push takes the only copy with it —
        so zero loss is not the contract; retention must not make the
        loss *worse* than the un-pruned protocol's.)"""
        sim = run_long_trickle(engine, rounds=60)
        if engine == "batch":
            sim.sync_canonical()  # placement is arrays: materialise node.poly
        held = set()
        for node in sim.network.alive_nodes():
            state = getattr(node, "poly", None)
            if state is not None:
                held.update(state.guests)
        assert len(held) >= 24  # 32 points, ~2x-population churn

    def test_checkpoint_roundtrip_with_pruned_nodes(self, engine):
        sim = run_long_trickle(engine, rounds=40)
        digest = ckpt.state_digest(sim)
        restored = ckpt.restore(ckpt.snapshot(sim))
        assert ckpt.state_digest(restored) == digest
        restored.run(3)  # keeps running after the trip
