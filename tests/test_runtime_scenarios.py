"""Churn schedules: generators, composition, and determinism."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenario import ScenarioConfig, build_simulation
from repro.runtime import checkpoint
from repro.runtime.scenarios import (
    ChurnSchedule,
    catastrophic,
    compose,
    correlated_region,
    flash_crowd,
    mass_failure,
    trickle,
)


def fresh_sim(seed: int = 2):
    config = ScenarioConfig(
        width=8,
        height=4,
        failure_round=None,
        reinjection_round=None,
        total_rounds=60,
        metrics=("homogeneity",),
        seed=seed,
    )
    sim, *_ = build_simulation(config)
    return sim


class TestGenerators:
    def test_catastrophic_half_space(self):
        sim = fresh_sim()
        catastrophic(5, threshold=4.0).install(sim)
        sim.run(6)
        # Half the 8-wide torus (x < 4.0) dies: 4 columns x 4 rows.
        assert sim.network.n_alive == 16

    def test_correlated_region_ball(self):
        sim = fresh_sim()
        schedule = correlated_region(sim.space, 3, center=(2.0, 2.0), radius=1.0)
        before = sim.network.n_alive
        schedule.install(sim)
        sim.run(4)
        died = before - sim.network.n_alive
        # The unit-step grid has exactly 5 nodes within distance 1 of
        # (2,2): the center and its 4 axis neighbours.
        assert died == 5

    def test_trickle_kills_roughly_rate(self):
        sim = fresh_sim()
        trickle(0, 19, rate=0.05).install(sim)
        sim.run(20)
        died = 32 - sim.network.n_alive
        # 5%/round over 20 rounds kills ~1-0.95^20 = 64% in expectation;
        # loose determinism-friendly bounds.
        assert 5 <= died <= 30

    def test_flash_crowd_spawns_pointless_nodes(self):
        sim = fresh_sim()
        positions = [(0.5, 0.5), (1.5, 0.5), (2.5, 0.5)]
        flash_crowd(4, positions).install(sim)
        sim.run(5)
        assert sim.network.n_total == 32 + 3
        fresh = [n for n in sim.network.alive_nodes() if n.initial_point is None]
        assert len(fresh) == 3

    def test_flash_crowd_takes_an_iterator(self):
        """The positions may be a one-shot iterator: it is read once, so
        the description and the event see the same three nodes."""
        sim = fresh_sim()
        schedule = flash_crowd(4, ((x + 0.5, 0.5) for x in range(3)))
        assert schedule.description.startswith("3 fresh nodes")
        schedule.install(sim)
        sim.run(5)
        assert sim.network.n_total == 32 + 3

    def test_mass_failure_fraction(self):
        sim = fresh_sim()
        mass_failure(2, 0.25).install(sim)
        sim.run(3)
        assert sim.network.n_alive == 24

    def test_trickle_rejects_empty_window(self):
        with pytest.raises(ConfigurationError):
            trickle(10, 9, 0.1)

    def test_negative_round_rejected(self):
        with pytest.raises(ConfigurationError):
            ChurnSchedule("bad").add(-1, lambda sim: None)


class TestComposition:
    def test_compose_merges_sorted(self):
        merged = compose(
            flash_crowd(30, [(0.5, 0.5)]),
            catastrophic(10, threshold=4.0),
            trickle(15, 17, 0.01),
        )
        rounds = [rnd for rnd, _ in merged.events]
        assert rounds == sorted(rounds)
        assert merged.first_round == 10
        assert merged.last_round == 30
        assert len(merged) == 5

    def test_composite_workload_runs(self):
        """Trickle churn + a region outage + a flash crowd of
        replacements — a workload the paper never ran — executes
        deterministically end to end."""

        def build_and_run(seed: int) -> str:
            sim = fresh_sim(seed)
            compose(
                trickle(5, 15, 0.02),
                correlated_region(sim.space, 18, (2.0, 2.0), 2.5),
                flash_crowd(25, [(0.5, 0.5), (1.5, 1.5), (2.5, 2.5)]),
            ).install(sim)
            sim.run(30)
            return checkpoint.state_digest(sim)

        assert build_and_run(7) == build_and_run(7)
        assert build_and_run(7) != build_and_run(8)

    def test_schedules_are_picklable(self):
        sim = fresh_sim()
        schedule = compose(
            catastrophic(10, 4.0),
            trickle(5, 8, 0.01),
            correlated_region(sim.space, 12, (1.0, 1.0), 1.5),
            flash_crowd(20, [(0.5, 0.5)]),
            mass_failure(15, 0.1),
        )
        clone = pickle.loads(pickle.dumps(schedule))
        assert len(clone) == len(schedule)
        assert [rnd for rnd, _ in clone.events] == [
            rnd for rnd, _ in schedule.events
        ]

    def test_scheduled_sim_checkpoints_to_disk(self, tmp_path):
        """A simulation with a whole composite schedule pending can be
        saved, loaded, and resumed bit-identically."""
        sim = fresh_sim()
        compose(
            trickle(5, 15, 0.02),
            correlated_region(sim.space, 18, (2.0, 2.0), 2.5),
            flash_crowd(25, [(0.5, 0.5)]),
        ).install(sim)
        sim.run(3)
        path = tmp_path / "scheduled.ckpt"
        checkpoint.save(checkpoint.snapshot(sim), path)
        resumed = checkpoint.restore(checkpoint.load(path))
        sim.run(27)
        resumed.run(27)
        assert checkpoint.state_digest(sim) == checkpoint.state_digest(resumed)
