"""Edge-case tests for corners the mainline suites do not reach."""

import pytest

from repro.errors import ConfigurationError

from repro.core.config import PolystyreneConfig
from repro.core.migration import MigrationManager
from repro.core.protocol import PolystyreneLayer
from repro.core.split import make_split
from repro.core.backup import BackupManager
from repro.sim.engine import Simulation
from repro.sim.network import DelayedFailureDetector, Network
from repro.spaces import FlatTorus

from .helpers import NullLayer, StubRPS, StubTMan, backups_of, grid_coords, guests_of, make_sim

TORUS = FlatTorus(8.0, 4.0)


class TestDetectionCache:
    def test_delayed_detection_flips_between_rounds(self):
        """The per-round detection cache must not freeze a delayed
        detector's answer across rounds."""
        network = Network(DelayedFailureDetector(delay=2))
        for coord in grid_coords(2, 2):
            network.add_node(coord)
        sim = Simulation(TORUS, network, [NullLayer()], seed=0)
        network.fail([0], rnd=0)
        assert not sim.detects_failed(0)  # round 0: not yet visible
        sim.run(1)
        assert not sim.detects_failed(0)  # round 1
        sim.run(1)
        assert sim.detects_failed(0)  # round 2: delay elapsed

    def test_cache_invalidated_by_new_failure_same_round(self):
        sim, _, _ = make_sim(TORUS, grid_coords(2, 2))
        assert not sim.detects_failed(1)
        sim.network.fail([1], rnd=sim.round)
        assert sim.detects_failed(1)

    def test_unknown_id_is_simply_not_detected(self):
        sim, _, _ = make_sim(TORUS, grid_coords(2, 2))
        assert not sim.detects_failed(999)


class TestMigrationCorners:
    def _manager(self, sim):
        config = PolystyreneConfig(replication=1)
        poly = PolystyreneLayer(TORUS, config, StubRPS(), StubTMan(TORUS))
        sim.layers.append(poly)  # ``sim.placement`` is its store
        for node in sim.network.alive_nodes():
            poly.init_node(sim, node)
        return MigrationManager(
            config, make_split("advanced"), poly.placement, poly.points
        )

    def test_both_pools_empty(self):
        sim, _, _ = make_sim(TORUS, grid_coords(2, 2), with_points=False)
        manager = self._manager(sim)
        a, b = sim.network.node(0), sim.network.node(1)
        manager.exchange(sim, a, b)
        assert guests_of(sim, a) == []
        assert guests_of(sim, b) == []

    def test_exchange_is_idempotent_when_already_optimal(self):
        sim, _, points = make_sim(TORUS, grid_coords(2, 2))
        manager = self._manager(sim)
        a, b = sim.network.node(0), sim.network.node(3)
        manager.exchange(sim, a, b)
        guests_a = set(guests_of(sim, a))
        manager.exchange(sim, a, b)
        assert set(guests_of(sim, a)) == guests_a


class TestBackupCorners:
    def test_fewer_peers_than_k(self):
        """A 2-node network cannot host K=5 backups; the manager takes
        what exists without erroring."""
        rps, tman = StubRPS(), StubTMan(TORUS)
        sim, _, _ = make_sim(TORUS, grid_coords(2, 1), layers=[rps, tman])
        config = PolystyreneConfig(replication=5)
        poly = PolystyreneLayer(TORUS, config, rps, tman)
        sim.layers.append(poly)  # ``sim.placement`` is its store
        for node in sim.network.alive_nodes():
            poly.init_node(sim, node)
        manager = BackupManager(config, poly.placement, poly.pushed_by)
        node = sim.network.node(0)
        manager.step_node(sim, node, rps, tman)
        assert backups_of(sim, node) == {1}

    def test_sole_survivor_keeps_running(self):
        rps, tman = StubRPS(), StubTMan(TORUS)
        sim, _, _ = make_sim(TORUS, grid_coords(2, 2), layers=[rps, tman])
        config = PolystyreneConfig(replication=2)
        poly = PolystyreneLayer(TORUS, config, rps, tman)
        sim.layers.append(poly)  # ``sim.placement`` is its store
        for node in sim.network.alive_nodes():
            poly.init_node(sim, node)
        sim.network.fail([1, 2, 3], rnd=0)
        poly.step(sim)  # must not raise with nobody to talk to
        assert len(guests_of(sim, sim.network.node(0))) >= 1


class TestScenarioCorners:
    def test_tman_run_ignores_replication_semantics(self):
        from repro.experiments.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig(
            width=8,
            height=4,
            protocol="tman",
            replication=8,  # irrelevant for the baseline
            failure_round=5,
            reinjection_round=None,
            total_rounds=15,
            metrics=("storage",),
            seed=0,
        )
        result = run_scenario(config)
        assert max(result.series["storage"]) <= 1.0

    def test_snapshot_rounds_recorded_exactly(self):
        from repro.experiments.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig(
            width=8,
            height=4,
            failure_round=None,
            reinjection_round=None,
            total_rounds=10,
            snapshot_rounds=(0, 4, 9),
            metrics=("storage",),
            seed=0,
        )
        result = run_scenario(config)
        assert sorted(result.snapshots) == [0, 4, 9]
        assert all(len(snap) == 32 for snap in result.snapshots.values())

    def test_zero_failure_fraction_schedules_nothing(self):
        from repro.experiments.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig(
            width=8,
            height=4,
            failure_round=5,
            failure_fraction=0.0,
            reinjection_round=None,
            total_rounds=12,
            metrics=("homogeneity",),
            seed=0,
        )
        result = run_scenario(config)
        assert result.reliability is None
        assert result.reshaping_time is None
        assert result.n_alive[-1] == 32

    def test_failure_at_round_zero_runs_end_to_end(self):
        """A failure before any convergence is legal: the crash fires at
        the start of round 0 and the probe still samples reliability."""
        from repro.experiments.scenario import ScenarioConfig, run_scenario

        config = ScenarioConfig(
            width=8,
            height=4,
            failure_round=0,
            reinjection_round=None,
            total_rounds=10,
            metrics=("homogeneity",),
            seed=0,
        )
        result = run_scenario(config)
        assert result.reliability is not None
        assert result.n_alive[0] == 16  # half the torus gone in round 0


class TestScenarioValidation:
    """Explicit, early errors for configurations that used to crash
    rounds-deep inside the simulation (or silently do nothing)."""

    def _config(self, **overrides):
        from repro.experiments.scenario import ScenarioConfig

        base = dict(
            width=8,
            height=4,
            failure_round=5,
            reinjection_round=None,
            total_rounds=12,
            metrics=("homogeneity",),
            seed=0,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_full_failure_fraction_is_rejected_up_front(self):
        with pytest.raises(
            ConfigurationError, match="would crash all 32 nodes"
        ):
            self._config(failure_fraction=1.0)

    def test_fraction_that_empties_the_torus_is_rejected(self):
        # 0.9 * 8 columns: the half-space cut at x < 7.2 swallows every
        # column, exactly like 1.0 — the count matters, not the literal.
        with pytest.raises(ConfigurationError, match="failure_fraction=0.9"):
            self._config(failure_fraction=0.9)

    def test_largest_surviving_fraction_is_accepted(self):
        from repro.experiments.scenario import run_scenario

        config = self._config(failure_fraction=0.8)  # one column survives
        assert config.failed_node_count() == 28
        result = run_scenario(config)
        assert result.n_alive[-1] >= 4

    def test_negative_failure_round_is_rejected(self):
        with pytest.raises(
            ConfigurationError, match="failure_round must be >= 0"
        ):
            self._config(failure_round=-3)

    def test_reinjection_after_the_end_is_rejected(self):
        with pytest.raises(ConfigurationError, match="never fires"):
            self._config(reinjection_round=50)

    def test_degenerate_torus_is_rejected(self):
        with pytest.raises(ConfigurationError, match="width >= 1"):
            self._config(width=0)
        with pytest.raises(ConfigurationError, match="height >= 1"):
            self._config(height=-2)

    def test_nonpositive_total_rounds_is_rejected(self):
        with pytest.raises(
            ConfigurationError, match="total_rounds must be >= 1"
        ):
            self._config(
                total_rounds=0, failure_round=None, reinjection_round=None
            )
