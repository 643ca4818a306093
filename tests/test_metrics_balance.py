"""Tests for the load-balance metrics."""

import numpy as np
import pytest

from repro.metrics.balance import gini, guest_counts, load_balance

from .helpers import placed_nodes


def nodes_with_guests(*counts):
    """Nodes holding ``counts[i]`` guests each, and their store."""
    return placed_nodes(
        [(0.0, 0.0)] * len(counts),
        [[i * 100 + k for k in range(n)] for i, n in enumerate(counts)],
    )


class TestGini:
    def test_equal_shares_zero(self):
        assert gini(np.array([3.0, 3.0, 3.0])) == pytest.approx(0.0)

    def test_all_on_one_node(self):
        value = gini(np.array([0.0, 0.0, 0.0, 12.0]))
        assert value == pytest.approx(0.75)

    def test_all_zero(self):
        assert gini(np.array([0.0, 0.0])) == 0.0

    def test_monotone_in_inequality(self):
        balanced = gini(np.array([2.0, 2.0, 2.0, 2.0]))
        skewed = gini(np.array([1.0, 1.0, 1.0, 5.0]))
        assert skewed > balanced

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gini(np.array([-1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gini(np.array([]))


class TestLoadBalance:
    def test_uniform(self):
        out = load_balance(*nodes_with_guests(2, 2, 2, 2))
        assert out["max_over_mean"] == pytest.approx(1.0)
        assert out["gini"] == pytest.approx(0.0)

    def test_skewed(self):
        out = load_balance(*nodes_with_guests(7, 1))
        assert out["max"] == 7
        assert out["mean"] == 4.0
        assert out["max_over_mean"] == pytest.approx(1.75)

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            load_balance([], nodes_with_guests()[1])

    def test_guest_counts_handles_missing_state(self):
        counts = guest_counts(*nodes_with_guests(0, 3))
        assert list(counts) == [0.0, 3.0]


class TestBalanceAfterRepair:
    def test_migration_balances_load(self):
        """After a failure + repair, guest load must spread instead of
        piling onto the recovery nodes."""
        from repro.experiments.scenario import ScenarioConfig, build_simulation

        config = ScenarioConfig(
            width=12,
            height=6,
            replication=4,
            failure_round=8,
            reinjection_round=None,
            total_rounds=40,
            seed=1,
            metrics=("homogeneity",),
        )
        sim, _, _, _ = build_simulation(config)
        from repro.sim.failures import half_space_failure

        sim.schedule(8, half_space_failure(0, 6.0))
        sim.run(40)
        out = load_balance(sim.network.alive_nodes(), sim.placement)
        # ~2 points per survivor on average; no node should hold an
        # order of magnitude more than the mean once converged.
        assert out["mean"] == pytest.approx(2.0, abs=0.4)
        assert out["max_over_mean"] < 4.0
        assert out["gini"] < 0.45
