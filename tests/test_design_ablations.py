"""Design-choice ablations at scenario level (batch engine, 16x8 torus):
random backup placement (paper Sec. III-D) keeps copies out of a
correlated failure's blast radius, and incremental backup cuts
Polystyrene's traffic without slowing repair (``test_core_backup``
holds the per-node half of that claim)."""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ScenarioConfig, run_scenario
from repro.metrics.messages import layer_share


def _config(**overrides) -> ScenarioConfig:
    base = dict(
        width=16,
        height=8,
        replication=4,
        failure_round=12,
        reinjection_round=None,
        metrics=("homogeneity",),
        engine="batch",
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.mark.parametrize("seed", [0, 1])
def test_random_backup_placement_survives_a_correlated_failure(seed):
    # Reliability is probed right after the crash, so the run can stop
    # there.
    reliability = {
        placement: run_scenario(
            _config(backup_placement=placement, total_rounds=13, seed=seed)
        ).reliability
        for placement in ("random", "neighbors")
    }
    assert reliability["random"] > reliability["neighbors"] + 0.1, reliability


def test_incremental_backup_cuts_traffic_not_repair_speed():
    results = {
        incremental: run_scenario(
            _config(
                incremental_backup=incremental,
                metrics=("homogeneity", "message_cost"),
                total_rounds=40,
            )
        )
        for incremental in (True, False)
    }
    share = {
        mode: 1.0 - layer_share(result.message_history, "tman")
        for mode, result in results.items()
    }
    assert results[True].reshaping_time is not None
    assert results[True].reshaping_time == results[False].reshaping_time
    assert share[True] < share[False], share
