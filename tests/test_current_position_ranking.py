"""T-Man ranks peers at their current positions, so survivors reshape
within the paper's Table II range after a catastrophic failure.

A view that ranked peers at the positions their descriptors recorded
when sent went stale at the crash — nearly every survivor moves about 20
units in one round, and nothing refreshed a descriptor no message
carried — and on this 40×20 cell at K = 8 reshaping took 16 rounds on
the event engine and 18 on the batch engine.  Ranking at current
positions takes 6 on both, and leaves reliability where it was (it
depends on backups, not on views).
"""

from __future__ import annotations

import pytest

from repro.experiments.scenario import ScenarioConfig, run_scenario

#: Reliability of this cell on each engine, with views ranked at stale
#: descriptor positions or at current ones alike.
RELIABILITY = {"event": 0.99625, "batch": 0.99875}


@pytest.mark.parametrize(
    "engine", [pytest.param("event", marks=pytest.mark.slow), "batch"]
)
def test_survivors_reshape_within_eight_rounds_at_k8(engine):
    result = run_scenario(
        ScenarioConfig(
            engine=engine, width=40, height=20, replication=8, seed=0,
            failure_round=10, reinjection_round=None, total_rounds=40,
            metrics=("homogeneity",),
        )
    )
    assert result.reshaping_time is not None and result.reshaping_time <= 8
    assert result.reliability == RELIABILITY[engine]
