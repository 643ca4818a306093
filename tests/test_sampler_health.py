"""Sampler health: is each engine's Cyclon a random peer sampler?

Reads the peer sampler's view store (``ids_rows`` of the alive rows)
after every round of a failure-free 32×16 run (seed 0, 20 rounds) and
holds it to four properties of a uniform sample of the alive network:

* the views name at least 95 % of the alive nodes;
* the lowest-id quarter of the nodes holds its share of the entries;
* no node sits in far more views than the event engine lets it (max and
  99th-percentile in-degree);
* in the failure round of the 32×16 scenario (failure at 13, half the
  torus) no survivor re-seeds from the bootstrap oracle: a random view
  keeps alive entries when half the network dies.

The bands are the event engine's own readings on seed 0, with
head-room.  Over the 20 rounds it reads distinct ids / alive 1.0 in
every round, a lowest-quarter share of 0.255-0.284 and an in-degree max
of 31-40 and 99th percentile of 28-33, and it re-seeds 0 of 256
survivors in the failure round.  The batch engine reads 0.44 distinct,
0.75 lowest-quarter share and in-degrees 183 / 157 by round 20, and
re-seeds 139 of 256 survivors (its Cyclon merge collapses onto low ids).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.scenario import ScenarioConfig, prepare_scenario

WIDTH, HEIGHT, ROUNDS, FAILURE_ROUND = 32, 16, 20, 13

#: Distinct ids across the alive views, as a share of the alive nodes.
MIN_DISTINCT = 0.95
#: Share of view entries naming the lowest-id quarter of the nodes
#: (event 0.255-0.284, ±0.03 of head-room around that range).
QUARTER_BAND = (0.225, 0.315)
#: In-degree ceilings: the event engine's largest reading times 1.25
#: (max 40 → 50, 99th percentile 33 → 41).
MAX_IN_DEGREE = 50
P99_IN_DEGREE = 41

ENGINES = [
    "event",
    pytest.param(
        "batch",
        marks=pytest.mark.xfail(
            strict=True,
            reason="ROADMAP 1(a): the batch Cyclon merge collapses onto low ids",
        ),
    ),
]


def config(engine: str, **overrides) -> ScenarioConfig:
    base = dict(
        width=WIDTH,
        height=HEIGHT,
        failure_round=None,
        reinjection_round=None,
        total_rounds=ROUNDS,
        metrics=(),
        engine=engine,
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def health(sim) -> tuple:
    """``(distinct ids / alive, lowest-quarter share, max in-degree, p99
    in-degree)`` of the alive nodes' Cyclon views."""
    rows = sim.alive_act_rows()
    ids = sim.layers[0].ids_rows(rows)
    ids = ids[ids >= 0]
    n = len(rows)
    in_degree = np.bincount(ids, minlength=n)
    return (
        len(np.unique(ids)) / n,
        float(np.mean(ids < n // 4)),
        int(in_degree.max()),
        float(np.percentile(in_degree, 99)),
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_views_are_a_random_sample_of_the_alive_nodes(engine):
    sim, *_ = prepare_scenario(config(engine))
    low, high = QUARTER_BAND
    for rnd in range(ROUNDS):
        sim.step()
        distinct, quarter, top, p99 = health(sim)
        assert distinct >= MIN_DISTINCT, (rnd, distinct)
        assert low <= quarter <= high, (rnd, quarter)
        assert top <= MAX_IN_DEGREE and p99 <= P99_IN_DEGREE, (rnd, top, p99)

    failing, *_ = prepare_scenario(
        config(engine, failure_round=FAILURE_ROUND, total_rounds=FAILURE_ROUND + 1)
    )
    failing.run(FAILURE_ROUND)
    rps = failing.layers[0]
    before = rps.bootstrap_fallbacks
    failing.step()
    assert rps.bootstrap_fallbacks - before == 0
