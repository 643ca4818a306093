"""Golden ``state_digest`` regression tests for the *batch* engine.

Same contract as ``tests/test_golden_digests`` but for semantics
version 5 (:data:`repro.sim.batch.SEMANTICS_VERSION`): the batch
engine's trajectories are pinned so an unintended change to any batch
kernel fails loudly instead of silently invalidating cached batch-mode
fork checkpoints.  An *intended* batch semantic change must regenerate
these goldens **and bump** :data:`repro.sim.batch.SEMANTICS_VERSION`
(which retires every batch-engine entry of the fork-checkpoint cache —
the event engine's cache entries and goldens are untouched)::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_golden_digests_batch.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict
from unittest import mock

import numpy as np
import pytest

from repro.experiments.presets import SMOKE
from repro.experiments.scenario import ScenarioConfig, prepare_scenario
from repro.runtime.checkpoint import state_digest
from repro.runtime.scenarios import catastrophic, compose, flash_crowd, mass_failure
from repro.sim.batch import kernels

GOLDEN_PATH = Path(__file__).parent / "golden" / "state_digests_batch.json"
UPDATE_ENV = "REPRO_UPDATE_GOLDEN"

#: ``name -> (config, digest rounds[, churn schedule builder])``.
GOLDEN_CASES = {
    # Two failures a few rounds apart, joins into the reclaimed rows,
    # then a third failure that takes some of the joiners:
    # the only shape in which one holder activates *several* origins'
    # copies in one round, and copies that were last pushed as multi-pid
    # deltas.  The orders involved (push candidates and stale origins in
    # ascending id, a pushed copy in its origin's guest order) are
    # defined by the protocol, not inherited from a hash-table layout.
    "batch-12x6-two-failures": (
        ScenarioConfig(
            width=12,
            height=6,
            failure_round=None,
            reinjection_round=None,
            total_rounds=18,
            metrics=("homogeneity",),
            seed=7,
            engine="batch",
        ),
        (7, 12, 18),
        lambda grid: compose(
            catastrophic(3, grid.width / 2),
            mass_failure(6, 0.35),
            flash_crowd(11, grid.parallel(0.5).generate()[::3]),
            mass_failure(14, 0.3, seed_key="third-failure"),
        ),
    ),
    "batch-mini-8x4-poly-K4-advanced": (
        ScenarioConfig(
            width=8,
            height=4,
            failure_round=5,
            reinjection_round=12,
            total_rounds=16,
            metrics=("homogeneity",),
            seed=3,
            engine="batch",
        ),
        (5, 16),
    ),
    "batch-smoke-poly-K4-advanced": (
        ScenarioConfig.from_preset(
            SMOKE, metrics=("homogeneity",), seed=0, engine="batch"
        ),
        (SMOKE.failure_round, SMOKE.total_rounds),
    ),
    "batch-smoke-tman-baseline": (
        ScenarioConfig.from_preset(
            SMOKE,
            protocol="tman",
            metrics=("homogeneity",),
            seed=0,
            engine="batch",
        ),
        (SMOKE.failure_round, SMOKE.total_rounds),
    ),
    "batch-smoke-vicinity-K4": (
        ScenarioConfig.from_preset(
            SMOKE,
            topology="vicinity",
            metrics=("homogeneity",),
            seed=0,
            engine="batch",
        ),
        (SMOKE.failure_round, SMOKE.total_rounds),
    ),
}


def compute_digests(name: str) -> Dict[str, str]:
    config, rounds, *churn = GOLDEN_CASES[name]
    sim, *_ = prepare_scenario(config)
    for build in churn:
        build(config.grid).install(sim)
    out: Dict[str, str] = {}
    for rnd in sorted(rounds):
        sim.run(rnd - sim.round)
        out[f"round-{rnd}"] = state_digest(sim)
    return out


def load_goldens() -> Dict[str, Dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf8"))


def test_golden_file_covers_every_case():
    if os.environ.get(UPDATE_ENV):
        pytest.skip("regenerating goldens")
    goldens = load_goldens()
    assert sorted(goldens) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_state_digest_matches_golden(name):
    actual = compute_digests(name)
    if os.environ.get(UPDATE_ENV):
        goldens = load_goldens() if GOLDEN_PATH.exists() else {}
        goldens[name] = actual
        GOLDEN_PATH.write_text(
            json.dumps(goldens, indent=2, sort_keys=True) + "\n",
            encoding="utf8",
        )
        pytest.skip(f"golden digests for {name!r} regenerated")
    expected = load_goldens()[name]
    if actual != expected:
        diff = "\n".join(
            f"  {rnd}:\n    expected {expected.get(rnd, '<missing>')}\n"
            f"    actual   {actual.get(rnd, '<missing>')}"
            for rnd in sorted(set(expected) | set(actual))
            if expected.get(rnd) != actual.get(rnd)
        )
        pytest.fail(
            f"batch simulation semantics changed for {name!r}:\n{diff}\n"
            "If this change is intentional, regenerate with "
            f"{UPDATE_ENV}=1 AND bump repro.sim.batch.SEMANTICS_VERSION "
            "(it keys the batch half of the fork-checkpoint cache; "
            "batch sweeps recorded before the change are no longer "
            "comparable)."
        )


@pytest.mark.parametrize(
    "name", ["batch-smoke-poly-K4-advanced", "batch-smoke-vicinity-K4"]
)
def test_half_step_merge_blocks_take_the_exact_key(name):
    """16x8 through failure and re-injection on the parallel half-step
    grid, T-Man and Vicinity: merge blocks that see a half-step
    coordinate stay on the one-sort integer-key path, and the
    trajectory is the golden one."""
    half_step_keyed = []
    real = kernels.exact_rank_key

    def spy(dsq, stride):
        key = real(dsq, stride)
        if key is not None and not np.array_equal(dsq, np.floor(dsq)):
            half_step_keyed.append(dsq.shape)
        return key

    with mock.patch.object(kernels, "exact_rank_key", spy):
        actual = compute_digests(name)
    assert half_step_keyed
    if not os.environ.get(UPDATE_ENV):
        assert actual == load_goldens()[name]
