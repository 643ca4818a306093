"""Cross-engine statistical equivalence: batch vs event.

The batch engine (semantics version 5) does not reproduce the event
engine's trajectories — it must reproduce its *science*.  The claims
that make this precise live in :func:`repro.eval.dataset.equivalence_cases`
(one definition shared with the ``repro eval`` gate — see README
"Claims gate"); this suite executes those cases through the same
stored-cell path the gate uses (``cell_record`` → ``group_cells`` →
``score_equivalence``) and asserts the verdicts.

The base case stays tier-1 with one test per metric family (the Fig. 6
homogeneity and proximity curves, the Fig. 7 storage and message-cost
curves, Table II / Fig. 10 reliability and reshaping time).  The
ablation cases — failure-detection delay, neighbor backup placement,
the Vicinity topology substrate — discharge the ROADMAP's open
equivalence axes and are marked ``eval``/``slow``.
"""

from __future__ import annotations

import pytest

from repro.analysis.bands import ensemble_mean, equivalence_band
from repro.eval.dataset import equivalence_cases
from repro.eval.scorers import group_cells, score_equivalence
from repro.experiments.scenario import run_scenario
from repro.runtime.store import cell_record

CASES = {c.case_id.split("/", 1)[1]: c for c in equivalence_cases()}
BASE = CASES["base"]
ABLATIONS = sorted(set(CASES) - {"base"})


def _cells(case, engine):
    """Run one case's grid under one engine and hand back the stored
    cells exactly as the eval runner would (content-addressed records
    grouped by variant)."""
    records = [
        cell_record(
            "test-equivalence",
            f"test/{label}/{config.seed}",
            config,
            status="ok",
            result=run_scenario(config),
        )
        for label, config in case.configs(engine)
    ]
    return group_cells(case, engine, records)


@pytest.fixture(scope="module")
def base_cells():
    return {engine: _cells(BASE, engine) for engine in ("event", "batch")}


@pytest.mark.parametrize("stat", sorted(BASE.param_dict["stats"]))
def test_metric_within_confidence_band(base_cells, stat):
    """Per metric family: the two engines' seed-ensemble means lie
    within ``z`` combined standard errors of each other, plus the
    per-stat absolute floor (so zero-variance metrics cannot
    manufacture infinite z-scores)."""
    params = BASE.param_dict
    ev = base_cells["event"].values(stat, "all")
    bv = base_cells["batch"].values(stat, "all")
    want = len(BASE.seeds)
    assert len(ev) == want, f"event {stat}: only {len(ev)}/{want} converged"
    assert len(bv) == want, f"batch {stat}: only {len(bv)}/{want} converged"
    band = equivalence_band(
        ev, bv, z=params["z"], floor=params["stats"][stat]
    )
    assert band.within, (
        f"{stat}: batch mean {ensemble_mean(bv):.4f} vs event mean "
        f"{ensemble_mean(ev):.4f} — {band.describe()} "
        f"(batch {bv}, event {ev})"
    )


def test_base_case_scores_pass(base_cells):
    """The whole-case verdict — the same scorer the CI gate runs."""
    score = score_equivalence(BASE, base_cells)
    assert score.passed, score.diagnosis
    assert score.engine == "both"
    assert len(score.details) == len(BASE.param_dict["stats"])


def test_both_engines_recover_the_shape(base_cells):
    """The paper's headline claim holds under either engine: after
    reinjection the shape is recovered (homogeneity back near the
    pre-failure level)."""
    for engine in ("event", "batch"):
        final = base_cells[engine].values("final.homogeneity", "all")
        assert ensemble_mean(final) < 0.2, (engine, final)


@pytest.mark.eval
@pytest.mark.slow
@pytest.mark.parametrize("suffix", ABLATIONS)
def test_ablation_equivalence(suffix):
    """Equivalence holds along the ablation axes: detector delay,
    backup placement, vicinity topology (ROADMAP open items)."""
    case = CASES[suffix]
    cells = {engine: _cells(case, engine) for engine in ("event", "batch")}
    score = score_equivalence(case, cells)
    assert score.passed, f"{case.case_id}: {score.diagnosis}"
    assert score.details, "ablation case scored no statistics"
