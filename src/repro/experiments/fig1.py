"""Figure 1: a catastrophic correlated failure under plain T-Man.

The paper's motivating figure: T-Man converges to a torus (1a → 1b),
then half the torus crashes and the surviving nodes merely re-link
locally — the shape is lost for good (1c).  We reproduce it as ASCII
density maps plus the homogeneity numbers (stable around 5.25 after the
failure at paper scale, i.e. one quarter of the torus width).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..viz.ascii import occupancy_stats, render_density
from ..viz.tables import format_table
from ..runtime.dispatch import ExecOptions
from .presets import ScalePreset, get_preset
from .scenario import ScenarioConfig, run_scenario


@dataclass
class Fig1Result:
    homogeneity_converged: float
    homogeneity_after_failure: float
    empty_fraction_converged: float
    empty_fraction_after_failure: float
    report: str


def run_fig1(
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    options: ExecOptions = ExecOptions(),
) -> Fig1Result:
    preset = preset or get_preset()
    fr = preset.failure_round
    total = fr + 20
    config = ScenarioConfig.from_preset(
        preset,
        protocol="tman",
        reinjection_round=None,
        total_rounds=total,
        seed=seed,
        snapshot_rounds=(0, fr - 1, total - 1),
        **({"engine": options.engine} if options.engine else {}),
    )
    result = run_scenario(config)
    periods = config.grid.periods
    # One render cell per grid position so occupancy reads directly as
    # node coverage of the shape.
    cols, rows = min(preset.width, 80), min(preset.height, 40)

    sections: List[str] = []
    labels = {
        0: "(a) Round 0",
        fr - 1: "(b) After convergence",
        total - 1: "(c) After the catastrophic failure",
    }
    stats: Dict[int, dict] = {}
    for rnd, label in labels.items():
        positions = result.snapshots[rnd]
        sections.append(
            render_density(positions, periods, cols=cols, rows=rows, title=label)
        )
        stats[rnd] = occupancy_stats(positions, periods, cols=cols, rows=rows)

    hom = result.series["homogeneity"]
    rows = [
        ["converged (pre-failure)", hom[fr - 1], stats[fr - 1]["empty_fraction"]],
        ["after failure (final)", hom[total - 1], stats[total - 1]["empty_fraction"]],
    ]
    table = format_table(
        ["state", "homogeneity", "empty cell fraction"],
        rows,
        title="Figure 1 — T-Man alone loses the shape",
    )
    sections.append(table)
    sections.append(
        "T-Man heals its links but homogeneity stays high: the emptied "
        "half of the torus is never re-covered."
    )
    return Fig1Result(
        homogeneity_converged=hom[fr - 1],
        homogeneity_after_failure=hom[total - 1],
        empty_fraction_converged=stats[fr - 1]["empty_fraction"],
        empty_fraction_after_failure=stats[total - 1]["empty_fraction"],
        report="\n\n".join(sections),
    )


def report(
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    options: ExecOptions = ExecOptions(),
) -> str:
    """One simulation: of ``options`` only ``engine`` applies."""
    return run_fig1(preset, seed, options).report
