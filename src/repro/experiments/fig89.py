"""Figures 8 and 9: snapshots of repair and reinjection.

Fig. 8 photographs Polystyrene (K = 4) two rounds after the failure
("repair started") and eight rounds after ("repair completed"): the
surviving nodes have flowed back over the whole torus.  Fig. 9
contrasts T-Man and Polystyrene 25 rounds after reinjection: T-Man's
fresh nodes stay on their parallel grid while its survivors crowd the
old half; Polystyrene is uniform again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..viz.ascii import occupancy_stats, render_density
from ..viz.tables import format_table
from ..runtime.dispatch import ExecOptions
from .presets import ScalePreset, get_preset
from .suite import run_comparison, scenario_name


@dataclass
class Fig89Result:
    empty_fraction_repair_started: float
    empty_fraction_repair_done: float
    empty_fraction_tman_reinjected: float
    empty_fraction_poly_reinjected: float
    report: str


def run_fig89(
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    k: int = 4,
    options: ExecOptions = ExecOptions(),
) -> Fig89Result:
    preset = preset or get_preset()
    results = run_comparison(preset, seed=seed, options=options)
    poly = results[scenario_name("polystyrene", k)]
    tman = results[scenario_name("tman")]
    periods = poly.config.grid.periods
    # Half-resolution cells (4 grid positions each): after the failure
    # only half the nodes survive, so uniform coverage means ~2 nodes
    # per cell and an empty cell really is a hole in the shape.
    cols = min(max(preset.width // 2, 1), 80)
    rows = min(max(preset.height // 2, 1), 40)

    fr = preset.failure_round
    rr = min(preset.reinjection_round + 25, preset.total_rounds - 1)
    sections = []
    stats: Dict[str, dict] = {}

    for label, result, rnd in (
        (f"Fig 8a — Polystyrene K={k}, repair started (r={fr + 2})", poly, fr + 2),
        (f"Fig 8b — Polystyrene K={k}, repair completed (r={fr + 8})", poly, fr + 8),
        (f"Fig 9a — T-Man after reinjection (r={rr})", tman, rr),
        (f"Fig 9b — Polystyrene K={k} after reinjection (r={rr})", poly, rr),
    ):
        positions = result.snapshots[rnd]
        sections.append(
            render_density(positions, periods, cols=cols, rows=rows, title=label)
        )
        stats[label] = occupancy_stats(positions, periods, cols=cols, rows=rows)

    keys = list(stats)
    rows = [
        [label, s["empty_fraction"], s["max_occupancy"]]
        for label, s in stats.items()
    ]
    sections.append(
        format_table(
            ["snapshot", "empty cell fraction", "max cell occupancy"],
            rows,
            title="Coverage statistics",
        )
    )
    return Fig89Result(
        empty_fraction_repair_started=stats[keys[0]]["empty_fraction"],
        empty_fraction_repair_done=stats[keys[1]]["empty_fraction"],
        empty_fraction_tman_reinjected=stats[keys[2]]["empty_fraction"],
        empty_fraction_poly_reinjected=stats[keys[3]]["empty_fraction"],
        report="\n\n".join(sections),
    )


def report(
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    options: ExecOptions = ExecOptions(),
) -> str:
    return run_fig89(preset, seed, options=options).report
