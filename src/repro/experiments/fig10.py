"""Figure 10: scalability (10a) and split-function ablation (10b).

10a sweeps the torus size (up to 51,200 nodes in the paper) for
K ∈ {2,4,8}: reshaping time grows roughly logarithmically with network
size (14.08 ± 0.11 rounds at 51,200 nodes, K = 8).

10b repeats the sweep at K = 4 with different SPLIT functions: the
diameter heuristic (PD) alone already cuts reshaping time ~2.8×
relative to SPLIT_BASIC at the largest size, and PD+MD (advanced)
~2.9×.  We additionally plot PD alone, completing the 2×2 grid of
heuristics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.stats import MeanCI, mean_ci
from ..viz.tables import format_table
from ..runtime.dispatch import ExecOptions, execute_scenarios
from .presets import ScalePreset, get_preset
from .scenario import ScenarioConfig
from .sweep import aggregate_by_label

FIG10B_SPLITS = ("basic", "md", "pd", "advanced")


def _cell_config(
    width: int,
    height: int,
    preset: ScalePreset,
    replication: int,
    split: str,
    seed: int,
    max_rounds_after_failure: int = 61,
) -> ScenarioConfig:
    return ScenarioConfig(
        width=width,
        height=height,
        protocol="polystyrene",
        replication=replication,
        split=split,
        seed=seed,
        failure_round=preset.failure_round,
        reinjection_round=None,
        total_rounds=preset.failure_round + max_rounds_after_failure,
        metrics=("homogeneity",),
    )


def _run_sweep_grid(
    preset: ScalePreset,
    variants: List[Tuple[str, int, str]],
    repetitions: int,
    base_seed: int,
    options: ExecOptions,
) -> "dict":
    """Run the whole (size × variant × repetition) grid in one fan-out;
    returns ``{(n_nodes, label): (MeanCI, non_converged)}``.

    The flat grid is what makes ``workers > 1`` effective: every single
    simulation of the sweep is an independent task, so the scalability
    sweep saturates the worker pool instead of parallelising only
    within one cell.  With ``fork`` every cell reuses its cached Phase-1
    checkpoint — and because the cache is persistent, the 10a K=4
    column and 10b's ``advanced`` column (identical configurations up
    to the fork) share prefixes *across* figure invocations.
    """
    keys: List[Tuple[int, str]] = []
    configs: List[ScenarioConfig] = []
    for width, height in preset.sweep_grids:
        n = width * height
        for label, replication, split in variants:
            for rep in range(repetitions):
                keys.append((n, label))
                configs.append(
                    _cell_config(
                        width, height, preset, replication, split,
                        base_seed + rep,
                    )
                )
    outcomes = aggregate_by_label(keys, execute_scenarios(configs, options))
    return {
        key: (stats.reshaping or mean_ci([float("nan")]), stats.non_converged)
        for key, stats in outcomes.items()
    }


@dataclass
class SweepCell:
    n_nodes: int
    label: str
    reshaping: MeanCI
    non_converged: int


@dataclass
class Fig10Result:
    cells: List[SweepCell]
    report: str


def run_fig10a(
    preset: Optional[ScalePreset] = None,
    ks: Tuple[int, ...] = (2, 4, 8),
    repetitions: int = 1,
    base_seed: int = 0,
    options: ExecOptions = ExecOptions(),
) -> Fig10Result:
    preset = preset or get_preset()
    variants = [(f"K={k}", k, "advanced") for k in ks]
    grid = _run_sweep_grid(preset, variants, repetitions, base_seed, options)
    cells: List[SweepCell] = []
    rows = []
    for width, height in preset.sweep_grids:
        n = width * height
        row: List = [n]
        for k in ks:
            ci, missed = grid[(n, f"K={k}")]
            cells.append(SweepCell(n, f"K={k}", ci, missed))
            row.append(str(ci))
        rows.append(row)
    report = format_table(
        ["#nodes", *(f"K={k}" for k in ks)],
        rows,
        title=(
            "Figure 10a — reshaping time (rounds) vs network size, "
            "SPLIT_ADVANCED (expect ~logarithmic growth)"
        ),
    )
    return Fig10Result(cells=cells, report=report)


def run_fig10b(
    preset: Optional[ScalePreset] = None,
    splits: Tuple[str, ...] = FIG10B_SPLITS,
    replication: int = 4,
    repetitions: int = 1,
    base_seed: int = 0,
    options: ExecOptions = ExecOptions(),
) -> Fig10Result:
    preset = preset or get_preset()
    variants = [(f"split={split}", replication, split) for split in splits]
    grid = _run_sweep_grid(preset, variants, repetitions, base_seed, options)
    cells: List[SweepCell] = []
    rows = []
    for width, height in preset.sweep_grids:
        n = width * height
        row: List = [n]
        for split in splits:
            ci, missed = grid[(n, f"split={split}")]
            cells.append(SweepCell(n, f"split={split}", ci, missed))
            row.append(str(ci) if not math.isnan(ci.mean) else "never")
        rows.append(row)
    report = format_table(
        ["#nodes", *(f"Split_{s.capitalize()}" for s in splits)],
        rows,
        title=(
            f"Figure 10b — reshaping time (rounds) vs network size per "
            f"SPLIT function, K={replication} (advanced should win at "
            f"scale, basic should degrade fastest)"
        ),
    )
    return Fig10Result(cells=cells, report=report)


def report(
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    part: str = "both",
    repetitions: int = 1,
    options: ExecOptions = ExecOptions(),
) -> str:
    parts = []
    if part in ("a", "both"):
        parts.append(
            run_fig10a(
                preset, repetitions=repetitions, base_seed=seed, options=options
            ).report
        )
    if part in ("b", "both"):
        parts.append(
            run_fig10b(
                preset, repetitions=repetitions, base_seed=seed, options=options
            ).report
        )
    return "\n\n".join(parts)
