"""Figure 6: homogeneity (6a) and proximity (6b) over the full scenario.

The paper's headline comparison: Polystyrene (K ∈ {2,4,8}) re-converges
below the reference homogeneity within ~10 rounds of losing half the
torus and returns to near-zero homogeneity after reinjection, while
T-Man's homogeneity stays pinned high after the failure and around the
parallel-grid offset after reinjection.  Proximity shows Polystyrene
pays almost nothing for this (neighbourhoods stay near-optimal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..viz.tables import format_table
from ..runtime.dispatch import ExecOptions
from .presets import ScalePreset, get_preset
from .scenario import ScenarioResult
from .suite import DEFAULT_KS, run_comparison


@dataclass
class Fig6Result:
    results: Dict[str, ScenarioResult]
    h_ref_after_failure: float
    report_homogeneity: str
    report_proximity: str


def _series_table(
    results: Dict[str, ScenarioResult],
    metric: str,
    title: str,
    every: int,
) -> str:
    names = list(results)
    any_result = results[names[0]]
    n_rounds = len(any_result.series[metric])
    rows = []
    for rnd in range(0, n_rounds, every):
        rows.append([rnd, *(results[name].series[metric][rnd] for name in names)])
    if (n_rounds - 1) % every != 0:
        rnd = n_rounds - 1
        rows.append([rnd, *(results[name].series[metric][rnd] for name in names)])
    return format_table(["round", *names], rows, title=title)


def run_fig6(
    preset: Optional[ScalePreset] = None,
    ks: Tuple[int, ...] = DEFAULT_KS,
    seed: int = 0,
    options: ExecOptions = ExecOptions(),
) -> Fig6Result:
    preset = preset or get_preset()
    results = run_comparison(preset, ks=ks, seed=seed, options=options)
    every = max(1, preset.total_rounds // 20)

    hom_table = _series_table(
        results,
        "homogeneity",
        f"Figure 6a — global homogeneity, lower is better "
        f"(failure @ r={preset.failure_round}, reinjection @ "
        f"r={preset.reinjection_round})",
        every,
    )
    poly_any = next(r for r in results.values() if r.h_ref_after_failure)
    h_ref = poly_any.h_ref_after_failure
    summary_rows = []
    for name, result in results.items():
        summary_rows.append(
            [
                name,
                result.reshaping_time if result.reshaping_time is not None else "never",
                result.series["homogeneity"][-1],
            ]
        )
    hom_summary = format_table(
        ["configuration", f"rounds to H<= {h_ref:.3f}", "final homogeneity"],
        summary_rows,
        title="Reshaping summary",
    )
    prox_table = _series_table(
        results,
        "proximity",
        "Figure 6b — proximity of neighbourhoods, lower is better",
        every,
    )
    return Fig6Result(
        results=results,
        h_ref_after_failure=h_ref,
        report_homogeneity=hom_table + "\n\n" + hom_summary,
        report_proximity=prox_table,
    )


def report(
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    part: str = "both",
    options: ExecOptions = ExecOptions(),
) -> str:
    fig = run_fig6(preset, seed=seed, options=options)
    if part == "a":
        return fig.report_homogeneity
    if part == "b":
        return fig.report_proximity
    return fig.report_homogeneity + "\n\n" + fig.report_proximity
