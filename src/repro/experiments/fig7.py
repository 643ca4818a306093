"""Figure 7: memory overhead (7a) and communication cost (7b).

7a — average stored data points per node (guests + ghosts): ~(1+K)
while stable, about double after losing half the nodes, with a spike at
the failure round while eagerly re-replicated ghosts await
de-duplication by migration.

7b — message cost per node per round (paper units, peer sampling
excluded): T-Man dominates the budget (93.6% for K = 8 in the paper);
Polystyrene adds only migration traffic plus incremental backup deltas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..metrics.messages import layer_share
from ..viz.tables import format_table
from ..runtime.dispatch import ExecOptions
from .presets import ScalePreset, get_preset
from .scenario import ScenarioResult
from .suite import DEFAULT_KS, run_comparison
from .fig6 import _series_table


@dataclass
class Fig7Result:
    results: Dict[str, ScenarioResult]
    tman_share: Dict[str, float]
    report_memory: str
    report_messages: str


def run_fig7(
    preset: Optional[ScalePreset] = None,
    ks: Tuple[int, ...] = DEFAULT_KS,
    seed: int = 0,
    options: ExecOptions = ExecOptions(),
) -> Fig7Result:
    preset = preset or get_preset()
    results = run_comparison(preset, ks=ks, seed=seed, options=options)
    every = max(1, preset.total_rounds // 20)

    memory_table = _series_table(
        results,
        "storage",
        "Figure 7a — average #(data points) per node (guests + ghosts)",
        every,
    )
    message_table = _series_table(
        results,
        "message_cost",
        "Figure 7b — average message cost per node per round "
        "(1 ID = 1 coordinate = 1 unit; peer sampling excluded)",
        every,
    )
    shares: Dict[str, float] = {}
    share_rows = []
    for name, result in results.items():
        share = layer_share(result.message_history, "tman")
        shares[name] = share
        share_rows.append([name, f"{share * 100:.1f}%"])
    share_table = format_table(
        ["configuration", "T-Man share of traffic"],
        share_rows,
        title="Traffic attribution (paper: ~93.6% T-Man at K=8)",
    )
    return Fig7Result(
        results=results,
        tman_share=shares,
        report_memory=memory_table,
        report_messages=message_table + "\n\n" + share_table,
    )


def report(
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    part: str = "both",
    options: ExecOptions = ExecOptions(),
) -> str:
    fig = run_fig7(preset, seed=seed, options=options)
    if part == "a":
        return fig.report_memory
    if part == "b":
        return fig.report_messages
    return fig.report_memory + "\n\n" + fig.report_messages
