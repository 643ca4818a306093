"""Table II: reshaping time and reliability versus K.

The paper averages 25 repetitions per K on the 80×40 torus and reports
(mean ± 95% CI): K=2 → 5.00 rounds / 87.73% reliability; K=4 → 6.96 /
96.88%; K=8 → 9.08 / 99.80%.  Reliability tracks the analytical bound
``1 - 0.5^(K+1)`` (87.5% / 96.9% / 99.8%); reshaping slows as K grows
because more redundant copies must be de-duplicated.

Only the failure phase matters here, so runs stop shortly after the
crash and skip the metrics the table does not need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.stats import MeanCI, mean_ci
from ..core.backup import survival_probability
from ..viz.tables import format_table
from ..runtime.dispatch import ExecOptions, execute_scenarios
from .presets import ScalePreset, get_preset
from .scenario import ScenarioConfig
from .sweep import aggregate_by_label

DEFAULT_KS = (2, 4, 8)


@dataclass
class Table2Row:
    replication: int
    reshaping: MeanCI
    reliability: MeanCI
    expected_reliability: float
    #: Number of runs (out of ``n``) that never re-converged; these are
    #: excluded from the reshaping mean, mirroring the paper's protocol.
    non_converged: int


@dataclass
class Table2Result:
    rows: List[Table2Row]
    report: str


def run_table2(
    preset: Optional[ScalePreset] = None,
    ks: Tuple[int, ...] = DEFAULT_KS,
    repetitions: Optional[int] = None,
    base_seed: int = 0,
    split: str = "advanced",
    options: ExecOptions = ExecOptions(),
) -> Table2Result:
    preset = preset or get_preset()
    if repetitions is None:
        repetitions = preset.repetitions

    # One flat (K × repetition) grid so ``workers > 1`` parallelises the
    # whole table, not just one K at a time.
    keys: List[int] = []
    configs: List[ScenarioConfig] = []
    for k in ks:
        for rep in range(repetitions):
            keys.append(k)
            configs.append(
                ScenarioConfig.from_preset(
                    preset,
                    protocol="polystyrene",
                    replication=k,
                    split=split,
                    seed=base_seed + rep,
                    reinjection_round=None,
                    total_rounds=preset.failure_round + 41,
                    metrics=("homogeneity",),
                )
            )
    outcomes = aggregate_by_label(
        keys, execute_scenarios(configs, options), reliability_scale=100.0
    )
    rows = [
        Table2Row(
            replication=k,
            reshaping=outcomes[k].reshaping or mean_ci([float("nan")]),
            reliability=outcomes[k].reliability,
            expected_reliability=survival_probability(k, 0.5) * 100.0,
            non_converged=outcomes[k].non_converged,
        )
        for k in ks
    ]

    table_rows = []
    for row in rows:
        table_rows.append(
            [
                row.replication,
                str(row.reshaping),
                str(row.reliability),
                f"{row.expected_reliability:.2f}",
                row.non_converged,
            ]
        )
    report = format_table(
        [
            "K",
            "Reshaping time (rounds)",
            "Reliability (%)",
            "1-0.5^(K+1) (%)",
            "non-converged runs",
        ],
        table_rows,
        title=(
            f"Table II — reshaping time and reliability "
            f"({preset.width}x{preset.height} torus, {repetitions} runs, "
            f"95% CI)"
        ),
    )
    return Table2Result(rows=rows, report=report)


def report(
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    repetitions: Optional[int] = None,
    options: ExecOptions = ExecOptions(),
) -> str:
    return run_table2(
        preset, base_seed=seed, repetitions=repetitions, options=options
    ).report
