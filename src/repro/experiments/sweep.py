"""Multi-seed sweeps: repeat a scenario and aggregate with CIs.

The paper averages 25 repetitions with 95% confidence intervals
(Sec. IV-B).  :func:`run_seed_sweep` packages that protocol for any
scenario configuration, producing round-wise mean series plus CI
summaries of the scalar outcomes (reshaping time, reliability).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Hashable, List, Optional, Sequence

from ..analysis.stats import MeanCI, aggregate_series, mean_ci
from ..runtime.dispatch import ExecOptions, execute_scenarios
from .scenario import ScenarioConfig, ScenarioResult


@dataclass
class OutcomeStats:
    """The scalar outcomes of a group of runs, aggregated the way the
    paper reports them (Sec. IV-B)."""

    #: Mean ± CI of the reshaping time over converged runs, ``None``
    #: when no run converged (or no failure was scheduled).
    reshaping: Optional[MeanCI]
    #: Runs that never re-converged under the reference homogeneity
    #: (excluded from ``reshaping``).
    non_converged: int
    #: Mean ± CI of the reliability, ``None`` without a failure.
    reliability: Optional[MeanCI]


@dataclass
class SweepResult(OutcomeStats):
    """Aggregate over one configuration run under several seeds."""

    config: ScenarioConfig
    seeds: List[int]
    runs: List[ScenarioResult]
    #: Round-wise mean of every recorded metric.
    mean_series: Dict[str, List[float]]


def aggregate_outcomes(
    runs: Sequence[ScenarioResult], reliability_scale: float = 1.0
) -> OutcomeStats:
    """Aggregate one group of runs (``reliability_scale=100`` reports
    percent)."""
    reshaping = [
        float(run.reshaping_time) for run in runs if run.reshaping_time is not None
    ]
    reliability = [
        run.reliability * reliability_scale
        for run in runs
        if run.reliability is not None
    ]
    return OutcomeStats(
        reshaping=mean_ci(reshaping) if reshaping else None,
        non_converged=sum(
            1
            for run in runs
            if run.reshaping_time is None and run.reliability is not None
        ),
        reliability=mean_ci(reliability) if reliability else None,
    )


def aggregate_by_label(
    labels: Sequence[Hashable],
    runs: Sequence[ScenarioResult],
    reliability_scale: float = 1.0,
) -> Dict[Hashable, OutcomeStats]:
    """Group a flat grid's runs by their label (first-seen order) and
    aggregate each group — the one aggregation behind Table II,
    Fig. 10 and :func:`run_seed_sweep`."""
    groups: Dict[Hashable, List[ScenarioResult]] = {}
    for label, run in zip(labels, runs):
        groups.setdefault(label, []).append(run)
    return {
        label: aggregate_outcomes(group, reliability_scale)
        for label, group in groups.items()
    }


def run_seed_sweep(
    config: ScenarioConfig,
    seeds: Sequence[int],
    options: ExecOptions = ExecOptions(),
) -> SweepResult:
    """Run ``config`` once per seed and aggregate the results.

    ``options`` says how the repetitions execute
    (:class:`~repro.runtime.dispatch.ExecOptions`); per-seed results are
    identical on every path.  Each seed is its own pre-failure prefix,
    so what ``fork`` buys here is the persistent checkpoint cache:
    re-sweeping the same seeds with different post-failure parameters
    skips every Phase 1.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("a sweep needs at least one seed")
    runs = execute_scenarios(
        [replace(config, seed=seed) for seed in seeds], options
    )
    return SweepResult(
        **vars(aggregate_outcomes(runs)),
        config=config,
        seeds=seeds,
        runs=runs,
        mean_series={
            metric: aggregate_series([run.series[metric] for run in runs])
            for metric in runs[0].series
        },
    )
