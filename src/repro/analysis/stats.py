"""Statistics helpers: mean ± confidence interval over repeated runs.

The paper averages over 25 experiments and reports 95% confidence
intervals (Student's t).  :func:`mean_ci` reproduces that; the scipy
t-table is used when available, with a normal-approximation fallback so
the core library only hard-depends on numpy.  ``scipy.stats`` is
imported by the first quantile lookup, not with this module: it costs
0.8 s and 67 MB, and no simulation, eval-gate or worker path asks for a
confidence interval.
"""

from __future__ import annotations

import functools
import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np


@dataclass(frozen=True)
class MeanCI:
    """A mean with its half-width confidence interval."""

    mean: float
    half_width: float
    n: int
    confidence: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.2f} ± {self.half_width:.3f}"


@functools.lru_cache(maxsize=None)
def _t_quantile(confidence: float, dof: int) -> float:
    try:  # scipy is an optional (dev) dependency
        from scipy import stats as scipy_stats
    except ImportError:
        return statistics.NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return float(scipy_stats.t.ppf(0.5 + confidence / 2.0, dof))


def mean_ci(values: Sequence[float], confidence: float = 0.95) -> MeanCI:
    """Sample mean with a two-sided Student-t confidence interval."""
    data = [float(v) for v in values]
    if not data:
        raise ValueError("mean_ci needs at least one value")
    n = len(data)
    mean = float(np.mean(data))
    if n == 1:
        return MeanCI(mean, 0.0, 1, confidence)
    sd = float(np.std(data, ddof=1))
    half = _t_quantile(confidence, n - 1) * sd / math.sqrt(n)
    return MeanCI(mean, half, n, confidence)


def aggregate_series(
    runs: Sequence[Sequence[float]],
) -> List[float]:
    """Round-wise mean across repeated runs (truncated to the shortest
    run, so ragged inputs do not mix rounds)."""
    if not runs:
        return []
    length = min(len(run) for run in runs)
    if length == 0:
        return []
    arr = np.array([list(run)[:length] for run in runs], dtype=float)
    return [float(v) for v in np.nanmean(arr, axis=0)]


def aggregate_series_ci(
    runs: Sequence[Sequence[float]], confidence: float = 0.95
) -> List[MeanCI]:
    """Round-wise mean ± CI across repeated runs."""
    if not runs:
        return []
    length = min(len(run) for run in runs)
    return [
        mean_ci([run[rnd] for run in runs], confidence) for rnd in range(length)
    ]


def mean_ci_over_cells(
    cells: Sequence[Dict],
    field: str,
    confidence: float = 0.95,
) -> MeanCI:
    """Mean ± CI of one summary scalar over result-store cell records.

    The analysis-side reader for :class:`repro.runtime.store.ResultStore`
    sweeps: ``mean_ci_over_cells(store.cells(replication=4), "reshaping_time")``
    reproduces a Table II entry from persisted results without
    re-simulating.  ``None`` summaries (e.g. non-converged runs) are
    skipped, mirroring the paper's protocol.
    """
    values: List[float] = []
    for cell in cells:
        summary = cell.get("summary") or {}
        value = summary.get(field)
        if value is None:
            value = (summary.get("final") or {}).get(field)
        if value is not None:
            values.append(float(value))
    if not values:
        raise ValueError(f"no cell carries a {field!r} summary value")
    return mean_ci(values, confidence)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Min/mean/max/std summary of a sample."""
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("summarize needs at least one value")
    return {
        "min": float(data.min()),
        "mean": float(data.mean()),
        "max": float(data.max()),
        "std": float(data.std(ddof=1)) if data.size > 1 else 0.0,
        "n": int(data.size),
    }
