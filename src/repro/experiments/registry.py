"""Registry mapping experiment ids to report functions.

Every table and figure of the paper's evaluation has an entry; each
report function takes ``(preset=None, seed=0, options=ExecOptions())``
(plus experiment-specific keywords) and returns a printable text
report with the same rows/series the paper plots.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..errors import ExperimentNotFoundError
from ..runtime.dispatch import ExecOptions
from . import fig1, fig6, fig7, fig89, fig10, table2
from .presets import ScalePreset

ReportFn = Callable[..., str]

#: experiment id -> (report function, ``part`` of a two-panel figure).
_REGISTRY: Dict[str, Tuple[ReportFn, Optional[str]]] = {
    "fig1": (fig1.report, None),
    "fig6a": (fig6.report, "a"),
    "fig6b": (fig6.report, "b"),
    "fig7a": (fig7.report, "a"),
    "fig7b": (fig7.report, "b"),
    "fig8": (fig89.report, None),
    "fig9": (fig89.report, None),
    "table2": (table2.report, None),
    "fig10a": (fig10.report, "a"),
    "fig10b": (fig10.report, "b"),
}

DESCRIPTIONS: Dict[str, str] = {
    "fig1": "T-Man alone loses the torus after a catastrophic failure",
    "fig6a": "Homogeneity over rounds: Polystyrene K∈{2,4,8} vs T-Man",
    "fig6b": "Proximity over rounds: Polystyrene K∈{2,4,8} vs T-Man",
    "fig7a": "Memory overhead: average data points per node",
    "fig7b": "Communication cost per node per round",
    "fig8": "Snapshots of the repair (failure+2, failure+8)",
    "fig9": "Snapshots after reinjection: T-Man vs Polystyrene",
    "table2": "Reshaping time and reliability vs K (mean ± 95% CI)",
    "fig10a": "Reshaping time vs network size, K∈{2,4,8}",
    "fig10b": "Reshaping time vs network size per SPLIT function",
}


def experiment_names() -> list:
    return sorted(_REGISTRY)


def run_experiment(
    name: str,
    preset: Optional[ScalePreset] = None,
    seed: int = 0,
    options: ExecOptions = ExecOptions(),
    **kwargs,
) -> str:
    """Run one experiment by id and return its text report.

    ``options`` (:class:`~repro.runtime.dispatch.ExecOptions`) says how
    the experiment's independent simulations execute — worker
    processes, the persistent Phase-1 checkpoint cache, a shared
    cluster work queue — none of which changes a result, and under
    which engine, which does (``engine="batch"``: statistically
    equivalent curves, several times faster per simulation).
    """
    try:
        fn, part = _REGISTRY[name]
    except KeyError:
        raise ExperimentNotFoundError(
            f"unknown experiment {name!r}; available: {experiment_names()}"
        ) from None
    if part is not None:
        kwargs["part"] = part
    return fn(preset=preset, seed=seed, options=options, **kwargs)
