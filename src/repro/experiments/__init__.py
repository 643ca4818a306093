"""Reproduction experiments: one module per table/figure of the paper.

Run any experiment by id via :func:`run_experiment`, or use the
figure modules directly for structured results.

The names below resolve on first access: ``import
repro.experiments.scenario`` (what one simulation needs) loads neither
the figure registry nor the sweep helpers, which pull in
:mod:`repro.runtime`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".presets": ("ScalePreset", "PRESETS", "SMOKE", "REDUCED", "PAPER", "get_preset"),
        ".scenario": (
            "ScenarioConfig",
            "ScenarioResult",
            "PROTOCOLS",
            "run_scenario",
            "prepare_scenario",
            "finish_scenario",
            "build_simulation",
        ),
        ".suite": ("run_comparison", "scenario_name", "snapshot_rounds_for"),
        ".registry": ("run_experiment", "experiment_names", "DESCRIPTIONS"),
        ".sweep": ("run_seed_sweep", "SweepResult"),
    },
)
