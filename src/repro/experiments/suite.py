"""Shared scenario runs for the figure modules.

Figures 6a, 6b, 7a, 7b, 8 and 9 all read from the *same* four runs
(Polystyrene with K ∈ {2,4,8} plus the T-Man baseline).  This module
runs them once per (preset, seed) and caches the results so each figure
module — and each benchmark — can render its view without re-simulating.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..runtime.dispatch import ExecOptions, execute_scenarios
from .presets import ScalePreset, get_preset
from .scenario import ScenarioConfig, ScenarioResult

DEFAULT_KS = (2, 4, 8)

_CACHE: Dict[tuple, Dict[str, ScenarioResult]] = {}


def snapshot_rounds_for(preset: ScalePreset) -> Tuple[int, ...]:
    """The rounds the paper photographs: initial, converged, repair
    started (failure+2), repair completed (failure+8), post-reinjection
    (+25), and final."""
    fr = preset.failure_round
    rr = preset.reinjection_round
    return (
        0,
        fr - 1,
        fr + 2,
        fr + 8,
        min(rr + 25, preset.total_rounds - 1),
        preset.total_rounds - 1,
    )


def scenario_name(protocol: str, replication: int = 0) -> str:
    if protocol == "tman":
        return "TMan"
    return f"Polystyrene_K{replication}"


def run_comparison(
    preset: Optional[ScalePreset] = None,
    ks: Tuple[int, ...] = DEFAULT_KS,
    include_tman: bool = True,
    seed: int = 0,
    use_cache: bool = True,
    options: ExecOptions = ExecOptions(),
) -> Dict[str, ScenarioResult]:
    """Run (or fetch) the full evaluation scenario for every
    configuration; returns ``{name: ScenarioResult}``.

    ``options`` says how the (independent) runs execute
    (:class:`~repro.runtime.dispatch.ExecOptions`).  With ``fork`` the
    four runs here share no prefix with each other (K and the protocol
    shape Phase 1), but a *second* figure rendered later — even in a
    fresh process — restores their Phase 1 from the persistent
    checkpoint cache instead of re-converging.  Only ``engine`` changes
    a result, so only it is part of the in-process cache key."""
    preset = preset or get_preset()
    key = (preset.name, tuple(ks), include_tman, seed, options.engine or "event")
    if use_cache and key in _CACHE:
        return _CACHE[key]

    snapshots = snapshot_rounds_for(preset)
    names = [scenario_name("polystyrene", k) for k in ks]
    configs = [
        ScenarioConfig.from_preset(
            preset,
            protocol="polystyrene",
            replication=k,
            seed=seed,
            snapshot_rounds=snapshots,
        )
        for k in ks
    ]
    if include_tman:
        names.append(scenario_name("tman"))
        configs.append(
            ScenarioConfig.from_preset(
                preset, protocol="tman", seed=seed, snapshot_rounds=snapshots
            )
        )

    runs = execute_scenarios(configs, options)
    results: Dict[str, ScenarioResult] = dict(zip(names, runs))

    if use_cache:
        _CACHE[key] = results
    return results


def clear_cache() -> None:
    """Drop all cached suite runs (mainly for tests)."""
    _CACHE.clear()
