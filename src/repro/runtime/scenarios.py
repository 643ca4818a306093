"""Churn-schedule generators: workloads beyond the paper's fixed script.

The paper's evaluation uses exactly one failure pattern (half the torus
crashes at round 20, fresh nodes reinjected at round 100).  This module
generalises that into composable *schedules* — lists of
``(round, event)`` pairs built from the primitives in
:mod:`repro.sim.failures` and :mod:`repro.sim.reinjection`:

* :func:`catastrophic` — the paper's correlated half-space crash;
* :func:`correlated_region` — a metric ball dies (rack / datacenter /
  geographic-zone outage);
* :func:`trickle` — steady background churn over a window;
* :func:`flash_crowd` — a burst of fresh point-less nodes joining at
  once;
* :func:`mass_failure` — time-correlated but spatially uniform crashes.

Schedules compose (:func:`compose`), install onto any simulation
(:meth:`ChurnSchedule.install`), and are picklable, so a scheduled run
can be checkpointed to disk and fanned out through the parallel runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Tuple

from ..errors import ConfigurationError
from ..sim.engine import Event, Simulation
from ..sim.failures import (
    BallPredicate,
    ChurnProcess,
    RandomFailure,
    RegionFailure,
    half_space_failure,
)
from ..sim.reinjection import Reinjection
from ..types import Coord


@dataclass
class ChurnSchedule:
    """A named list of scheduled events, sorted by round."""

    name: str
    events: List[Tuple[int, Event]] = field(default_factory=list)
    description: str = ""

    def add(self, rnd: int, event: Event) -> "ChurnSchedule":
        if rnd < 0:
            raise ConfigurationError("schedule rounds must be non-negative")
        self.events.append((int(rnd), event))
        self.events.sort(key=lambda pair: pair[0])
        return self

    def install(self, sim: Simulation) -> None:
        """Schedule every event onto a simulation."""
        for rnd, event in self.events:
            sim.schedule(rnd, event)

    @property
    def first_round(self) -> int:
        return self.events[0][0] if self.events else 0

    @property
    def last_round(self) -> int:
        return self.events[-1][0] if self.events else 0

    def __len__(self) -> int:
        return len(self.events)


def catastrophic(
    rnd: int, threshold: float, axis: int = 0, keep_upper: bool = True
) -> ChurnSchedule:
    """The paper's correlated catastrophe: one half-space dies at once."""
    schedule = ChurnSchedule(
        name="catastrophic",
        description=f"half-space cut at round {rnd} (axis {axis} < {threshold})",
    )
    return schedule.add(rnd, half_space_failure(axis, threshold, keep_upper))


def correlated_region(
    space, rnd: int, center: Coord, radius: float
) -> ChurnSchedule:
    """Every node within ``radius`` of ``center`` crashes at once — the
    rack/datacenter outage shape of correlated failure."""
    if radius < 0:
        raise ConfigurationError("region radius must be non-negative")
    schedule = ChurnSchedule(
        name="correlated-region",
        description=(
            f"ball outage at round {rnd} (center {tuple(center)}, "
            f"radius {radius})"
        ),
    )
    return schedule.add(rnd, RegionFailure(BallPredicate(space, center, radius)))


def trickle(
    first_round: int, last_round: int, rate: float, seed_key: str = "trickle"
) -> ChurnSchedule:
    """Steady background churn: each round in the window, each alive
    node crashes independently with probability ``rate``."""
    if last_round < first_round:
        raise ConfigurationError("trickle window must not be empty")
    process = ChurnProcess(rate, seed_key=seed_key)
    schedule = ChurnSchedule(
        name="trickle",
        description=(
            f"{rate:.2%} churn per round over rounds "
            f"[{first_round}, {last_round}]"
        ),
    )
    for rnd in range(first_round, last_round + 1):
        schedule.add(rnd, process.apply)
    return schedule


def flash_crowd(rnd: int, positions: Iterable[Coord]) -> ChurnSchedule:
    """A burst of fresh point-less nodes all joining in one round."""
    event = Reinjection(positions)  # materialises an iterator, once
    schedule = ChurnSchedule(
        name="flash-crowd",
        description=f"{len(event.positions)} fresh nodes join at round {rnd}",
    )
    return schedule.add(rnd, event)


def mass_failure(
    rnd: int, fraction: float, seed_key: str = "mass-failure"
) -> ChurnSchedule:
    """A uniformly random ``fraction`` of nodes crashes at once —
    time-correlated but spatially uncorrelated (what replication alone
    already survives)."""
    schedule = ChurnSchedule(
        name="mass-failure",
        description=f"{fraction:.0%} uniform crash at round {rnd}",
    )
    return schedule.add(rnd, RandomFailure(fraction, seed_key=seed_key))


def compose(*schedules: ChurnSchedule, name: str = "composite") -> ChurnSchedule:
    """Merge schedules into one (events stay sorted by round).

    Composition is how new workloads are built from the primitives: a
    trickle of churn *plus* a datacenter outage *plus* a flash crowd of
    replacements is one :class:`ChurnSchedule`.
    """
    merged = ChurnSchedule(
        name=name,
        description="; ".join(
            s.description or s.name for s in schedules if len(s)
        ),
    )
    for schedule in schedules:
        for rnd, event in schedule.events:
            merged.add(rnd, event)
    return merged
