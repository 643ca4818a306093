"""Reinjection of fresh nodes (Sec. IV-A, Phase 3).

Reinjected nodes carry *no data point*: "we re-inject 1600 fresh nodes,
containing no data point, but with their pos parameters initialized.
These new nodes are positioned uniformly on the torus, on a grid
parallel to the original one."  Under Polystyrene the migration step
then streams guest points onto them; under plain T-Man they stay where
they were dropped.
"""

from __future__ import annotations

from typing import Iterable, List

from ..types import Coord
from .engine import Event, Simulation
from .network import SimNode


def spawn_fresh_nodes(sim: Simulation, positions: Iterable[Coord]) -> List[SimNode]:
    """Immediately spawn one fresh point-less node per position.

    The count is known, so capacity is reserved once and exactly; the
    nodes still join one at a time (every layer's ``init_node`` draws
    from its own stream per node)."""
    positions = [tuple(p) for p in positions]
    sim.network.reserve(len(positions))
    return [sim.spawn_node(pos, initial_point=None) for pos in positions]


class Reinjection:
    """Picklable event spawning one fresh, point-less node per position."""

    def __init__(self, positions: Iterable[Coord]) -> None:
        self.positions: List[Coord] = [tuple(p) for p in positions]

    def __call__(self, sim: Simulation) -> None:
        spawn_fresh_nodes(sim, self.positions)


def reinjection(positions: Iterable[Coord]) -> Event:
    """Event spawning one fresh, point-less node per position."""
    return Reinjection(positions)
