"""Network-wide routing-quality evaluation.

Samples (source node, target coordinate) pairs and reports delivery
rate and path length.  Routing *to the original data points* is the
application-level view of homogeneity: a key is reachable only if some
node still sits near it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..sim.engine import Simulation
from ..spaces.base import Space
from ..types import Coord, DataPoint
from .greedy import greedy_route


@dataclass
class RoutingQuality:
    """Aggregate routing statistics over a sample of routes."""

    delivery_rate: float
    mean_hops_delivered: float
    local_minimum_rate: float
    n_routes: int


def evaluate_routing(
    sim: Simulation,
    space: Space,
    targets: Sequence[Coord],
    n_routes: int = 100,
    tolerance: float = 1.0,
    rng: Optional[random.Random] = None,
    max_hops: Optional[int] = None,
) -> RoutingQuality:
    """Route ``n_routes`` messages from random alive sources to random
    targets and aggregate the outcomes."""
    if not targets:
        raise ValueError("evaluate_routing needs at least one target")
    rng = rng or random.Random(0)
    alive = sim.network.alive_nodes()
    if not alive:
        raise ValueError("routing is undefined on an empty network")
    delivered = 0
    stuck = 0
    hops: List[int] = []
    for _ in range(n_routes):
        source = rng.choice(alive)
        target = rng.choice(targets)
        result = greedy_route(
            sim, space, source, target, tolerance=tolerance, max_hops=max_hops
        )
        if result.success:
            delivered += 1
            hops.append(result.hops)
        elif result.reason == "local-minimum":
            stuck += 1
    return RoutingQuality(
        delivery_rate=delivered / n_routes,
        mean_hops_delivered=sum(hops) / len(hops) if hops else float("nan"),
        local_minimum_rate=stuck / n_routes,
        n_routes=n_routes,
    )


def point_targets(points: Sequence[DataPoint]) -> List[Coord]:
    """The coordinates of the original data points, as routing targets
    (route-to-key semantics)."""
    return [point.coord for point in points]
