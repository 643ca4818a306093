"""Greedy geographic routing over the constructed overlay.

The paper's introduction motivates shape preservation by its effect on
routing: overlays "often rel[y] on a uniform distribution of nodes
along the topology" for routing efficiency (Sec. I).  This module makes
that claim measurable: classic greedy routing (as in CAN) forwards a
message to the view neighbour closest to the target coordinate, and
fails when it reaches a local minimum — which is exactly what happens
at the rim of the hole a catastrophic failure tears into the shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..spaces.base import Space
from ..types import Coord, NodeId


@dataclass
class RouteResult:
    """Outcome of one greedy route."""

    #: The route *delivered*: it stopped within ``tolerance`` of the
    #: target coordinate.
    success: bool
    hops: int
    #: Node ids visited, origin first.
    path: List[NodeId] = field(default_factory=list)
    #: Distance between the final node and the target.
    final_distance: float = float("inf")
    #: Why the route ended: "delivered", "local-minimum" or "max-hops".
    reason: str = ""


def greedy_route(
    sim: Simulation,
    space: Space,
    start: SimNode,
    target: Coord,
    tolerance: float = 1.0,
    max_hops: Optional[int] = None,
) -> RouteResult:
    """Route greedily from ``start`` towards ``target``.

    At each hop the message moves to the alive view neighbour strictly
    closer to the target than the current node — the closest one, ties
    to the lowest id, so the route does not depend on the order a view
    stores its entries in; it stops with success
    as soon as some node within ``tolerance`` of the target is reached,
    and with failure on a local minimum (no closer neighbour) or after
    ``max_hops`` hops (default: network size, i.e. effectively
    unbounded).
    """
    if max_hops is None:
        max_hops = sim.network.n_alive
    # Batch-engine simulations keep views in array state; materialise
    # them onto the nodes once so the hop walk below reads fresh views.
    sync = getattr(sim, "sync_canonical", None)
    if sync is not None:
        sync()
    current = start
    current_dist = space.distance(current.pos, target)
    path = [current.nid]
    alive = sim.network.alive_view()
    for hop in range(max_hops):
        if current_dist <= tolerance:
            return RouteResult(True, hop, path, current_dist, "delivered")
        view = getattr(current, "tman_view", None) or {}
        best_id: Optional[NodeId] = None
        best_dist = current_dist
        for nid in view:
            if nid not in alive:
                continue
            dist = space.distance(sim.network.node(nid).pos, target)
            if dist < best_dist or (
                dist == best_dist and best_id is not None and nid < best_id
            ):
                best_dist = dist
                best_id = nid
        if best_id is None:
            return RouteResult(False, hop, path, current_dist, "local-minimum")
        current = sim.network.node(best_id)
        current_dist = best_dist
        path.append(best_id)
    if current_dist <= tolerance:
        return RouteResult(True, max_hops, path, current_dist, "delivered")
    return RouteResult(False, max_hops, path, current_dist, "max-hops")
