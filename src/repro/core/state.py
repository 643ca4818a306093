"""Per-node Polystyrene state (Table I of the paper).

Each node keeps:

* ``guests`` — the data points it is the *primary holder* of;
* ``pos`` is stored on the :class:`~repro.sim.network.SimNode` itself
  (it is the value the topology layer reads);
* ``ghosts`` — deactivated point copies replicated to this node, keyed
  by their origin node (``p.ghosts[q]`` is the state q pushed to p);
* ``backups`` — the nodes this node has replicated its own guests to.

``backup_sent`` additionally remembers the exact point-id set last
pushed to each backup node, enabling the incremental-delta optimisation
the paper suggests after Algorithm 1.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from ..types import DataPoint, NodeId, PointId


class PolystyreneState:
    """The four local variables of Table I, plus delta bookkeeping.

    ``_proj_points``/``_proj_pos`` memoise the projection of the current
    guest set (see :mod:`repro.core.projection`): the projection is a
    pure function of the ordered guest points, and in a converged system
    most rounds leave most guest sets untouched, so the per-round
    re-projection pass is usually a cache hit instead of a medoid
    computation.  The cache never changes results — it is keyed on the
    identical ordered point objects.
    """

    __slots__ = ("guests", "ghosts", "backups", "backup_sent", "_proj_points", "_proj_pos")

    def __init__(self, initial_guests: Iterable[DataPoint] = ()) -> None:
        self.guests: Dict[PointId, DataPoint] = {
            point.pid: point for point in initial_guests
        }
        self.ghosts: Dict[NodeId, Dict[PointId, DataPoint]] = {}
        self.backups: Set[NodeId] = set()
        self.backup_sent: Dict[NodeId, FrozenSet[PointId]] = {}
        self._proj_points: list = []
        self._proj_pos = None

    # -- guests ------------------------------------------------------------

    def guest_points(self) -> List[DataPoint]:
        return list(self.guests.values())

    def add_guests(self, points: Iterable[DataPoint]) -> None:
        for point in points:
            self.guests[point.pid] = point

    def set_guests(self, points: Iterable[DataPoint]) -> None:
        self.guests = {point.pid: point for point in points}

    @property
    def n_guests(self) -> int:
        return len(self.guests)

    # -- ghosts ------------------------------------------------------------

    @property
    def n_ghosts(self) -> int:
        return sum(len(points) for points in self.ghosts.values())

    @property
    def storage_load(self) -> int:
        """Total stored data points (guests + ghosts) — the memory
        metric of Fig. 7a."""
        return self.n_guests + self.n_ghosts

    def ghost_origins(self) -> List[NodeId]:
        """Nodes that have replicated state to this node
        (``keys(p.ghosts)`` in the paper's notation)."""
        return list(self.ghosts.keys())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PolystyreneState(guests={self.n_guests}, ghosts={self.n_ghosts}, "
            f"backups={len(self.backups)})"
        )


# -- node-sequence reads ------------------------------------------------------
#
# What the metrics need from a sequence of nodes carrying ``poly`` (the
# event engine, detached test nodes, a synced batch simulation) — the
# definitions the batch engine's ``PlacementStore`` reads of the same
# names are tested against.  Nodes without state count as holding
# nothing — unless their table says the state is in arrays, where
# "nothing" would be a silently wrong answer.


def state_of(node) -> Optional["PolystyreneState"]:
    """``node.poly``, or ``None`` for a node no protocol layer gave
    placement state.  Raises for a node of a batch simulation that has
    not been synced: its state is in ``sim.placement``."""
    state = getattr(node, "poly", None)
    if state is None and getattr(
        getattr(node, "_table", None), "placement_in_arrays", False
    ):
        raise SimulationError(
            f"node {node.nid} has no `poly`: this simulation keeps placement "
            "state in arrays — pass `sim.placement` to the metric, or call "
            "`sim.sync_canonical()` first"
        )
    return state


def _states(nodes: Sequence) -> Iterable[Tuple[object, "PolystyreneState"]]:
    for node in nodes:
        state = state_of(node)
        if state is not None:
            yield node, state


def holder_pairs(nodes: Sequence) -> Tuple[List[PointId], List]:
    """``(pids, holders)`` of every guest entry, flat: the inverse image
    ``guests⁻¹``, one pair per (point, node holding it as a guest)."""
    pids: List[PointId] = []
    holders: List = []
    for node, state in _states(nodes):
        pids.extend(state.guests)
        holders.extend([node] * len(state.guests))
    return pids, holders


def stored_points(nodes: Sequence) -> int:
    """Guests plus ghost copies stored across ``nodes`` (Fig. 7a)."""
    return sum(
        len(state.guests) + sum(map(len, state.ghosts.values()))
        for _, state in _states(nodes)
    )


def held_point_ids(nodes: Sequence) -> Set[PointId]:
    """Ids of the points some node of ``nodes`` holds, guest or ghost."""
    held: Set[PointId] = set()
    for _, state in _states(nodes):
        held.update(state.guests)
        for ghost in state.ghosts.values():
            held.update(ghost)
    return held
