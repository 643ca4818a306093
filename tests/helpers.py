"""Shared test utilities: stub layers and mini-simulation builders."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.points import PointFactory
from repro.gossip.ranking import rank_order
from repro.sim.arrays import ViewStore
from repro.sim.engine import Simulation
from repro.sim.network import Network, SimNode
from repro.sim.placement import PlacementStore
from repro.spaces.base import Space
from repro.types import Coord, NodeId


def sum_sq_distances(space: Space, origin: Coord, coords: Sequence[Coord]) -> float:
    """The medoid oracle's cost: the sum of the scalar squared
    distances from ``origin`` to every coordinate (``medoid_index`` must
    pick a point of least cost)."""
    return float(sum(space.distance_sq(origin, c) for c in coords))


class NullLayer:
    """A layer that does nothing (placeholder in layer stacks)."""

    def __init__(self, name: str = "null") -> None:
        self.name = name

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        return None

    def step(self, sim: Simulation) -> None:
        return None


class StubRPS(ViewStore):
    """Deterministic peer-sampling stand-in.

    ``sample`` returns the lowest alive node ids not excluded — fully
    predictable, which unit tests of backup/migration rely on.  Its
    views are rows of a peer-sampling :class:`~repro.sim.arrays.ViewStore`
    that stay empty.
    """

    name = "rps"
    canonical_attr = "rps_view"
    family = "rps_views"

    def __init__(self, width: int = 1) -> None:
        self._init_views(width, ages=True)

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        self._ensure_rows(sim.network.table)
        self._put(node.row, [], [])

    def step(self, sim: Simulation) -> None:
        return None

    def sample(self, sim, node, k=1, exclude=()):
        excluded = set(exclude) | {node.nid}
        picked = []
        for nid in sorted(sim.network.alive_ids()):
            if nid not in excluded:
                picked.append(nid)
            if len(picked) == k:
                break
        return picked


class StubTMan(ViewStore):
    """Topology stand-in: neighbours are the true k-closest alive nodes
    (an oracle T-Man that has already converged).  Its views are rows of
    a :class:`~repro.sim.arrays.ViewStore`, empty unless a test writes
    them (:func:`set_view`)."""

    name = "tman"

    def __init__(self, space: Space, width: int = 8) -> None:
        self.space = space
        self._init_views(width)

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        self._ensure_rows(sim.network.table)
        self._put(node.row, [])

    def step(self, sim: Simulation) -> None:
        return None

    def neighbors(self, sim: Simulation, node: SimNode, k: int):
        others = [n for n in sim.network.alive_nodes() if n.nid != node.nid]
        if not others:
            return []
        dists = self.space.distance_block(
            node.pos, self.space.pack_batch([n.pos for n in others])
        )
        order = sorted(range(len(others)), key=lambda i: (dists[i], others[i].nid))
        return [others[i].nid for i in order[:k]]


def view_of(sim: Simulation, node: SimNode) -> List[NodeId]:
    """The ids of ``node``'s topology view, in slot order."""
    return sim.topology.row_ids(node.row).tolist()


def set_view(sim: Simulation, node: SimNode, ids: Iterable[NodeId]) -> None:
    """Make ``ids`` ``node``'s whole topology view (ages 0, not ranked),
    as a layer's bootstrap would."""
    topo = sim.topology
    topo._ensure_rows(sim.network.table)
    ids = list(ids)
    topo._put(node.row, ids, None if topo._ages is None else [0] * len(ids))
    if topo._ranked_at is not None:
        topo._ranked_at[node.row] = -1


def rank_entries(
    space: Space,
    origin: Coord,
    entries: Dict[NodeId, Coord],
    limit: Optional[int] = None,
) -> List[NodeId]:
    """Oracle ranking: node ids from ``entries`` sorted by distance of
    their recorded coordinate to ``origin``, closest first, ties broken
    by id, optionally truncated."""
    if not entries:
        return []
    ids = list(entries.keys())
    coords = space.pack_batch([entries[nid] for nid in ids])
    return [ids[i] for i in rank_order(space, origin, ids, coords, limit)]


def make_sim(
    space: Space,
    coords: Sequence[Coord],
    layers: Optional[List] = None,
    seed: int = 0,
    with_points: bool = True,
):
    """Build a Simulation over nodes placed at ``coords``.

    Returns ``(sim, factory, points)``; with ``with_points`` each node
    gets an initial data point at its coordinate.
    """
    factory = PointFactory()
    network = Network()
    points = []
    for coord in coords:
        point = factory.create(coord) if with_points else None
        if point is not None:
            points.append(point)
        network.add_node(tuple(coord), point)
    sim = Simulation(space, network, layers or [NullLayer()], seed=seed)
    sim.init_all_nodes()
    return sim, factory, points


def grid_coords(width: int, height: int, step: float = 1.0):
    return [
        (x * step, y * step) for x in range(width) for y in range(height)
    ]


# -- placement reads and hand-built stores -----------------------------------


def guests_of(sim: Simulation, node: SimNode) -> List[int]:
    """``node``'s guest ids, in order."""
    return sim.placement.guests(node.row)


def backups_of(sim: Simulation, node: SimNode) -> Set[int]:
    ids = sim.placement.backup_ids[node.row]
    return set(ids[ids >= 0].tolist())


def ghosts_of(sim: Simulation, node: SimNode) -> Dict[int, List[int]]:
    """``{origin id: copy}`` of the copies ``node`` holds (ascending
    origin row)."""
    store = sim.placement
    o_rows, slots, targets = store.copies(sim.network.table)
    return {
        int(store.owner[o]): store.copy(o, s)
        for o, s, t in zip(o_rows.tolist(), slots.tolist(), targets.tolist())
        if t == node.row
    }


def placed_nodes(
    coords: Sequence[Coord],
    guests: Sequence[Sequence[int]] = (),
    copies: Sequence[Tuple[int, int, Sequence[int]]] = (),
    network: Optional[Network] = None,
):
    """``(nodes, store)``: table-backed nodes at ``coords`` (added to
    ``network``, a fresh one by default) and the placement store the
    metrics read, node ``i`` holding the guest ids ``guests[i]``; each
    ``(origin, holder, pids)`` of ``copies`` is a copy node ``origin``
    pushed to node ``holder`` (indices)."""
    network = Network() if network is None else network
    nodes = [network.add_node(coord) for coord in coords]
    store = PlacementStore(max(1, len(copies)))
    store.ensure_rows(network.table)
    for node in nodes:
        store.reset_row(node.row, node.nid)
    for node, pids in zip(nodes, guests):
        store.set_guests(node.row, list(pids))
    for slot, (origin, holder, pids) in enumerate(copies):
        store.backup_ids[nodes[origin].row, slot] = nodes[holder].nid
        store.set_copy(nodes[origin].row, slot, list(pids))
    return nodes, store
