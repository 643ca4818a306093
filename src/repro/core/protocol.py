"""The Polystyrene layer: glue for the four mechanisms.

Executes on top of a topology construction layer (T-Man here), per
round and per node (Fig. 4):

1.  *Projection* feeds the node's position to T-Man — implemented by
    rewriting ``node.pos``, which the T-Man layer reads next round and
    which migration partners see immediately.
2.  *Backup* keeps K replicas of the guest set alive (Algorithm 1).
3.  *Recovery* reactivates ghosts of failed origins (Algorithm 2).
4.  *Migration* re-partitions points pairwise (Algorithm 3 + SPLIT).

The in-round execution order follows the paper's prose (Sec. III-B):
recovery first (reactivated points must be re-replicated the same
round — the "eager backup" that causes the Fig. 7a storage spike),
then backup, then migration, then a projection pass so every node
advertises a position consistent with its final guest set.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..gossip.rps import PeerSamplingLayer
from ..gossip.tman import TManLayer
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..sim.placement import PlacementStore
from ..spaces.base import Space
from ..types import Coord, DataPoint, NodeId, PointId
from .backup import BackupManager
from .config import PolystyreneConfig
from .migration import MigrationManager
from .projection import make_projection
from .recovery import recover_node
from .split import make_split


def _hold_initial_point(store: PlacementStore, sim: Simulation, node: SimNode):
    """Hand ``node`` its store row, holding its initial point if any;
    returns the remap of a row renumbering the store followed on the
    way (:meth:`PlacementStore.ensure_rows`), or ``None``."""
    point = node.initial_point
    remap = store.ensure_rows(sim.network.table)
    store.reset_row(node.row, node.nid, -1 if point is None else point.pid)
    return remap


class PolystyreneLayer:
    """The paper's contribution, as a pluggable simulation layer.

    Placement — guests, ghosts, backups — lives in :attr:`placement`,
    the row store the batch engine keeps too.  Beside it the layer keeps
    :attr:`points` (what the rows' ids resolve to), :attr:`pushed_by`
    (per target row, its copies' origins in first-push order — the
    event engine's recovery order, which the batch engine defines as
    ascending id instead, so it lives here and not in the store) and a
    projection memo.
    """

    name = "polystyrene"

    def __init__(
        self,
        space: Space,
        config: PolystyreneConfig,
        rps: PeerSamplingLayer,
        tman: "TManLayer",
    ) -> None:
        # ``tman`` may be any topology construction layer exposing
        # ``neighbors(sim, node, k)`` — T-Man in the paper's evaluation,
        # Vicinity as the alternative (Polystyrene is an add-on over
        # *any* such protocol, Sec. II-C).
        self.space = space
        self.config = config
        self.rps = rps
        self.tman = tman
        self.projection = make_projection(config.projection)
        self.split = make_split(config.split)
        self.placement = PlacementStore(config.replication)
        self.points: Dict[PointId, DataPoint] = {}
        self.pushed_by: Dict[int, Dict[NodeId, int]] = {}
        #: Per row, the guest ids last projected and the position they
        #: gave: the projection is a pure function of the ordered guest
        #: points, and in a converged system most rounds leave most
        #: guest rows untouched, so the per-round re-projection pass is
        #: usually a lookup instead of a medoid computation.
        self._projected: Dict[int, Tuple[List[int], Coord]] = {}
        self.backup_manager = BackupManager(
            config, self.placement, self.pushed_by, self.name
        )
        self.migration_manager = MigrationManager(
            config, self.split, self.placement, self.points, self.name
        )

    # -- per-node state ----------------------------------------------------

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        remap = _hold_initial_point(self.placement, sim, node)
        if remap is not None:
            self._renumber(remap.tolist())
        self.pushed_by.pop(node.row, None)
        self._projected.pop(node.row, None)
        point = node.initial_point
        if point is not None:
            self.points[point.pid] = point
            node.pos = point.coord

    def _renumber(self, new: List[int]) -> None:
        """Follow a renumbering of table rows (``new[old row]``, ``-1``
        for a reclaimed row): the rows :attr:`pushed_by` and the
        projection memo are keyed by, and the origin rows
        :attr:`pushed_by` holds; entries on reclaimed rows go with them.
        ``pushed_by`` is shared with the backup manager, so it changes in
        place."""
        pushed_by = {
            new[target]: {o: new[r] for o, r in origins.items() if new[r] >= 0}
            for target, origins in self.pushed_by.items()
            if new[target] >= 0
        }
        self.pushed_by.clear()
        self.pushed_by.update(pushed_by)
        self._projected = {
            new[row]: memo for row, memo in self._projected.items() if new[row] >= 0
        }

    # -- the data a node holds ------------------------------------------------

    def guest_points(self, node: SimNode) -> List[DataPoint]:
        """``node``'s guest points, in guest order."""
        return [self.points[pid] for pid in self.placement.guests(node.row)]

    def add_guests(self, node: SimNode, points: Sequence[DataPoint]) -> None:
        """Give ``node`` more data points to hold — a shape that keeps
        evolving as the protocol runs (Sec. III-A, footnote 1).  Ids it
        already holds keep their place; backup replicates the rest from
        the next round on."""
        for point in points:
            self.points[point.pid] = point
        pids = self.placement.guests(node.row) + [point.pid for point in points]
        self.placement.set_guests(node.row, list(dict.fromkeys(pids)))

    def _project(self, node: SimNode) -> Coord:
        """Step 1: the position ``node``'s guest row projects to."""
        pids = self.placement.guests(node.row)
        if not pids:
            return node.pos
        memo = self._projected.get(node.row)
        if memo is None or memo[0] != pids:
            points = [self.points[pid] for pid in pids]
            memo = (pids, self.projection(self.space, points, node.pos))
            self._projected[node.row] = memo
        return memo[1]

    # -- one protocol round --------------------------------------------------

    def step(self, sim: Simulation) -> None:
        network = sim.network
        # Step 3 — recovery of ghosts whose origin failed.
        for nid in sim.shuffled_alive(self.name):
            if network.is_alive(nid):
                node = network.node(nid)
                recover_node(sim, node, self.placement, self.pushed_by.get(node.row))
        # Step 2 — backup repair + (incremental) pushes.
        for nid in sim.shuffled_alive(self.name):
            if network.is_alive(nid):
                self.backup_manager.step_node(
                    sim, network.node(nid), self.rps, self.tman
                )
        # Step 4 — pairwise migration; both participants re-project
        # immediately so later exchanges this round see fresh positions.
        for nid in sim.shuffled_alive(self.name):
            if not network.is_alive(nid):
                continue
            node = network.node(nid)
            partner_id = self.migration_manager.select_partner(
                sim, node, self.rps, self.tman
            )
            if partner_id is None:
                continue
            partner = network.node(partner_id)
            self.migration_manager.exchange(sim, node, partner)
            node.pos = self._project(node)
            partner.pos = self._project(partner)
        # Step 1 — final projection pass (covers nodes whose guests
        # changed through recovery only).
        for node in network.alive_nodes():
            node.pos = self._project(node)


class StaticHolderLayer:
    """Baseline adapter for T-Man-alone runs.

    Gives every node the placement Polystyrene starts from (a guest row
    holding its own original point, no ghosts, no backups) but never
    migrates, replicates or re-projects anything.  This is the paper's
    "T-Man" configuration: the metrics treat "a node's position [as] the
    single data point contained by this node" (Sec. IV-A).
    """

    name = "static-holder"

    def __init__(self) -> None:
        self.placement = PlacementStore(0)

    def init_node(self, sim: Simulation, node: SimNode) -> None:
        _hold_initial_point(self.placement, sim, node)

    def step(self, sim: Simulation) -> None:
        return None
