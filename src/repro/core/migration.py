"""Migration: pairwise data-point exchange (Algorithm 3).

Each round, each node p picks a partner q among its ψ closest T-Man
neighbours plus one random peer from RPS, pools both guest sets, and
re-partitions the pool with the configured SPLIT function.  This is the
decentralised k-means step that lets surviving nodes flow back over the
emptied region of the shape — and, because the pool is a set union
keyed on point ids, it simultaneously de-duplicates the redundant
copies created by recovery.

Message accounting (paper units — 1 id = 1 coordinate = 1 unit):
q first ships its whole guest set to p (the *pull*, one coordinate
tuple per point); after the split, p ships back q's new guests (the
*push*), minus the points q already held, which travel as bare ids.
Each direction carries one sender id.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..obs import metrics as obs_metrics
from ..sim.engine import Simulation
from ..sim.network import SimNode
from ..sim.placement import PlacementStore
from ..types import DataPoint, NodeId, PointId
from .config import PolystyreneConfig
from .split import SplitFunction


class MigrationManager:
    """Executes Algorithm 3 for one initiating node, on the guest rows of
    a :class:`~repro.sim.placement.PlacementStore`; ``points`` resolves
    the ids the rows hold to the points SPLIT partitions."""

    def __init__(
        self,
        config: PolystyreneConfig,
        split: SplitFunction,
        store: PlacementStore,
        points: Dict[PointId, DataPoint],
        layer_name: str = "polystyrene",
    ) -> None:
        self.config = config
        self.split = split
        self.store = store
        self.points = points
        self.layer_name = layer_name

    def select_partner(
        self, sim: Simulation, node: SimNode, rps, tman
    ) -> Optional[NodeId]:
        """Lines 1-3: ψ closest T-Man neighbours plus one RPS peer."""
        rng = sim.rng_for(self.layer_name)
        candidates = tman.neighbors(sim, node, self.config.psi)
        candidates += rps.sample(
            sim, node, 1, exclude=tuple(candidates) + (node.nid,)
        )
        candidates = [c for c in candidates if sim.network.is_alive(c)]
        if not candidates:
            return None
        return rng.choice(candidates)

    def exchange(self, sim: Simulation, node: SimNode, partner: SimNode) -> None:
        """Lines 4-7: pull-push exchange and split."""
        store = self.store
        guests_p = store.guests(node.row)
        guests_q = store.guests(partner.row)
        coord_dim = sim.space.dim if sim.space.dim is not None else 1
        # Line 4 (pull): q ships its guests to p.
        sim.meter.charge_points(self.layer_name, len(guests_q), coord_dim)
        sim.meter.charge_ids(self.layer_name, 1)
        # The pool lists q's guests, then p's not already in it: the
        # union keyed on pid de-duplicates.
        points = self.points
        pool = [points[pid] for pid in dict.fromkeys(guests_q + guests_p)]
        # Line 5: SPLIT.
        points_p, points_q = self.split(sim.space, pool, node.pos, partner.pos)
        # Lines 6-7: install the new partition (a row the split left as
        # it was is not rewritten).
        for row, before, after in (
            (node.row, guests_p, points_p),
            (partner.row, guests_q, points_q),
        ):
            pids = [point.pid for point in after]
            if pids != before:
                store.set_guests(row, pids)
        # Push: only points q did not already hold travel with
        # coordinates; retained points are confirmed by bare id.
        old_q_pids = set(guests_q)
        new_to_q = sum(1 for point in points_q if point.pid not in old_q_pids)
        kept_by_q = len(points_q) - new_to_q
        sim.meter.charge_points(self.layer_name, new_to_q, coord_dim)
        sim.meter.charge_ids(self.layer_name, kept_by_q + 1)
        obs_metrics.count("exchanges.migration")

    def step_node(self, sim: Simulation, node: SimNode, rps, tman) -> bool:
        """One full migration attempt; returns whether an exchange ran."""
        partner_id = self.select_partner(sim, node, rps, tman)
        if partner_id is None:
            return False
        self.exchange(sim, node, sim.network.node(partner_id))
        return True
