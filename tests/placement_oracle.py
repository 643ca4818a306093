"""The dict walk, kept as the oracle of the array placement store.

This is ``repro.sim.batch.protocol.BatchPolystyrene`` as it stood on
per-node dicts (:class:`DictState`, Table I's variables as the paper
writes them), with the three orders a container would otherwise decide
made explicit (push candidates and stale origins in ascending id; a
pushed copy in its origin's guest order).  It is a drop-in layer for a
:class:`~repro.sim.batch.BatchSimulation`: same constructor, same RNG
draws, same metering — so a simulation built on it and one built on the
array layer must agree on every round (``tests/test_placement_arrays``).
Its ``placement`` (:class:`DictPlacement`) answers the reads the metrics
and the state digest make of a ``PlacementStore`` by their dict
definitions.

Not shipped: placement state has one implementation under ``src/``.
"""

from __future__ import annotations


from typing import Dict, List, Optional, Set

import numpy as np

from repro.core.config import PolystyreneConfig
from repro.errors import ConfigurationError
from repro.obs import mem as obs_mem
from repro.obs import metrics as obs_metrics
from repro.spaces.base import Space
from repro.spaces.euclidean import Euclidean
from repro.types import DataPoint, NodeId, PointId
from repro.sim.batch import split as batch_split_mod



class DictState:
    """Table I of the paper for one node: ``guests`` (pid → point, in
    insertion order), ``ghosts`` (origin → the copy it pushed here),
    ``backups`` and ``backup_sent`` (backup → the pid set last pushed)."""

    def __init__(self, initial=()) -> None:
        self.guests: Dict[PointId, DataPoint] = {p.pid: p for p in initial}
        self.ghosts: Dict[NodeId, Dict[PointId, DataPoint]] = {}
        self.backups: Set[NodeId] = set()
        self.backup_sent: Dict[NodeId, frozenset] = {}

    def add_guests(self, points) -> None:
        for point in points:
            self.guests[point.pid] = point


def summary(state: DictState) -> tuple:
    """The sorted placement summary of one node — what
    ``PlacementStore.canonical`` gives per row."""
    return (
        sorted(state.guests),
        sorted((origin, tuple(sorted(pts))) for origin, pts in state.ghosts.items()),
        sorted(state.backups),
        sorted((nid, tuple(sorted(sent))) for nid, sent in state.backup_sent.items()),
    )


class DictPlacement:
    """The ``PlacementStore`` reads, defined on the nodes' dicts: a
    node's state is ``node.poly``, a row reads its owner's."""

    network = None

    def _states(self, table, rows):
        nodes = self.network.nodes
        for nid in table._nid_of[rows].tolist():
            yield nodes[nid].poly

    def holder_pairs(self, rows: np.ndarray):
        table = self.network.table
        pids: List[int] = []
        holders: List[int] = []
        for row, state in zip(rows.tolist(), self._states(table, rows)):
            pids.extend(state.guests)
            holders.extend([row] * len(state.guests))
        return np.asarray(pids, dtype=np.int64), np.asarray(holders, dtype=np.int64)

    def _rowed(self):
        """``(row, state)`` of every node that has a row (a reclaimed
        one has none)."""
        for node in self.network.nodes.values():
            if node.row >= 0:
                yield node.row, node.poly

    @property
    def guest_n(self) -> np.ndarray:
        counts = np.zeros(self.network.table.n_rows, dtype=np.int64)
        for row, state in self._rowed():
            counts[row] = len(state.guests)
        return counts

    def copies(self, table):
        """``(origin rows, slots, target rows)`` of every ghost held on a
        row whose origin still has one (slots all 0: a dict has none)."""
        o_rows: List[int] = []
        t_rows: List[int] = []
        for row, state in self._rowed():
            for origin in state.ghosts:
                if table.row(origin) >= 0:
                    o_rows.append(table.row(origin))
                    t_rows.append(row)
        o_rows = np.asarray(o_rows, dtype=np.int64)
        return o_rows, np.zeros_like(o_rows), np.asarray(t_rows, dtype=np.int64)

    def stored_points(self, table, rows: np.ndarray) -> int:
        return sum(
            len(state.guests) + sum(map(len, state.ghosts.values()))
            for state in self._states(table, rows)
        )

    def held_mask(self, table, rows: np.ndarray, n_points: int) -> np.ndarray:
        held: Set[int] = set()
        for state in self._states(table, rows):
            held.update(state.guests)
            for ghost in state.ghosts.values():
                held.update(ghost)
        mask = np.zeros(max(n_points, max(held, default=-1) + 1), dtype=bool)
        mask[list(held)] = True
        return mask

    def canonical(self, table, blocks):
        out = [([], [], [], [])] * table.n_rows
        for row, state in self._rowed():
            out[row] = summary(state)
        for rows in blocks:
            yield [out[row] for row in rows.tolist()]


class DictPolystyrene:
    """The batch Polystyrene layer as it was on per-node dicts."""

    name = "polystyrene"

    def __init__(
        self,
        space: Space,
        config: PolystyreneConfig,
        rps,
        tman,
    ) -> None:
        if config.projection == "centroid" and not isinstance(space, Euclidean):
            raise ConfigurationError(
                "centroid projection requires a Euclidean space; "
                f"got {type(space).__name__}"
            )
        self.space = space
        self.config = config
        self.rps = rps
        self.tman = tman
        self.placement = DictPlacement()
        self._points: Dict[PointId, DataPoint] = {}
        self._point_coords = np.zeros((0, space.dim), dtype=float)
        #: Nodes whose guest set changed since their last projection.
        self._changed: Set[NodeId] = set()
        #: Nodes whose guest set changed since their last backup push.
        self._push_dirty: Set[NodeId] = set()
        #: Nodes that gained a backup this round (need a first full push).
        self._push_pending: Set[NodeId] = set()
        self._last_detected: frozenset = frozenset()
        #: Nodes that may be short of backups (``None`` = everyone,
        #: pending a lazy re-seed): backup sets only shrink in the
        #: detected-drop scan below, so between failures the per-round
        #: top-up scan touches just this set instead of every node.
        self._maybe_short: Optional[Set[NodeId]] = None

    # -- per-node state ----------------------------------------------------

    def _register_point(self, point: DataPoint) -> None:
        pid = point.pid
        if pid >= len(self._point_coords):
            grow = max(pid + 1, len(self._point_coords) * 2, 64)
            fresh = np.zeros((grow, self.space.dim), dtype=float)
            fresh[: len(self._point_coords)] = self._point_coords
            if obs_mem.ENABLED:
                obs_mem.add(
                    "protocol_points",
                    "BatchPolystyrene.point_coords",
                    fresh.nbytes - self._point_coords.nbytes,
                )
            self._point_coords = fresh
        self._points[pid] = point
        self._point_coords[pid] = point.coord

    def init_node(self, sim, node) -> None:
        initial = [node.initial_point] if node.initial_point is not None else []
        self.placement.network = sim.network
        node.poly = DictState(initial)
        if initial:
            node.pos = initial[0].coord
            self._register_point(initial[0])
        if self._maybe_short is not None:
            self._maybe_short.add(node.nid)

    def init_network(self, sim) -> None:
        for node in sim.network.alive_nodes():
            self.init_node(sim, node)

    # -- one protocol round --------------------------------------------------

    def step(self, sim) -> None:
        detected = sim.detected_failed()
        if detected:
            self._recover(sim, detected)
        self._backup(sim, detected)
        obs_metrics.count("exchanges.migration", self._migration_round(sim))
        self._project(sim)

    # -- step 3: recovery ---------------------------------------------------

    def _recover(self, sim, detected) -> None:
        network = sim.network
        nodes = network.nodes
        for nid in network.alive_ids():
            state = nodes[nid].poly
            ghosts = state.ghosts
            if not ghosts:
                continue
            stale = [
                q for q in ghosts if q in detected or q not in nodes
            ]
            for origin in sorted(stale):
                state.add_guests(ghosts[origin].values())
                del ghosts[origin]
            if stale:
                self._changed.add(nid)
                self._push_dirty.add(nid)

    # -- step 2: backup -----------------------------------------------------

    def _backup(self, sim, detected) -> None:
        network = sim.network
        table = network.table
        nodes = network.nodes
        cfg = self.config
        K = cfg.replication
        coord_dim = self.space.dim

        maybe_short = self._maybe_short
        if maybe_short is None:
            # Lazy seed (fresh layer): everyone is a top-up candidate
            # once.
            maybe_short = self._maybe_short = set(network.alive_ids())

        # Line 1: drop failed backups — only re-scanned when the
        # detector *set* changed (fresh backups are sampled alive, so a
        # static post-failure set cannot re-contaminate anyone).  The
        # cached frozenset is rebuilt per round, so compare by value.
        if detected and detected != self._last_detected:
            self._last_detected = detected
            for nid in network.alive_ids():
                state = nodes[nid].poly
                dead = [
                    b
                    for b in state.backups
                    if b in detected or b not in nodes
                ]
                for b in dead:
                    state.backups.discard(b)
                    state.backup_sent.pop(b, None)
                if dead:
                    maybe_short.add(nid)

        # Line 2: top back up to K backups, sampling candidates for all
        # short nodes in one batch.  Backup sets shrink only in the
        # drop scan above (which marks the victims), so nodes outside
        # ``maybe_short`` cannot be short; the scan keeps
        # ``alive_ids`` order for the draw alignment below.
        short: List[NodeId] = []
        if maybe_short:
            for nid in network.alive_ids():
                if nid not in maybe_short:
                    continue
                if len(nodes[nid].poly.backups) < K:
                    short.append(nid)
                else:
                    maybe_short.discard(nid)
        if short:
            rows = np.asarray([nodes[nid].row for nid in short], dtype=np.int64)
            width = max(1, max(len(nodes[nid].poly.backups) for nid in short))
            exclude = np.full((len(short), width), -1, dtype=np.int64)
            for i, nid in enumerate(short):
                for j, b in enumerate(nodes[nid].poly.backups):
                    exclude[i, j] = b
            if cfg.backup_placement == "neighbors":
                cand = self.tman.neighbors_rows(sim, rows, K + width)
            else:
                cand = self.rps.sample_rows(sim, rows, K, exclude=exclude)
            for i, nid in enumerate(short):
                state = nodes[nid].poly
                missing = K - len(state.backups)
                picked = [
                    int(b)
                    for b in cand[i]
                    if b >= 0 and b not in state.backups and b != nid
                ][:missing]
                if len(picked) < missing and cfg.backup_placement == "neighbors":
                    picked += [
                        int(b)
                        for b in self.rps.sample(
                            sim,
                            nodes[nid],
                            missing - len(picked),
                            exclude=tuple(state.backups) + tuple(picked) + (nid,),
                        )
                    ]
                if picked:
                    state.backups.update(picked)
                    self._push_pending.add(nid)
                if len(state.backups) >= K:
                    maybe_short.discard(nid)

        # Lines 3-4: push guests to backups.  With incremental deltas a
        # node whose guests did not change and whose backups all hold a
        # previous copy sends nothing — skip it without touching dicts.
        if cfg.incremental_backup:
            candidates = self._push_dirty | self._push_pending
        else:
            candidates = set(network.alive_ids())
        pts = 0
        ids_units = 0
        for nid in sorted(candidates):
            if not network.is_alive(nid):
                self._push_dirty.discard(nid)
                self._push_pending.discard(nid)
                continue
            state = nodes[nid].poly
            guest_pids = frozenset(state.guests)
            for backup_id in state.backups:
                if not network.is_alive(backup_id):
                    continue
                target = nodes[backup_id].poly
                previous = state.backup_sent.get(backup_id)
                if cfg.incremental_backup and previous is not None:
                    added = guest_pids - previous
                    removed = previous - guest_pids
                    if not added and not removed:
                        continue
                    target.ghosts[nid] = dict(state.guests)
                    pts += len(added)
                    ids_units += len(removed) + 1
                else:
                    target.ghosts[nid] = dict(state.guests)
                    pts += len(guest_pids)
                    ids_units += 1
                state.backup_sent[backup_id] = guest_pids
            self._push_dirty.discard(nid)
            self._push_pending.discard(nid)
        if pts:
            sim.meter.charge_points(self.name, pts, coord_dim)
        if ids_units:
            sim.meter.charge_ids(self.name, ids_units)

    # -- step 4: migration --------------------------------------------------

    def _migration_round(self, sim) -> int:
        """One full migration round: every alive node initiates one
        exchange (the event engine's rate), executed in dependency
        *waves* — each wave is a conflict-free matching of the pending
        proposals, split vectorised, and followed by a projection pass
        so the next wave sees moved positions.  A popular node partnered
        by many initiators therefore chains one exchange per wave,
        reproducing the event engine's intra-round point transport
        without ever re-partitioning the same guest set twice from one
        snapshot.  Returns the exchange count."""
        network = sim.network
        table = network.table
        gen = sim.rng_for(self.name)
        act = sim.alive_act_rows()
        if len(act) < 2:
            return 0
        psi = self.config.psi

        # Candidates: ψ closest alive topology entries + one RPS draw,
        # selected for all initiators from the round-start snapshot.
        neigh = self.tman.neighbors_rows(sim, act, psi)
        own = table._nid_of[act]
        exclude = np.concatenate([neigh, own[:, None]], axis=1)
        extra = self.rps.sample_rows(sim, act, 1, exclude=exclude)
        cand = np.concatenate([neigh, extra], axis=1)
        valid = cand >= 0
        run_v = np.cumsum(valid, axis=1)
        counts = run_v[:, -1]
        # Counting-based stable partition: valid candidates keep their
        # order at the front, invalid slots fill the tail — the same
        # array a stable argsort on ~valid produces, without the sort.
        col = np.arange(cand.shape[1], dtype=np.int64)
        dest = np.where(valid, run_v - 1, counts[:, None] + col - run_v)
        packed = np.empty_like(cand)
        np.put_along_axis(packed, dest, cand, axis=1)
        u = gen.random(len(act))
        j = np.minimum(
            (u * np.maximum(counts, 1)).astype(np.int64),
            np.maximum(counts - 1, 0),
        )
        partner = np.where(
            counts > 0, packed[np.arange(len(act)), j], -1
        )

        prow = table.rows_of(partner)
        perm = gen.permutation(len(act))
        act_l = act.tolist()
        prow_l = prow.tolist()
        partner_l = partner.tolist()
        pending = [
            (act_l[idx], prow_l[idx])
            for idx in perm.tolist()
            if partner_l[idx] >= 0
        ]
        total = 0
        while pending:
            taken = np.zeros(table.n_rows, dtype=bool)
            wave: List = []
            rest: List = []
            for r, q in pending:
                if taken[r] or taken[q]:
                    rest.append((r, q))
                else:
                    taken[r] = True
                    taken[q] = True
                    wave.append((r, q))
            total += self._execute_pairs(sim, wave)
            self._project(sim)
            pending = rest
        return total

    def _execute_pairs(self, sim, pairs: List) -> int:
        """Pool, split and install one wave of disjoint exchanges."""
        network = sim.network
        table = network.table
        if not pairs:
            return 0

        # Pools: q's guests first, then p's guests not already present —
        # the same key order ``dict(sq.guests) | sp.guests`` produces,
        # built as plain id lists (the split only needs coordinates).
        nid_of = table._nid_of
        nodes = network.nodes
        M = len(pairs)
        rows_p = np.asarray([r for r, _ in pairs], dtype=np.int64)
        rows_q = np.asarray([q for _, q in pairs], dtype=np.int64)
        nids_p = nid_of[rows_p].tolist()
        nids_q = nid_of[rows_q].tolist()
        pool_lists: List[List[PointId]] = []
        states = []
        nq_list = []
        disjoint = []
        for m in range(M):
            sp = nodes[nids_p[m]].poly
            sq = nodes[nids_q[m]].poly
            sqg = sq.guests
            spg = sp.guests
            pids = list(sqg)
            if spg:
                pids.extend(pid for pid in spg if pid not in sqg)
            pool_lists.append(pids)
            states.append((sp, sq))
            nq_list.append(len(sqg))
            disjoint.append(len(pids) == len(sqg) + len(spg))
        P = max(1, max(len(p) for p in pool_lists))
        pool_pids = np.zeros((M, P), dtype=np.int64)
        pool_valid = np.zeros((M, P), dtype=bool)
        for m, pids in enumerate(pool_lists):
            pool_pids[m, : len(pids)] = pids
            pool_valid[m, : len(pids)] = True
        coords = self._point_coords[pool_pids]
        if obs_mem.ENABLED:
            obs_mem.scratch(
                "protocol_pools",
                "BatchPolystyrene.wave_pool",
                pool_pids.nbytes + pool_valid.nbytes + coords.nbytes,
            )
        pos = table.coords_rows()
        side_p = batch_split_mod.batch_split(
            self.space, self.config.split, coords, pool_valid, pos[rows_p], pos[rows_q]
        )

        # Fast path, whole wave at once: by construction q's guests
        # occupy the first ``nq`` pool slots and p's the rest, so (for
        # disjoint pools — a shared pid forces the slow path to resolve
        # ownership) the split leaves both guest dicts unchanged iff no
        # q slot maps to p and no p slot maps to q.
        nq = np.asarray(nq_list, dtype=np.int64)
        q_slot = np.arange(P, dtype=np.int64)[None, :] < nq[:, None]
        p_slot = pool_valid & ~q_slot
        moved = (side_p & q_slot) | (~side_p & p_slot)
        unchanged = np.asarray(disjoint, dtype=bool) & ~moved.any(axis=1)

        # Metering: every exchange pulls q's guests to p (one id unit
        # for the request); unchanged pairs push back only q's id
        # confirmations.
        pts = int(nq.sum())
        ids_units = M + int(nq[unchanged].sum()) + int(unchanged.sum())
        points = self._points
        for m in np.flatnonzero(~unchanged).tolist():
            sp, sq = states[m]
            pids = pool_lists[m]
            mask = side_p[m].tolist()
            old_q = sq.guests
            new_p = {}
            new_q = {}
            for k, pid in enumerate(pids):
                if mask[k]:
                    new_p[pid] = points[pid]
                else:
                    new_q[pid] = points[pid]
            new_to_q = sum(1 for pid in new_q if pid not in old_q)
            pts += new_to_q
            ids_units += (len(new_q) - new_to_q) + 1
            if new_p.keys() != sp.guests.keys():
                sp.guests = new_p
                self._changed.add(nids_p[m])
                self._push_dirty.add(nids_p[m])
            if new_q.keys() != old_q.keys():
                sq.guests = new_q
                self._changed.add(nids_q[m])
                self._push_dirty.add(nids_q[m])
        sim.meter.charge_points(self.name, pts, self.space.dim)
        sim.meter.charge_ids(self.name, ids_units)
        return M

    # -- step 1: projection --------------------------------------------------

    def _project(self, sim) -> None:
        if not self._changed:
            return
        network = sim.network
        table = network.table
        nodes = network.nodes
        by_count: Dict[int, List] = {}
        for nid in self._changed:
            if not network.is_alive(nid):
                continue
            node = nodes[nid]
            pids = list(node.poly.guests)
            if not pids:
                continue  # empty guest set keeps its position
            by_count.setdefault(len(pids), []).append((node.row, pids))
        self._changed.clear()
        for g, entries in by_count.items():
            rows = np.asarray([row for row, _ in entries], dtype=np.int64)
            pid_block = np.asarray([pids for _, pids in entries], dtype=np.int64)
            coords = self._point_coords[pid_block]  # (k, g, d)
            if self.config.projection == "centroid":
                new_pos = coords.mean(axis=1)
            elif g <= 2:
                # One point is its own medoid; of two, the first wins.
                new_pos = coords[:, 0, :]
            else:
                k = len(rows)
                d = coords.shape[2]
                origins = coords.reshape(k * g, d)
                blocks = np.broadcast_to(
                    coords[:, None, :, :], (k, g, g, d)
                ).reshape(k * g, g, d)
                pair_sq = self.space.rank_sq_rows(origins, blocks).reshape(k, g, g)
                cost = pair_sq.sum(axis=2)
                best = np.argmin(cost, axis=1)
                new_pos = coords[np.arange(k), best]
            for i, row in enumerate(rows):
                table.set_coord(int(row), tuple(float(c) for c in new_pos[i]))
