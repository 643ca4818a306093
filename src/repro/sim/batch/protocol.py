"""Batch Polystyrene: the four mechanisms, whole-network per round.

Placement state — guests, backups and the copy last pushed to each
backup — lives in a :class:`~repro.sim.batch.placement.PlacementStore`
of row-indexed arrays beside the gossip layers' views (layout there).
Each mechanism is gather → kernel → scatter over it:

* **recovery** — the rows whose owner is detected (or has left the
  table) and still have a pushed copy out are found in one mask; their
  copies are appended to the alive holders' guest rows in one grouped
  keep-first pass, and the slots are cleared: an origin is activated
  exactly once, on the round it is first detected;
* **backup** — failed backups are dropped and free slots topped up
  slot-wise (candidates for all short nodes sampled in one batch); each
  dirty row then compares its guest row with the copy in every alive
  slot once: the delta is metered, the row is copied over;
* **migration** — partner candidates are the ψ closest alive topology
  entries plus one RPS draw for *all* nodes in one kernel; every alive
  node's proposal then executes in dependency *waves* (each wave a
  conflict-free matching of the still-pending proposals, drained until
  none remain), so each node initiates exactly one exchange per
  ``migrations_per_round`` — the event engine's rate — while no two
  snapshot-based re-partitions ever touch the same guest set
  concurrently (points cannot be lost or duplicated).  A wave gathers
  both guest rows of every pair, masks p's points already in q, compacts
  the pools, splits them with
  :func:`~repro.sim.batch.split.batch_split` and scatters the two sides
  back;
* **projection** — medoids of every changed guest row in one masked
  grouped pass, written back to the node table in bulk.

Three orders are part of the semantics and are *defined* here rather
than inherited from a container: stale origins are activated in
ascending origin id; nodes push in ascending node id; a pushed copy is
the origin's guest row in its order at push time (an incremental push
still meters only the delta).  The order-bearing rules on a guest row:
a pool lists q's guests, then p's not already in q; each side of a
split keeps pool order; a side whose pid *set* is unchanged keeps its
old row; recovery appends a copy's new pids in copy order; of two
points the first is the medoid.

Message metering follows the event engine's unit accounting exactly
(pulled guest sets, pushed deltas, bare-id confirmations).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ...core.config import PolystyreneConfig
from ...errors import ConfigurationError
from ...obs import mem as obs_mem
from ...obs import metrics as obs_metrics
from ...spaces.base import Space
from ...spaces.euclidean import Euclidean
from ...types import DataPoint, PointId
from ..arrays import _grown, resized
from . import kernels
from . import split as batch_split_mod
from .placement import PlacementStore

#: Rows of :attr:`BatchPolystyrene._flags`: guest row changed since its
#: last projection / since its last push; gained a backup this round
#: (needs a first full push); may be short of backups.
_CHANGED, _DIRTY, _PENDING, _SHORT = range(4)


def _first_k(mask: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``mask`` with only each row's first ``k[row]`` set entries kept."""
    return mask & (np.cumsum(mask, axis=1) <= k[:, None])


def _pack_left(
    block: np.ndarray, keep: np.ndarray, width: int, fill, counts=None
) -> np.ndarray:
    """Each row's kept entries moved to the front in order, the rest
    ``fill`` — a ``(rows, width)`` stable compaction.  Boolean reads and
    writes are both row-major, so one flat copy does it.  ``counts`` is
    ``keep.sum(axis=1)`` when the caller already holds it."""
    if counts is None:
        counts = keep.sum(axis=1)
    out = np.full((len(block), width), fill, dtype=block.dtype)
    out[np.arange(width) < counts[:, None]] = block[keep]
    return out


class BatchPolystyrene:
    """Batch form of :class:`repro.core.protocol.PolystyreneLayer`."""

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
        self.placement = PlacementStore(config.replication)
        self._points: Dict[PointId, DataPoint] = {}
        self._point_coords = np.zeros((0, space.dim), dtype=float)
        self._flags = np.zeros((4, 0), dtype=bool)
        self._last_detected: frozenset = frozenset()

    # -- per-node state ----------------------------------------------------

    def _ensure_rows(self, table) -> None:
        self.placement.ensure_rows(table)
        have, cap = self._flags.shape[1], len(self.placement.guest_n)
        if cap > have:
            resized(self, "_flags", (4, cap), False)
            self._flags[_SHORT, have:] = True  # a fresh row has no backups

    def _register_point(self, point: DataPoint) -> None:
        pid = point.pid
        if pid >= len(self._point_coords):
            before = self._point_coords.nbytes
            grow = _grown(len(self._point_coords), pid + 1)
            resized(self, "_point_coords", (grow, self.space.dim), 0.0)
            if obs_mem.ENABLED:
                obs_mem.add(
                    "protocol_points",
                    "BatchPolystyrene.point_coords",
                    self._point_coords.nbytes - before,
                )
        self._points[pid] = point
        self._point_coords[pid] = point.coord

    def init_node(self, sim, node) -> None:
        point = node.initial_point
        sim.network.table.placement_in_arrays = True
        self._ensure_rows(sim.network.table)
        self.placement.reset_row(
            node.row, node.nid, -1 if point is None else point.pid
        )
        self._flags[:, node.row] = (False, False, False, True)
        if point is not None:
            node.pos = point.coord
            self._register_point(point)

    def init_network(self, sim) -> None:
        self._ensure_rows(sim.network.table)
        for node in sim.network.alive_nodes():
            self.init_node(sim, node)

    # -- the per-node-object bridge ------------------------------------------

    def materialize(self, sim) -> None:
        """Write ``node.poly`` from the arrays (all known nodes)."""
        self._ensure_rows(sim.network.table)
        self.placement.materialize(sim, self._points)

    def adopt(self, sim) -> None:
        """Read per-node ``poly`` objects into the arrays (engine
        conversion) and register every point they reach.

        Nodes whose guests differ from what some backup was last sent
        are marked push-dirty — the event engine repairs such drift
        through its unconditional per-round scan, and a conversion
        mid-drift (e.g. a checkpoint taken after migration but before
        the next backup round) must not strand the stale copies."""
        table = sim.network.table
        table.placement_in_arrays = True
        self._ensure_rows(table)
        drifted = self.placement.adopt(sim, self._register_point)
        self._flags[:] = False
        self._flags[_SHORT] = True
        self._flags[_DIRTY, table.rows_of(np.asarray(drifted, np.int64))] = True

    # -- one protocol round --------------------------------------------------

    def step(self, sim) -> None:
        self._ensure_rows(sim.network.table)
        detected = sim.detected_failed()
        if detected:
            with obs_metrics.timer("protocol.recovery"):
                self._recover(sim)
        with obs_metrics.timer("protocol.backup"):
            self._backup(sim, detected)
        for _ in range(self.config.migrations_per_round):
            obs_metrics.count("exchanges.migration", self._migration_round(sim))
        self._project(sim, self._take_flagged(_CHANGED))

    def _take_flagged(self, which: int) -> np.ndarray:
        """The rows flagged ``which``, ascending; clears the flag."""
        rows = np.flatnonzero(self._flags[which])
        self._flags[which, rows] = False
        return rows

    # -- step 3: recovery ---------------------------------------------------

    def _recover(self, sim) -> None:
        store = self.placement
        table = sim.network.table
        n = table.n_rows
        # Origins with a copy out whose owner is detected — or gone: a
        # released id resolves to the sentinel row, which reads detected.
        out = (store.sent_n[:n] >= 0).any(axis=1) & (store.owner[:n] >= 0)
        stale = np.flatnonzero(out)
        stale = stale[sim.detected_mask(store.owner[stale])]
        if len(stale) == 0:
            return
        # One (origin, slot) run per copy held by an alive node, origins
        # in ascending id (the defined activation order).
        stale = stale[np.argsort(store.owner[stale], kind="stable")]
        targets = table.rows_of(store.backup_ids[stale])
        live = (store.sent_n[stale] >= 0) & table.alive_at(targets)
        o_idx, slots = np.nonzero(live)
        tgt = targets[o_idx, slots]
        holds = np.zeros(n, dtype=bool)
        holds[tgt] = True
        holders = np.flatnonzero(holds)
        if len(holders):
            # Per holder: its guest row, then each copy in origin order;
            # the first occurrence of a pid keeps its place.
            copy = store.sent_ids[stale[o_idx], slots]
            have = store.guest_ids[holders]
            seq_row = np.concatenate(
                [
                    np.repeat(holders, store.guest_n[holders]),
                    np.repeat(tgt, (copy >= 0).sum(axis=1)),
                ]
            )
            seq_pid = np.concatenate([have[have >= 0], copy[copy >= 0]]).astype(
                np.int64
            )
            order = kernels.radix_argsort(seq_row)  # stable: sequence kept
            seq_row, seq_pid = seq_row[order], seq_pid[order]
            key = seq_row * len(self._point_coords) + seq_pid
            by_key = np.argsort(key, kind="stable")
            ranked = key[by_key]
            first = np.ones(len(key), dtype=bool)
            first[1:] = ranked[1:] != ranked[:-1]
            keep = np.zeros(len(key), dtype=bool)
            keep[by_key[first]] = True
            seq_row, seq_pid = seq_row[keep], seq_pid[keep]
            slot = kernels.cumcount(seq_row)
            store.ensure_width(int(slot.max()) + 1)
            store.guest_ids[seq_row, slot] = seq_pid
            store.guest_n[holders] = np.bincount(seq_row, minlength=n)[holders]
            self._flags[_CHANGED, holders] = True
            self._flags[_DIRTY, holders] = True
        store.sent_n[stale] = -1
        store.sent_ids[stale] = -1

    # -- step 2: backup -----------------------------------------------------

    def _backup(self, sim, detected) -> None:
        network = sim.network
        table = network.table
        store = self.placement
        cfg = self.config
        K = cfg.replication
        flags = self._flags
        act = sim.alive_act_rows()

        # Line 1: drop failed backups — only re-scanned when the
        # detector *set* changed (fresh backups are sampled alive, so a
        # static post-failure set cannot re-contaminate anyone).  The
        # cached frozenset is rebuilt per round, so compare by value.
        if detected and detected != self._last_detected:
            self._last_detected = detected
            rows, slots = np.nonzero(sim.detected_entry_mask(store.backup_ids[act]))
            rows = act[rows]
            store.backup_ids[rows, slots] = -1
            store.sent_n[rows, slots] = -1
            store.sent_ids[rows, slots] = -1
            flags[_SHORT, rows] = True

        # Line 2: top back up to K backups, sampling candidates for all
        # short nodes in one batch.  Backup sets shrink only in the drop
        # scan above (which flags the victims), so unflagged nodes
        # cannot be short; ``short`` keeps ``alive_ids`` order for the
        # draw alignment below.
        flags[_SHORT, act] &= (store.backup_ids[act] >= 0).sum(axis=1) < K
        if flags[_SHORT, act].any():
            rows = table.rows_of(network.alive_ids_array())
            rows = rows[flags[_SHORT, rows]]
            own = store.owner[rows]
            held = store.backup_ids[rows]
            n_held = (held >= 0).sum(axis=1)
            missing = K - n_held
            width = max(1, int(n_held.max()))
            if cfg.backup_placement == "neighbors":
                cand = self.tman.neighbors_rows(sim, rows, K + width)
            else:
                exclude = _pack_left(held, held >= 0, width, -1)
                cand = self.rps.sample_rows(sim, rows, K, exclude=exclude)
            fresh = (
                (cand >= 0)
                & (cand != own[:, None])
                & ~(cand[:, :, None] == held[:, None, :]).any(axis=2)
            )
            picked = _pack_left(cand, _first_k(fresh, missing), K, -1)
            if cfg.backup_placement == "neighbors":
                # A neighbourhood too small to fill the slots falls back
                # to peer sampling, node by node (the draws are scalar).
                n_got = (picked >= 0).sum(axis=1)
                for i in np.flatnonzero(n_got < missing).tolist():
                    got = picked[i, : n_got[i]].tolist()
                    got += self.rps.sample(
                        sim,
                        network.nodes[int(own[i])],
                        int(missing[i]) - len(got),
                        exclude=(*held[i][held[i] >= 0].tolist(), *got, int(own[i])),
                    )
                    picked[i, : len(got)] = got
            # Picks fill the free slots in slot order.
            n_new = (picked >= 0).sum(axis=1)
            held[_first_k(held < 0, n_new)] = picked[picked >= 0]
            store.backup_ids[rows] = held
            flags[_PENDING, rows[n_new > 0]] = True
            flags[_SHORT, rows[n_held + n_new >= K]] = False

        # Lines 3-4: push guests to backups.  With incremental deltas a
        # node whose guests did not change and whose backups all hold a
        # previous copy sends nothing — it is never even gathered.
        if cfg.incremental_backup:
            todo = (flags[_DIRTY] | flags[_PENDING])[: table.n_rows]
            rows = np.flatnonzero(todo & table.alive_rows())
        else:
            rows = act
        flags[_DIRTY] = False
        flags[_PENDING] = False
        if len(rows) == 0:
            return
        pts = ids_units = 0
        g_w = max(1, int(store.guest_n[rows].max()))
        s_w = max(1, int(store.sent_n[rows].max()))
        # One row compares its guests with K copies: K * s_w * g_w cells.
        step = kernels.block_rows(0, K * s_w * g_w, 1)
        for a in range(0, len(rows), step):
            blk = rows[a : a + step]
            n_g = store.guest_n[blk].astype(np.int64)
            prev_n = store.sent_n[blk].astype(np.int64)
            push = table.alive_mask(store.backup_ids[blk])
            first = prev_n < 0
            if cfg.incremental_backup:
                mine = store.guest_ids[blk, :g_w]
                prev = store.sent_ids[blk, :, :s_w]
                both = prev[:, :, :, None] == mine[:, None, None, :]
                both &= (prev >= 0)[:, :, :, None]
                if obs_mem.ENABLED:
                    obs_mem.scratch(
                        "protocol_pools", "BatchPolystyrene.push_delta", both.nbytes
                    )
                common = both.sum(axis=(2, 3))
                added = np.where(first, n_g[:, None], n_g[:, None] - common)
                removed = np.where(first, 0, prev_n - common)
                push &= first | (added > 0) | (removed > 0)
            else:
                added = np.broadcast_to(n_g[:, None], push.shape)
                removed = np.zeros_like(prev_n)
            r, s = np.nonzero(push)
            pts += int(added[push].sum())
            ids_units += int(removed[push].sum()) + len(r)
            store.sent_ids[blk[r], s] = store.guest_ids[blk[r]]
            store.sent_n[blk[r], s] = store.guest_n[blk[r]]
        if pts:
            sim.meter.charge_points(self.name, pts, self.space.dim)
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
        table = sim.network.table
        gen = sim.rng_for(self.name)
        act = sim.alive_act_rows()
        if len(act) < 2:
            return 0
        psi = self.config.psi

        # Candidates: ψ closest alive topology entries + one RPS draw,
        # selected for all initiators from the round-start snapshot.
        with obs_metrics.timer("protocol.candidates"):
            neigh = self.tman.neighbors_rows(sim, act, psi)
            own = table._nid_of[act]
            exclude = np.concatenate([neigh, own[:, None]], axis=1)
            extra = self.rps.sample_rows(sim, act, 1, exclude=exclude)
            cand = np.concatenate([neigh, extra], axis=1)
            valid = cand >= 0
            counts = valid.sum(axis=1)
            packed = _pack_left(cand, valid, cand.shape[1], -1)
            u = gen.random(len(act))
            j = np.minimum(
                (u * np.maximum(counts, 1)).astype(np.int64),
                np.maximum(counts - 1, 0),
            )
            partner = np.where(counts > 0, packed[np.arange(len(act)), j], -1)
            prow_l = table.rows_of(partner).tolist()
            act_l = act.tolist()
            partner_l = partner.tolist()
            # (q's row, p's row) per proposal, in activation order.
            pending = [
                (prow_l[idx], act_l[idx])
                for idx in gen.permutation(len(act)).tolist()
                if partner_l[idx] >= 0
            ]
        total = 0
        changed = self._take_flagged(_CHANGED)  # by recovery, this round
        while pending:
            with obs_metrics.timer("protocol.wave_schedule"):
                taken = bytearray(table.n_rows)
                wave: List = []
                rest: List = []
                for pair in pending:
                    q, p = pair
                    if taken[p] or taken[q]:
                        rest.append(pair)
                    else:
                        taken[p] = taken[q] = 1
                        wave.append(pair)
            moved = self._execute_pairs(sim, np.array(wave, dtype=np.int64).T)
            self._project(sim, np.concatenate([changed, moved]))
            changed = moved[:0]
            total += len(wave)
            pending = rest
        self._flags[_CHANGED, changed] = True
        return total

    def _execute_pairs(self, sim, pair_rows: np.ndarray) -> np.ndarray:
        """Pool, split and install one wave of disjoint exchanges;
        ``pair_rows`` is ``(2, M)``, q's rows above p's.  Returns the
        rows whose guest row changed."""
        store = self.placement
        M = pair_rows.shape[1]
        with obs_metrics.timer("protocol.pool_build"):
            n2 = store.guest_n[pair_rows]
            nq, n_p = n2
            g_w = max(1, int(n2.max()))
            gq, gp = store.guest_ids[pair_rows, :g_w]
            # Pools: q's guests first, then p's guests not already
            # present (the order ``core.migration`` pools them in).  A
            # pid sits in both rows only in the rounds after a failure,
            # when several holders have activated copies of one origin.
            raw = np.concatenate([gq, gp], axis=1)
            keep = raw >= 0
            # p_in_q / q_in_p: which of p's pids q holds, and the
            # converse — a pair block at a time (g_w * g_w cells a pair).
            p_in_q = np.zeros((M, g_w), dtype=bool)
            q_in_p = np.zeros((M, g_w), dtype=bool)
            step = kernels.block_rows(0, g_w * g_w, 1)
            for a in range(0, M, step):
                blk = slice(a, a + step)
                same = gp[blk, :, None] == gq[blk, None, :]
                same &= (gp[blk] >= 0)[:, :, None]
                p_in_q[blk] = same.any(axis=2)
                q_in_p[blk] = same.any(axis=1)
            shared = bool(p_in_q.any())
            n_pool = nq + n_p
            if shared:
                keep[:, g_w:] &= ~p_in_q
                n_pool = keep.sum(axis=1)
            P = max(1, int(n_pool.max()))
            pool = _pack_left(raw, keep, P, 0, n_pool)
            col = np.arange(P)
            pool_valid = col < n_pool[:, None]
            coords = self._point_coords[pool]
            if obs_mem.ENABLED:
                obs_mem.scratch(
                    "protocol_pools",
                    "BatchPolystyrene.wave_pool",
                    same.nbytes  # one pair block of it
                    + 2 * raw.nbytes + pool.nbytes
                    + pool_valid.nbytes + coords.nbytes,
                )
            pos = sim.network.table.coords_rows()
        side_p = batch_split_mod.batch_split(
            self.space, self.config.split, coords, pool_valid,
            pos[pair_rows[1]], pos[pair_rows[0]],
        )

        with obs_metrics.timer("protocol.install"):
            # q's guests occupy the first ``nq`` pool slots, p's the rest.
            q_slot = col < nq[:, None]
            if not shared and not (pool_valid & (side_p == q_slot)).any():
                # No slot changes sides (two waves in three, once the
                # shape has settled): q's guests were pulled and
                # confirmed back by id, nothing else happened.
                pulled = int(nq.sum())
                sim.meter.charge_points(self.name, pulled, self.space.dim)
                sim.meter.charge_ids(self.name, 2 * M + pulled)
                return pair_rows[0, :0]
            to_q = pool_valid & ~side_p
            kept_q = (to_q & q_slot).sum(axis=1)
            n_to_q = to_q.sum(axis=1)
            n_to_p = n_pool - n_to_q
            # Metering: every exchange pulls q's guests to p (one id
            # unit for the request); q gets back the points new to it
            # and bare-id confirmations for the ones it keeps.
            kept = int(kept_q.sum())
            pts = int(nq.sum()) + int(n_to_q.sum()) - kept
            sim.meter.charge_points(self.name, pts, self.space.dim)
            sim.meter.charge_ids(self.name, 2 * M + kept)

            # A side whose pid *set* is unchanged keeps its old row.  q
            # keeps its set iff it keeps all of its own and gains none;
            # p iff its size is kept and whatever it takes from q's
            # slots it already held (nothing, unless pids are shared).
            q_same = (kept_q == nq) & (n_to_q == nq)
            taken = side_p & q_slot
            if shared:
                taken[:, :g_w] &= ~q_in_p
            p_same = (n_to_p == n_p) & ~taken.any(axis=1)
            differs = ~np.concatenate([q_same, p_same])
            rows = pair_rows.reshape(-1)[differs]
            if len(rows) == 0:
                return rows
            counts = np.concatenate([n_to_q, n_to_p])[differs]
            store.ensure_width(int(counts.max()))
            sides = np.concatenate([to_q, side_p & pool_valid])[differs]
            store.guest_ids[rows] = _pack_left(
                np.concatenate([pool, pool])[differs], sides, store.width, -1, counts
            )
            store.guest_n[rows] = counts
            self._flags[_DIRTY, rows] = True
        return rows

    # -- step 1: projection --------------------------------------------------

    def _project(self, sim, rows: np.ndarray) -> None:
        """Re-project ``rows`` (the alive ones with a guest; an empty
        guest row keeps its position)."""
        if len(rows) == 0:
            return
        with obs_metrics.timer("protocol.projection"):
            table = sim.network.table
            cnt = self.placement.guest_n[rows]
            ok = (cnt > 0) & table.alive_at(rows)
            rows, cnt = rows[ok], cnt[ok]
            # A float sum of eight or more terms associates by its
            # length, so wide rows are grouped by exact count; below
            # that a zero-padded sum equals the unpadded one bit for bit.
            wide = cnt >= 8
            if wide.any():
                for g in sorted(set(cnt[wide].tolist())):
                    self._project_block(table, rows[cnt == g], g)
                rows, cnt = rows[~wide], cnt[~wide]
            if len(rows):
                self._project_block(table, rows, int(cnt.max()))

    def _project_block(self, table, rows: np.ndarray, g: int) -> None:
        step = kernels.block_rows(0, g * g, self.space.dim)
        for a in range(0, len(rows), step):
            blk = rows[a : a + step]
            pids = self.placement.guest_ids[blk, :g]
            valid = pids >= 0
            coords = self._point_coords[pids]  # (k, g, d); pads read junk
            if self.config.projection == "centroid":
                coords[~valid] = 0.0
                new_pos = coords.sum(axis=1) / valid.sum(axis=1)[:, None]
            elif g <= 2:
                # One point is its own medoid; of two, the first wins.
                new_pos = coords[:, 0, :]
            else:
                k, _, d = coords.shape
                pair_sq = self.space.rank_sq_rows(
                    coords.reshape(k * g, d),
                    np.broadcast_to(coords[:, None, :, :], (k, g, g, d)).reshape(
                        k * g, g, d
                    ),
                ).reshape(k, g, g)
                pair_sq *= valid[:, None, :]
                cost = pair_sq.sum(axis=2)
                cost[~valid] = np.inf
                new_pos = coords[np.arange(k), np.argmin(cost, axis=1)]
            table.set_coords(blk, new_pos)
