"""Batch random peer sampling — the whole-network Cyclon shuffle.

State is two padded arrays indexed by node-table row: ``ids`` ``(R, V)``
(``-1`` marks an empty slot) and ``ages`` ``(R, V)``.  One
:meth:`BatchPeerSampling.step` call runs the round for every alive node:

1. groom every view (evict detected peers, age the rest, re-seed empty
   views from the bootstrap oracle — the counted fallback);
2. pick every node's partner (its oldest entry) and drop that entry;
3. build all shuffle payloads and replies from the groomed round-start
   snapshot (random subsets plus a fresh self-descriptor);
4. apply every merge at once with the batch Cyclon rule
   (:func:`~repro.sim.batch.kernels.dedup_priority_truncate`): existing
   non-sent entries keep their slots, incoming entries fill empty slots
   first and replace sent-out entries only when space runs out,
   duplicate descriptors keep the minimum age.

The semantic deltas against the event engine's sequential Cyclon are
the batch-synchronous snapshot (a reply is computed from the partner's
round-start view, not its mid-round state) and message ordering (a node
partnered by several initiators merges their payloads in initiator
order).  Statistically the shuffle is the same service: every node
keeps a uniformly-refreshed random sample of the alive network.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ...types import NodeId
from . import kernels

#: Cap on the scratch matrix of the vectorised bootstrap sampler
#: (rows x alive floats); bigger populations are processed in row chunks.
_BOOTSTRAP_CHUNK = 1 << 22


class BatchPeerSampling:
    """Array-backed Cyclon peer sampling for :class:`BatchSimulation`."""

    name = "rps"

    def __init__(self, view_size: int = 20, shuffle_length: int = 10) -> None:
        if view_size < 1:
            raise ValueError("view_size must be >= 1")
        if not 1 <= shuffle_length <= view_size:
            raise ValueError("need 1 <= shuffle_length <= view_size")
        self.view_size = view_size
        self.shuffle_length = shuffle_length
        #: How many times a node had to fall back to the bootstrap
        #: oracle because its view contained no alive peer.
        self.bootstrap_fallbacks = 0
        self._ids = np.full((0, view_size), -1, dtype=np.int64)
        self._ages = np.zeros((0, view_size), dtype=np.int64)

    # -- storage -----------------------------------------------------------

    def _ensure_rows(self, n: int) -> None:
        have = len(self._ids)
        if n <= have:
            return
        grow = max(n, have * 2, 8) - have
        self._ids = np.concatenate(
            [self._ids, np.full((grow, self.view_size), -1, dtype=np.int64)]
        )
        self._ages = np.concatenate(
            [self._ages, np.zeros((grow, self.view_size), dtype=np.int64)]
        )

    def view_arrays(self):
        """The raw ``(ids, ages)`` state (rows indexed by table row)."""
        return self._ids, self._ages

    # -- bootstrap oracle --------------------------------------------------

    def _bootstrap_rows(
        self, sim, rows: np.ndarray, k: Optional[int] = None
    ) -> np.ndarray:
        """``(len(rows), k)`` uniform alive peers per row, self excluded,
        distinct within each row; short rows pad with ``-1``."""
        k = self.view_size if k is None else k
        table = sim.network.table
        alive_ids = sim.network.alive_ids_array()
        n = len(alive_ids)
        out = np.full((len(rows), k), -1, dtype=np.int64)
        if n == 0 or len(rows) == 0:
            return out
        gen = sim.rng_for(self.name)
        own = table._nid_of[rows]
        chunk = max(1, _BOOTSTRAP_CHUNK // max(1, n))
        for lo in range(0, len(rows), chunk):
            hi = min(lo + chunk, len(rows))
            keys = gen.random((hi - lo, n))
            keys[alive_ids[None, :] == own[lo:hi, None]] = np.inf
            pick = kernels.topk_smallest(keys, k)
            got = alive_ids[pick]
            finite = np.isfinite(kernels.take_rows(keys, pick))
            out[lo:hi, : pick.shape[1]] = np.where(finite, got, -1)
        return out

    # -- per-node state ----------------------------------------------------

    def init_network(self, sim) -> None:
        table = sim.network.table
        self._ensure_rows(table.n_rows)
        rows = np.flatnonzero(table.alive_rows())
        self._ids[rows] = self._bootstrap_rows(sim, rows)
        self._ages[rows] = 0

    def init_node(self, sim, node) -> None:
        self._ensure_rows(node.row + 1)
        self._ids[node.row] = self._bootstrap_rows(
            sim, np.asarray([node.row], dtype=np.int64)
        )[0]
        self._ages[node.row] = 0

    def view_of(self, node) -> Dict[NodeId, int]:
        ids = self._ids[node.row]
        ages = self._ages[node.row]
        return {int(i): int(a) for i, a in zip(ids, ages) if i >= 0}

    # -- sampling API used by upper layers ----------------------------------

    def sample_rows(
        self,
        sim,
        rows: np.ndarray,
        k: int,
        exclude: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Up to ``k`` random alive peers per row from each row's view,
        ``(len(rows), k)`` with ``-1`` padding; rows whose view offers no
        alive candidate fall back to the bootstrap oracle (counted)."""
        self._ensure_rows(int(rows.max(initial=-1)) + 1)
        table = sim.network.table
        ids = self._ids[rows]
        cand = sim.alive_entry_mask(ids)
        own = table._nid_of[rows]
        cand &= ids != own[:, None]
        if exclude is not None and exclude.shape[1]:
            cand &= ~(ids[:, :, None] == exclude[:, None, :]).any(axis=2)
        gen = sim.rng_for(self.name)
        keys = gen.random(ids.shape)
        keys[~cand] = np.inf
        pick = kernels.topk_smallest(keys, k)
        got = kernels.take_rows(ids, pick)
        finite = np.isfinite(kernels.take_rows(keys, pick))
        out = np.full((len(rows), k), -1, dtype=np.int64)
        out[:, : pick.shape[1]] = np.where(finite, got, -1)
        starved = ~finite.any(axis=1) if pick.shape[1] else np.ones(len(rows), bool)
        if k > 0 and starved.any():
            self.bootstrap_fallbacks += int(starved.sum())
            fallback = self._bootstrap_rows(sim, rows[starved], k)
            if exclude is not None and exclude.shape[1]:
                bad = (
                    fallback[:, :, None] == exclude[starved][:, None, :]
                ).any(axis=2)
                fallback[bad] = -1
            out[starved] = fallback
        return out

    def sample(self, sim, node, k: int = 1, exclude: tuple = ()) -> list:
        """Scalar convenience mirroring the event layer's ``sample``."""
        rows = np.asarray([node.row], dtype=np.int64)
        excl = (
            np.asarray([list(exclude)], dtype=np.int64)
            if exclude
            else None
        )
        got = self.sample_rows(sim, rows, k, exclude=excl)[0]
        return [int(nid) for nid in got if nid >= 0]

    # -- one whole-network shuffle round -------------------------------------

    def step(self, sim) -> None:
        network = sim.network
        table = network.table
        self._ensure_rows(table.n_rows)
        ids = self._ids
        ages = self._ages
        act = sim.alive_act_rows()
        if len(act) == 0:
            return
        gen = sim.rng_for(self.name)
        V = self.view_size

        # 1. groom: evict detected, age the rest, re-seed empty views.
        A_ids = ids[act]
        A_ages = ages[act]
        valid = A_ids >= 0
        evict = valid & sim.detected_entry_mask(A_ids)
        A_ids[evict] = -1
        valid &= ~evict
        A_ages[valid] += 1
        empty = ~valid.any(axis=1)
        if empty.any():
            seeded = self._bootstrap_rows(sim, act[empty])
            self.bootstrap_fallbacks += int(empty.sum())
            A_ids[empty] = seeded
            A_ages[empty] = 0
            valid = A_ids >= 0

        # 2. partner: the oldest entry (max age, ties to the max id).
        agekey = np.where(valid, A_ages, -1)
        oldest = agekey.max(axis=1)
        oldmask = valid & (agekey == oldest[:, None])
        partner = np.max(np.where(oldmask, A_ids, -1), axis=1)
        has_partner = partner >= 0
        pcol = np.argmax(
            oldmask & (A_ids == partner[:, None]), axis=1
        )
        A_ids[has_partner, pcol[has_partner]] = -1
        valid = A_ids >= 0
        ids[act] = A_ids
        ages[act] = A_ages

        # Exchanges only proceed with alive partners (a dead undetected
        # partner costs the initiator its entry, as in the event engine).
        prow = table.rows_of(partner)
        ex = np.flatnonzero(table.alive_at(prow))
        if len(ex) == 0:
            return
        n_ex = len(ex)
        irow = act[ex]
        qrow = prow[ex]
        own_ex = table._nid_of[irow]

        # 3. buffers from the groomed snapshot.  No array-wide state
        # copy: nothing below mutates the views until the final
        # scatter-back, so fancy-indexed gathers *are* the snapshot.
        l = self.shuffle_length
        take = min(l - 1, V)
        ikeys = gen.random((n_ex, V))
        ikeys[~valid[ex]] = np.inf
        pay_ids = np.full((n_ex, take + 1), -1, dtype=np.int64)
        pay_ages = np.zeros((n_ex, take + 1), dtype=np.int64)
        ipick = ifinite = None
        if take > 0:
            ipick = kernels.topk_smallest(ikeys, take)
            got = kernels.take_rows(A_ids[ex], ipick)
            ifinite = np.isfinite(kernels.take_rows(ikeys, ipick))
            pay_ids[:, :take] = np.where(ifinite, got, -1)
            pay_ages[:, :take] = np.where(
                ifinite, kernels.take_rows(A_ages[ex], ipick), 0
            )
        pay_ids[:, take] = own_ex  # fresh self-descriptor, age 0

        P_ids = ids[qrow]
        P_ages = ages[qrow]
        pvalid = (P_ids >= 0) & (P_ids != own_ex[:, None])
        rkeys = gen.random((n_ex, V))
        rkeys[~pvalid] = np.inf
        rtake = min(l, V)
        qpick = kernels.topk_smallest(rkeys, rtake)
        got = kernels.take_rows(P_ids, qpick)
        qfinite = np.isfinite(kernels.take_rows(rkeys, qpick))
        rep_ids = np.where(qfinite, got, -1)
        rep_ages = np.where(qfinite, kernels.take_rows(P_ages, qpick), 0)

        dim = sim.space.dim or 1
        n_desc = int((pay_ids >= 0).sum() + (rep_ids >= 0).sum())
        sim.meter.charge_descriptors(self.name, n_desc, dim)

        # 4. merges.  Sent-out entries: initiators sent their payload
        # subset (not the self-descriptor), partners sent their reply.
        # Both subsets were picked as view *columns*, and ids are unique
        # within a view row, so a (row, slot) scatter marks exactly the
        # (row, id) pairs the former sorted-key membership test did.
        # Writes are True-only: a row partnered by several initiators
        # accumulates all its reply picks.
        sent_mask = np.zeros((len(ids), V), dtype=bool)
        flat_sent = sent_mask.ravel()
        if ipick is not None:
            lin = irow[:, None] * V + ipick
            flat_sent[lin[ifinite]] = True
        lin = qrow[:, None] * V + qpick
        flat_sent[lin[qfinite]] = True

        # Incoming flat entries: replies to initiators first, then
        # payloads to partners (initiator order).
        inc_recv = np.concatenate(
            [np.repeat(irow, rtake), np.repeat(qrow, take + 1)]
        )
        inc_ids = np.concatenate([rep_ids.ravel(), pay_ids.ravel()])
        inc_ages = np.concatenate([rep_ages.ravel(), pay_ages.ravel()])
        inc_keep = inc_ids >= 0
        inc_keep &= inc_ids != table._nid_of[inc_recv]
        inc_keep &= ~sim.detected_entry_mask(inc_ids)
        inc_recv = inc_recv[inc_keep]
        inc_ids = inc_ids[inc_keep]
        inc_ages = inc_ages[inc_keep]

        touched = np.zeros(len(ids), dtype=bool)
        touched[irow] = True
        touched[qrow] = True
        recv_rows = np.flatnonzero(touched)
        E_ids = ids[recv_rows]
        E_ages = ages[recv_rows]
        ex_recv = np.repeat(recv_rows, V)
        ex_ids = E_ids.ravel()
        ex_ages = E_ages.ravel()
        ex_slot = np.tile(np.arange(V, dtype=np.int64), len(recv_rows))
        ex_keep = ex_ids >= 0
        ex_recv = ex_recv[ex_keep]
        ex_ids = ex_ids[ex_keep]
        ex_ages = ex_ages[ex_keep]
        ex_slot = ex_slot[ex_keep]
        was_sent = sent_mask[recv_rows].ravel()[ex_keep]

        f_recv = np.concatenate([ex_recv, inc_recv])
        f_ids = np.concatenate([ex_ids, inc_ids])
        f_ages = np.concatenate([ex_ages, inc_ages])
        f_prio = np.concatenate(
            [np.where(was_sent, 2, 0), np.ones(len(inc_recv), dtype=np.int64)]
        )
        f_order = np.concatenate(
            [ex_slot, np.arange(len(inc_recv), dtype=np.int64)]
        )
        sel, slot, age = kernels.dedup_priority_truncate(
            f_recv, f_ids, f_prio, f_order, f_ages, V
        )
        ids[recv_rows] = -1
        ages[recv_rows] = 0
        ids[f_recv[sel], slot] = f_ids[sel]
        ages[f_recv[sel], slot] = age

    # -- canonical-state bridge ---------------------------------------------

    def materialize(self, sim) -> None:
        """Write ``node.rps_view`` dicts from the arrays (all known
        nodes; dead nodes keep their last groomed view, as in the event
        engine)."""
        self._ensure_rows(sim.network.table.n_rows)
        for node in sim.network.nodes.values():
            node.rps_view = self.view_of(node)

    def adopt(self, sim) -> None:
        """Read per-node ``rps_view`` dicts into the arrays (engine
        conversion), then drop the per-node attribute so stale reads
        fail loudly instead of silently diverging."""
        self._ensure_rows(sim.network.table.n_rows)
        self._ids[:] = -1
        self._ages[:] = 0
        for node in sim.network.nodes.values():
            view = getattr(node, "rps_view", None)
            if view is None:
                continue
            entries = list(view.items())[: self.view_size]
            for j, (nid, age) in enumerate(entries):
                self._ids[node.row, j] = nid
                self._ages[node.row, j] = age
            if hasattr(node, "rps_view"):
                del node.rps_view
