"""Batch random peer sampling — the whole-network Cyclon shuffle.

State is two padded arrays indexed by node-table row: ``ids`` ``(R, V)``
(``-1`` marks an empty slot) and ``ages`` ``(R, V)``.  One
:meth:`BatchPeerSampling.step` call runs the round for every alive node
as four loops over :func:`~repro.sim.batch.kernels.block_rows`-sized row
blocks, so no temporary scales with the network:

1. per block of alive rows — groom (evict detected peers, age the rest,
   re-seed empty views from the bootstrap oracle — the counted
   fallback), pick the partner (the oldest entry) and drop that entry;
2. per block of exchanges — the initiators' payloads (a random subset of
   the groomed view plus a fresh self-descriptor);
3. per block of exchanges — the partners' replies, from the same
   groomed round-start snapshot;
4. per block of *receiver* rows — the batch Cyclon merge
   (:func:`~repro.sim.batch.kernels.dedup_priority_truncate`): existing
   non-sent entries keep their slots, incoming entries fill empty slots
   first and replace sent-out entries only when space runs out,
   duplicate descriptors keep the minimum age.  The round's messages
   are bucketed by receiver once (one stable radix pass, so a receiver
   reads them in arrival order); a block then builds the existing /
   incoming / priority / order arrays of its own receivers only.

Only the round's *messages* stay whole-network — the reply and payload
descriptors, the sent-slot mask and the per-node partner column, all
state-sized or smaller.  They have to: loops 2–3 read the groomed
snapshot of every view, so no merge may land before the last reply is
built (the same rule as :mod:`~repro.sim.batch.topology`).

Blocking changes no RNG draw.  ``Generator.random`` fills row-major, so
a ``(rows, width)`` key matrix drawn one row block at a time consumes
the stream exactly like one whole-network call; empty views re-seed in
ascending row order whatever the block size; and because every payload
key row is drawn before any reply key row, payloads and replies are two
passes over the exchanges, not one.  Rows merge independently
(:func:`~repro.sim.batch.kernels.dedup_priority_truncate` ranks a
receiver the same in any batch), so the blocked round is bit-identical
to a one-block round.

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

from ...obs import mem as obs_mem
from ...types import NodeId
from ..arrays import resized
from . import kernels


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

    def _ensure_rows(self, table) -> None:
        """Size the view arrays to the node table's capacity (the table
        owns the growth rule; a layer only follows it)."""
        rows = table.capacity
        have = len(self._ids)
        if rows <= have:
            return
        resized(self, "_ids", (rows, self.view_size), -1)
        resized(self, "_ages", (rows, self.view_size), 0)
        if obs_mem.ENABLED:
            # int64 ids and int64 ages per new slot.
            obs_mem.add("rps_views", "rps.views", 16 * (rows - have) * self.view_size)

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
        # A float64 key and an int64 partition cell per alive peer: a
        # row is network-sized, hence no row floor.  Row-major fill
        # makes the draws independent of the block size.
        step = kernels.block_rows(0, n, 2, 1)
        for lo in range(0, len(rows), step):
            hi = min(lo + step, len(rows))
            keys = gen.random((hi - lo, n))
            keys[alive_ids[None, :] == own[lo:hi, None]] = np.inf
            pick = kernels.topk_smallest(keys, k)
            if obs_mem.ENABLED:
                obs_mem.scratch("rps_pads", "rps.bootstrap_keys", 2 * keys.nbytes)
            got = alive_ids[pick]
            finite = np.isfinite(kernels.take_rows(keys, pick))
            out[lo:hi, : pick.shape[1]] = np.where(finite, got, -1)
        return out

    # -- per-node state ----------------------------------------------------

    def init_network(self, sim) -> None:
        table = sim.network.table
        self._ensure_rows(table)
        rows = np.flatnonzero(table.alive_rows())
        self._ids[rows] = self._bootstrap_rows(sim, rows)
        self._ages[rows] = 0

    def init_node(self, sim, node) -> None:
        self._ensure_rows(sim.network.table)
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
        table = sim.network.table
        self._ensure_rows(table)
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
        table = sim.network.table
        self._ensure_rows(table)
        ids = self._ids
        ages = self._ages
        act = sim.alive_act_rows()
        if len(act) == 0:
            return
        gen = sim.rng_for(self.name)
        V = self.view_size
        l = self.shuffle_length  # <= V: every message is l descriptors
        # Loops 1-3 hold about five V-wide 8-byte columns per row (the
        # id and age gathers, a key or mask block, a pick, its index).
        step = kernels.block_rows(0, V, 5)

        # 1. groom (evict detected, age the rest, re-seed empty views)
        # and partner (the oldest entry: max age, ties to the max id).
        partner = np.empty(len(act), dtype=np.int64)
        for a in range(0, len(act), step):
            rows = act[a : a + step]
            A_ids = ids[rows]
            A_ages = ages[rows]
            valid = A_ids >= 0
            evict = valid & sim.detected_entry_mask(A_ids)
            A_ids[evict] = -1
            valid &= ~evict
            A_ages[valid] += 1
            empty = ~valid.any(axis=1)
            if empty.any():
                self.bootstrap_fallbacks += int(empty.sum())
                A_ids[empty] = self._bootstrap_rows(sim, rows[empty])
                A_ages[empty] = 0
                valid = A_ids >= 0
            agekey = np.where(valid, A_ages, -1)
            oldmask = valid & (agekey == agekey.max(axis=1)[:, None])
            chosen = np.max(np.where(oldmask, A_ids, -1), axis=1)
            has_partner = chosen >= 0
            pcol = np.argmax(oldmask & (A_ids == chosen[:, None]), axis=1)
            A_ids[has_partner, pcol[has_partner]] = -1
            ids[rows] = A_ids
            ages[rows] = A_ages
            partner[a : a + step] = chosen

        # Exchanges only proceed with alive partners (a dead undetected
        # partner costs the initiator its entry, as in the event engine).
        prow = table.rows_of(partner)
        ex = np.flatnonzero(table.alive_at(prow))
        n_ex = len(ex)
        if n_ex == 0:
            return
        irow = act[ex]
        qrow = prow[ex]
        own_ex = table._nid_of[irow]

        # The round's messages, replies above payloads (the order they
        # reach a node that both initiates and is partnered), and the
        # view slots that were sent out.  Nothing below mutates the
        # views until loop 4, so the gathers of loops 2-3 *are* the
        # groomed snapshot.  Both subsets are picked as view *columns*
        # and ids are unique within a view row, so a (row, slot) mark
        # names exactly one (row, id) pair; marks are True-only, so a
        # row partnered by several initiators accumulates all its picks.
        msg_ids = np.full((2 * n_ex, l), -1, dtype=np.int64)
        msg_ages = np.zeros((2 * n_ex, l), dtype=np.int64)
        sent_mask = np.zeros((len(ids), V), dtype=bool)
        if obs_mem.ENABLED:
            obs_mem.scratch(
                "rps_pads",
                "rps.messages",
                msg_ids.nbytes + msg_ages.nbytes + sent_mask.nbytes,
            )
        flat_sent = sent_mask.ravel()

        def subsets(rows, barred, k, out_ids, out_ages):
            """Write a random ``k``-subset of each view of ``rows``
            (entries equal to ``barred`` excluded) and mark it sent."""
            for a in range(0, n_ex, step):
                blk = slice(a, a + step)
                S_ids = ids[rows[blk]]
                keys = gen.random(S_ids.shape)
                keys[(S_ids < 0) | (S_ids == barred[blk, None])] = np.inf
                pick = kernels.topk_smallest(keys, k)
                finite = np.isfinite(kernels.take_rows(keys, pick))
                out_ids[blk, :k] = np.where(
                    finite, kernels.take_rows(S_ids, pick), -1
                )
                out_ages[blk, :k] = np.where(
                    finite, kernels.take_rows(ages[rows[blk]], pick), 0
                )
                flat_sent[(rows[blk, None] * V + pick)[finite]] = True

        # 2. payloads: l - 1 view entries and a fresh self-descriptor
        # (age 0; a view never holds its owner, so barring it is free).
        # 3. replies: l entries of the partner's view, initiator barred.
        subsets(irow, own_ex, l - 1, msg_ids[n_ex:], msg_ages[n_ex:])
        msg_ids[n_ex:, l - 1] = own_ex
        subsets(qrow, own_ex, l, msg_ids[:n_ex], msg_ages[:n_ex])
        sim.meter.charge_descriptors(
            self.name, int(np.count_nonzero(msg_ids >= 0)), sim.space.dim or 1
        )

        # 4. merges.  One stable radix pass buckets the messages by
        # receiver (a block's messages are then one contiguous run, in
        # arrival order: the reply first, then payloads in initiator
        # order); every receiver is re-packed, even if the filter
        # below leaves it no incoming entry.
        msg_recv = np.concatenate([irow, qrow])
        order = kernels.radix_argsort(msg_recv)
        msg_recv = msg_recv[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = msg_recv[1:] != msg_recv[:-1]
        bounds = np.append(np.flatnonzero(first), len(order))
        # A block is a run of receivers holding at most ``room`` entries
        # (views plus messages) at fifteen int64 columns an entry: the
        # five built here and about ten the flat kernel holds in flight
        # (tracemalloc reads a block at 15 columns in the median, 23 at
        # most, where view holes pad the gathers).
        # Cut by entries, not rows: a flooded receiver — in round 0
        # every view's oldest entry is its largest id — shortens its
        # block instead of fattening it.
        room = kernels.block_rows(0, 1, 15)
        n_recv = len(bounds) - 1
        ahead = V * np.arange(n_recv + 1) + l * bounds
        a = 0
        while a < n_recv:
            b = int(np.searchsorted(ahead, ahead[a] + room, side="right")) - 1
            b = max(b, a + 1)
            lo, hi = bounds[a], bounds[b]
            rows = msg_recv[bounds[a:b]]
            src = order[lo:hi]
            inc_recv = np.repeat(msg_recv[lo:hi], l)
            inc_ids = msg_ids[src].ravel()
            keep = inc_ids >= 0
            keep &= inc_ids != table._nid_of[inc_recv]
            keep &= ~sim.detected_entry_mask(inc_ids)
            inc_recv = inc_recv[keep]
            inc_ids = inc_ids[keep]
            E_ids = ids[rows]
            held = E_ids >= 0
            r, slot_in = np.nonzero(held)  # row-major, like ``[held]``
            f_recv = np.concatenate([rows[r], inc_recv])
            f_ids = np.concatenate([E_ids[held], inc_ids])
            f_ages = np.concatenate([ages[rows][held], msg_ages[src].ravel()[keep]])
            f_prio = np.concatenate(
                [
                    np.where(sent_mask[rows][held], 2, 0),
                    np.ones(len(inc_ids), dtype=np.int64),
                ]
            )
            f_order = np.concatenate([slot_in, np.arange(len(inc_ids))])
            if obs_mem.ENABLED:
                # The block's co-live columns, as sized above.
                obs_mem.scratch("rps_pads", "rps.merge_block", 15 * f_recv.nbytes)
            sel, slot, age = kernels.dedup_priority_truncate(
                f_recv, f_ids, f_prio, f_order, f_ages, V
            )
            ids[rows] = -1
            ages[rows] = 0
            ids[f_recv[sel], slot] = f_ids[sel]
            ages[f_recv[sel], slot] = age
            a = b

    # -- canonical-state bridge ---------------------------------------------

    #: The per-node attribute :meth:`materialize` writes; its ids are
    #: read array-natively by :meth:`BatchSimulation.canonical_view_ids`.
    canonical_attr = "rps_view"

    def materialize(self, sim) -> None:
        """Write ``node.rps_view`` dicts from the arrays (all known
        nodes; dead nodes keep their last groomed view, as in the event
        engine)."""
        self._ensure_rows(sim.network.table)
        for node in sim.network.nodes.values():
            node.rps_view = self.view_of(node)

    def adopt(self, sim) -> None:
        """Read per-node ``rps_view`` dicts into the arrays (engine
        conversion), then drop the per-node attribute so stale reads
        fail loudly instead of silently diverging."""
        self._ensure_rows(sim.network.table)
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
