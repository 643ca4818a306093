"""Batch topology construction: whole-network T-Man and Vicinity.

View state lives in padded arrays indexed by node-table row: ``ids``
``(R, C)`` with ``-1`` empty slots, ``coords`` ``(R, C, d)`` holding the
*advertised* positions the descriptors carried (Vicinity adds ``ages``
``(R, C)``).  One ``step`` runs the round for every alive node from the
groomed round-start snapshot:

1. evict detectably-failed peers, re-bootstrap empty views from the
   peer-sampling layer;
2. select every node's gossip partner (T-Man: uniform among the ψ
   closest alive entries; Vicinity: the oldest entry);
3. build both exchange buffers of every pair — the ``m`` descriptors of
   ``view ∪ {self}`` (Vicinity: ``∪ fresh RPS candidates``) closest to
   the *other* side's position — from the snapshot;
4. merge all messages at once (fresher coordinates overwrite, own id
   and detected peers excluded) and truncate every touched view to the
   ``cap`` entries closest to the receiver's position, stored in ranked
   order.

Every stage runs a *row block* at a time: partner ranking, both
directions of every exchange (stacked into one list of pool rows) and
the merge each gather only :func:`~repro.sim.batch.kernels.block_rows`
rows into padded scratch, so no padded temporary outgrows the
kernels' scratch budget however large the network is.  Rows rank
independently and RNG draws are taken for the whole network before a
block loop starts, so blocking changes no result and no stream.  Step 4
pads each block of receivers — existing view entries, then incoming
entries in arrival order — only to its own widest row and runs the
fused :func:`~repro.sim.batch.kernels.merge_rank_truncate` — no flat
re-concatenation, no global sort.

Batch-vs-event semantic deltas: exchanges are snapshot-based rather
than sequential, a node reached by several messages merges them in one
ranked truncation (the event engine truncates only on overflow and
keeps insertion order below the cap), and ranking ties behind the
partner choice break by slot rather than by id.  The constructed
overlay is statistically the same.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...obs import mem as obs_mem
from ...obs import metrics as obs_metrics
from ...spaces.base import Space
from ...types import NodeId
from ..arrays import ViewBuffer
from . import kernels


class _BatchTopologyBase:
    """Shared array plumbing of the two batch topology layers."""

    name = "tman"

    def __init__(
        self,
        space: Space,
        rps,
        capacity: int,
        bootstrap_size: int,
        with_ages: bool,
    ) -> None:
        self.space = space
        self.rps = rps
        self.capacity = capacity
        self.bootstrap_size = bootstrap_size
        self._coord_dim = space.dim
        self._ids = np.full((0, capacity), -1, dtype=np.int64)
        self._coords = np.zeros((0, capacity, space.dim), dtype=float)
        self._ages = np.zeros((0, capacity), dtype=np.int64) if with_ages else None

    # -- storage -----------------------------------------------------------

    def _ensure_rows(self, n: int) -> None:
        have = len(self._ids)
        if n <= have:
            return
        grow = max(n, have * 2, 8) - have
        self._ids = np.concatenate(
            [self._ids, np.full((grow, self.capacity), -1, dtype=np.int64)]
        )
        self._coords = np.concatenate(
            [
                self._coords,
                np.zeros((grow, self.capacity, self._coord_dim), dtype=float),
            ]
        )
        if self._ages is not None:
            self._ages = np.concatenate(
                [self._ages, np.zeros((grow, self.capacity), dtype=np.int64)]
            )
        if obs_mem.ENABLED:
            # int64 ids (+ int64 ages) and float64 coords per new slot.
            added = 8 * grow * self.capacity * (1 + self._coord_dim)
            if self._ages is not None:
                added += 8 * grow * self.capacity
            obs_mem.add("topology_views", f"{self.name}.views", added)

    def view_arrays(self):
        """The raw ``(ids, coords)`` state (rows indexed by table row)."""
        return self._ids, self._coords

    # -- bootstrap ---------------------------------------------------------

    def _bootstrap(self, sim, rows: np.ndarray) -> None:
        """(Re-)initialise the views of ``rows`` with random peers from
        the peer-sampling layer, recorded at their current positions."""
        if len(rows) == 0:
            return
        table = sim.network.table
        peers = self.rps.sample_rows(sim, rows, self.bootstrap_size)
        self._ids[rows] = -1
        self._coords[rows] = 0.0
        if self._ages is not None:
            self._ages[rows] = 0
        n_peers = peers.shape[1]
        if n_peers:
            self._ids[rows, :n_peers] = peers
            self._coords[rows, :n_peers] = table.gather(peers)

    def init_network(self, sim) -> None:
        self._ensure_rows(sim.network.table.n_rows)
        self._bootstrap(sim, sim.alive_act_rows())

    def init_node(self, sim, node) -> None:
        self._ensure_rows(node.row + 1)
        self._bootstrap(sim, np.asarray([node.row], dtype=np.int64))

    # -- queries -----------------------------------------------------------

    def _closest_alive(self, sim, rows: np.ndarray, pos: np.ndarray, k: int):
        """``(ids, pick, kd)`` of a row block: its view ids, the columns
        of each row's ``k`` closest *alive* entries, closest first, and
        their squared rank distances (``inf`` past the last alive one)."""
        ids = self._ids[rows]
        d = kernels.row_rank_sq(self.space, pos[rows], self._coords[rows])
        d[~sim.alive_entry_mask(ids)] = np.inf
        if obs_mem.ENABLED:
            obs_mem.scratch(
                "topology_pads", f"{self.name}.rank_block", ids.nbytes + d.nbytes
            )
        pick = kernels.topk_smallest(d, k)
        kd = kernels.take_rows(d, pick)
        order = np.argsort(kd, axis=1, kind="stable")
        return ids, kernels.take_rows(pick, order), kernels.take_rows(kd, order)

    def neighbors_rows(self, sim, rows: np.ndarray, k: int) -> np.ndarray:
        """``(len(rows), k)`` closest *alive* view entries per row,
        closest first, ``-1`` padded — the vectorised form of
        ``neighbors`` feeding migration."""
        self._ensure_rows(sim.network.table.n_rows)
        pos = sim.network.table.coords_rows()
        out = np.empty((len(rows), min(k, self.capacity)), dtype=np.int64)
        step = kernels.block_rows(0, self.capacity, self._coord_dim)
        for a in range(0, len(rows), step):
            ids, pick, kd = self._closest_alive(sim, rows[a : a + step], pos, k)
            out[a : a + step] = np.where(
                np.isfinite(kd), kernels.take_rows(ids, pick), -1
            )
        return out

    def neighbors(self, sim, node, k: int) -> List[NodeId]:
        """Scalar interface kept for the backup placement heuristic and
        ad-hoc probes."""
        got = self.neighbors_rows(sim, np.asarray([node.row], dtype=np.int64), k)
        return [int(nid) for nid in got[0] if nid >= 0]

    def view_of(self, node) -> ViewBuffer:
        ids = self._ids[node.row]
        coords = self._coords[node.row]
        return ViewBuffer(
            self._coord_dim,
            (
                (int(nid), tuple(float(c) for c in coord))
                for nid, coord in zip(ids, coords)
                if nid >= 0
            ),
        )

    # -- shared step pieces ------------------------------------------------

    def _groom(self, sim, act: np.ndarray) -> None:
        """Evict detected peers and re-bootstrap empty views in place."""
        ids_act = self._ids[act]
        evict = sim.detected_entry_mask(ids_act)
        if evict.any():
            ids_act[evict] = -1
            self._ids[act] = ids_act
            if self._ages is not None:
                ages = self._ages[act]
                ages[evict] = 0
                self._ages[act] = ages
        if self._ages is not None:
            ages = self._ages[act]
            ages[ids_act >= 0] += 1
            self._ages[act] = ages
        empty = ~(ids_act >= 0).any(axis=1)
        if empty.any():
            self._bootstrap(sim, act[empty])

    def _exchange_buffers(
        self,
        sim,
        irow: np.ndarray,
        qrow: np.ndarray,
        pos: np.ndarray,
        m: int,
        extra_i=None,
        extra_q=None,
    ):
        """Both directions' ``m``-descriptor buffers of every exchange
        in one fused selection.

        Each side's pool is its view entries plus its own fresh
        descriptor (plus optional extra descriptors at current
        positions); the payload ranks the initiator's pool against the
        *partner's* position and the reply the partner's pool against
        the *initiator's*.  Both directions are stacked into one list of
        pool rows and ranked a row block at a time (every row ranks
        independently), so the gathered pools stay O(block).
        """
        E = len(irow)
        dim = self._coord_dim
        rows = np.concatenate([irow, qrow])
        toward = np.concatenate([qrow, irow])
        if extra_i is None:
            extra = np.empty((2 * E, 0), dtype=np.int64)
        else:
            extra = np.concatenate([extra_i, extra_q])
        width = self.capacity + 1 + extra.shape[1]
        k = min(m, width)
        ids = np.empty((2 * E, k), dtype=np.int64)
        coords = np.empty((2 * E, k, dim))
        step = kernels.block_rows(0, width, dim)
        for a in range(0, 2 * E, step):
            blk = slice(a, a + step)
            pool_ids, pool_coords = self._pool_blocks(sim, rows[blk], pos, extra[blk])
            d = kernels.row_rank_sq(self.space, pos[toward[blk]], pool_coords)
            d[pool_ids < 0] = np.inf
            if obs_mem.ENABLED:
                obs_mem.scratch(
                    "topology_pads",
                    f"{self.name}.exchange_pool",
                    pool_ids.nbytes + pool_coords.nbytes + d.nbytes,
                )
            pick = kernels.topk_smallest(d, m)
            kd = kernels.take_rows(d, pick)
            ids[blk] = np.where(np.isfinite(kd), kernels.take_rows(pool_ids, pick), -1)
            coords[blk] = kernels.take_rows(pool_coords, pick)
        return (ids[:E], coords[:E]), (ids[E:], coords[E:])

    def _pool_blocks(self, sim, rows, pos, extra_ids):
        """One side's padded pool: view entries, own fresh descriptor,
        extra descriptors (possibly none) at current positions."""
        table = sim.network.table
        own = table._nid_of[rows]
        blocks_ids = [self._ids[rows], own[:, None]]
        blocks_coords = [self._coords[rows], pos[rows][:, None, :]]
        if extra_ids.shape[1]:
            blocks_ids.append(extra_ids)
            blocks_coords.append(table.gather(extra_ids))
        return (
            np.concatenate(blocks_ids, axis=1),
            np.concatenate(blocks_coords, axis=1),
        )

    def _apply_merges(
        self,
        sim,
        recv_blocks,
        ids_blocks,
        coords_blocks,
    ) -> None:
        """Merge the (receiver, message) blocks into the receivers' views
        through the fused ranked merge-truncate, one row block at a time.

        Column order per receiver — existing view entries first, then
        incoming entries in message-arrival order — reproduces the
        freshest-copy-wins dedup of the former flat pipeline exactly.

        Receivers are ordered by incoming-entry count and cut into
        blocks of :func:`~repro.sim.batch.kernels.block_rows` rows, each
        padded only to its own widest row: a flooded receiver widens
        one block instead of the whole network, and pad and kernel
        scratch stay O(block).  The kernel ranks each row independently
        and blocks are disjoint, so the result is identical to one
        whole-network call.
        """
        table = sim.network.table
        pos = table.coords_rows()
        C = self.capacity
        dim = self._coord_dim

        inc_rows = np.concatenate(
            [np.repeat(rows, blk.shape[1]) for rows, blk in zip(recv_blocks, ids_blocks)]
        )
        inc_ids = np.concatenate([blk.ravel() for blk in ids_blocks])
        inc_coords = np.concatenate([blk.reshape(-1, dim) for blk in coords_blocks])
        keep = inc_ids >= 0
        keep &= inc_ids != table._nid_of[inc_rows]
        keep &= ~sim.detected_entry_mask(inc_ids)
        kept = np.flatnonzero(keep)
        inc_rows = inc_rows[kept]

        # Receivers: every row addressed by a message gets re-ranked,
        # even if all its incoming entries were filtered out above.
        # Fullest first, so a block's first row is its widest.
        cnt_in = np.bincount(inc_rows, minlength=len(self._ids))
        touched = np.zeros(len(self._ids), dtype=bool)
        touched[np.concatenate(recv_blocks)] = True
        recv_rows = np.flatnonzero(touched)
        recv_rows = recv_rows[kernels.radix_argsort(cnt_in[recv_rows])[::-1]]
        cnt_in = cnt_in[recv_rows]
        U = len(recv_rows)
        slot_of = np.zeros(len(self._ids), dtype=np.int64)
        slot_of[recv_rows] = np.arange(U)

        # Per-receiver incoming columns in flat arrival order: a stable
        # radix grouping by receiver slot keeps equal-receiver entries
        # in input order, so a block's entries are one contiguous run
        # and the position within a receiver's run is the column offset.
        # Filter and grouping compose into one index, so the incoming
        # ids and coordinates move once.
        slot = slot_of[inc_rows]
        order = kernels.radix_argsort(slot)
        slot = slot[order]
        src = kept[order]
        # The whole-network index arrays die as soon as they are
        # composed: three entry-length int64 columns and a mask the
        # block loop below would otherwise carry (51 MB at 51,200 nodes).
        del inc_rows, keep, kept, order
        inc_ids = inc_ids[src]
        inc_coords = inc_coords[src]
        del src
        ends = np.cumsum(cnt_in)
        col = C + np.arange(len(slot)) - (ends - cnt_in)[slot]
        if obs_mem.ENABLED:
            # What stays whole-network for the block loop: the round's
            # messages as the caller built them and as bucketed here.
            obs_mem.scratch(
                "topology_pads",
                f"{self.name}.messages",
                sum(blk.nbytes for blk in (*ids_blocks, *coords_blocks))
                + inc_ids.nbytes + inc_coords.nbytes + slot.nbytes + col.nbytes,
            )

        stride = 1 + max(
            int(self._ids.max(initial=-1)), int(inc_ids.max(initial=-1))
        )
        a = 0
        while a < U:
            width = C + int(cnt_in[a])
            b = min(U, a + kernels.block_rows(stride, width, dim))
            rows = recv_rows[a:b]
            lo = int(ends[a] - cnt_in[a])
            hi = int(ends[b - 1])
            ids_pad = np.full((b - a, width), -1, dtype=np.int64)
            coords_pad = np.zeros((b - a, width, dim))
            ids_pad[:, :C] = self._ids[rows]
            coords_pad[:, :C] = self._coords[rows]
            ids_pad[slot[lo:hi] - a, col[lo:hi]] = inc_ids[lo:hi]
            coords_pad[slot[lo:hi] - a, col[lo:hi]] = inc_coords[lo:hi]
            valid = ids_pad >= 0
            ages_pad = None
            if self._ages is not None:
                # Incoming descriptors are freshly heard of: age 0.
                ages_pad = np.zeros((b - a, width), dtype=np.int64)
                ages_pad[:, :C] = self._ages[rows]
            if obs_mem.ENABLED:
                pad_bytes = ids_pad.nbytes + coords_pad.nbytes + valid.nbytes
                if ages_pad is not None:
                    pad_bytes += ages_pad.nbytes
                obs_mem.scratch("topology_pads", f"{self.name}.merge_pad", pad_bytes)
            out = kernels.merge_rank_truncate(
                self.space, pos[rows], ids_pad, coords_pad, valid, C, stride, ages_pad
            )
            self._ids[rows] = out[0]
            self._coords[rows] = out[1]
            if ages_pad is not None:
                self._ages[rows] = out[2]
            a = b

    # -- canonical-state bridge ---------------------------------------------

    #: The per-node attribute :meth:`materialize` writes (both layers
    #: share the event engine's ``tman_view`` slot).
    canonical_attr = "tman_view"

    def materialize(self, sim) -> None:
        for node in sim.network.nodes.values():
            node.tman_view = self.view_of(node)
            if self._ages is not None:
                ids = self._ids[node.row]
                ages = self._ages[node.row]
                node.vicinity_age = {
                    int(i): int(a) for i, a in zip(ids, ages) if i >= 0
                }

    def adopt(self, sim) -> None:
        self._ensure_rows(sim.network.table.n_rows)
        self._ids[:] = -1
        self._coords[:] = 0.0
        if self._ages is not None:
            self._ages[:] = 0
        for node in sim.network.nodes.values():
            view = getattr(node, "tman_view", None)
            if view is None:
                continue
            ages = getattr(node, "vicinity_age", {})
            for j, (nid, coord) in enumerate(list(view.items())[: self.capacity]):
                self._ids[node.row, j] = nid
                self._coords[node.row, j] = coord
                if self._ages is not None:
                    self._ages[node.row, j] = ages.get(nid, 0)
            del node.tman_view
            if hasattr(node, "vicinity_age"):
                del node.vicinity_age


class BatchTMan(_BatchTopologyBase):
    """Whole-network T-Man gossip (batch form of
    :class:`repro.gossip.tman.TManLayer`)."""

    name = "tman"

    def __init__(
        self,
        space: Space,
        rps,
        message_size: int = 20,
        psi: int = 5,
        view_cap: int = 100,
        bootstrap_size: int = 10,
    ) -> None:
        if message_size < 1:
            raise ValueError("message_size must be >= 1")
        if psi < 1:
            raise ValueError("psi must be >= 1")
        if view_cap < 1:
            raise ValueError("view_cap must be >= 1")
        super().__init__(space, rps, view_cap, bootstrap_size, with_ages=False)
        self.message_size = message_size
        self.psi = psi
        self.view_cap = view_cap

    def step(self, sim) -> None:
        table = sim.network.table
        self._ensure_rows(table.n_rows)
        act = sim.alive_act_rows()
        if len(act) == 0:
            return
        gen = sim.rng_for(self.name)
        self._groom(sim, act)

        # Partner: uniform among the ψ closest alive view entries, one
        # draw per alive node taken before the row blocks are ranked.
        pos = table.coords_rows()
        u = gen.random(len(act))
        partner = np.empty(len(act), dtype=np.int64)
        step = kernels.block_rows(0, self.capacity, self._coord_dim)
        for a in range(0, len(act), step):
            ids, pick, kd = self._closest_alive(sim, act[a : a + step], pos, self.psi)
            avail = np.isfinite(kd).sum(axis=1)
            j = np.minimum(
                (u[a : a + step] * np.maximum(avail, 1)).astype(np.int64),
                np.maximum(avail - 1, 0),
            )
            col = kernels.take_rows(pick, j)
            partner[a : a + step] = np.where(avail > 0, kernels.take_rows(ids, col), -1)

        ex = np.flatnonzero(partner >= 0)
        if len(ex) == 0:
            return
        irow = act[ex]
        qrow = table.rows_of(partner[ex])

        # Symmetric exchange buffers from the snapshot.
        (pay_ids, pay_coords), (rep_ids, rep_coords) = self._exchange_buffers(
            sim,
            irow,
            qrow,
            pos,
            self.message_size,
        )
        n_desc = int((pay_ids >= 0).sum() + (rep_ids >= 0).sum())
        sim.meter.charge_descriptors(self.name, n_desc, self._coord_dim)
        obs_metrics.count("exchanges.tman", len(ex))

        self._apply_merges(
            sim,
            recv_blocks=[qrow, irow],
            ids_blocks=[pay_ids, rep_ids],
            coords_blocks=[pay_coords, rep_coords],
        )


class BatchVicinity(_BatchTopologyBase):
    """Whole-network Vicinity gossip (batch form of
    :class:`repro.gossip.vicinity.VicinityLayer`)."""

    name = "vicinity"

    def __init__(
        self,
        space: Space,
        rps,
        view_size: int = 20,
        message_size: int = 10,
        rps_candidates: int = 3,
        bootstrap_size: int = 10,
    ) -> None:
        if view_size < 1:
            raise ValueError("view_size must be >= 1")
        if message_size < 1:
            raise ValueError("message_size must be >= 1")
        if rps_candidates < 0:
            raise ValueError("rps_candidates cannot be negative")
        super().__init__(
            space, rps, view_size, min(bootstrap_size, view_size), with_ages=True
        )
        self.view_size = view_size
        self.message_size = message_size
        self.rps_candidates = rps_candidates

    def step(self, sim) -> None:
        table = sim.network.table
        self._ensure_rows(table.n_rows)
        act = sim.alive_act_rows()
        if len(act) == 0:
            return
        self._groom(sim, act)

        # Partner: the oldest entry (ties to the max id), alive or not —
        # a dead-but-undetected partner still answers, as in the event
        # engine's PeerSim-style model.
        ids_act = self._ids[act]
        valid = ids_act >= 0
        agekey = np.where(valid, self._ages[act], -1)
        oldest = agekey.max(axis=1)
        can = valid & (agekey == oldest[:, None])
        partner = np.max(np.where(can, ids_act, -1), axis=1)
        ex = np.flatnonzero(partner >= 0)
        if len(ex) == 0:
            return
        qrow_all = table.rows_of(partner[ex])
        known = qrow_all >= 0
        ex = ex[known]
        if len(ex) == 0:
            return
        irow = act[ex]
        qrow = qrow_all[known]
        pos = table.coords_rows()

        # Buffers fold in fresh RPS candidates on both sides (two
        # separate draws: the initiator draw precedes the partner draw
        # in the layer's RNG stream).
        extra_i = self.rps.sample_rows(sim, irow, self.rps_candidates)
        extra_q = self.rps.sample_rows(sim, qrow, self.rps_candidates)
        (pay_ids, pay_coords), (rep_ids, rep_coords) = self._exchange_buffers(
            sim,
            irow,
            qrow,
            pos,
            self.message_size,
            extra_i=extra_i,
            extra_q=extra_q,
        )
        n_desc = int((pay_ids >= 0).sum() + (rep_ids >= 0).sum())
        sim.meter.charge_descriptors(self.name, n_desc, self._coord_dim)

        self._apply_merges(
            sim,
            recv_blocks=[qrow, irow],
            ids_blocks=[pay_ids, rep_ids],
            coords_blocks=[pay_coords, rep_coords],
        )
