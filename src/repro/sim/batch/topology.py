"""Batch topology construction: whole-network T-Man and Vicinity.

A view slot holds a *descriptor*: a peer's id plus the position that
peer advertised when the descriptor was sent (Sec. IV-A).  Many slots
hold the same descriptor — at 80×40 the 320k filled slots of T-Man's
views hold 3–10k distinct ones — so each is stored once, in a per-layer
*descriptor table* (an int64 id and a float64 coordinate per
*version*), and view state is padded arrays indexed by node-table row:
int32 versions ``(R, C)`` with ``-1`` empty slots (Vicinity adds
``ages`` ``(R, C)``).  The table's last slot is a sentinel — id ``-1``,
zero coordinates — so a ``-1`` pad resolves through plain ``take``
calls, as :class:`~repro.sim.arrays.NodeTable`'s does.  A node's fresh
descriptor (its id at its current position: its own entry in an
exchange pool, a bootstrap peer, a Vicinity RPS candidate) reuses its
current version while its table coordinate is bitwise the one that
version recorded, and is issued a new version otherwise, so a stored
descriptor stays exactly as stale as the one it was copied from.  A
full table compacts: the versions a view slot or a current-version
column references are kept, renumbered in order.

One ``step`` runs the round for every alive node from the groomed
round-start snapshot:

1. evict detectably-failed peers, re-bootstrap empty views from the
   peer-sampling layer;
2. select every node's gossip partner (T-Man: uniform among the ψ
   closest alive entries; Vicinity: the oldest entry);
3. build both exchange buffers of every pair — the ``m`` descriptors of
   ``view ∪ {self}`` (Vicinity: ``∪ fresh RPS candidates``) closest to
   the *other* side's position — from the snapshot, as one stacked
   array of message versions (payloads above replies) beside its
   receiver column;
4. deliver all messages at once: every descriptor is metered, a
   receiver's own id and detected peers are blanked in place, fresher
   descriptors overwrite, and every touched view is truncated to the
   ``cap`` entries closest to the receiver's position, stored in ranked
   order.

Every stage runs a *row block* at a time: the groom (evicting and
ageing in place, then one bootstrap call over every block's empty rows
in row order), partner ranking, both directions of every exchange (one
list of pool rows, each pool filled in place), the receivers' refusal
filter and the merge each resolve only
:func:`~repro.sim.batch.kernels.block_rows` rows of versions into ids
and coordinates, so no block outgrows the scratch budget however large
the network is and a step holds the views, the round's messages and
one block.  Rows rank independently, RNG draws are taken for the whole
network before (or, for the bootstrap, after) a block loop, and every
fresh version a step needs is issued before its block loop, so blocking
changes no result and no stream, and no compaction renumbers a version
a block loop holds.  A descriptor moves once: the messages stay stacked
as step 3 built them, step 4 buckets *messages* (not entries) by
receiver — one count, one stable radix pass over the receiver column —
and a block of receivers scatters whole messages behind its view
block, padded only to its own fullest row, for the fused
:func:`~repro.sim.batch.kernels.merge_rank_truncate`, which ranks the
resolved coordinates and keeps the winners' versions.  What stays
whole-network besides the messages is four message-length index
columns.

View arrays are sized to the node table's capacity
(:attr:`~repro.sim.arrays.NodeTable.capacity`) and numbered as its rows
are: the table owns the one growth rule and the one renumbering, a
layer only follows them, through :func:`~repro.sim.arrays.follow` (in
place unless something else holds the array).  Versions are numbered
independently of rows, so a reclaim renumbers none of them.

Batch-vs-event semantic deltas: exchanges are snapshot-based rather
than sequential, a node reached by several messages merges them in one
ranked truncation (the event engine merges one message at a time: its
T-Man ranks and cuts each merge, its Vicinity truncates only on
overflow and keeps insertion order below the size), and ranking ties
behind the partner choice (and ``neighbors_rows``) break by neither
slot nor id: :meth:`_closest_alive` picks the ``k`` closest with
:func:`~repro.sim.batch.kernels.topk_smallest` (``argpartition``) and
stable-sorts only the picked distances, so which of the entries tied
at the ``k`` boundary are picked, and in what order tied picks come
out, is whatever numpy's introselect leaves — batch digests depend on
it.  The constructed overlay is statistically the same.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...obs import mem as obs_mem
from ...obs import metrics as obs_metrics
from ...spaces.base import Space
from ...types import NodeId
from ..arrays import ViewBuffer, follow
from . import kernels


class ViewIdMatrix:
    """A topology layer's view ids read as the padded ``(rows, C)`` id
    matrix of :meth:`~repro.sim.engine.Simulation.view_matrix`, one row
    block at a time (``ids[rows]``), never materialised whole."""

    def __init__(self, layer) -> None:
        self._layer = layer
        self.shape = layer.view_shape

    def __getitem__(self, rows) -> np.ndarray:
        return self._layer.ids_rows(rows)


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
        self._ver = np.full((0, capacity), -1, dtype=np.int32)
        self._ages = np.zeros((0, capacity), dtype=np.int64) if with_ages else None
        #: Each row's current version (``-1``: none issued yet).
        self._cur = np.full(0, -1, dtype=np.int32)
        #: The descriptor table: versions ``[0, _n_ver)`` are issued,
        #: the last slot is the sentinel.
        self._vnid = np.full(1, -1, dtype=np.int64)
        self._vcoord = np.zeros((1, space.dim))
        self._n_ver = 0
        if obs_mem.ENABLED:
            obs_mem.add("topology_views", f"{self.name}.views", self.nbytes)

    # -- storage -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes of the view state: version slots (+ ages), the
        current-version column and the descriptor table (the memory
        ledger's ``<layer>.views`` site)."""
        total = self._ver.nbytes + self._cur.nbytes
        total += self._vnid.nbytes + self._vcoord.nbytes
        if self._ages is not None:
            total += self._ages.nbytes
        return total

    def _ensure_rows(self, table) -> None:
        """Follow the node table (its capacity and row numbering: the
        table owns both; a layer only follows them)."""
        before = self.nbytes if obs_mem.ENABLED else 0
        follow(self, table, {"_ver": -1, "_ages": 0, "_cur": -1})
        if obs_mem.ENABLED:
            obs_mem.add("topology_views", f"{self.name}.views", self.nbytes - before)

    def _resolve(self, ver: np.ndarray):
        """``(ids, coords)`` of a version block of any shape: int64 ids
        and float coordinates, ``-1`` / zeros where the version is
        ``-1``."""
        return self._vnid.take(ver), self._vcoord.take(ver, axis=0)

    def ids_rows(self, rows) -> np.ndarray:
        """The view ids of table ``rows`` (an index array or a slice),
        ``-1`` padded — how readers outside the layer see its views."""
        return self._vnid.take(self._ver[rows])

    @property
    def view_shape(self):
        """``(allocated rows, view slots)`` of :meth:`ids_rows`."""
        return self._ver.shape

    # -- the descriptor table ------------------------------------------------

    def _fresh(self, table, rows: np.ndarray) -> np.ndarray:
        """Versions of the descriptors the nodes at table ``rows`` (any
        shape, ``-1`` for none) advertise now: their ids at their
        current positions.  A row keeps its current version while the
        table's coordinate is bitwise the one that version recorded;
        otherwise (the node moved, the row changed hands, or it never
        advertised) it is issued one new version.  May compact the
        table, so it renumbers versions a caller holds: call it before
        reading the views."""
        out = np.full(rows.shape, -1, dtype=np.int32)
        has = rows >= 0
        rows = rows[has]
        cur = self._cur.take(rows)
        stale = self._vnid.take(cur) != table._nid_of.take(rows)
        bits = self._vcoord.take(cur, axis=0).view(np.int64)
        stale |= (bits != table._coords.take(rows, axis=0).view(np.int64)).any(axis=1)
        if stale.any():
            # Each stale row once, in row order (``np.unique`` would
            # import ``numpy.ma``, a megabyte, for its masked check).
            mark = np.zeros(len(self._cur), dtype=bool)
            mark[rows[stale]] = True
            new = np.flatnonzero(mark)
            k = len(new)
            if self._n_ver + k > len(self._vnid) - 1:
                self._compact_versions(k)
            first = self._n_ver
            self._vnid[first : first + k] = table._nid_of[new]
            self._vcoord[first : first + k] = table._coords[new]
            self._cur[new] = np.arange(first, first + k, dtype=np.int32)
            self._n_ver += k
            cur = self._cur.take(rows)
        out[has] = cur
        return out

    def _live_versions(self) -> np.ndarray:
        """Bool mask over the issued versions: those a view slot or the
        current-version column references."""
        live = np.zeros(self._n_ver + 1, dtype=bool)  # the last cell takes -1
        step = kernels.block_rows(0, self.capacity, 1)
        for a in range(0, len(self._ver), step):
            live[self._ver[a : a + step]] = True
        live[self._cur] = True
        return live[:-1]

    def _compact_versions(self, extra: int = 0) -> None:
        """Keep the live versions (:meth:`_live_versions`), renumbered in
        order, in a table of twice their number plus ``extra`` (the
        versions about to be issued): the room a compaction leaves is at
        least what it kept, so its cost, O(view slots + table), is O(1)
        per version issued."""
        before = self.nbytes if obs_mem.ENABLED else 0
        keep = np.flatnonzero(self._live_versions())
        remap = np.full(self._n_ver + 1, -1, dtype=np.int32)  # -1 stays -1
        remap[keep] = np.arange(len(keep), dtype=np.int32)
        step = kernels.block_rows(0, self.capacity, 1)
        for a in range(0, len(self._ver), step):
            self._ver[a : a + step] = remap.take(self._ver[a : a + step])
        self._cur[:] = remap.take(self._cur)
        size = 2 * (len(keep) + extra) + 1
        vnid = np.full(size, -1, dtype=np.int64)
        vcoord = np.zeros((size, self._coord_dim))
        vnid[: len(keep)] = self._vnid[keep]
        vcoord[: len(keep)] = self._vcoord[keep]
        self._vnid, self._vcoord, self._n_ver = vnid, vcoord, len(keep)
        if obs_mem.ENABLED:
            obs_mem.add("topology_views", f"{self.name}.views", self.nbytes - before)

    # -- bootstrap ---------------------------------------------------------

    def _bootstrap(self, sim, rows: np.ndarray) -> None:
        """(Re-)initialise the views of ``rows`` with random peers from
        the peer-sampling layer, recorded at their current positions."""
        if len(rows) == 0:
            return
        table = sim.network.table
        peers = self.rps.sample_rows(sim, rows, self.bootstrap_size)
        self._ver[rows] = -1
        if self._ages is not None:
            self._ages[rows] = 0
        n_peers = peers.shape[1]
        if n_peers == 0:
            return
        got = self._fresh(table, table.rows_of(peers))
        if n_peers > self.capacity:
            # A draw wider than the view keeps the ``capacity`` peers
            # closest to the node: T-Man's bounded-view rule, which the
            # event engine applies at its first merge.
            pos = table.coords_rows()
            stride = 1 + int(peers.max(initial=-1))
            step = kernels.block_rows(stride, n_peers, self._coord_dim)
            for a in range(0, len(rows), step):
                blk, ver = rows[a : a + step], got[a : a + step]
                ids, coords = self._resolve(ver)
                self._ver[blk] = kernels.merge_rank_truncate(
                    self.space, pos[blk], ids, coords, ver, ver >= 0,
                    self.capacity, stride,
                )[0]
        else:
            self._ver[rows, :n_peers] = got

    def init_network(self, sim) -> None:
        self._ensure_rows(sim.network.table)
        self._bootstrap(sim, sim.alive_act_rows())

    def init_node(self, sim, node) -> None:
        self._ensure_rows(sim.network.table)
        self._bootstrap(sim, np.asarray([node.row], dtype=np.int64))

    # -- queries -----------------------------------------------------------

    def _closest_alive(self, sim, rows: np.ndarray, pos: np.ndarray, k: int):
        """``(ids, pick, kd)`` of a row block: its view ids, the columns
        of each row's ``k`` closest *alive* entries, closest first, and
        their squared rank distances (``inf`` past the last alive one)."""
        ver = self._ver[rows]
        ids, coords = self._resolve(ver)
        d = kernels.row_rank_sq(self.space, pos[rows], coords)
        d[~sim.alive_entry_mask(ids)] = np.inf
        if obs_mem.ENABLED:
            # At the rank: the version, id and coordinate blocks and the
            # three (rows, C) float blocks the rank kernel holds at once.
            obs_mem.scratch(
                "topology_pads",
                f"{self.name}.rank_block",
                ver.nbytes + ids.nbytes + coords.nbytes + 3 * d.nbytes,
            )
        pick = kernels.topk_smallest(d, k)
        kd = kernels.take_rows(d, pick)
        order = np.argsort(kd, axis=1, kind="stable")
        return ids, kernels.take_rows(pick, order), kernels.take_rows(kd, order)

    def neighbors_rows(self, sim, rows: np.ndarray, k: int) -> np.ndarray:
        """``(len(rows), k)`` closest *alive* view entries per row,
        closest first, ``-1`` padded — the vectorised form of
        ``neighbors`` feeding migration."""
        self._ensure_rows(sim.network.table)
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
        if node.row < 0:  # a reclaimed row: nothing to read
            return ViewBuffer(self._coord_dim)
        ver = self._ver[node.row]
        ids, coords = self._resolve(ver[ver >= 0])
        return ViewBuffer(
            self._coord_dim,
            (
                (nid, tuple(coord))
                for nid, coord in zip(ids.tolist(), coords.tolist())
            ),
        )

    # -- shared step pieces ------------------------------------------------

    def _groom(self, sim, act: np.ndarray) -> None:
        """Evict detected peers, age the held entries (Vicinity) and
        re-bootstrap empty views — evicting and ageing one row block at
        a time in place, then one bootstrap call over every block's
        empty rows in ``act`` order, so the RNG stream is that of one
        whole-network pass."""
        empty = []
        step = kernels.block_rows(0, self.capacity, 1)
        for a in range(0, len(act), step):
            rows = act[a : a + step]
            ver = self._ver[rows]
            ids = self._vnid.take(ver)
            evict = sim.detected_entry_mask(ids)
            held = ver >= 0
            if obs_mem.ENABLED:
                # The version block, its ids and their rows
                # (detected_entry_mask's gather), two masks.
                obs_mem.scratch(
                    "topology_pads",
                    f"{self.name}.groom",
                    ver.nbytes + 2 * ids.nbytes + evict.nbytes + held.nbytes,
                )
            if evict.any():
                ver[evict] = -1
                held &= ~evict
                self._ver[rows] = ver
            if self._ages is not None:
                ages = self._ages[rows]
                ages[evict] = 0
                ages[held] += 1
                self._ages[rows] = ages
            empty.append(rows[~held.any(axis=1)])
        self._bootstrap(sim, np.concatenate(empty))

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
        """The round's messages, stacked: ``(recv, vers)`` — the
        versions of the descriptors sent, ``-1`` padded — with the
        payloads (sent by ``irow`` to ``qrow``) above the replies.

        Each side's pool is its view entries plus its own fresh
        descriptor (plus optional extra descriptors at current
        positions); a message is the ``m`` pool entries closest to the
        *receiver's* position.  Every fresh version is issued up front;
        then both directions are one list of pool rows, ranked a row
        block at a time (every row ranks independently), so the resolved
        pools stay O(block).
        """
        table = sim.network.table
        E = len(irow)
        dim = self._coord_dim
        rows = np.concatenate([irow, qrow])
        recv = np.concatenate([qrow, irow])
        if extra_i is None:
            extra = np.empty((2 * E, 0), dtype=np.int64)
        else:
            extra = table.rows_of(np.concatenate([extra_i, extra_q]))
        # One call: a compaction inside a second one would renumber the first's.
        fresh = self._fresh(table, np.concatenate([rows, extra.ravel()]))
        own, extra = fresh[: 2 * E], fresh[2 * E :].reshape(extra.shape)
        C = self.capacity
        width = C + 1 + extra.shape[1]
        k = min(m, width)
        vers = np.empty((2 * E, k), dtype=np.int32)
        step = kernels.block_rows(0, width, dim)
        for a in range(0, 2 * E, step):
            blk = slice(a, a + step)
            pool = np.empty((len(rows[blk]), width), dtype=np.int32)
            pool[:, :C] = self._ver[rows[blk]]
            pool[:, C] = own[blk]
            pool[:, C + 1 :] = extra[blk]
            pool_coords = self._vcoord.take(pool, axis=0)
            d = kernels.row_rank_sq(self.space, pos[recv[blk]], pool_coords)
            d[pool < 0] = np.inf
            if obs_mem.ENABLED:
                # At the rank: the pool's versions and coordinates and
                # three (rows, width) float blocks of the rank kernel.
                obs_mem.scratch(
                    "topology_pads",
                    f"{self.name}.exchange_pool",
                    pool.nbytes + pool_coords.nbytes + 3 * d.nbytes,
                )
            pick = kernels.topk_smallest(d, m)
            kd = kernels.take_rows(d, pick)
            vers[blk] = np.where(np.isfinite(kd), kernels.take_rows(pool, pick), -1)
        return recv, vers

    def _apply_merges(self, sim, recv: np.ndarray, vers: np.ndarray) -> None:
        """Deliver the round's stacked messages — message ``j`` is the
        ``k`` descriptor versions ``vers[j]`` for row ``recv[j]``, listed
        in arrival order — and merge them into the receivers' views
        through the fused ranked merge-truncate.

        Every descriptor sent is metered; what a receiver then refuses
        (its own id, detected peers) becomes a ``-1`` hole *in place*.
        Messages, not entries, are bucketed: one count and one stable
        radix pass over the receiver column (stable = arrival order),
        and a row block scatters whole ``k``-wide messages behind its
        view block.  Column order per receiver — view entries, then
        messages in arrival order, holes masked — is that of a packed
        entry list, so the freshest-copy-wins dedup is unchanged.

        Receivers are ordered by message count and cut into blocks of
        :func:`~repro.sim.batch.kernels.block_rows` rows, each padded
        only to its own fullest row: a flooded receiver widens one
        block instead of the whole network, and pad and kernel scratch
        stay O(block).  The kernel ranks each row independently and
        blocks are disjoint, so the result is identical to one
        whole-network call.
        """
        table = sim.network.table
        pos = table.coords_rows()
        C = self.capacity
        dim = self._coord_dim
        M, k = vers.shape

        # Metering and refusal, a block of messages at a time: the
        # detector's row gather is as large as the messages' ids.
        sent = 0
        step = kernels.block_rows(0, k, 1)
        for a in range(0, M, step):
            blk = vers[a : a + step]
            ids = self._vnid.take(blk)
            sent += int(np.count_nonzero(blk >= 0))
            refused = sim.detected_entry_mask(ids)
            refused |= ids == table._nid_of[recv[a : a + step]][:, None]
            blk[refused] = -1
        sim.meter.charge_descriptors(self.name, sent, dim)

        # Receivers: every row addressed by a message gets re-ranked,
        # even if the filter left it nothing.  Fullest first, so a
        # block's first row is its widest.
        cnt = np.bincount(recv, minlength=len(self._ver))
        recv_rows = np.flatnonzero(cnt)
        recv_rows = recv_rows[kernels.radix_argsort(cnt[recv_rows])[::-1]]
        cnt = cnt[recv_rows]
        U = len(recv_rows)
        slot_of = np.zeros(len(self._ver), dtype=np.int64)
        slot_of[recv_rows] = np.arange(U)

        # A stable radix grouping by receiver slot keeps a receiver's
        # messages in arrival order, so a block's messages are one
        # contiguous run of ``order`` and the position within a
        # receiver's run is the message's place behind the view.
        slot = slot_of[recv]
        order = kernels.radix_argsort(slot)
        slot = slot[order]
        ends = np.cumsum(cnt)
        nth = np.arange(M) - (ends - cnt)[slot]
        if obs_mem.ENABLED:
            # What stays whole-network for the block loop: the round's
            # messages and four message-length columns.
            obs_mem.scratch(
                "topology_pads",
                f"{self.name}.messages",
                vers.nbytes + recv.nbytes + slot.nbytes + order.nbytes + nth.nbytes,
            )

        # Every id a view or a message holds is in the descriptor table.
        stride = 1 + int(self._vnid.max())
        a = 0
        while a < U:
            n_max = int(cnt[a])
            width = C + n_max * k
            b = min(U, a + kernels.block_rows(stride, width, dim))
            rows = recv_rows[a:b]
            run = slice(int(ends[a] - cnt[a]), int(ends[b - 1]))
            at = (slot[run] - a, nth[run])
            pad = np.full((b - a, width), -1, dtype=np.int32)
            pad[:, :C] = self._ver[rows]
            # Splitting the tail columns into (message, entry) is a view.
            pad[:, C:].reshape(b - a, n_max, k)[at] = vers[order[run]]
            ids_pad, coords_pad = self._resolve(pad)
            valid = pad >= 0
            ages_pad = None
            if self._ages is not None:
                # Incoming descriptors are freshly heard of: age 0.
                ages_pad = np.zeros((b - a, width), dtype=np.int64)
                ages_pad[:, :C] = self._ages[rows]
            if obs_mem.ENABLED:
                # The pads, and what the fused kernel holds beside them:
                # its int32 last-writer table and about three (rows,
                # width) int64 columns in flight (index, key, order).
                pad_bytes = pad.nbytes + ids_pad.nbytes + coords_pad.nbytes + valid.nbytes
                if ages_pad is not None:
                    pad_bytes += ages_pad.nbytes
                obs_mem.scratch(
                    "topology_pads",
                    f"{self.name}.merge_pad",
                    pad_bytes + 4 * (b - a) * stride + 3 * ids_pad.nbytes,
                )
            ver, ages = kernels.merge_rank_truncate(
                self.space, pos[rows], ids_pad, coords_pad, pad, valid, C, stride, ages_pad
            )
            self._ver[rows] = ver
            if ages is not None:
                self._ages[rows] = ages
            a = b

    # -- canonical-state bridge ---------------------------------------------

    #: The per-node attribute :meth:`materialize` writes (both layers
    #: share the event engine's ``tman_view`` slot).
    canonical_attr = "tman_view"

    def materialize(self, sim) -> None:
        for node in sim.network.nodes.values():
            if node.row < 0:  # a reclaimed row: the node holds no views
                continue
            node.tman_view = self.view_of(node)
            if self._ages is not None:
                ver = self._ver[node.row]
                held = ver >= 0
                node.vicinity_age = dict(
                    zip(
                        self._vnid.take(ver[held]).tolist(),
                        self._ages[node.row][held].tolist(),
                    )
                )


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
        self._ensure_rows(table)
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
        messages = self._exchange_buffers(sim, irow, qrow, pos, self.message_size)
        obs_metrics.count("exchanges.tman", len(ex))
        self._apply_merges(sim, *messages)


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
        self._ensure_rows(table)
        act = sim.alive_act_rows()
        if len(act) == 0:
            return
        self._groom(sim, act)

        # Partner: the oldest entry (ties to the max id), alive or not —
        # a dead-but-undetected partner still answers, as in the event
        # engine's PeerSim-style model.
        ver_act = self._ver[act]
        ids_act = self._vnid.take(ver_act)
        valid = ver_act >= 0
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
        messages = self._exchange_buffers(
            sim, irow, qrow, pos, self.message_size, extra_i, extra_q
        )
        self._apply_merges(sim, *messages)
