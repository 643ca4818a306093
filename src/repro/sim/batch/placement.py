"""Placement state of the batch engine, as row-indexed arrays.

Table I of the paper gives every node ``guests``, ``ghosts`` and
``backups`` (``pos`` lives in the node table).  The event engine keeps
them in one :class:`~repro.core.state.PolystyreneState` of dicts per
node; here they are four padded blocks indexed by node-table row,
beside the gossip layers' view arrays:

* ``guest_ids`` ``(rows, G)`` + ``guest_n`` — the point ids a node is
  primary holder of, **in insertion order** (``-1`` pads).  The order is
  protocol state: the medoid of two points is the first, a migration
  pool lists q's guests before p's, and recovery appends a copy in the
  copy's order;
* ``backup_ids`` ``(rows, K)`` — the node *ids* a node replicates to, one
  per slot (``-1`` = free slot; slot order carries no meaning);
* ``sent_ids`` ``(rows, K, G)`` + ``sent_n`` — the copy last pushed through
  each backup slot, in the origin's guest order at push time;
  ``sent_n == -1`` means nothing was ever pushed (an *empty* copy,
  ``sent_n == 0``, is a real push: it was metered and it is a ghost
  entry).  This block is ``backup_sent`` read by origin and ``ghosts``
  read by target: ``h.ghosts[o]`` is ``sent_ids[o, s]`` for the slot with
  ``backup_ids[o, s] == h`` — one store, no second copy to keep in step.

``owner`` ``(rows,)`` is the node id each row's placement belongs to, so
a row the table has released (or handed to a later node) is told from
its former owner without a hook on release.

Point ids are stored as int32 and node ids / counts as the table stores
them; rows follow the node table's capacity and the width ``G`` grows
by the rule the table's rows do (``arrays._grown``).  Every block is
registered on the memory ledger as family ``protocol_placement``.

:class:`~repro.core.state.PolystyreneState` objects appear in a batch
simulation only through :meth:`PlacementStore.materialize` (what
``sync_canonical()`` and the engine converter call) and are read back by
:meth:`PlacementStore.adopt`; this is the one module under
``repro.sim.batch`` that knows the dict layout.  Between those calls a
node carries no ``poly``; the layer sets ``NodeTable.placement_in_arrays``
so a reader of node sequences that was not handed the store raises
instead of finding every node empty.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from ...core.state import PolystyreneState
from ...obs import mem as obs_mem
from ...types import DataPoint, PointId
from ..arrays import _grown, resized

_MIN_WIDTH = 8


class PlacementStore:
    """Guests, backups and pushed copies of every node, by table row."""

    def __init__(self, replication: int) -> None:
        self.replication = K = int(replication)
        self.width = G = _MIN_WIDTH
        self.guest_ids = np.full((0, G), -1, dtype=np.int32)
        self.guest_n = np.zeros(0, dtype=np.int32)
        self.backup_ids = np.full((0, K), -1, dtype=np.int64)
        self.sent_ids = np.full((0, K, G), -1, dtype=np.int32)
        self.sent_n = np.full((0, K), -1, dtype=np.int32)
        self.owner = np.full(0, -1, dtype=np.int64)

    # -- storage -----------------------------------------------------------

    @property
    def nbytes(self) -> int:
        return (
            self.guest_ids.nbytes
            + self.guest_n.nbytes
            + self.backup_ids.nbytes
            + self.sent_ids.nbytes
            + self.sent_n.nbytes
            + self.owner.nbytes
        )

    def _resize(self, rows: int, width: int) -> None:
        before = self.nbytes
        have = len(self.guest_n)
        K = self.replication
        resized(self, "guest_ids", (rows, width), -1)
        resized(self, "sent_ids", (rows, K, width), -1)
        if rows != have:
            resized(self, "guest_n", (rows,), 0)
            resized(self, "backup_ids", (rows, K), -1)
            resized(self, "sent_n", (rows, K), -1)
            resized(self, "owner", (rows,), -1)
        self.width = width
        if obs_mem.ENABLED:
            obs_mem.add(
                "protocol_placement", "PlacementStore.blocks", self.nbytes - before
            )

    def __getstate__(self):
        """Pickle what is occupied, not what is allocated: the two wide
        blocks are mostly ``-1`` pads (a guest row holds ~3 ids in a
        width-16 block), so they travel as flat runs beside their
        counts.  Restored arrays are bit-identical, capacity included."""
        state = self.__dict__.copy()
        for name in ("guest_ids", "sent_ids"):
            block = state.pop(name)
            state[name + "_flat"] = block[block >= 0]
        state["rows"] = len(self.guest_n)
        return state

    def __setstate__(self, state) -> None:
        rows, width = state.pop("rows"), state["width"]
        guests = state.pop("guest_ids_flat")
        sent = state.pop("sent_ids_flat")
        self.__dict__.update(state)
        col = np.arange(width)
        self.guest_ids = np.full((rows, width), -1, dtype=guests.dtype)
        self.guest_ids[col < self.guest_n[:, None]] = guests
        self.sent_ids = np.full(
            (rows, self.replication, width), -1, dtype=sent.dtype
        )
        self.sent_ids[col < self.sent_n[:, :, None]] = sent

    def ensure_rows(self, table) -> None:
        """Size every block to the node table's capacity."""
        if table.capacity > len(self.guest_n):
            self._resize(table.capacity, self.width)

    def ensure_width(self, g: int) -> None:
        if g > self.width:
            self._resize(len(self.guest_n), _grown(self.width, g))

    def reset_row(self, row: int, nid: int, pid: int = -1) -> None:
        """Hand ``row`` to node ``nid`` holding ``pid`` (or nothing)."""
        self.guest_ids[row] = -1
        self.backup_ids[row] = -1
        self.sent_ids[row] = -1
        self.sent_n[row] = -1
        self.owner[row] = nid
        if pid >= 0:
            self.guest_ids[row, 0] = pid
        self.guest_n[row] = pid >= 0

    # -- reads -------------------------------------------------------------

    def holder_pairs(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(pids, rows)`` of every guest entry of ``rows``, flat: the
        inverse image ``guests⁻¹`` the homogeneity kernel scores."""
        block = self.guest_ids[rows]
        held = block >= 0
        return (
            block[held].astype(np.int64),
            np.repeat(rows, self.guest_n[rows]),
        )

    def copies(self, table) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(origin rows, slots, target rows)`` of every pushed copy
        whose origin row is still its owner's — ``ghosts``, inverted.
        A target that has left the table reads as the sentinel row."""
        n = min(table.n_rows, len(self.guest_n))
        mine = self._owned(table, n)
        o_rows, slots = np.nonzero((self.sent_n[:n] >= 0) & mine[:, None])
        return o_rows, slots, table.rows_of(self.backup_ids[o_rows, slots])

    def _owned(self, table, n: int) -> np.ndarray:
        """Bool over the first ``n`` rows: still its owner's row."""
        return table._row_of.take(self.owner[:n]) == np.arange(n)

    def _copies_on(self, table, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(origin rows, slots)`` of the copies held on ``rows``."""
        o_rows, slots, targets = self.copies(table)
        keep = table.row_flags(rows, sentinel=False)[targets]
        return o_rows[keep], slots[keep]

    def stored_points(self, table, rows: np.ndarray) -> int:
        """Guests plus ghost copies stored on ``rows`` (Fig. 7a)."""
        ghosts = self.sent_n[self._copies_on(table, rows)]
        return int(self.guest_n[rows].sum()) + int(ghosts.sum())

    def held_mask(self, table, rows: np.ndarray, n_points: int) -> np.ndarray:
        """Bool over point ids (at least ``n_points`` of them): held on
        ``rows`` as guest or ghost."""
        blocks = (self.guest_ids[rows], self.sent_ids[self._copies_on(table, rows)])
        pids = np.concatenate([block[block >= 0] for block in blocks])
        held = np.zeros(max(n_points, int(pids.max(initial=-1)) + 1), dtype=bool)
        held[pids] = True
        return held

    # -- canonical form ----------------------------------------------------

    def canonical(self, table) -> List[tuple]:
        """Per table row, what :func:`repro.runtime.checkpoint._node_state`
        reads off a ``PolystyreneState``: ``(sorted guests, sorted
        (origin, sorted copy), sorted backups, sorted (backup, sorted
        copy))`` — a pure read; rows past the allocation read empty."""
        n = min(table.n_rows, len(self.guest_n))

        def runs(block: np.ndarray) -> List[list]:
            """Each row's non-pad entries, ascending."""
            pads = (block < 0).sum(axis=1).tolist()
            return [r[k:] for r, k in zip(np.sort(block, axis=1).tolist(), pads)]

        guests = runs(self.guest_ids[:n])
        backups = runs(self.backup_ids[:n])
        sent: List[list] = [[] for _ in range(n)]
        ghosts: List[list] = [[] for _ in range(n)]
        # Each pushed copy once (it sits in a named slot): what its
        # origin row last sent and, while that row is still its owner's
        # and the target is in the table, a ghost on the target's row.
        o_rows, slots = np.nonzero(self.sent_n[:n] >= 0)
        named = self.backup_ids[o_rows, slots]
        targets = np.where(self._owned(table, n)[o_rows], table.rows_of(named), -1)
        for o, b, t, origin, copy in zip(
            o_rows.tolist(),
            named.tolist(),
            targets.tolist(),
            self.owner[o_rows].tolist(),
            runs(self.sent_ids[o_rows, slots]),
        ):
            copy = tuple(copy)
            sent[o].append((b, copy))
            if 0 <= t < n:
                ghosts[t].append((origin, copy))
        out = [
            (guests[r], sorted(ghosts[r]), backups[r], sorted(sent[r]))
            for r in range(n)
        ]
        out.extend(([], [], [], []) for _ in range(table.n_rows - n))
        return out

    # -- the PolystyreneState bridge ----------------------------------------

    def materialize(self, sim, points: Dict[PointId, DataPoint]) -> None:
        """Write ``node.poly`` for every known node (the caller has
        grown the store to the table); ghost maps list origins in
        ascending id."""
        table = sim.network.table
        states = {}
        for node in sim.network.nodes.values():
            row = node.row
            state = states[row] = node.poly = PolystyreneState(
                points[pid] for pid in self.guest_ids[row, : self.guest_n[row]].tolist()
            )
            for slot, b in enumerate(self.backup_ids[row].tolist()):
                if b < 0:
                    continue
                state.backups.add(b)
                n = int(self.sent_n[row, slot])
                if n >= 0:
                    state.backup_sent[b] = frozenset(
                        self.sent_ids[row, slot, :n].tolist()
                    )
        o_rows, slots, targets = self.copies(table)
        by_origin = np.argsort(self.owner[o_rows], kind="stable")
        for o, s, t in zip(
            o_rows[by_origin].tolist(),
            slots[by_origin].tolist(),
            targets[by_origin].tolist(),
        ):
            if t in states:
                copy = self.sent_ids[o, s, : self.sent_n[o, s]].tolist()
                states[t].ghosts[int(self.owner[o])] = {
                    pid: points[pid] for pid in copy
                }

    def adopt(self, sim, register: Callable[[DataPoint], None]) -> List[int]:
        """Read every node's ``poly`` into the arrays and drop the
        attribute (a stale read then fails loudly); every point reached
        — initial, guest or ghost — goes through ``register``.  A copy
        a known holder no longer has (it recovered it) is not adopted;
        one it has gives the copy its order.  Returns the ids of nodes
        whose guests differ from what some backup holds of them.  The
        caller has grown the store to the table."""
        nodes = sim.network.nodes
        drifted: List[int] = []
        for node in nodes.values():
            if node.initial_point is not None:
                register(node.initial_point)
            state = getattr(node, "poly", None)
            row = node.row
            self.reset_row(row, node.nid)
            if state is None:
                continue
            for point in state.guests.values():
                register(point)
            for ghost in state.ghosts.values():
                for point in ghost.values():
                    register(point)
            pids = list(state.guests)
            self.ensure_width(len(pids))
            self.guest_ids[row, : len(pids)] = pids
            self.guest_n[row] = len(pids)
            want = frozenset(pids)
            in_step = True
            for slot, b in enumerate(sorted(state.backups)[: self.replication]):
                self.backup_ids[row, slot] = b
                last = state.backup_sent.get(b)
                holder = getattr(nodes.get(b), "poly", None)
                held = holder.ghosts.get(node.nid) if holder is not None else None
                if holder is not None and held is None:
                    # The holder's ghost map is the truth for what is
                    # still replicated: event-engine recovery deletes the
                    # ghost and leaves the dead origin's ``backup_sent``.
                    last = None
                in_step &= last == want
                if last is None:
                    continue
                if held is not None and held.keys() == last:
                    copy = list(held)
                else:
                    copy = sorted(last)
                self.ensure_width(len(copy))
                self.sent_ids[row, slot, : len(copy)] = copy
                self.sent_n[row, slot] = len(copy)
            if not in_step:
                drifted.append(node.nid)
        for node in nodes.values():  # holders were read above: drop last
            node.__dict__.pop("poly", None)
        return drifted
